#!/usr/bin/env bash
# Crash-safety acceptance: kill a journaled sweep mid-flight, resume it,
# and require the merged artifacts to be byte-identical to an
# uninterrupted run; then check process isolation and the bounded-retry
# path end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build first and run the binary directly: SIGKILLing a `cargo run`
# wrapper would orphan the actual simulator process.
cargo build --release --offline
BIN=target/release/mcsim

# Set MCSIM_CI_DIR to keep the work directory (CI uploads it as a debug
# artifact when this script fails).
work="${MCSIM_CI_DIR:-$(mktemp -d)}"
mkdir -p "$work"
if [ -z "${MCSIM_CI_DIR:-}" ]; then trap 'rm -rf "$work"' EXIT; fi

echo "== reference: uninterrupted run =="
"$BIN" sweep --builtin e6-equalization --jobs 4 --quiet \
  --json "$work/ref.json" --csv "$work/ref.csv"

echo "== journaled run, SIGKILLed mid-flight =="
"$BIN" sweep --builtin e6-equalization --jobs 1 --quiet --legacy-step \
  --journal "$work/run.jsonl" &
pid=$!
# Wait until at least a couple of points are journaled, then kill -9.
for _ in $(seq 1 100); do
  [ -f "$work/run.jsonl" ] && [ "$(wc -l < "$work/run.jsonl")" -ge 3 ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# The grid is small enough that the run may have finished before the
# kill landed; chop the journal down so the resume always has real work
# left (head also discards any torn trailing line from the kill).
lines=$(wc -l < "$work/run.jsonl")
points=$((lines - 1))
echo "journal holds $points completed point(s) after the kill"
if [ "$lines" -gt 40 ]; then
  head -n 40 "$work/run.jsonl" > "$work/run.trunc" && mv "$work/run.trunc" "$work/run.jsonl"
  echo "truncated journal to 39 points to force a real resume"
fi

echo "== resume and compare =="
"$BIN" sweep --builtin e6-equalization --jobs 4 --quiet \
  --resume "$work/run.jsonl" --json "$work/resumed.json" --csv "$work/resumed.csv"
cmp "$work/ref.json" "$work/resumed.json"
cmp "$work/ref.csv" "$work/resumed.csv"
echo "OK: resumed artifacts byte-identical to the uninterrupted run"

echo "== process isolation determinism =="
"$BIN" sweep --builtin e6-equalization --jobs 4 --quiet --isolate process \
  --json "$work/proc.json"
cmp "$work/ref.json" "$work/proc.json"
echo "OK: --isolate process artifact byte-identical to thread mode"

echo "== injected protocol fault: deterministic failures, no retry =="
"$BIN" sweep --builtin e7-speculation --quiet --isolate process --retries 3 \
  --inject drop-inv:1 --json "$work/inject.json"
grep -q '"Failed"' "$work/inject.json"
if grep -q '"attempts": [^1]' "$work/inject.json"; then
  echo "ERROR: a deterministic failure consumed a retry"; exit 1
fi
echo "OK: injected faults recorded as failed cells on attempt 1"

echo "== transient worker loss: bounded retry recovers =="
MCSIM_SWEEP_TEST_ABORT=2 "$BIN" sweep --builtin e13-window --quiet \
  --isolate process --retries 3 --json "$work/retry.json"
if grep -q '"Crashed"' "$work/retry.json"; then
  echo "ERROR: retry failed to recover an aborting worker"; exit 1
fi
n=$(grep -c '"attempts": 2' "$work/retry.json")
[ "$n" -eq 6 ] || { echo "ERROR: expected 6 retried points, saw $n"; exit 1; }
echo "OK: every aborted worker recovered on attempt 2"

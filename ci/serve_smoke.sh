#!/usr/bin/env bash
# Serving acceptance: the artifact fetched over HTTP must be
# byte-identical to the batch CLI's --json artifact for the same grid —
# first for an uninterrupted served job, then for a job whose server was
# SIGKILLed mid-flight and restarted over the same state directory (the
# journal makes the re-run a resume).
#
# Set MCSIM_CI_DIR to keep the work directory (CI uploads it as a debug
# artifact when this script fails).
set -euo pipefail
cd "$(dirname "$0")/.."

# Build first and run binaries directly: SIGKILLing a `cargo run`
# wrapper would orphan the actual server process.
cargo build --release --offline
BIN=target/release/mcsim

work="${MCSIM_CI_DIR:-$(mktemp -d)}"
mkdir -p "$work"
if [ -z "${MCSIM_CI_DIR:-}" ]; then trap 'rm -rf "$work"' EXIT; fi

wait_addr() { # wait_addr FILE -> prints host:port
  for _ in $(seq 1 200); do
    [ -s "$1" ] && { cat "$1"; return 0; }
    sleep 0.05
  done
  echo "ERROR: server never wrote $1" >&2
  return 1
}

poll_done() { # poll_done ADDR ID -> waits until the job is done
  local state=""
  for _ in $(seq 1 900); do
    state=$(curl -sf "http://$1/sweeps/$2" | grep -o '"state": *"[^"]*"' | cut -d'"' -f4 || true)
    [ "$state" = done ] && return 0
    if [ "$state" = failed ]; then
      echo "ERROR: job $2 failed:" >&2
      curl -sf "http://$1/sweeps/$2" >&2 || true
      return 1
    fi
    sleep 0.2
  done
  echo "ERROR: job $2 never finished (state=$state)" >&2
  return 1
}

echo "== reference: batch CLI artifact =="
"$BIN" sweep --builtin e6-equalization --jobs 4 --quiet --json "$work/ref.json"

echo "== serve: submit builtin, poll to done, fetch results =="
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$work/addr1" \
  --state-dir "$work/state1" --workers 1 --jobs 4 --quiet &
server=$!
addr=$(wait_addr "$work/addr1")

curl -sf "http://$addr/healthz" > /dev/null
id=$(curl -sf -X POST "http://$addr/sweeps" -d '{"builtin":"e6-equalization"}' \
  | grep -o '"id": *"[^"]*"' | cut -d'"' -f4)
[ -n "$id" ] || { echo "ERROR: POST /sweeps returned no job id"; exit 1; }
echo "submitted $id"
poll_done "$addr" "$id"

curl -sf "http://$addr/sweeps/$id/results" > "$work/served.json"
cmp "$work/ref.json" "$work/served.json"
echo "OK: served artifact byte-identical to the batch CLI artifact"

# The journal endpoint serves the header plus one line per point.
curl -sf "http://$addr/sweeps/$id/journal" > "$work/journal1.jsonl"
points=$(grep -c '"Point"' "$work/journal1.jsonl")
echo "journal endpoint returned $points point lines"
[ "$points" -ge 2 ] || { echo "ERROR: journal endpoint looks empty"; exit 1; }

# Graceful drain: POST /shutdown must stop the server with exit code 0.
curl -sf -X POST "http://$addr/shutdown" > /dev/null
wait "$server"
echo "OK: POST /shutdown drained the server cleanly"

echo "== serve: SIGKILL mid-job, restart same state dir, resume =="
"$BIN" serve --addr 127.0.0.1:0 --addr-file "$work/addr2" \
  --state-dir "$work/state2" --workers 1 --jobs 1 --legacy-step --quiet &
server=$!
addr=$(wait_addr "$work/addr2")
id=$(curl -sf -X POST "http://$addr/sweeps" -d '{"builtin":"e6-equalization"}' \
  | grep -o '"id": *"[^"]*"' | cut -d'"' -f4)
journal="$work/state2/$id/journal.jsonl"
# Wait until a few points are journaled, then kill -9 the server.
for _ in $(seq 1 200); do
  [ -f "$journal" ] && [ "$(wc -l < "$journal")" -ge 3 ] && break
  kill -0 "$server" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$server" 2>/dev/null || true
wait "$server" 2>/dev/null || true
lines=$(wc -l < "$journal")
echo "journal holds $((lines - 1)) completed point(s) after the kill"

# The grid is small enough that the job may have finished before the
# kill landed; drop any published artifact and chop the journal so the
# restart always exercises a real resume (head also discards any torn
# trailing line from the kill).
rm -f "$work/state2/$id/result.json"
if [ "$lines" -gt 40 ]; then
  head -n 40 "$journal" > "$journal.trunc" && mv "$journal.trunc" "$journal"
  echo "truncated journal to 39 points to force a real resume"
fi

"$BIN" serve --addr 127.0.0.1:0 --addr-file "$work/addr3" \
  --state-dir "$work/state2" --workers 1 --jobs 4 --quiet &
server=$!
addr=$(wait_addr "$work/addr3")
poll_done "$addr" "$id"

status=$(curl -sf "http://$addr/sweeps/$id")
resumed=$(echo "$status" | grep -o '"resumed": *[0-9]*' | grep -o '[0-9]*$')
echo "restart resumed $resumed journaled point(s)"
[ "${resumed:-0}" -ge 1 ] || { echo "ERROR: restart did not resume from the journal"; exit 1; }

curl -sf "http://$addr/sweeps/$id/results" > "$work/resumed.json"
cmp "$work/ref.json" "$work/resumed.json"
echo "OK: SIGKILL + restart + resume artifact byte-identical to the batch CLI artifact"

curl -sf -X POST "http://$addr/shutdown" > /dev/null
wait "$server"
echo "OK: serve acceptance passed"

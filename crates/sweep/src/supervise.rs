//! Process-isolated point execution.
//!
//! In `--isolate process` mode the sweep's worker threads do not run
//! points themselves: each point is dispatched to a fresh child process
//! — `mcsim sweep --point <hash>` — which receives the spec as JSON on
//! stdin, executes exactly the one point whose content hash matches, and
//! writes the completed [`JournalEntry`] as a single JSON line on
//! stdout. The supervisor enforces a wall-clock deadline per point, so a
//! child that aborts, is OOM-killed, or wedges takes down only itself:
//! the supervisor records the loss and the rest of the grid keeps
//! running.
//!
//! Failure handling follows the transient/deterministic split of
//! [`mcsim_guard::FailureClass`]:
//!
//! * A child that **exits 0 with a record** reports a *simulated*
//!   outcome — `Done`, `TimedOut`, `Failed`, or `Panicked`. These are
//!   deterministic (pure functions of the point), so they are recorded
//!   immediately; retrying would reproduce them byte for byte.
//! * A child that **dies without a record** (signal, spawn error,
//!   garbled pipe) or **exceeds its deadline** is an *environmental*
//!   loss. The supervisor retries the identical point — same seed, same
//!   config, never re-derived — with deterministic exponential backoff,
//!   up to the bounded attempt budget; exhaustion records
//!   [`PointOutcome::Crashed`] / [`PointOutcome::Wedged`] with the
//!   attempt count.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

use mcsim_core::RunTelemetry;

use crate::exec::ExecOptions;
use crate::journal::JournalLine;
use crate::result::{PointOutcome, PointRecord};
use crate::spec::SweepPoint;

/// Where a point's simulation actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Isolation {
    /// In the sweep process itself, on a worker thread, with panics
    /// caught by `catch_unwind`. Fast (no spawn cost), but an abort or
    /// OOM anywhere takes the whole sweep with it.
    #[default]
    Thread,
    /// In a child `mcsim sweep --point <hash>` process per point. A
    /// point that aborts, OOMs, or wedges past its deadline is killed
    /// and recorded; every other point completes.
    Process,
}

impl FromStr for Isolation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "thread" => Ok(Isolation::Thread),
            "process" => Ok(Isolation::Process),
            other => Err(format!(
                "unknown isolation `{other}` (want thread | process)"
            )),
        }
    }
}

/// Bounded retry for transient worker failures. Deterministic: the
/// backoff schedule is a pure function of the attempt number (no
/// jitter), and a retried point always re-runs with its original seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per point, including the first (so `1`
    /// disables retrying). Only transient failures consume extra
    /// attempts; deterministic failures record on attempt 1.
    pub max_attempts: u32,
    /// Base backoff before attempt 2; doubles per further attempt.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before re-running attempt `next_attempt`
    /// (2-based): `backoff_ms << (next_attempt - 2)`.
    #[must_use]
    pub fn backoff(&self, next_attempt: u32) -> Duration {
        Duration::from_millis(self.backoff_ms << next_attempt.saturating_sub(2).min(16))
    }
}

/// Why a worker process produced no record. All variants are transient
/// (environmental) by construction — simulated failures come back *as
/// records* with exit status 0.
#[derive(Debug)]
enum WorkerLoss {
    /// The child could not be spawned or its pipes failed.
    Spawn(String),
    /// The child exited without a usable record (signal, abort, OOM
    /// kill, nonzero exit, garbled stdout).
    Crashed(String),
    /// The child exceeded the wall deadline and was killed.
    Wedged,
}

/// One sweep's process-isolation context, shared by all worker threads.
#[derive(Debug)]
pub struct Supervisor {
    spec_json: String,
    worker_exe: PathBuf,
    /// The sweep's options: deadline, retry budget, and the engine,
    /// fault, trace directory and environment every worker inherits.
    opts: ExecOptions,
}

/// How often the supervisor polls a running child against its deadline.
const POLL: Duration = Duration::from_millis(5);

impl Supervisor {
    /// Builds the context for one sweep execution.
    ///
    /// The worker executable is [`ExecOptions::worker_exe`], defaulting
    /// to the current executable — correct when the supervisor *is*
    /// `mcsim`; tests point it at the built binary explicitly.
    ///
    /// # Errors
    /// If no worker executable can be determined.
    pub fn new(spec_json: String, opts: &ExecOptions) -> Result<Self, String> {
        let worker_exe = match &opts.worker_exe {
            Some(exe) => exe.clone(),
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate worker executable: {e}"))?,
        };
        Ok(Supervisor {
            spec_json,
            worker_exe,
            opts: opts.clone(),
        })
    }

    /// Runs one point to a final record, retrying transient worker
    /// losses within the bounded budget. Always returns a record — the
    /// sweep never dies because a worker did.
    pub fn run_point(&self, point: &SweepPoint, hash: &str) -> (PointRecord, RunTelemetry) {
        let mut attempt = 1u32;
        loop {
            match self.run_attempt(hash, attempt) {
                Ok((mut record, telemetry)) => {
                    record.attempts = attempt;
                    return (record, telemetry);
                }
                Err(loss) => {
                    if attempt < self.opts.retry.max_attempts.max(1) {
                        attempt += 1;
                        std::thread::sleep(self.opts.retry.backoff(attempt));
                        continue;
                    }
                    let outcome = match loss {
                        WorkerLoss::Wedged => PointOutcome::Wedged {
                            deadline_ms: self.opts.deadline.as_millis() as u64,
                        },
                        WorkerLoss::Spawn(m) | WorkerLoss::Crashed(m) => {
                            PointOutcome::Crashed { message: m }
                        }
                    };
                    let mut record = PointRecord::new(point, outcome);
                    record.attempts = attempt;
                    return (record, RunTelemetry::default());
                }
            }
        }
    }

    /// One spawn → feed spec → await-with-deadline → parse cycle.
    fn run_attempt(
        &self,
        hash: &str,
        attempt: u32,
    ) -> Result<(PointRecord, RunTelemetry), WorkerLoss> {
        let mut cmd = Command::new(&self.worker_exe);
        cmd.arg("sweep")
            .arg("--point")
            .arg(hash)
            .arg("--attempt")
            .arg(attempt.to_string());
        if !self.opts.fast_forward {
            cmd.arg("--legacy-step");
        }
        if let Some(fault) = self.opts.inject {
            cmd.arg("--inject").arg(fault.to_string());
        }
        if let Some(dir) = &self.opts.trace_dir {
            cmd.arg("--trace").arg(dir);
        }
        for (k, v) in &self.opts.worker_env {
            cmd.env(k, v);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| WorkerLoss::Spawn(format!("spawn {}: {e}", self.worker_exe.display())))?;

        // Feed the spec and close stdin so the child sees EOF. A write
        // error just means the child already died; the wait below will
        // classify that.
        if let Some(mut stdin) = child.stdin.take() {
            use std::io::Write as _;
            let _ = stdin.write_all(self.spec_json.as_bytes());
        }

        let status = self.await_deadline(&mut child)?;
        let mut stdout = String::new();
        if let Some(mut out) = child.stdout.take() {
            let _ = out.read_to_string(&mut stdout);
        }
        if !status.success() {
            return Err(WorkerLoss::Crashed(format!(
                "worker for point {hash} died: {status}"
            )));
        }
        match serde_json::from_str::<JournalLine>(stdout.trim()) {
            Ok(JournalLine::Point(entry)) if entry.hash == hash => {
                Ok((entry.record, entry.telemetry))
            }
            _ => Err(WorkerLoss::Crashed(format!(
                "worker for point {hash} exited 0 but wrote no usable record"
            ))),
        }
    }

    /// Waits for the child within the wall deadline; kills it (and
    /// reports a wedge) when the deadline passes.
    fn await_deadline(&self, child: &mut Child) -> Result<std::process::ExitStatus, WorkerLoss> {
        let started = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {
                    if started.elapsed() >= self.opts.deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(WorkerLoss::Wedged);
                    }
                    std::thread::sleep(POLL);
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(WorkerLoss::Crashed(format!("wait failed: {e}")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_parses_both_modes() {
        assert_eq!("thread".parse::<Isolation>(), Ok(Isolation::Thread));
        assert_eq!("process".parse::<Isolation>(), Ok(Isolation::Process));
        assert!("container".parse::<Isolation>().is_err());
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let r = RetryPolicy {
            max_attempts: 4,
            backoff_ms: 10,
        };
        assert_eq!(r.backoff(2), Duration::from_millis(10));
        assert_eq!(r.backoff(3), Duration::from_millis(20));
        assert_eq!(r.backoff(4), Duration::from_millis(40));
        // Shift is capped: no overflow panic at absurd attempt counts.
        assert_eq!(r.backoff(100), Duration::from_millis(10 << 16));
    }
}

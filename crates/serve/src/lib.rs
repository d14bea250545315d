//! # mcsim-serve — the long-running HTTP sweep service
//!
//! The batch `mcsim-sweep` CLI answers one grid per process; this crate
//! puts the same executor behind `mcsim serve`, a dependency-free
//! HTTP/1.1 JSON service on [`std::net::TcpListener`] (no async
//! runtime — the sanctioned-crates policy holds). Clients POST a
//! [`mcsim_sweep::SweepSpec`] (or `{"builtin":"<name>"}`) to `/sweeps`,
//! poll `GET /sweeps/<id>` for progress (state, completed/total,
//! failure classes, rate, ETA — fed live by the executor's
//! [`mcsim_sweep::SweepObserver`] callbacks), stream the journal with
//! `GET /sweeps/<id>/journal?follow=1`, and fetch the finished artifact
//! from `GET /sweeps/<id>/results`.
//!
//! ## Determinism under serving
//!
//! The artifact served over HTTP is **byte-identical** to what the
//! batch CLI writes with `--json` for the same spec: a job's rows are a
//! pure function of the spec, and both paths render through
//! [`mcsim_sweep::SweepResult::to_json`]. CI enforces this with `cmp`.
//! Serving adds no nondeterminism — worker count, queueing order, even
//! a SIGKILL + restart (jobs journal every completed point and resume
//! on startup) leave the bytes unchanged.
//!
//! ## Lifecycle
//!
//! `queued → running → done | failed`, with `failed` reserved for
//! executor-level errors; failed *points* are failed cells inside a
//! `done` artifact. SIGTERM/SIGINT (or `POST /shutdown`) drains:
//! running jobs finish, queued jobs stay journaled on disk, admission
//! answers `503`, and the process exits; `429` bounds admission before
//! that. See `crates/serve/src/server.rs` for the endpoint table and
//! DESIGN.md for the protocol rationale.

#![warn(missing_docs)]
// `signal.rs` declares `signal(2)` against the C runtime directly (the
// dependency policy forbids the libc crate); that is the only unsafe in
// the workspace, so it stays scoped and denied-by-default elsewhere.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod http;
pub mod job;
pub mod server;
pub mod signal;
pub mod tail;

pub use job::{ExecTemplate, JobState, Registry, StatusBody, SubmitError};
pub use server::{bind, serve, Server, ServerConfig};
pub use tail::JournalTail;

const HELP: &str = "\
mcsim serve — long-running HTTP sweep service

USAGE:
    mcsim serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT   bind address (port 0 picks a free port)
                       [default: 127.0.0.1:7077]
    --state-dir DIR    durable job state: spec, journal and result per
                       job; unfinished jobs resume from their journals
                       on restart          [default: mcsim-serve-state]
    --workers N        concurrent jobs     [default: 2]
    --jobs N           worker threads per sweep (0 = one)  [default: 1]
    --max-pending N    admission bound; exceeding it answers 429
                       [default: 8]
    --legacy-step      drive points with the per-cycle loop instead of
                       the discrete-event engine (slower, bit-identical)
    --addr-file FILE   write the actual bound address to FILE (for
                       scripts binding port 0)
    --quiet            suppress startup/drain log lines

ENDPOINTS:
    POST /sweeps                    submit a SweepSpec JSON body, or
                                    {\"builtin\":\"<name>\"} -> 202 {id}
    GET  /sweeps                    all jobs
    GET  /sweeps/<id>               status: state, completed/total,
                                    failure classes, rate, ETA
    GET  /sweeps/<id>/results       final artifact (byte-identical to
                                    mcsim-sweep --json)
    GET  /sweeps/<id>/journal       journal lines so far; ?follow=1
                                    streams until the job finishes
    GET  /sweeps/<id>/trace/<hash>  Chrome-trace post-mortem of a
                                    failed point
    POST /shutdown                  drain and exit
    GET  /healthz                   liveness probe
";

/// Parses `mcsim serve` arguments and runs the service until drained.
///
/// # Errors
/// Unknown or malformed flags, bind failures, or an unusable state
/// directory — all as printable messages.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7077".to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(());
            }
            "--addr" => cfg.addr = value("--addr")?,
            "--state-dir" => cfg.state_dir = value("--state-dir")?.into(),
            "--workers" => {
                cfg.workers = parse_count("--workers", &value("--workers")?)?.max(1);
            }
            "--jobs" => cfg.exec.jobs = parse_count("--jobs", &value("--jobs")?)?,
            "--max-pending" => {
                cfg.max_pending = parse_count("--max-pending", &value("--max-pending")?)?.max(1);
            }
            "--legacy-step" => cfg.exec.fast_forward = false,
            "--addr-file" => cfg.addr_file = Some(value("--addr-file")?.into()),
            "--quiet" => cfg.quiet = true,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    serve(cfg)
}

fn parse_count(flag: &str, s: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} expects a number, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_rejects_unknown_flags_and_bad_numbers() {
        let err = run_cli(&["--frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("--frobnicate"));
        let err = run_cli(&["--workers".to_string(), "many".to_string()]).unwrap_err();
        assert!(err.contains("--workers"));
        let err = run_cli(&["--addr".to_string()]).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn cli_help_short_circuits() {
        run_cli(&["--help".to_string()]).expect("help is not an error");
    }
}

//! # mcsim-serve — the long-running HTTP sweep service
//!
//! The batch `mcsim sweep` command answers one grid per process; this
//! crate puts the same executor behind `mcsim serve`, a dependency-free
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

//! # mcsim-sweep — declarative, deterministic, parallel experiment sweeps
//!
//! Every quantitative claim of the paper is a comparison across a grid —
//! consistency models × techniques × machine parameters × workloads. This
//! crate turns such grids into data:
//!
//! * [`SweepSpec`] describes the grid declaratively and round-trips
//!   through JSON, so experiments are artifacts, not ad-hoc loops.
//! * [`run_sweep`] fans the expanded points across scoped worker threads
//!   (`--jobs N`); every point derives its configuration, programs and
//!   seed from the spec alone, so the assembled [`SweepResult`] is
//!   bit-identical whatever the worker count — parallelism buys wall
//!   time only.
//! * [`PointRecord`] rows carry exact simulated counts (cycles,
//!   prefetches, rollbacks, …); wall-clock telemetry lives separately in
//!   [`SweepTiming`]. JSON and CSV writers and per-group model ×
//!   technique tables ([`render_groups`]) sit on top.
//! * A point that exhausts its cycle budget, fails a guard check
//!   (invariant violation, protocol fault, watchdog), or panics becomes a
//!   failed cell ([`PointOutcome::TimedOut`] / [`PointOutcome::Failed`] /
//!   [`PointOutcome::Panicked`]); the rest of the grid keeps running.
//! * Sweeps are **crash-safe**: every grid point is content-addressed
//!   ([`journal::point_hash`]), completed points stream to a JSON-lines
//!   journal the moment they finish, and `--resume` replays the journal
//!   and executes only the remainder — byte-identical to an
//!   uninterrupted run. `--isolate process` runs each point in a
//!   supervised child process ([`supervise`]) with a wall deadline and
//!   bounded, deterministic retry of transient worker losses, so even an
//!   abort or OOM kill costs one cell, not the sweep.
//!
//! The named grids of EXPERIMENTS.md live in [`builtin`]; the
//! `mcsim sweep` command runs either a built-in or a spec file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod exec;
pub mod journal;
pub mod progress;
pub mod result;
pub mod spec;
pub mod supervise;
pub mod table;

pub use builtin::{builtin, BUILTIN_NAMES};
pub use exec::{
    execute_point, run_sweep, run_sweep_with, ExecOptions, JournalSink, PreparedJournal,
    SweepObserver,
};
pub use journal::{
    point_hash, read_header, spec_hash, validate_header, JournalEntry, JournalError, JournalHeader,
    JournalLine, JournalWriter,
};
pub use progress::{fast_forward_speedup, ProgressSnapshot, ProgressState};
pub use result::{PointMetrics, PointOutcome, PointRecord, SweepResult, SweepRun, SweepTiming};
pub use spec::{
    derive_seed, MachineAxes, SweepPoint, SweepSpec, Window, WorkloadSpec, MAX_POINTS, MAX_PROCS,
};
pub use supervise::{Isolation, RetryPolicy, Supervisor};
pub use table::render_groups;

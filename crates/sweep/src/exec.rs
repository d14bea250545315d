//! The sharded, crash-safe executor.
//!
//! Points are claimed from a shared atomic cursor by `jobs` scoped worker
//! threads and executed independently; each point's record lands in its
//! own pre-allocated slot, indexed by spec expansion order. Because a
//! point's computation depends only on the point itself (config, programs
//! and seed are all derived from the spec), the assembled rows are
//! bit-identical no matter how many workers ran them, how the scheduler
//! interleaved their claims, whether they ran in worker threads or in
//! isolated child processes, or whether some of them were replayed from
//! a journal — parallelism, isolation, and resume affect only wall-clock
//! time.
//!
//! Crash safety: with a journal attached ([`ExecOptions::journal`]),
//! every completed [`PointOutcome`] is appended and flushed as a JSON
//! line the moment it finishes, so the on-disk artifact is always a
//! valid partial result. [`ExecOptions::resume`] replays a journal,
//! skips its completed points, executes only the remainder, and merges —
//! the result is byte-identical to an uninterrupted run.
//!
//! Failure isolation: a point that exhausts its cycle budget, fails a
//! guard check, or panics is recorded as a failed cell
//! ([`PointOutcome::TimedOut`] / [`PointOutcome::Failed`] /
//! [`PointOutcome::Panicked`]) and the remaining points keep running.
//! Under [`Isolation::Process`], even a worker that aborts, is
//! OOM-killed, or wedges past its wall deadline is contained: the
//! supervisor records [`PointOutcome::Crashed`] / [`PointOutcome::Wedged`]
//! after its bounded transient retry and moves on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcsim_core::{Engine, Machine, RunTelemetry};
use mcsim_guard::FaultKind;

use crate::journal::{self, JournalEntry, JournalError, JournalWriter};
use crate::progress::{fast_forward_speedup, ProgressSnapshot, ProgressState};
use crate::result::{PointMetrics, PointOutcome, PointRecord, SweepResult, SweepRun, SweepTiming};
use crate::spec::{SweepPoint, SweepSpec};
use crate::supervise::{Isolation, RetryPolicy, Supervisor};

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (`0` is treated as `1`).
    pub jobs: usize,
    /// Emit periodic progress telemetry to stderr.
    pub progress: bool,
    /// Run the discrete-event engine (`true`, default) or the per-cycle
    /// `--legacy-step` reference loop (`false`). Results are
    /// bit-identical either way; off trades wall-clock for a per-cycle
    /// reference run.
    pub fast_forward: bool,
    /// When set, every point runs with event tracing enabled and any
    /// point that does not finish cleanly (timeout, guard failure)
    /// leaves a Chrome trace-event JSON post-mortem at
    /// `<dir>/point-<index>.trace.json`. Rows stay bit-identical: the
    /// trace is a side artifact, never part of the result.
    pub trace_dir: Option<PathBuf>,
    /// Stream every completed point to this JSON-lines journal the
    /// moment it finishes, making the sweep crash-safe: a killed run
    /// leaves a valid partial result on disk.
    pub journal: Option<PathBuf>,
    /// Replay the journal first: points it completes (matched by
    /// expansion index *and* content hash) are merged without
    /// re-execution, and only the remainder runs. Requires
    /// [`ExecOptions::journal`]; a missing journal file just means a
    /// fresh start.
    pub resume: bool,
    /// Where points execute: worker threads (fast) or supervised child
    /// processes (crash-proof).
    pub isolation: Isolation,
    /// Bounded retry for transient worker losses (process mode only).
    pub retry: RetryPolicy,
    /// Wall-clock budget per point attempt (process mode only); a child
    /// still running at the deadline is killed and the point recorded
    /// as [`PointOutcome::Wedged`] once retries are exhausted.
    pub deadline: Duration,
    /// Deterministic protocol fault injected into every point's guard
    /// config (mutation-testing the robustness layer itself). Changes
    /// what points compute, so it participates in the journal's spec
    /// hash.
    pub inject: Option<FaultKind>,
    /// Worker executable for process isolation, spawned as
    /// `<exe> sweep --point <hash>`. `None` = the current executable
    /// (correct when running as `mcsim`); tests point this at the built
    /// binary.
    pub worker_exe: Option<PathBuf>,
    /// Extra environment for worker processes — the hook the tests and
    /// CI use to inject *process-level* faults (aborts, hangs) into
    /// workers deterministically.
    pub worker_env: Vec<(String, String)>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: 1,
            progress: false,
            fast_forward: true,
            trace_dir: None,
            journal: None,
            resume: false,
            isolation: Isolation::Thread,
            retry: RetryPolicy::default(),
            deadline: Duration::from_secs(300),
            inject: None,
            worker_exe: None,
            worker_env: Vec::new(),
        }
    }
}

/// How often the telemetry thread re-renders, when enabled.
const PROGRESS_PERIOD: Duration = Duration::from_millis(500);

/// Where completed points stream to, injected by the caller. The
/// path-based CLI policy ([`PreparedJournal::at_path`]) wraps a
/// [`JournalWriter`]; embedding layers (the `mcsim serve` job manager,
/// tests) can substitute any sink — the executor never owns file
/// placement or lifecycle.
pub trait JournalSink: Send {
    /// Persists one completed point. Errors are reported, not fatal:
    /// the sweep keeps running even if its journal does not.
    ///
    /// # Errors
    /// A human-readable message; the executor logs it and continues.
    fn append_entry(&mut self, entry: &JournalEntry) -> Result<(), String>;
}

impl JournalSink for JournalWriter {
    fn append_entry(&mut self, entry: &JournalEntry) -> Result<(), String> {
        self.append(entry).map_err(|e| e.to_string())
    }
}

/// A journal made ready for one sweep execution: the sink that receives
/// newly completed points, plus any entries replayed from an existing
/// journal (their slots are merged without re-execution).
pub struct PreparedJournal {
    /// Destination for completed points; `None` runs unjournaled.
    pub sink: Option<Box<dyn JournalSink>>,
    /// Per expansion index: the replayed entry, if resuming recovered
    /// one. Must have exactly one slot per grid point.
    pub preloaded: Vec<Option<JournalEntry>>,
    /// Unusable lines the replay skipped (torn tail, stale points).
    pub skipped_lines: usize,
}

impl PreparedJournal {
    /// No journaling: every point executes, nothing is persisted.
    #[must_use]
    pub fn none(points: usize) -> Self {
        PreparedJournal {
            sink: None,
            preloaded: (0..points).map(|_| None).collect(),
            skipped_lines: 0,
        }
    }

    /// Journals every completed point to `sink` with no replay — a
    /// fresh, caller-owned destination.
    #[must_use]
    pub fn sink_only(sink: Box<dyn JournalSink>, points: usize) -> Self {
        PreparedJournal {
            sink: Some(sink),
            preloaded: (0..points).map(|_| None).collect(),
            skipped_lines: 0,
        }
    }

    /// The path-based policy the CLI and the serve layer share: with
    /// `resume` and an existing file, validate + replay it and reopen
    /// for appending (the header is re-validated on the reopen too);
    /// otherwise start a fresh journal with a header. A missing file
    /// under `resume` just means a fresh start.
    ///
    /// # Errors
    /// Any [`JournalError`]: unreadable file, missing/garbled header,
    /// schema version mismatch, or a journal written for a different
    /// computation.
    pub fn at_path(
        path: &std::path::Path,
        spec: &SweepSpec,
        inject: Option<&str>,
        hashes: &[String],
        resume: bool,
    ) -> Result<Self, JournalError> {
        if resume && path.exists() {
            let loaded = journal::load(path, spec, inject, hashes)?;
            let writer = JournalWriter::append_to(path, spec, inject)?;
            Ok(PreparedJournal {
                sink: Some(Box::new(writer)),
                preloaded: loaded.entries,
                skipped_lines: loaded.skipped_lines,
            })
        } else {
            let writer = JournalWriter::create(path, spec, inject)?;
            Ok(PreparedJournal::sink_only(Box::new(writer), hashes.len()))
        }
    }
}

/// Live callbacks from a running sweep, for embedding layers that need
/// progress without scraping stderr: the serve job registry feeds its
/// status endpoint from these. Called from worker threads — implementors
/// must be `Sync`; keep the callbacks short (they run on the sweep's
/// critical path).
pub trait SweepObserver: Sync {
    /// One point landed: `resumed` distinguishes journal replays (all
    /// delivered up front, before any execution) from points this run
    /// executed. The snapshot reflects the counters *after* this entry.
    fn on_entry(&self, entry: &JournalEntry, resumed: bool, snapshot: &ProgressSnapshot) {
        let _ = (entry, resumed, snapshot);
    }
}

/// Runs every point of `spec` and returns the deterministic result plus
/// wall-clock telemetry.
///
/// # Errors
/// If the spec fails [`SweepSpec::validate`], the options are
/// inconsistent (`resume` without `journal`), or the journal cannot be
/// read or written; individual point failures are recorded in the rows,
/// never returned as errors.
pub fn run_sweep(spec: &SweepSpec, opts: &ExecOptions) -> Result<SweepRun, String> {
    spec.validate()?;
    if opts.resume && opts.journal.is_none() {
        return Err("resume requires a journal path".to_string());
    }
    let journal = match &opts.journal {
        Some(path) => {
            let hashes: Vec<String> = spec.points().iter().map(journal::point_hash).collect();
            let inject_label = opts.inject.map(|f| f.to_string());
            PreparedJournal::at_path(path, spec, inject_label.as_deref(), &hashes, opts.resume)
                .map_err(|e| e.to_string())?
        }
        None => PreparedJournal::none(spec.len()),
    };
    if opts.progress && journal.skipped_lines > 0 {
        eprintln!(
            "[{}] journal: ignoring {} unusable line(s) (torn write or stale point)",
            spec.name, journal.skipped_lines
        );
    }
    run_sweep_with(spec, opts, journal, None)
}

/// The library entry point under [`run_sweep`]: executes `spec` with a
/// caller-prepared journal and optional live observer. `opts.journal` /
/// `opts.resume` are ignored here — journal policy is entirely the
/// [`PreparedJournal`]'s.
///
/// # Errors
/// If the spec fails [`SweepSpec::validate`], the prepared journal's
/// slot count does not match the grid, or process-isolation setup
/// fails; individual point failures are recorded in rows, never
/// returned as errors.
pub fn run_sweep_with(
    spec: &SweepSpec,
    opts: &ExecOptions,
    journal: PreparedJournal,
    observer: Option<&dyn SweepObserver>,
) -> Result<SweepRun, String> {
    spec.validate()?;
    let points = spec.points();
    let hashes: Vec<String> = points.iter().map(journal::point_hash).collect();
    let started = Instant::now();

    let PreparedJournal {
        sink, preloaded, ..
    } = journal;
    if preloaded.len() != points.len() {
        return Err(format!(
            "prepared journal holds {} slot(s) for a {}-point grid",
            preloaded.len(),
            points.len()
        ));
    }
    let writer: Option<Mutex<Box<dyn JournalSink>>> = sink.map(Mutex::new);

    // Process-isolation context, shared across worker threads.
    let supervisor = match opts.isolation {
        Isolation::Thread => None,
        Isolation::Process => Some(Supervisor::new(
            serde_json::to_string(spec).map_err(|e| e.to_string())?,
            opts,
        )?),
    };

    let pending: Vec<usize> = (0..points.len())
        .filter(|&i| preloaded[i].is_none())
        .collect();
    let jobs = opts.jobs.max(1).min(pending.len().max(1));

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(PointRecord, f64, RunTelemetry)>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    let progress = ProgressState::new(points.len());

    // Merge replayed entries first: their slots are final before any
    // worker starts, and they are already on disk — never re-journaled.
    let mut resumed_points = 0usize;
    for (idx, entry) in preloaded.into_iter().enumerate() {
        if let Some(entry) = entry {
            progress.record_resumed(!entry.record.outcome.is_done());
            if let Some(obs) = observer {
                obs.on_entry(&entry, true, &progress.snapshot());
            }
            *slots[idx].lock().expect("slot poisoned") = Some((entry.record, 0.0, entry.telemetry));
            resumed_points += 1;
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(claim) else {
                    break;
                };
                let point = &points[idx];
                let point_started = Instant::now();
                let (record, telemetry) = match &supervisor {
                    None => execute_point(
                        point,
                        opts.fast_forward,
                        opts.inject,
                        opts.trace_dir.as_deref(),
                    ),
                    Some(sup) => sup.run_point(point, &hashes[idx]),
                };
                let wall = point_started.elapsed().as_secs_f64();
                let entry = (writer.is_some() || observer.is_some()).then(|| JournalEntry {
                    hash: hashes[idx].clone(),
                    record: record.clone(),
                    telemetry,
                });
                if let (Some(w), Some(entry)) = (&writer, &entry) {
                    if let Err(e) = w.lock().expect("journal poisoned").append_entry(entry) {
                        eprintln!("[{}] {e}", spec.name);
                    }
                }
                progress.record(
                    record.outcome.cycles().unwrap_or(0),
                    !record.outcome.is_done(),
                    &telemetry,
                );
                if let (Some(obs), Some(entry)) = (observer, &entry) {
                    obs.on_entry(entry, false, &progress.snapshot());
                }
                *slots[idx].lock().expect("slot poisoned") = Some((record, wall, telemetry));
            });
        }
        if opts.progress {
            scope.spawn(|| {
                while !progress.done() {
                    std::thread::sleep(PROGRESS_PERIOD);
                    eprintln!("[{}] {}", spec.name, progress.snapshot());
                }
            });
        }
    });

    let mut rows = Vec::with_capacity(points.len());
    let mut point_seconds = Vec::with_capacity(points.len());
    let mut stepped_cycles = 0u64;
    let mut skipped_cycles = 0u64;
    for slot in slots {
        let (record, wall, telemetry) = slot
            .into_inner()
            .expect("slot poisoned")
            .expect("every point ran or was resumed");
        rows.push(record);
        point_seconds.push(wall);
        stepped_cycles += telemetry.stepped_cycles;
        skipped_cycles += telemetry.skipped_cycles;
    }

    let wall_seconds = started.elapsed().as_secs_f64();
    let sim_cycles: u64 = rows.iter().filter_map(|r| r.outcome.cycles()).sum();
    let timing = SweepTiming {
        jobs,
        resumed_points,
        wall_seconds,
        point_seconds,
        points_per_second: if wall_seconds > 0.0 {
            rows.len() as f64 / wall_seconds
        } else {
            0.0
        },
        sim_cycles_per_second: if wall_seconds > 0.0 {
            sim_cycles as f64 / wall_seconds
        } else {
            0.0
        },
        stepped_cycles,
        skipped_cycles,
        fast_forward_speedup: fast_forward_speedup(stepped_cycles, skipped_cycles),
    };
    Ok(SweepRun {
        result: SweepResult {
            spec: spec.clone(),
            rows,
        },
        timing,
    })
}

/// Executes one grid point in-process, converting timeouts and panics
/// into failed outcomes. The returned telemetry is wall-clock
/// bookkeeping only — the record is identical under both engines. This
/// is the single execution path shared by thread-mode workers and the
/// `mcsim sweep --point` child process.
#[must_use]
pub fn execute_point(
    point: &SweepPoint,
    fast_forward: bool,
    inject: Option<FaultKind>,
    trace_dir: Option<&std::path::Path>,
) -> (PointRecord, RunTelemetry) {
    let idx = point.index;
    let (outcome, telemetry) = catch_unwind(AssertUnwindSafe(|| {
        let mut cfg = point.machine_config();
        cfg.trace |= trace_dir.is_some();
        if inject.is_some() {
            cfg.guard.fault = inject;
        }
        let mut machine = Machine::new(cfg, point.workload.programs(point.seed));
        machine.set_engine(if fast_forward {
            Engine::Event
        } else {
            Engine::LegacyStep
        });
        point.workload.setup(&mut machine);
        let (report, telemetry) = machine.run_telemetry();
        if report.failure.is_some() || report.timed_out {
            if let Some(dir) = trace_dir {
                let path = dir.join(format!("point-{idx:04}.trace.json"));
                let json = mcsim_trace::chrome_post_mortem(&report.trace);
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {}: {e}", path.display());
                }
            }
        }
        let outcome = if let Some(error) = report.failure {
            PointOutcome::Failed { error }
        } else if report.timed_out {
            PointOutcome::TimedOut {
                cycles: report.cycles,
            }
        } else {
            PointOutcome::Done(PointMetrics::from_report(&report))
        };
        (outcome, telemetry)
    }))
    .unwrap_or_else(|payload| {
        (
            PointOutcome::Panicked {
                message: panic_message(payload.as_ref()),
            },
            RunTelemetry::default(),
        )
    });
    (PointRecord::new(point, outcome), telemetry)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use mcsim_consistency::Model;
    use mcsim_proc::Techniques;

    fn quick_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("exec-unit", "executor unit tests");
        spec.models = vec![Model::Sc, Model::Rc];
        spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        spec
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcsim-exec-{name}-{}", std::process::id()))
    }

    #[test]
    fn runs_every_point_in_order() {
        let spec = quick_spec();
        let run = run_sweep(&spec, &ExecOptions::default()).expect("valid spec");
        assert_eq!(run.result.rows.len(), 4);
        for (i, row) in run.result.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert_eq!(row.attempts, 1);
            assert!(row.outcome.is_done(), "row {i} failed: {:?}", row.outcome);
        }
        assert_eq!(run.timing.point_seconds.len(), 4);
        assert_eq!(run.timing.jobs, 1);
        assert_eq!(run.timing.resumed_points, 0);
        // The paper's headline: techniques close most of SC's gap.
        let rows: Vec<&PointRecord> = run.result.rows.iter().collect();
        let sc_base = SweepResult::cycles_of(&rows, Model::Sc, Techniques::NONE).unwrap();
        let sc_both = SweepResult::cycles_of(&rows, Model::Sc, Techniques::BOTH).unwrap();
        assert!(sc_base > sc_both);
    }

    #[test]
    fn jobs_are_clamped_to_grid_size() {
        let spec = quick_spec();
        let run = run_sweep(
            &spec,
            &ExecOptions {
                jobs: 64,
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        assert_eq!(run.timing.jobs, 4);
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let mut spec = quick_spec();
        spec.models.clear();
        let err = run_sweep(&spec, &ExecOptions::default()).unwrap_err();
        assert!(err.contains("models"));
    }

    #[test]
    fn resume_without_journal_is_an_error() {
        let spec = quick_spec();
        let err = run_sweep(
            &spec,
            &ExecOptions {
                resume: true,
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("journal"), "{err}");
    }

    #[test]
    fn journaled_run_is_replayable_without_any_execution() {
        let spec = quick_spec();
        let path = tmp("full-journal");
        let _ = std::fs::remove_file(&path);
        let full = run_sweep(
            &spec,
            &ExecOptions {
                journal: Some(path.clone()),
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        // Resume from the complete journal: nothing left to run, and the
        // merged result is identical.
        let resumed = run_sweep(
            &spec,
            &ExecOptions {
                journal: Some(path.clone()),
                resume: true,
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        assert_eq!(resumed.timing.resumed_points, 4);
        assert_eq!(resumed.result, full.result);
        assert_eq!(resumed.result.to_json(), full.result.to_json());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_sink_receives_every_executed_point() {
        use std::sync::{Arc, Mutex};
        // A caller-owned sink (no filesystem involved): the executor
        // must stream every completed entry through it, in completion
        // order, with hashes matching the grid.
        struct VecSink(Arc<Mutex<Vec<JournalEntry>>>);
        impl JournalSink for VecSink {
            fn append_entry(&mut self, entry: &JournalEntry) -> Result<(), String> {
                self.0.lock().expect("sink poisoned").push(entry.clone());
                Ok(())
            }
        }
        let spec = quick_spec();
        let collected: Arc<Mutex<Vec<JournalEntry>>> = Arc::default();
        let journal =
            PreparedJournal::sink_only(Box::new(VecSink(Arc::clone(&collected))), spec.len());
        let run =
            run_sweep_with(&spec, &ExecOptions::default(), journal, None).expect("valid spec");
        let entries = collected.lock().expect("sink poisoned");
        assert_eq!(entries.len(), run.result.rows.len());
        let hashes: Vec<String> = spec.points().iter().map(journal::point_hash).collect();
        for entry in entries.iter() {
            assert_eq!(entry.hash, hashes[entry.record.index]);
            assert_eq!(entry.record, run.result.rows[entry.record.index]);
        }
    }

    #[test]
    fn observer_sees_resumed_and_executed_entries_with_live_snapshots() {
        use std::sync::Mutex;
        struct Seen {
            entries: Mutex<Vec<(usize, bool, usize)>>, // (index, resumed, completed)
        }
        impl SweepObserver for Seen {
            fn on_entry(
                &self,
                entry: &JournalEntry,
                resumed: bool,
                snapshot: &crate::progress::ProgressSnapshot,
            ) {
                self.entries.lock().expect("observer poisoned").push((
                    entry.record.index,
                    resumed,
                    snapshot.completed,
                ));
            }
        }
        let spec = quick_spec();
        let path = tmp("observer-journal");
        let _ = std::fs::remove_file(&path);
        // Full journaled run first, then a resumed run observing it.
        run_sweep(
            &spec,
            &ExecOptions {
                journal: Some(path.clone()),
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        // Drop two entries so the resumed run executes a remainder.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, kept.join("\n") + "\n").expect("journal writable");

        let hashes: Vec<String> = spec.points().iter().map(journal::point_hash).collect();
        let journal =
            PreparedJournal::at_path(&path, &spec, None, &hashes, true).expect("journal loads");
        let seen = Seen {
            entries: Mutex::new(Vec::new()),
        };
        let run = run_sweep_with(&spec, &ExecOptions::default(), journal, Some(&seen))
            .expect("valid spec");
        let _ = std::fs::remove_file(&path);
        assert_eq!(run.timing.resumed_points, 2);
        let entries = seen.entries.lock().expect("observer poisoned");
        assert_eq!(entries.len(), 4, "every point observed exactly once");
        // Resumed entries arrive first, flagged as such.
        assert!(entries[..2].iter().all(|&(_, resumed, _)| resumed));
        assert!(entries[2..].iter().all(|&(_, resumed, _)| !resumed));
        // Snapshots are post-entry: the completed count climbs to total.
        let completed: Vec<usize> = entries.iter().map(|&(_, _, c)| c).collect();
        assert_eq!(completed, vec![1, 2, 3, 4]);
    }

    #[test]
    fn prepared_journal_slot_mismatch_is_an_error() {
        let spec = quick_spec();
        let journal = PreparedJournal::none(spec.len() + 1);
        let err = run_sweep_with(&spec, &ExecOptions::default(), journal, None).unwrap_err();
        assert!(err.contains("slot"), "{err}");
    }

    #[test]
    fn resume_with_missing_journal_starts_fresh() {
        let spec = quick_spec();
        let path = tmp("fresh-journal");
        let _ = std::fs::remove_file(&path);
        let run = run_sweep(
            &spec,
            &ExecOptions {
                journal: Some(path.clone()),
                resume: true,
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        assert_eq!(run.timing.resumed_points, 0);
        assert!(run.result.rows.iter().all(|r| r.outcome.is_done()));
        assert!(path.exists(), "fresh journal must have been written");
        let _ = std::fs::remove_file(&path);
    }
}

//! The crash-safety guarantees, tested end to end:
//!
//! 1. **Kill-and-resume determinism** — replaying a journal holding any
//!    subset of completed points and executing the remainder reassembles
//!    JSON/CSV artifacts *byte-identical* to an uninterrupted run, at any
//!    `--jobs` value and under either isolation mode.
//! 2. **Process isolation** — points run in supervised child
//!    `mcsim sweep --point <hash>` processes produce the same bytes as
//!    in-process threads; a worker that aborts or wedges costs one cell
//!    (with its attempt count recorded), never the sweep.
//! 3. **Bounded transient retry** — a worker lost to an environmental
//!    fault is re-run deterministically (same seed) within the attempt
//!    budget; exhaustion records `Crashed`/`Wedged`, and simulated
//!    failures never retry.

use std::path::PathBuf;
use std::time::Duration;

use mcsim_consistency::Model;
use mcsim_proc::Techniques;
use mcsim_sweep::{
    journal, run_sweep, ExecOptions, Isolation, PointOutcome, RetryPolicy, SweepSpec, WorkloadSpec,
};
use proptest::prelude::*;

/// The worker binary the supervisor spawns in these tests.
fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mcsim"))
}

/// A 4-point grid: small enough that every completed-subset (2^4) is
/// enumerable by the property test, wide enough to cross models and
/// techniques.
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("resume-test", "kill-and-resume comparison grid");
    spec.seed = 7;
    spec.models = vec![Model::Sc, Model::Rc];
    spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
    spec.workloads = vec![WorkloadSpec::PaperExample1];
    spec
}

/// A 2-point grid for the (slower) process-spawning tests.
fn tiny_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("isolation-test", "process-isolation grid");
    spec.seed = 7;
    spec.models = vec![Model::Sc];
    spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
    spec.workloads = vec![WorkloadSpec::PaperExample1];
    spec
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcsim-resume-{name}-{}", std::process::id()))
}

/// Simulates a kill: keeps the journal's header plus only the point
/// lines whose expansion index is in `keep_mask`, as if the process died
/// with exactly that subset completed. (Any subset is reachable in a
/// real parallel run — workers finish out of order.)
fn truncate_journal(path: &PathBuf, keep_mask: u32) {
    let text = std::fs::read_to_string(path).expect("journal readable");
    let mut kept = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            kept.push(line.to_string());
            continue;
        }
        if let Ok(journal::JournalLine::Point(entry)) = serde_json::from_str(line) {
            if keep_mask & (1 << entry.record.index) != 0 {
                kept.push(line.to_string());
            }
        }
    }
    std::fs::write(path, kept.join("\n") + "\n").expect("journal writable");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The tentpole guarantee: kill at any completed-subset boundary,
    /// resume at any parallelism, get the same bytes.
    #[test]
    fn resume_from_any_subset_is_byte_identical(keep_mask in 0u32..16, jobs in 1usize..5) {
        let spec = small_spec();
        let reference = run_sweep(&spec, &ExecOptions::default()).expect("valid spec");

        let path = tmp(&format!("prop-{keep_mask}-{jobs}"));
        let _ = std::fs::remove_file(&path);
        // Full journaled run, then cut it down to the surviving subset.
        run_sweep(
            &spec,
            &ExecOptions { journal: Some(path.clone()), ..ExecOptions::default() },
        )
        .expect("valid spec");
        truncate_journal(&path, keep_mask);

        let resumed = run_sweep(
            &spec,
            &ExecOptions {
                jobs,
                journal: Some(path.clone()),
                resume: true,
                ..ExecOptions::default()
            },
        )
        .expect("valid spec");
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(resumed.timing.resumed_points, keep_mask.count_ones() as usize);
        // Byte-identical artifacts, not just equal structures.
        prop_assert_eq!(resumed.result.to_json(), reference.result.to_json());
        prop_assert_eq!(resumed.result.to_csv(), reference.result.to_csv());
    }
}

#[test]
fn process_isolation_is_byte_identical_to_threads() {
    let spec = tiny_spec();
    let threads = run_sweep(&spec, &ExecOptions::default()).expect("valid spec");
    let processes = run_sweep(
        &spec,
        &ExecOptions {
            jobs: 2,
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    assert!(processes.result.rows.iter().all(|r| r.attempts == 1));
    assert_eq!(processes.result.to_json(), threads.result.to_json());
    assert_eq!(processes.result.to_csv(), threads.result.to_csv());
}

#[test]
fn resume_finishes_a_journal_under_process_isolation() {
    // Journal written by a thread-mode run, killed with one point done,
    // resumed under process isolation: same bytes again.
    let spec = small_spec();
    let reference = run_sweep(&spec, &ExecOptions::default()).expect("valid spec");
    let path = tmp("cross-isolation");
    let _ = std::fs::remove_file(&path);
    run_sweep(
        &spec,
        &ExecOptions {
            journal: Some(path.clone()),
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    truncate_journal(&path, 0b0101);
    let resumed = run_sweep(
        &spec,
        &ExecOptions {
            jobs: 2,
            journal: Some(path.clone()),
            resume: true,
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.timing.resumed_points, 2);
    assert_eq!(resumed.result.to_json(), reference.result.to_json());
}

#[test]
fn aborting_worker_is_retried_and_recovers() {
    // The worker aborts on attempt 1 (a transient, environmental loss)
    // and succeeds on attempt 2: every point recovers, the retry is
    // recorded, and the *rows' simulated content* matches a clean run.
    let spec = tiny_spec();
    let clean = run_sweep(&spec, &ExecOptions::default()).expect("valid spec");
    let run = run_sweep(
        &spec,
        &ExecOptions {
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_ms: 1,
            },
            worker_env: vec![("MCSIM_SWEEP_TEST_ABORT".to_string(), "2".to_string())],
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    for (row, clean_row) in run.result.rows.iter().zip(&clean.result.rows) {
        assert_eq!(row.attempts, 2, "point {} should retry once", row.index);
        assert_eq!(
            row.outcome, clean_row.outcome,
            "retry must not change content"
        );
    }
}

#[test]
fn retry_budget_exhaustion_records_crashed_not_fatal() {
    // The worker aborts on every attempt; the sweep still completes,
    // recording the loss with its attempt count.
    let spec = tiny_spec();
    let run = run_sweep(
        &spec,
        &ExecOptions {
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_ms: 1,
            },
            worker_env: vec![("MCSIM_SWEEP_TEST_ABORT".to_string(), "99".to_string())],
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    assert_eq!(run.result.rows.len(), 2);
    for row in &run.result.rows {
        assert_eq!(row.attempts, 2);
        assert!(
            matches!(row.outcome, PointOutcome::Crashed { .. }),
            "got {:?}",
            row.outcome
        );
        assert_eq!(
            row.outcome.failure_class(),
            Some(mcsim_guard::FailureClass::Transient)
        );
    }
}

#[test]
fn wedged_worker_is_killed_at_the_deadline_and_isolated() {
    // One point's worker hangs forever; the supervisor kills it at the
    // deadline (twice — the loss is transient, so it gets its retry) and
    // the other point still completes.
    let spec = tiny_spec();
    let hashes: Vec<String> = spec.points().iter().map(journal::point_hash).collect();
    let run = run_sweep(
        &spec,
        &ExecOptions {
            jobs: 2,
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            deadline: Duration::from_millis(300),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_ms: 1,
            },
            worker_env: vec![("MCSIM_SWEEP_TEST_HANG".to_string(), hashes[0].clone())],
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    assert_eq!(
        run.result.rows[0].outcome,
        PointOutcome::Wedged { deadline_ms: 300 }
    );
    assert_eq!(run.result.rows[0].attempts, 2);
    assert!(
        run.result.rows[1].outcome.is_done(),
        "healthy point must finish"
    );
    assert_eq!(run.result.rows[1].attempts, 1);
}

#[test]
fn resuming_into_a_different_spec_is_refused() {
    let spec = small_spec();
    let path = tmp("spec-drift");
    let _ = std::fs::remove_file(&path);
    run_sweep(
        &spec,
        &ExecOptions {
            journal: Some(path.clone()),
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    let mut other = spec.clone();
    other.seed = 8; // every derived point seed moves
    let err = run_sweep(
        &other,
        &ExecOptions {
            journal: Some(path.clone()),
            resume: true,
            ..ExecOptions::default()
        },
    )
    .unwrap_err();
    let _ = std::fs::remove_file(&path);
    assert!(err.contains("different computation"), "{err}");
}

#[test]
fn simulated_failures_do_not_consume_retries() {
    // A timeout is a deterministic property of the point: under process
    // isolation with retries available, it must be recorded on attempt 1.
    let mut spec = tiny_spec();
    spec.max_cycles = 10;
    let run = run_sweep(
        &spec,
        &ExecOptions {
            isolation: Isolation::Process,
            worker_exe: Some(worker_exe()),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_ms: 1,
            },
            ..ExecOptions::default()
        },
    )
    .expect("valid spec");
    for row in &run.result.rows {
        assert!(
            matches!(row.outcome, PointOutcome::TimedOut { .. }),
            "got {:?}",
            row.outcome
        );
        assert_eq!(row.attempts, 1, "deterministic failures never retry");
    }
}

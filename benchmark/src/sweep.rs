//! `sweep`: the 84-point `e6-equalization` grid through the journaled
//! sweep executor, one pass after another.
//!
//! Each pass reseeds the grid (`spec.seed = seed + pass`), journals every
//! point through a timed [`JournalSink`] wrapper, watches points land
//! through a [`SweepObserver`], and renders the artifact with
//! [`SweepResult::to_json`](mcsim_sweep::SweepResult::to_json). One op is
//! one point, timed between consecutive observer callbacks. `jobs = 1`:
//! on a 2-core host, `jobs = 2` competes with the benchmark itself and
//! spreads far more between runs.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcsim_sweep::builtin::e6_equalization;
use mcsim_sweep::{
    run_sweep, run_sweep_with, ExecOptions, JournalEntry, JournalSink, JournalWriter,
    PreparedJournal, ProgressSnapshot, SweepObserver, SweepSpec,
};

use crate::machine::{probe, MachineInput};
use crate::stats::{quantile, sum};
use crate::tracer::Tracer;
use crate::{out_dir, Layers, Plan, Setup, Tally, Workload};

/// Start and end of each journal append.
type Appends = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// Forwards to the real journal writer and times each append.
struct TimedSink {
    inner: JournalWriter,
    appends: Appends,
}

impl JournalSink for TimedSink {
    fn append_entry(&mut self, entry: &JournalEntry) -> Result<(), String> {
        let start = Instant::now();
        let r = self.inner.append_entry(entry);
        self.appends
            .lock()
            .expect("append log poisoned")
            .push((start, Instant::now()));
        r
    }
}

/// Records when each executed point landed, and its simulated cycles.
struct Landings(Mutex<Vec<(Instant, u64)>>);

impl SweepObserver for Landings {
    fn on_entry(&self, entry: &JournalEntry, _resumed: bool, _snapshot: &ProgressSnapshot) {
        let cycles = entry.record.outcome.cycles().unwrap_or(0);
        self.0
            .lock()
            .expect("landing log poisoned")
            .push((Instant::now(), cycles));
    }
}

pub fn spec(seed: u64, pass: usize) -> SweepSpec {
    let mut spec = e6_equalization();
    spec.seed = seed.wrapping_add(pass as u64);
    spec
}

struct Sweep {
    seed: u64,
    /// Pass 0's artifact from a `jobs = 2` run in setup.
    reference: String,
    journal: PathBuf,
    point_s: Vec<f64>,
    appends_us: Vec<f64>,
    result_json_ms: Vec<f64>,
    executor_s: f64,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let spec0 = spec(seed, 0);
    let generate_us = started.elapsed().as_secs_f64() * 1e6;
    let opts = ExecOptions {
        jobs: 2,
        ..ExecOptions::default()
    };
    let reference = run_sweep(&spec0, &opts)?.result.to_json();
    let mut w = Sweep {
        seed,
        reference,
        journal: out_dir().join(format!("sweep-journal-{}.jsonl", std::process::id())),
        point_s: Vec::new(),
        appends_us: Vec::new(),
        result_json_ms: Vec::new(),
        executor_s: 0.0,
    };
    let warm = w.measure(&Plan::Ops(1), &Tracer::off());
    Ok(Setup {
        workload: Box::new(w),
        generate_us,
        problems: warm.problems,
    })
}

impl Workload for Sweep {
    fn measure(&mut self, plan: &Plan, tr: &Tracer) -> Tally {
        let mut t = Tally::default();
        let started = Instant::now();
        let mut pass = 0;
        self.point_s.clear();
        self.appends_us.clear();
        self.result_json_ms.clear();
        self.executor_s = 0.0;
        // Whole passes; `Ops(n)` counts points.
        while plan.more(started, t.attempted) {
            let spec = spec(self.seed, pass);
            let op = pass as u64;
            let root = tr.begin("sweep.pass", op, None);
            let pass_start = Instant::now();
            let appends: Appends = Arc::default();
            let landings = Landings(Mutex::default());
            let run = JournalWriter::create(&self.journal, &spec, None)
                .map_err(|e| e.to_string())
                .and_then(|inner| {
                    let sink = TimedSink {
                        inner,
                        appends: Arc::clone(&appends),
                    };
                    let journal = PreparedJournal::sink_only(Box::new(sink), spec.len());
                    let exec_start = Instant::now();
                    let run =
                        run_sweep_with(&spec, &ExecOptions::default(), journal, Some(&landings));
                    self.executor_s += exec_start.elapsed().as_secs_f64();
                    run
                });
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    tr.end(root);
                    t.attempted += spec.len();
                    t.failed += spec.len();
                    t.problems.push(format!("pass {pass}: {e}"));
                    pass += 1;
                    continue;
                }
            };
            let json_start = Instant::now();
            let span = tr.begin("sweep.result_json", op, root);
            let json = run.result.to_json();
            tr.end(span);
            self.result_json_ms
                .push(json_start.elapsed().as_secs_f64() * 1e3);
            tr.end(root);

            let landings = landings.0.into_inner().expect("landing log poisoned");
            let appends = appends.lock().expect("append log poisoned").clone();
            let mut prev = pass_start;
            // With one executor thread, point i runs from the previous
            // landing until its journal append starts.
            for (&(landed, cycles), &(a0, a1)) in landings.iter().zip(&appends) {
                t.done((landed - prev).as_secs_f64() * 1e3, cycles);
                let point = tr.span_between("sweep.point", op, root, prev, a0);
                tr.span_between("sweep.journal_append", op, point, a0, a1);
                self.appends_us.push((a1 - a0).as_secs_f64() * 1e6);
                prev = landed;
            }
            self.point_s.extend(&run.timing.point_seconds);

            let span = tr.begin("bench.check", op, root);
            for row in &run.result.rows {
                t.attempted += 1;
                if !row.outcome.is_done() {
                    t.fail(format!(
                        "pass {pass} point {}: {}",
                        row.index,
                        row.outcome.tag()
                    ));
                }
            }
            if pass == 0 && json != self.reference {
                t.fail("pass 0 artifact differs from the jobs = 2 reference".to_string());
            }
            tr.end(span);
            pass += 1;
        }
        t.wall_s = started.elapsed().as_secs_f64();
        t
    }

    fn layers(&mut self, _replay: &Tally, tr: &Tracer, budget: Duration) -> (Layers, Vec<String>) {
        let point_us: Vec<f64> = self.point_s.iter().map(|s| s * 1e6).collect();
        let mut layers = vec![
            ("sweep.point_us_p50", quantile(&point_us, 0.5)),
            ("sweep.point_us_p95", quantile(&point_us, 0.95)),
            (
                "sweep.journal_append_us_p50",
                quantile(&self.appends_us, 0.5),
            ),
            (
                "sweep.journal_append_us_p99",
                quantile(&self.appends_us, 0.99),
            ),
            ("sweep.result_json_ms", quantile(&self.result_json_ms, 0.5)),
            (
                "sweep.executor_overhead_ratio",
                1.0 - sum(&self.point_s) / self.executor_s,
            ),
        ];
        let inputs: Vec<MachineInput> = spec(self.seed, 0)
            .points()
            .iter()
            .map(MachineInput::from_point)
            .collect();
        let (more, problems) = probe(&inputs, tr, budget);
        layers.extend(more);
        (layers, problems)
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_file(&self.journal);
    }
}

//! Machine-loop throughput: the discrete-event engine against the
//! per-cycle `--legacy-step` loop.
//!
//! A standalone (`harness = false`) bench binary that measures by hand —
//! median wall time over a fixed sample count for three workload
//! classes, each run under both engines — and speaks the formats CI
//! needs:
//!
//! ```text
//! step_throughput                      # human-readable table
//! step_throughput --json OUT           # write measurements as JSON
//! step_throughput --write-baseline OUT # alias of --json (intent marker)
//! step_throughput --check BASELINE     # fail on >20% min-time regression
//!                                      # or a change in jumped cycles
//! ```
//!
//! A relative `OUT` or `BASELINE` is relative to the workspace root, so
//! `cargo bench -p mcsim-bench --bench step_throughput -- --write-baseline
//! BENCH_step_throughput.json` rewrites the checked-in root file even
//! though cargo runs bench binaries from the package directory.
//!
//! The three classes bracket the design space, and the two latency-bound
//! ones are length-normalized (~50k simulated cycles each) so their
//! medians and cycle rates are comparable:
//! - `miss_dominated`: a serialized pointer chase against 400-cycle
//!   memory — one cold miss at a time, ~99 of every 100 cycles frozen;
//!   the event engine's best case.
//! - `hit_dominated`: a serial hit-compute chain — every load hits, but
//!   each iteration waits on one scheduled completion (the hit fill,
//!   then an 18-cycle ALU), so the machine is busy yet almost every
//!   cycle is frozen. The class the per-cycle loop regressed on: there
//!   is real work every few cycles, just never on *this* cycle.
//! - `mixed`: contended lock sections — spins, misses and handoffs
//!   interleaved across processors.
//! - `contended_lock`: a 16-processor ticket lock — one hot line, long
//!   cached spin phases punctuated by invalidation storms at each
//!   release; the scale-out workload class.
//!
//! Every sample also asserts the two engines' reports serialize
//! identically, so the perf job doubles as an equivalence smoke test.
//! Both engines run the same per-cycle step; the per-cycle engine just
//! never jumps, so `wall_speedup` measures jump leverage alone and is
//! reported for information. The gate on the scheduler is the exact
//! `skipped_cycles` count: deterministic, and it moves the moment the
//! engine stops jumping a cycle it used to.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mcsim_consistency::Model;
use mcsim_core::{Engine, Machine, MachineConfig, RunTelemetry};
use mcsim_isa::Program;
use mcsim_proc::Techniques;
use mcsim_workloads::contended;
use mcsim_workloads::generators::{self, CriticalSections};
use serde::{Deserialize, Serialize};

/// Wall-time samples per (class, mode) pair within one pass; the median
/// is reported, the minimum is what the regression gate compares
/// (scheduler noise only ever *adds* time, so the fastest sample is the
/// stable estimator of true cost — medians flap badly on busy/1-CPU
/// hosts).
const SAMPLES: usize = 15;

/// Full measurement passes over all classes; per-class minima are
/// merged across passes. Host slowdowns are time-correlated (a noisy
/// neighbor steals whole seconds), so spreading a class's samples over
/// interleaved passes beats taking more back-to-back samples.
const PASSES: usize = 3;

/// Maximum tolerated min-time regression against the baseline.
const REGRESSION_LIMIT: f64 = 0.20;

/// One measured workload class.
#[derive(Debug, Serialize, Deserialize)]
struct ClassResult {
    name: String,
    /// Median wall nanoseconds per run under the event engine
    /// (reported for context; the gate uses `min_ns`).
    median_ns: u64,
    /// Fastest wall nanoseconds per run under the event engine — the
    /// regression gate's currency.
    min_ns: u64,
    /// Simulated cycles one run covers (deterministic).
    sim_cycles: u64,
    /// Simulated cycles per wall second at the event-engine minimum.
    sim_cycles_per_sec: f64,
    /// Min-time ratio: per-cycle stepping over the event engine — the
    /// leverage of jumping alone (informational, not gated).
    wall_speedup: f64,
    /// Cycles the event engine jumped over (deterministic).
    skipped_cycles: u64,
}

struct Workload {
    name: &'static str,
    cfg: MachineConfig,
    programs: Vec<Program>,
    mem: Vec<(u64, u64)>,
    /// Lines preloaded shared into processor 0's cache.
    preload: Vec<u64>,
}

fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();

    // Serialized pointer chase against remote (400-cycle) memory: the
    // ratio of frozen wait to real work is highest here, so this is the
    // class the event engine must pay off on. 128 hops x ~400 cycles
    // lands near the ~50k-cycle normalization point.
    let (chase, mem) = generators::pointer_chase(128, 7);
    let mut cfg = MachineConfig::paper_with(Model::Sc, Techniques::NONE);
    cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(400);
    out.push(Workload {
        name: "miss_dominated",
        cfg,
        programs: vec![chase],
        mem: mem.into_iter().collect(),
        preload: Vec::new(),
    });

    // Serial hit-compute chain over 64 preloaded lines (a sixteenth of
    // the paper cache, so nothing evicts): every load hits, every
    // 18-cycle ALU gates the next address. Iteration length is ~hit +
    // ALU latency, so the length below also lands near ~50k cycles.
    let (chain, mem, preload) = generators::hit_compute_chain(2048, 64, 18);
    out.push(Workload {
        name: "hit_dominated",
        cfg: MachineConfig::paper_with(Model::Sc, Techniques::NONE),
        programs: vec![chain],
        mem: mem.into_iter().collect(),
        preload,
    });

    let params = CriticalSections::default();
    out.push(Workload {
        name: "mixed",
        cfg: MachineConfig::paper_with(Model::Sc, Techniques::BOTH),
        programs: generators::critical_sections(&params),
        mem: Vec::new(),
        preload: Vec::new(),
    });

    // 16 processors fighting over one ticket lock: 15 of 16 processors
    // sit in cached spin loops at any time, so the event engine's win
    // comes from jumping the spinners' idle gaps between invalidations.
    out.push(Workload {
        name: "contended_lock",
        cfg: MachineConfig::paper_with(Model::Rc, Techniques::BOTH),
        programs: contended::ticket_lock(16, 2),
        mem: Vec::new(),
        preload: Vec::new(),
    });

    out
}

fn build(w: &Workload, engine: Engine) -> Machine {
    let mut m = Machine::new(w.cfg, w.programs.clone());
    m.set_engine(engine);
    for &(a, v) in &w.mem {
        m.write_memory(a, v);
    }
    for &a in &w.preload {
        m.preload_cache(0, a, false);
    }
    m
}

/// (median, min) wall nanoseconds over [`SAMPLES`] runs, plus one run's
/// report JSON and telemetry (identical across samples — the machine is
/// deterministic).
fn measure(w: &Workload, engine: Engine) -> (u64, u64, String, RunTelemetry) {
    let mut times: Vec<u64> = Vec::with_capacity(SAMPLES);
    let mut exemplar = None;
    for _ in 0..SAMPLES {
        let m = build(w, engine);
        let started = Instant::now();
        let (report, telemetry) = m.run_telemetry();
        let ns = started.elapsed().as_nanos() as u64;
        times.push(ns);
        assert!(
            report.failure.is_none() && !report.timed_out,
            "{}: bench workload must complete cleanly",
            w.name
        );
        exemplar.get_or_insert_with(|| {
            let json = serde_json::to_string(&report).expect("report serializes");
            (json, telemetry)
        });
    }
    times.sort_unstable();
    let (json, telemetry) = exemplar.expect("at least one sample ran");
    (times[times.len() / 2], times[0], json, telemetry)
}

fn run_all() -> Vec<ClassResult> {
    let ws = workloads();
    let mut results: Vec<ClassResult> = Vec::new();
    let mut slow_mins: Vec<u64> = Vec::new();
    for pass in 0..PASSES {
        for (i, w) in ws.iter().enumerate() {
            let (fast_median, fast_min, fast_json, telemetry) = measure(w, Engine::Event);
            let (_, slow_min, slow_json, _) = measure(w, Engine::LegacyStep);
            assert_eq!(
                fast_json, slow_json,
                "{}: the two engines disagree on the report",
                w.name
            );
            if pass == 0 {
                let sim_cycles = telemetry.stepped_cycles + telemetry.skipped_cycles;
                results.push(ClassResult {
                    name: w.name.to_string(),
                    median_ns: fast_median,
                    min_ns: fast_min,
                    sim_cycles,
                    sim_cycles_per_sec: 0.0, // both filled from merged
                    wall_speedup: 0.0,       // minima below
                    skipped_cycles: telemetry.skipped_cycles,
                });
                slow_mins.push(slow_min);
            } else {
                results[i].min_ns = results[i].min_ns.min(fast_min);
                slow_mins[i] = slow_mins[i].min(slow_min);
            }
        }
    }
    for (r, &slow_min) in results.iter_mut().zip(&slow_mins) {
        r.sim_cycles_per_sec = r.sim_cycles as f64 / (r.min_ns as f64 / 1e9);
        r.wall_speedup = slow_min as f64 / r.min_ns as f64;
    }
    results
}

fn render(results: &[ClassResult]) {
    println!(
        "{:<16} {:>12} {:>12} {:>14} {:>16} {:>10}",
        "class", "median", "min", "sim cycles", "sim cycles/s", "speedup"
    );
    for r in results {
        println!(
            "{:<16} {:>10.2}us {:>10.2}us {:>14} {:>15.2}M {:>9.1}x",
            r.name,
            r.median_ns as f64 / 1e3,
            r.min_ns as f64 / 1e3,
            r.sim_cycles,
            r.sim_cycles_per_sec / 1e6,
            r.wall_speedup
        );
    }
}

/// Resolves a path flag: relative paths are relative to the workspace
/// root, absolute ones stay as they are.
fn from_workspace_root(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join(path)
}

fn check(results: &[ClassResult], baseline_path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: Vec<ClassResult> =
        serde_json::from_str(&text).map_err(|e| format!("invalid baseline: {e}"))?;
    let mut problems = Vec::new();
    for r in results {
        let Some(b) = baseline.iter().find(|b| b.name == r.name) else {
            problems.push(format!("{}: missing from baseline", r.name));
            continue;
        };
        if r.sim_cycles != b.sim_cycles {
            problems.push(format!(
                "{}: simulated cycles moved {} -> {} (the workload itself changed; \
                 regenerate the baseline deliberately)",
                r.name, b.sim_cycles, r.sim_cycles
            ));
        }
        if r.skipped_cycles != b.skipped_cycles {
            problems.push(format!(
                "{}: jumped cycles moved {} -> {} (the event scheduler changed)",
                r.name, b.skipped_cycles, r.skipped_cycles
            ));
        }
        let ratio = r.min_ns as f64 / b.min_ns as f64;
        if ratio > 1.0 + REGRESSION_LIMIT {
            problems.push(format!(
                "{}: min {}ns vs baseline {}ns (+{:.0}% > {:.0}% budget)",
                r.name,
                r.min_ns,
                b.min_ns,
                (ratio - 1.0) * 100.0,
                REGRESSION_LIMIT * 100.0
            ));
        }
    }
    if problems.is_empty() {
        println!("perf check passed against {}", baseline_path.display());
        Ok(())
    } else {
        Err(format!("perf check failed:\n  {}", problems.join("\n  ")))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Under `cargo bench` the harness is handed flags like `--bench`;
    // ignore anything we don't own.
    let mut json_out = None;
    let mut check_against = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" | "--write-baseline" => json_out = it.next().map(|p| from_workspace_root(p)),
            "--check" => check_against = it.next().map(|p| from_workspace_root(p)),
            _ => {}
        }
    }

    let results = run_all();
    render(&results);

    if let Some(path) = json_out {
        let text = serde_json::to_string_pretty(&results).expect("results serialize");
        std::fs::write(&path, text + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    if let Some(path) = check_against {
        if let Err(msg) = check(&results, &path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

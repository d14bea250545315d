//! `conformance`: random racy programs checked against the oracle.
//!
//! One op is one program: the oracle's allowed set under each of the 7
//! models, then the program simulated under each model with each of the
//! 4 technique settings on `conformance_config`'s jittered machine, each
//! outcome tested for membership in its model's set. Programs are never
//! repeated, so the mean over a run does not hang on a small pool.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mcsim_consistency::Model;
use mcsim_core::{conformance_config, Engine, RunReport};
use mcsim_isa::Program;
use mcsim_oracle::{OracleConfig, OracleResult, Outcome};
use mcsim_proc::Techniques;
use mcsim_sweep::derive_seed;
use mcsim_workloads::generators::{random_racy, RandomParams};

use crate::machine::{digest, fnv, probe, timed_run, MachineInput};
use crate::stats::{quantile, sum};
use crate::tracer::Tracer;
use crate::{out_dir, Layers, Plan, Setup, Tally, Workload};

/// Programs whose whole result (oracle sets and every run's report) is
/// recorded in setup under both engines and re-checked when measured.
const REFERENCE_PROGRAMS: usize = 25;

/// `oracle.nonconforming_cells` counts cells of this many programs from
/// the start of the stream, so it repeats exactly for a seed.
const COUNTED_PROGRAMS: usize = 500;

struct Conformance {
    seed: u64,
    /// Digest of each reference program's result.
    refs: Vec<u64>,
    /// Every cell found outside its model's allowed set, by stream index.
    nonconforming: BTreeMap<usize, Vec<String>>,
    /// Outcome count of every oracle set enumerated, for
    /// `oracle.outcomes_mean`.
    outcome_counts: Vec<usize>,
}

fn program_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, k as u64)
}

fn program(seed: u64, k: usize) -> Vec<Program> {
    random_racy(&RandomParams {
        procs: 2,
        ops: 5,
        addrs: 3,
        seed: program_seed(seed, k),
    })
}

/// The machine inputs of program `k`: one per model (in
/// `Model::ALL_EXTENDED` order) and technique setting, jittered by the
/// program seed.
fn cells(seed: u64, k: usize) -> Vec<(Techniques, MachineInput)> {
    let programs = program(seed, k);
    let ps = program_seed(seed, k);
    let mut out = Vec::new();
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            out.push((
                t,
                MachineInput {
                    label: format!("program {k} {model}/{}", t.label()),
                    cfg: conformance_config(model, t, ps),
                    programs: programs.clone(),
                    mem: Vec::new(),
                    preload: Vec::new(),
                    workload: None,
                },
            ));
        }
    }
    out
}

/// Whether a run's final state is in the allowed set: full register
/// files plus every address an allowed outcome mentions.
fn allowed(set: &BTreeSet<Outcome>, report: &RunReport) -> bool {
    let keys: BTreeSet<u64> = set.iter().flat_map(|o| o.memory.keys().copied()).collect();
    let regs: Vec<Vec<u64>> = report
        .regfiles
        .iter()
        .map(|rf| rf.iter().map(|(_, v)| v).collect())
        .collect();
    set.iter()
        .any(|o| o.regs == regs && keys.iter().all(|&k| o.mem(k) == report.mem_word(k)))
}

pub fn setup(seed: u64) -> Setup {
    let started = Instant::now();
    let inputs: Vec<_> = (0..REFERENCE_PROGRAMS).map(|k| cells(seed, k)).collect();
    let generate_us = started.elapsed().as_secs_f64() * 1e6;
    let mut problems = Vec::new();
    let mut refs = Vec::new();
    for (k, cells) in inputs.iter().enumerate() {
        let programs = &cells[0].1.programs;
        let sets: Vec<OracleResult> = Model::ALL_EXTENDED
            .iter()
            .map(|&m| {
                mcsim_oracle::outcomes(m, programs, &BTreeMap::new(), OracleConfig::default())
            })
            .collect();
        let reports = |engine| -> Vec<RunReport> {
            cells
                .iter()
                .map(|(_, i)| i.build(i.cfg, engine).run())
                .collect()
        };
        let event = result_digest(&sets, &reports(Engine::Event));
        if event != result_digest(&sets, &reports(Engine::LegacyStep)) {
            problems.push(format!("program {k}: event and per-cycle engines disagree"));
        }
        if let Err(e) = check_sets(&sets) {
            problems.push(format!("program {k}: {e}"));
        }
        refs.push(event);
    }
    let mut w = Conformance {
        seed,
        refs,
        nonconforming: BTreeMap::new(),
        outcome_counts: Vec::new(),
    };
    let warm = w.measure(&Plan::Ops(1), &Tracer::off());
    problems.extend(warm.problems);
    Setup {
        workload: Box::new(w),
        generate_us,
        problems,
    }
}

/// The oracle's sets and every cell's report, folded into one digest.
fn result_digest(sets: &[OracleResult], reports: &[RunReport]) -> u64 {
    let mut text = String::new();
    for set in sets {
        let _ = write!(text, "{:?};", set.outcomes);
    }
    for r in reports {
        let _ = write!(text, "{:x};", digest(r));
    }
    fnv(text.as_bytes())
}

/// The oracle's own invariants: every set is complete, and every model
/// allows at least what SC allows.
fn check_sets(sets: &[OracleResult]) -> Result<(), String> {
    if let Some(i) = sets.iter().position(|s| !s.complete) {
        return Err(format!(
            "oracle set under {} is incomplete",
            Model::ALL_EXTENDED[i]
        ));
    }
    let sc = &sets[0].outcomes;
    for (model, set) in Model::ALL_EXTENDED.iter().zip(sets) {
        if !sc.is_subset(&set.outcomes) {
            return Err(format!("{model} allows less than SC"));
        }
    }
    Ok(())
}

impl Workload for Conformance {
    fn measure(&mut self, plan: &Plan, tr: &Tracer) -> Tally {
        let mut t = Tally::default();
        let started = Instant::now();
        while plan.more(started, t.attempted) {
            let k = t.attempted;
            let op = k as u64;
            let cells = cells(self.seed, k);
            let programs = &cells[0].1.programs;
            let op_started = Instant::now();
            let root = tr.begin("program", op, None);
            let mut sets = Vec::with_capacity(Model::ALL_EXTENDED.len());
            let mut reports = Vec::with_capacity(cells.len());
            let mut bad_cells = Vec::new();
            for (mi, &model) in Model::ALL_EXTENDED.iter().enumerate() {
                let span = tr.begin("oracle.enumerate", op, root);
                let set = mcsim_oracle::outcomes(
                    model,
                    programs,
                    &BTreeMap::new(),
                    OracleConfig::default(),
                );
                tr.end(span);
                for (tech, input) in &cells[mi * 4..mi * 4 + 4] {
                    let (report, _) = timed_run(input, tr, op, root);
                    let span = tr.begin("oracle.membership", op, root);
                    if !allowed(&set.outcomes, &report) {
                        bad_cells.push(format!(
                            "program_seed={} model={model} techniques={} jitter_seed={} stream_index={k}",
                            program_seed(self.seed, k),
                            tech.label(),
                            program_seed(self.seed, k),
                        ));
                    }
                    tr.end(span);
                    reports.push(report);
                }
                sets.push(set);
            }
            tr.end(root);
            let op_ms = op_started.elapsed().as_secs_f64() * 1e3;
            t.attempted += 1;

            self.outcome_counts
                .extend(sets.iter().map(|s| s.outcomes.len()));
            let mut verdict = check_sets(&sets);
            if let Some(r) = reports.iter().find(|r| r.failure.is_some() || r.timed_out) {
                verdict = Err(format!("a run did not finish cleanly: {}", r.summary()));
            }
            if verdict.is_ok()
                && k < self.refs.len()
                && result_digest(&sets, &reports) != self.refs[k]
            {
                verdict = Err("result differs from the setup reference".to_string());
            }
            match verdict {
                Ok(()) => t.done(op_ms, reports.iter().map(|r| r.cycles).sum()),
                Err(e) => t.fail(format!("program {k}: {e}")),
            }
            if !bad_cells.is_empty() {
                self.nonconforming.insert(k, bad_cells);
            }
        }
        t.wall_s = started.elapsed().as_secs_f64();
        if let Err(e) = self.write_nonconforming() {
            t.problems
                .push(format!("cannot write nonconforming.txt: {e}"));
        }
        t.notes.push(format!(
            "known simulator bug: {} cell(s) outside the oracle's allowed set in the first \
             {} programs (see benchmark/README.md and out/nonconforming.txt)",
            self.counted(),
            COUNTED_PROGRAMS.min(t.attempted)
        ));
        t
    }

    fn layers(&mut self, replay: &Tally, tr: &Tracer, budget: Duration) -> (Layers, Vec<String>) {
        let enumerate_us: Vec<f64> = tr
            .durations_ns("oracle.enumerate")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        let mean_outcomes = if self.outcome_counts.is_empty() {
            0.0
        } else {
            self.outcome_counts.iter().sum::<usize>() as f64 / self.outcome_counts.len() as f64
        };
        let op_ms = sum(&replay.op_ms);
        let mut layers = vec![
            ("oracle.enumerate_us_p50", quantile(&enumerate_us, 0.5)),
            ("oracle.enumerate_us_p95", quantile(&enumerate_us, 0.95)),
            ("oracle.outcomes_mean", mean_outcomes),
            ("oracle.wall_share", sum(&enumerate_us) / 1e3 / op_ms),
            ("oracle.nonconforming_cells", self.counted() as f64),
        ];
        let inputs: Vec<MachineInput> = (0..REFERENCE_PROGRAMS)
            .flat_map(|k| cells(self.seed, k).into_iter().map(|(_, i)| i))
            .collect();
        let (more, problems) = probe(&inputs, tr, budget);
        layers.extend(more);
        (layers, problems)
    }
}

impl Conformance {
    /// Nonconforming cells among the first [`COUNTED_PROGRAMS`] programs.
    fn counted(&self) -> usize {
        self.nonconforming
            .range(..COUNTED_PROGRAMS)
            .map(|(_, v)| v.len())
            .sum()
    }

    fn write_nonconforming(&self) -> std::io::Result<()> {
        let mut text = String::new();
        for line in self.nonconforming.values().flatten() {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(out_dir().join("nonconforming.txt"), text)
    }
}

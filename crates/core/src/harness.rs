//! Experiment harness: model × technique matrices and table formatting.
//!
//! Every quantitative claim of the paper is a comparison across the
//! consistency-model / technique design space; this module runs such a
//! matrix over a workload factory and renders the rows the way
//! EXPERIMENTS.md (and the paper's prose) reports them.

use crate::machine::{Machine, MachineConfig};
use crate::report::RunReport;
use mcsim_consistency::Model;
use mcsim_guard::SimError;
use mcsim_isa::Program;
use mcsim_proc::Techniques;
use serde::{Deserialize, Serialize};

/// Deterministic per-seed configuration variation for conformance
/// sweeps: different miss latencies, reorder-buffer sizes, and coherence
/// protocols shake out different interleavings of the same program
/// without sacrificing run-to-run reproducibility. Used by the
/// conformance tests and `mcsim oracle check`.
#[must_use]
pub fn conformance_config(model: Model, techniques: Techniques, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::paper_with(model, techniques);
    cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(20 + 2 * (seed % 7));
    cfg.proc.rob_size = [4, 8, 16, 64][(seed % 4) as usize];
    if seed.is_multiple_of(3) {
        cfg.mem.protocol = mcsim_mem::Protocol::Update;
    }
    cfg
}

/// One cell of a model × technique comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixRow {
    /// Consistency model.
    pub model: Model,
    /// Technique combination.
    pub techniques: Techniques,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Full report (stats, traces).
    pub report: RunReport,
}

/// A matrix cell whose run did not complete: the workload hit the
/// configured cycle budget — or failed with a structured diagnostic —
/// under one model/technique combination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellFailure {
    /// Consistency model of the failed cell.
    pub model: Model,
    /// Technique combination of the failed cell.
    pub techniques: Techniques,
    /// Cycle count at which the run was cut off.
    pub cycles: u64,
    /// The structured failure, when the guard layer (rather than the
    /// plain cycle budget) stopped the run.
    pub error: Option<SimError>,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            Some(e) => write!(
                f,
                "workload failed under {}/{}: {e}",
                self.model, self.techniques
            ),
            None => write!(
                f,
                "workload timed out under {}/{} after {} cycles",
                self.model, self.techniques, self.cycles
            ),
        }
    }
}

impl std::error::Error for CellFailure {}

/// Runs `workload` (programs + machine setup) for every model × technique
/// combination, with `base` supplying all other configuration.
///
/// `workload` is called once per combination so each run gets fresh
/// programs; `setup` primes memory/caches on the built machine. Stops at
/// the first cell whose run times out or fails and reports it as a
/// [`CellFailure`] (carrying the guard's [`SimError`] when one produced
/// it), so callers (the sweep engine, CLIs) can record a failed cell
/// instead of aborting the whole experiment.
pub fn run_matrix(
    base: &MachineConfig,
    models: &[Model],
    techniques: &[Techniques],
    mut workload: impl FnMut() -> Vec<Program>,
    mut setup: impl FnMut(&mut Machine),
) -> Result<Vec<MatrixRow>, CellFailure> {
    let mut rows = Vec::with_capacity(models.len() * techniques.len());
    for &model in models {
        for &t in techniques {
            let mut cfg = *base;
            cfg.model = model;
            cfg.proc.techniques = t;
            let mut m = Machine::new(cfg, workload());
            setup(&mut m);
            let report = m.run();
            if report.timed_out || report.failure.is_some() {
                return Err(CellFailure {
                    model,
                    techniques: t,
                    cycles: report.cycles,
                    error: report.failure,
                });
            }
            rows.push(MatrixRow {
                model,
                techniques: t,
                cycles: report.cycles,
                report,
            });
        }
    }
    Ok(rows)
}

/// A result row a model × technique table can be built from: a
/// [`MatrixRow`] here, a sweep's point record in `mcsim-sweep`.
pub trait TableCell {
    /// Consistency model of the cell.
    fn model(&self) -> Model;
    /// Technique combination of the cell.
    fn techniques(&self) -> Techniques;
    /// Cycles, when the cell completed.
    fn cycles(&self) -> Option<u64>;
}

impl TableCell for MatrixRow {
    fn model(&self) -> Model {
        self.model
    }

    fn techniques(&self) -> Techniques {
        self.techniques
    }

    fn cycles(&self) -> Option<u64> {
        Some(self.cycles)
    }
}

impl<T: TableCell> TableCell for &T {
    fn model(&self) -> Model {
        (*self).model()
    }

    fn techniques(&self) -> Techniques {
        (*self).techniques()
    }

    fn cycles(&self) -> Option<u64> {
        (*self).cycles()
    }
}

fn cell<T: TableCell>(rows: &[T], m: Model, t: Techniques) -> Option<u64> {
    rows.iter()
        .find(|r| r.model() == m && r.techniques() == t)
        .and_then(TableCell::cycles)
}

/// Renders rows as a fixed-width table: one row per model (in
/// first-appearance order), one cycles column per technique combination
/// (`base`, `spec`, `prefetch`, `pf+spec`), plus the speedup of the full
/// proposal over the conventional implementation. Failed cells render as
/// `-`.
#[must_use]
pub fn format_table<T: TableCell>(title: &str, rows: &[T]) -> String {
    use std::fmt::Write as _;
    let mut models: Vec<Model> = Vec::new();
    for r in rows {
        if !models.contains(&r.model()) {
            models.push(r.model());
        }
    }
    let mut techs: Vec<Techniques> = rows.iter().map(TableCell::techniques).collect();
    techs.sort_by_key(|t| (t.prefetch, t.speculative_loads));
    techs.dedup();

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<6}", "model");
    for t in &techs {
        let _ = write!(out, " {:>10}", t.label());
    }
    let _ = writeln!(out, " {:>9}", "speedup");
    for m in models {
        let _ = write!(out, "{:<6}", m.name());
        for t in &techs {
            match cell(rows, m, *t) {
                Some(c) => {
                    let _ = write!(out, " {c:>10}");
                }
                None => {
                    let _ = write!(out, " {:>10}", "-");
                }
            }
        }
        match (
            cell(rows, m, Techniques::NONE),
            cell(rows, m, Techniques::BOTH),
        ) {
            (Some(b), Some(x)) if x > 0 => {
                let _ = writeln!(out, " {:>8.2}x", b as f64 / x as f64);
            }
            _ => {
                let _ = writeln!(out, " {:>9}", "-");
            }
        }
    }
    out
}

/// The largest relative spread of completed cycle counts across models
/// for one technique setting: `(max - min) / min`. The paper's
/// equalization claim is that this spread collapses once both techniques
/// are on.
#[must_use]
pub fn model_spread<T: TableCell>(rows: &[T], t: Techniques) -> f64 {
    let cycles: Vec<u64> = rows
        .iter()
        .filter(|r| r.techniques() == t)
        .filter_map(TableCell::cycles)
        .collect();
    match (cycles.iter().min(), cycles.iter().max()) {
        (Some(&min), Some(&max)) if min > 0 => (max - min) as f64 / min as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::ProgramBuilder;

    fn two_store_workload() -> Vec<Program> {
        vec![ProgramBuilder::new("w")
            .store(0x1000u64, 1u64)
            .store(0x1100u64, 2u64)
            .halt()
            .build()
            .unwrap()]
    }

    #[test]
    fn matrix_runs_all_cells() {
        let rows = run_matrix(
            &MachineConfig::paper(),
            &Model::ALL_EXTENDED,
            &Techniques::ALL,
            two_store_workload,
            |_| {},
        )
        .expect("no cell fails");
        assert_eq!(
            rows.len(),
            Model::ALL_EXTENDED.len() * Techniques::ALL.len()
        );
        // SC conventional is the slowest cell; RC+both among the fastest.
        let sc_base = rows
            .iter()
            .find(|r| r.model == Model::Sc && r.techniques == Techniques::NONE)
            .unwrap()
            .cycles;
        let rc_both = rows
            .iter()
            .find(|r| r.model == Model::Rc && r.techniques == Techniques::BOTH)
            .unwrap()
            .cycles;
        assert!(sc_base > rc_both);
    }

    #[test]
    fn equalization_spread_shrinks_with_both_techniques() {
        let rows = run_matrix(
            &MachineConfig::paper(),
            &Model::ALL_EXTENDED,
            &[Techniques::NONE, Techniques::BOTH],
            two_store_workload,
            |_| {},
        )
        .expect("no cell fails");
        let before = model_spread(&rows, Techniques::NONE);
        let after = model_spread(&rows, Techniques::BOTH);
        assert!(
            after < before,
            "techniques must narrow the model gap: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn run_matrix_reports_timeout_as_failed_cell() {
        let mut cfg = MachineConfig::paper();
        cfg.max_cycles = 3; // far below any real run
        let err = run_matrix(
            &cfg,
            &[Model::Sc],
            &[Techniques::NONE],
            two_store_workload,
            |_| {},
        )
        .expect_err("a 3-cycle budget must time out");
        assert_eq!(err.model, Model::Sc);
        assert_eq!(err.techniques, Techniques::NONE);
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn table_renders() {
        let rows = run_matrix(
            &MachineConfig::paper(),
            &[Model::Sc, Model::Rc],
            &[Techniques::NONE, Techniques::BOTH],
            two_store_workload,
            |_| {},
        )
        .expect("no cell fails");
        let t = format_table("demo", &rows);
        assert!(t.contains("SC"));
        assert!(t.contains("RC"));
        assert!(t.contains("speedup"));
    }
}

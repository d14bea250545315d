//! Model × technique tables over sweep results.
//!
//! The renderer and the equalization spread live once, generic over
//! [`TableCell`], in `mcsim_core::harness`; this module makes sweep
//! [`PointRecord`]s table rows (a failed cell renders as `-`) and titles
//! one table per machine-parameter group.

use std::fmt::Write as _;

use mcsim_consistency::Model;
use mcsim_core::{format_table, TableCell};
use mcsim_proc::Techniques;

use crate::result::{PointRecord, SweepResult};

impl TableCell for PointRecord {
    fn model(&self) -> Model {
        self.model
    }

    fn techniques(&self) -> Techniques {
        self.techniques
    }

    fn cycles(&self) -> Option<u64> {
        self.outcome.cycles()
    }
}

/// Renders every machine-parameter group of a sweep as a titled
/// fixed-width table, in expansion order.
#[must_use]
pub fn render_groups(result: &SweepResult) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for row in &result.rows {
        let key = row.group_key();
        let title = format!(
            "{} | {:?} protocol | dir {} | miss {} | window {}",
            key.0, key.1, key.2, key.3, key.4
        );
        if seen.contains(&title) {
            continue;
        }
        let group: Vec<&PointRecord> = result
            .rows
            .iter()
            .filter(|r| r.group_key() == key)
            .collect();
        seen.push(title.clone());
        let _ = writeln!(out, "{}", format_table(&title, &group));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::PointOutcome;
    use crate::spec::{SweepSpec, WorkloadSpec};
    use mcsim_core::model_spread;

    fn rows_with_failure() -> Vec<PointRecord> {
        let mut spec = SweepSpec::new("t", "table unit tests");
        spec.models = vec![Model::Sc, Model::Rc];
        spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        let points = spec.points();
        points
            .iter()
            .map(|p| {
                let outcome = if p.model == Model::Rc && p.techniques == Techniques::BOTH {
                    PointOutcome::TimedOut { cycles: 99 }
                } else {
                    PointOutcome::Done(crate::result::PointMetrics {
                        cycles: 100 + p.index as u64,
                        committed: 1,
                        loads: 0,
                        stores: 0,
                        speculative_loads: 0,
                        rollbacks: 0,
                        reissues: 0,
                        squashed_by_spec: 0,
                        prefetches_issued: 0,
                        prefetches_useful: 0,
                        demand_merges: 0,
                        demand_misses: 0,
                        dir_queue_cycles: 0,
                        invalidations_sent: 0,
                        spurious_invalidations: 0,
                        broadcasts: 0,
                        pointer_overflows: 0,
                        busy_cycles: 1,
                        read_stall_cycles: 0,
                        write_stall_cycles: 99 + p.index as u64,
                        acquire_stall_cycles: 0,
                        rollback_stall_cycles: 0,
                        fetch_stall_cycles: 0,
                    })
                };
                PointRecord::new(p, outcome)
            })
            .collect()
    }

    #[test]
    fn failed_cells_render_as_dash() {
        let rows = rows_with_failure();
        let table = format_table("demo", &rows);
        assert!(table.contains("SC"), "{table}");
        let rc_line = table.lines().find(|l| l.starts_with("RC")).unwrap();
        assert!(rc_line.contains('-'), "{rc_line}");
    }

    #[test]
    fn spread_ignores_failed_cells() {
        let rows = rows_with_failure();
        // Under BOTH only SC completed, so the spread collapses to zero.
        assert!(model_spread(&rows, Techniques::BOTH).abs() < 1e-12);
        assert!(model_spread(&rows, Techniques::NONE) > 0.0);
    }

    #[test]
    fn render_groups_emits_one_table_per_group() {
        let mut spec = SweepSpec::new("g", "grouping");
        spec.models = vec![Model::Sc];
        spec.techniques = vec![Techniques::NONE];
        spec.machine.miss_latency = vec![20, 100];
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        let rows: Vec<PointRecord> = spec
            .points()
            .iter()
            .map(|p| PointRecord::new(p, PointOutcome::TimedOut { cycles: 1 }))
            .collect();
        let text = render_groups(&SweepResult { spec, rows });
        assert_eq!(text.matches("miss 20").count(), 1, "{text}");
        assert_eq!(text.matches("miss 100").count(), 1, "{text}");
    }
}

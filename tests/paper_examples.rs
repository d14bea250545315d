//! The paper's §3.3 / §4.1 cycle counts, reproduced exactly.
//!
//! Figure 2's two code segments are walked through by the paper with
//! precise cycle totals under the calibration "cache hit latency of 1
//! cycle and cache miss latency of 100 cycles" and a memory system that
//! accepts one access per cycle. This test pins every number:
//!
//! | workload  | SC base | RC base | SC+pf | RC+pf | SC+spec | RC+spec |
//! |-----------|---------|---------|-------|-------|---------|---------|
//! | Example 1 | 301     | 202     | 103   | 103   | —       | —       |
//! | Example 2 | 302     | 203     | 203   | 202   | 104     | 104     |
//!
//! (The §4.1 speculative numbers combine speculative loads with prefetch
//! for stores, as §4.3 prescribes.)

mod common;

use common::{report_example1, report_example2};
use mcsim::prelude::*;
use mcsim::sim::MachineConfig as Cfg;
use mcsim::workloads::paper;
use mcsim_consistency::Model;

fn run_example1(model: Model, t: Techniques) -> u64 {
    report_example1(model, t).cycles
}

fn run_example2(model: Model, t: Techniques) -> u64 {
    report_example2(model, t).cycles
}

#[test]
fn example1_sc_conventional_takes_301_cycles() {
    assert_eq!(run_example1(Model::Sc, Techniques::NONE), 301);
}

#[test]
fn example1_rc_conventional_takes_202_cycles() {
    assert_eq!(run_example1(Model::Rc, Techniques::NONE), 202);
}

#[test]
fn example1_prefetch_takes_103_cycles_under_both_models() {
    assert_eq!(run_example1(Model::Sc, Techniques::PREFETCH), 103);
    assert_eq!(run_example1(Model::Rc, Techniques::PREFETCH), 103);
}

#[test]
fn example2_sc_conventional_takes_302_cycles() {
    assert_eq!(run_example2(Model::Sc, Techniques::NONE), 302);
}

#[test]
fn example2_rc_conventional_takes_203_cycles() {
    assert_eq!(run_example2(Model::Rc, Techniques::NONE), 203);
}

#[test]
fn example2_prefetch_only_leaves_dependent_load_exposed() {
    // §3.3: prefetching cannot consume the hit value of D out of order,
    // so SC only reaches 203 and RC 202.
    assert_eq!(run_example2(Model::Sc, Techniques::PREFETCH), 203);
    assert_eq!(run_example2(Model::Rc, Techniques::PREFETCH), 202);
}

#[test]
fn example2_speculation_takes_104_cycles_under_both_models() {
    // §4.1: "both SC and RC complete the accesses in 104 cycles."
    assert_eq!(run_example2(Model::Sc, Techniques::BOTH), 104);
    assert_eq!(run_example2(Model::Rc, Techniques::BOTH), 104);
}

#[test]
fn example1_techniques_equalize_sc_and_rc() {
    // The headline claim: with the techniques on, the model choice stops
    // mattering.
    let sc = run_example1(Model::Sc, Techniques::BOTH);
    let rc = run_example1(Model::Rc, Techniques::BOTH);
    assert_eq!(sc, rc);
    assert!(sc <= 103);
}

#[test]
fn intermediate_models_fall_between_sc_and_rc() {
    // PC and WC (Figure 1's middle of the spectrum) must land between
    // the extremes on the producer example, and equalize with the
    // techniques on.
    let sc = run_example1(Model::Sc, Techniques::NONE);
    let pc = run_example1(Model::Pc, Techniques::NONE);
    let wc = run_example1(Model::Wc, Techniques::NONE);
    let rc = run_example1(Model::Rc, Techniques::NONE);
    assert!(rc <= wc && wc <= sc, "rc={rc} wc={wc} sc={sc}");
    assert!(rc <= pc && pc <= sc, "rc={rc} pc={pc} sc={sc}");
    for model in [Model::Pc, Model::Wc] {
        assert_eq!(run_example1(model, Techniques::PREFETCH), 103, "{model}");
    }
}

#[test]
fn breakdown_components_sum_to_pinned_totals_in_every_cell() {
    // The cycle-accounting identity over the whole Figure 2 matrix: each
    // cell's per-cause breakdown must sum exactly to its (pinned) cycle
    // total — nothing double-counted, no cycle unattributed.
    for model in Model::ALL {
        for t in Techniques::ALL {
            for (name, report) in [
                ("example1", report_example1(model, t)),
                ("example2", report_example2(model, t)),
            ] {
                let b = &report.total.breakdown;
                assert_eq!(b.total(), report.cycles, "{name} {model}/{t}: {b:?}");
            }
        }
    }
}

#[test]
fn example1_sc_base_decomposes_into_write_and_acquire_stalls() {
    // §3.3 walk-through: conventional SC serializes three 100-cycle
    // misses — the stores to A and B stall retirement as write stalls
    // (~2 × 99 cycles behind the 1-cycle issues), and the lock release
    // RMW's acquire phase accounts for the third.
    let b = report_example1(Model::Sc, Techniques::NONE).total.breakdown;
    assert_eq!(b.busy, 3, "{b:?}");
    assert_eq!(b.write_stall, 198, "{b:?}");
    assert_eq!(b.acquire_stall, 100, "{b:?}");
    assert_eq!(b.total(), 301, "{b:?}");
}

#[test]
fn example1_rc_base_overlaps_one_write_miss() {
    // RC retires past pending stores, so only one write-miss latency is
    // exposed; the lock RMW's 100 cycles remain.
    let b = report_example1(Model::Rc, Techniques::NONE).total.breakdown;
    assert_eq!(b.write_stall, 101, "{b:?}");
    assert_eq!(b.acquire_stall, 100, "{b:?}");
    assert_eq!(b.total(), 202, "{b:?}");
}

#[test]
fn example1_prefetch_eliminates_the_write_stalls() {
    // With exclusive prefetch the store misses overlap the lock RMW;
    // only the acquire latency survives in the 103-cycle run.
    for model in [Model::Sc, Model::Rc] {
        let b = report_example1(model, Techniques::PREFETCH).total.breakdown;
        assert_eq!(b.acquire_stall, 100, "{model}: {b:?}");
        assert!(b.write_stall <= 2, "{model}: {b:?}");
        assert_eq!(b.total(), 103, "{model}: {b:?}");
    }
}

#[test]
fn example2_speculation_converts_read_stalls_to_busy_overlap() {
    // §4.1: speculative loads hide the dependent-load chain; the read
    // stall component collapses from ~198 cycles (SC base) to ~1.
    let base = report_example2(Model::Sc, Techniques::NONE).total.breakdown;
    let spec = report_example2(Model::Sc, Techniques::BOTH).total.breakdown;
    assert_eq!(base.read_stall, 198, "{base:?}");
    assert_eq!(base.total(), 302, "{base:?}");
    assert!(spec.read_stall <= 1, "{spec:?}");
    assert_eq!(spec.total(), 104, "{spec:?}");
}

#[test]
fn final_memory_state_is_identical_across_all_configurations() {
    for model in Model::ALL {
        for t in Techniques::ALL {
            let cfg = Cfg::paper_with(model, t);
            let report = Machine::new(cfg, vec![paper::example1()]).run();
            assert_eq!(report.mem_word(paper::A), 1, "{model}/{t}");
            assert_eq!(report.mem_word(paper::B), 2, "{model}/{t}");
            assert_eq!(report.mem_word(paper::LOCK), 0, "{model}/{t}");
        }
    }
}

//! Figure 5 of the paper: the illustrative execution of
//!
//! ```text
//! read A (miss)  write B (miss)  write C (miss)  read D (hit)  read E[D] (miss)
//! ```
//!
//! under SC with speculative loads + prefetch for stores, where an
//! invalidation for `D` arrives after its speculated value has been
//! consumed. The paper walks nine events; this suite asserts both the
//! machine-visible essence of that walk (event-sequence assertions) and
//! the *exact rendered picture*: the Figure-5 buffer timeline and the
//! Figure-2 traces are compared byte-for-byte against golden files in
//! `tests/golden/`. Regenerate them after an intentional change with
//!
//! ```sh
//! BLESS=1 cargo test --test figure5_trace
//! ```

mod common;

use common::assert_golden;
use mcsim::prelude::*;
use mcsim::sim::MachineConfig as Cfg;
use mcsim::trace::{csv, fig5, IssueOutcome, TraceFilter, TraceKind};
use mcsim::workloads::paper;
use mcsim_consistency::Model;
use mcsim_isa::reg::{R1, R3, R4};

const NEW_D: u64 = 5;

fn run_figure5(delay: u32) -> mcsim::sim::RunReport {
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
    cfg.trace = true;
    let mut m = Machine::new(
        cfg,
        vec![
            paper::figure5_main(),
            paper::figure5_antagonist(delay, NEW_D),
        ],
    );
    paper::setup_figure5(&mut m, NEW_D);
    let report = m.run();
    assert!(!report.timed_out);
    report
}

#[test]
fn figure5_timeline_matches_golden() {
    let report = run_figure5(50);
    // Processor 0 is the figure's subject; the antagonist's lone store
    // would only add noise to the picture.
    let filter = TraceFilter {
        proc: Some(0),
        ..TraceFilter::default()
    };
    assert_golden("figure5.txt", &fig5::render(&report.trace, &filter));
}

/// Both Figure 2 segments, traced across every model × technique cell,
/// pinned as CSV golden files. Any change to event emission order,
/// timing, or the taxonomy itself shows up as a diff here.
#[test]
fn figure2_traces_match_golden() {
    for (name, golden) in [
        ("example1", "figure2_example1.csv"),
        ("example2", "figure2_example2.csv"),
    ] {
        let mut out = String::new();
        for model in Model::ALL {
            for t in Techniques::ALL {
                let mut cfg = Cfg::paper_with(model, t);
                cfg.trace = true;
                let m = match name {
                    "example1" => Machine::new(cfg, vec![paper::example1()]),
                    _ => {
                        let mut m = Machine::new(cfg, vec![paper::example2()]);
                        paper::setup_example2(&mut m);
                        m
                    }
                };
                let report = m.run();
                assert!(!report.timed_out, "{name} {model}/{t}");
                out.push_str(&format!("== {} / {} ==\n", model.name(), t.label()));
                out.push_str(&csv::render(&report.trace, &TraceFilter::default()));
            }
        }
        assert_golden(golden, &out);
    }
}

#[test]
fn figure5_event_sequence() {
    let report = run_figure5(50);
    let trace: Vec<_> = report.trace.iter().filter(|e| e.proc == 0).collect();

    // -- Event 1: reads issued speculatively, writes prefetched. --
    let load_a = trace
        .iter()
        .find(|e| matches!(&e.kind, TraceKind::LoadIssue { addr, .. } if addr.0 == paper::A))
        .expect("read A issued");
    assert!(matches!(
        load_a.kind,
        TraceKind::LoadIssue {
            outcome: IssueOutcome::Miss,
            speculative: true,
            ..
        }
    ));
    let pf_b = trace
        .iter()
        .find(|e| matches!(&e.kind, TraceKind::PrefetchIssue { addr, exclusive: true } if addr.0 == paper::B))
        .expect("write B prefetched read-exclusive");
    let pf_c = trace
        .iter()
        .find(|e| matches!(&e.kind, TraceKind::PrefetchIssue { addr, exclusive: true } if addr.0 == paper::C))
        .expect("write C prefetched read-exclusive");
    let load_d_first = trace
        .iter()
        .find(|e| matches!(&e.kind, TraceKind::LoadIssue { addr, .. } if addr.0 == paper::D))
        .expect("read D issued");
    assert!(
        matches!(
            load_d_first.kind,
            TraceKind::LoadIssue {
                outcome: IssueOutcome::Hit,
                speculative: true,
                ..
            }
        ),
        "read D initially hits in the cache"
    );
    // The speculative E[D] uses the OLD value of D.
    let old_e = paper::E_BASE + paper::D_VALUE * 8;
    trace
        .iter()
        .find(|e| matches!(&e.kind, TraceKind::LoadIssue { addr, speculative: true, .. } if addr.0 == old_e))
        .expect("read E[D] issued speculatively with the speculated index");

    // Stores must not issue before their prefetches went out.
    let first_store = trace
        .iter()
        .find(|e| matches!(e.kind, TraceKind::StoreIssue { .. }))
        .expect("stores eventually issue");
    assert!(
        pf_b.cycle < first_store.cycle,
        "prefetch B precedes store issue"
    );
    assert!(
        pf_c.cycle < first_store.cycle,
        "prefetch C precedes store issue"
    );

    // -- Events 5-6: the invalidation rolls back D and E[D]. --
    let rollback = trace
        .iter()
        .find(|e| matches!(e.kind, TraceKind::Rollback { .. }))
        .expect("invalidation for D triggers a rollback");
    let TraceKind::Rollback { squashed, .. } = rollback.kind else {
        unreachable!()
    };
    // read D, read E[D], and everything fetched after them (here: the
    // halt) are discarded; the paper's figure shows the same two loads
    // leaving the reorder buffer.
    assert!(squashed >= 2, "at least read D and read E[D] are discarded");
    assert!(rollback.cycle > load_d_first.cycle);

    // The invalidation that caused it is in the memory-side trace, at or
    // before the rollback.
    let inv = report
        .trace
        .iter()
        .find(|e| {
            e.proc == 0
                && matches!(&e.kind, TraceKind::Invalidation { line } if line.0 == paper::D >> 6)
        })
        .expect("the antagonist's store invalidates D at processor 0");
    assert!(inv.cycle <= rollback.cycle);

    // -- Event 6-7: D reissued, now a miss; E[D] re-executed with the
    //    new value. --
    let load_d_again = trace
        .iter()
        .find(|e| {
            e.cycle > rollback.cycle
                && matches!(&e.kind, TraceKind::LoadIssue { addr, .. } if addr.0 == paper::D)
        })
        .expect("read D reissued after the rollback");
    assert!(
        matches!(
            load_d_again.kind,
            TraceKind::LoadIssue {
                outcome: IssueOutcome::Miss,
                ..
            }
        ),
        "the reissued read D misses (its line was invalidated)"
    );
    let new_e = paper::E_BASE + NEW_D * 8;
    trace
        .iter()
        .find(|e| {
            e.cycle > rollback.cycle
                && matches!(&e.kind, TraceKind::LoadIssue { addr, .. } if addr.0 == new_e)
        })
        .expect("read E[D] re-executed with the new index");

    // -- Events 2/4/8: both stores complete via prefetched ownership
    //    (hit or merge, never a fresh miss). --
    for (name, addr) in [("B", paper::B), ("C", paper::C)] {
        let st = trace
            .iter()
            .find(|e| matches!(&e.kind, TraceKind::StoreIssue { addr: a, .. } if a.0 == addr))
            .unwrap_or_else(|| panic!("store {name} issued"));
        assert!(
            matches!(
                st.kind,
                TraceKind::StoreIssue {
                    outcome: IssueOutcome::Hit | IssueOutcome::Merged,
                    ..
                }
            ),
            "store {name} must use the prefetched line, got {:?}",
            st.kind
        );
    }

    // -- Event 9: final state. --
    assert_eq!(report.reg(0, R1), 0xA0, "read A's value");
    assert_eq!(report.reg(0, R3), NEW_D, "read D observes the new value");
    assert_eq!(report.reg(0, R4), 0xE2, "read E[D] observes E[new D]");
    assert_eq!(report.mem_word(paper::B), 1);
    assert_eq!(report.mem_word(paper::C), 2);
    assert_eq!(report.total.rollbacks, 1);
}

#[test]
fn figure5_without_antagonist_never_rolls_back() {
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
    cfg.trace = true;
    let mut m = Machine::new(cfg, vec![paper::figure5_main()]);
    m.write_memory(paper::D, paper::D_VALUE);
    m.write_memory(paper::E_AT_D, 0xE1);
    m.write_memory(paper::A, 0xA0);
    m.preload_cache(0, paper::D, false);
    let report = m.run();
    assert!(!report.timed_out);
    assert_eq!(report.total.rollbacks, 0);
    assert_eq!(report.reg(0, R3), paper::D_VALUE);
    assert_eq!(report.reg(0, R4), 0xE1);
}

#[test]
fn figure5_rollback_rate_insensitive_to_injection_time() {
    // Anywhere in the window between D's speculative consumption and its
    // retirement, the invalidation must trigger exactly one rollback and
    // still produce the correct final state.
    for delay in [10u32, 30, 60, 90] {
        let report = run_figure5(delay);
        assert_eq!(report.total.rollbacks, 1, "delay={delay}");
        assert_eq!(report.reg(0, R3), NEW_D, "delay={delay}");
        assert_eq!(report.reg(0, R4), 0xE2, "delay={delay}");
    }
}

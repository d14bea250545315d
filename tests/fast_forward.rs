//! The discrete-event engine must be invisible in every report.
//!
//! The default machine loop is event-driven (DESIGN.md §event-queue):
//! every latency source schedules its wake-up cycle into an event queue,
//! and the loop jumps from stepped cycle to stepped cycle, replaying all
//! per-cycle accounting — stall breakdowns, latency histograms,
//! invariant cadence, watchdog edges — across each jump. `--legacy-step`
//! takes the same step at every cycle and never jumps, so it is the
//! differential oracle for the jump and its replay: a [`RunReport`] must
//! be **bit-identical** under either engine. A defect in the shared step
//! yields the same report under both, so equality alone cannot see it;
//! `run_both` therefore also requires that neither report carries an
//! invariant violation, and `ExecQueueComplete` stands in for the deleted
//! reorder-buffer scan. These tests pin that equivalence:
//!
//! 1. serialized-report equality (plus an explicit [`CycleBreakdown`]
//!    comparison) across random workloads × the full extended model ×
//!    technique matrix (property-quantified over `Model::ALL_EXTENDED`);
//! 2. the Figure 2 cycle pins under the legacy engine (the default
//!    event-engine path is pinned by `paper_examples.rs`) and the
//!    Figure 5 trace under both;
//! 3. watchdog edges that fall *inside* a jumped span still fire — the
//!    deadlock-classification regression for the old
//!    `cycle % window == 0` sampler, which never sees an edge cycle the
//!    loop does not step;
//! 4. telemetry consistency: stepped + skipped cycles equals the
//!    reported cycle count, and a miss-dominated workload actually
//!    jumps;
//! 5. a stale wake-up (an already-elapsed cycle published by a buggy
//!    component) is clamped, never spun on, and never changes a report;
//! 6. an execute-queue entry dropped at fetch is reported as an
//!    `ExecQueueComplete` violation at the exact cycle.

use mcsim::prelude::*;
use mcsim::sim::MachineConfig as Cfg;
use mcsim::sim::{Engine, FaultKind, InvariantKind, RunTelemetry, SimError, StallClass};
use mcsim::workloads::generators::{self, RandomParams};
use mcsim::workloads::paper;
use mcsim_consistency::Model;
use proptest::prelude::*;

/// Runs the same configuration under the event engine and the
/// `--legacy-step` per-cycle oracle and returns the event-engine
/// (report, telemetry) pair, after asserting that neither report carries
/// an invariant violation, that the reports serialize byte-identically,
/// and that the telemetry covers the same span of time. Callers expect
/// only clean runs, timeouts, or the watchdog's `NoProgress`.
///
/// Tracing is forced on, so the byte comparison also proves the event
/// traces are identical across engines — a component that records an
/// event also reports progress, so an emitting cycle is always stepped
/// and jumped spans emit nothing by construction.
fn run_both(mut cfg: Cfg, programs: Vec<Program>) -> (RunReport, RunTelemetry) {
    cfg.trace = true;
    let (fast, fast_t) = Machine::new(cfg, programs.clone()).run_telemetry();
    let mut slow_machine = Machine::new(cfg, programs);
    slow_machine.set_engine(Engine::LegacyStep);
    let (slow, slow_t) = slow_machine.run_telemetry();
    for (engine, report) in [("event", &fast), ("legacy-step", &slow)] {
        let violated = report
            .failure
            .as_ref()
            .and_then(SimError::violated_invariant);
        assert_eq!(violated, None, "{engine} engine: {:?}", report.failure);
    }
    let fast_json = serde_json::to_string(&fast).expect("serializes");
    let slow_json = serde_json::to_string(&slow).expect("serializes");
    assert_eq!(fast_json, slow_json, "reports must be bit-identical");
    // The serialized comparison covers these, but pin the paper's
    // Section 5 currency — the per-core stall breakdown — explicitly so
    // a divergence fails with a readable diff instead of a JSON blob.
    for (f, s) in fast.per_proc.iter().zip(&slow.per_proc) {
        assert_eq!(f.breakdown, s.breakdown, "per-core CycleBreakdown");
    }
    assert!(
        !fast.trace.is_empty(),
        "tracing was on; the trace \
            comparison above must not be vacuous"
    );
    assert_eq!(slow_t.skipped_cycles, 0, "disabled means no skipping");
    assert_eq!(
        fast_t.stepped_cycles + fast_t.skipped_cycles,
        slow_t.stepped_cycles,
        "both modes must cover exactly the same simulated span"
    );
    (fast, fast_t)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn racy_reports_match_across_the_matrix(seed in 0u64..10_000) {
        // The full differential oracle: every implemented model (the
        // paper's four plus TSO, PSO and RCsc) × every technique
        // combination, event engine against per-cycle stepping.
        let params = RandomParams { procs: 2, ops: 4, addrs: 3, seed };
        let programs = generators::random_racy(&params);
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                run_both(Cfg::paper_with(model, t), programs.clone());
            }
        }
    }

    #[test]
    fn drf_reports_match_across_models(seed in 0u64..10_000) {
        let params = RandomParams { procs: 2, ops: 3, addrs: 2, seed };
        let programs = generators::random_drf(&params);
        for model in Model::ALL_EXTENDED {
            run_both(Cfg::paper_with(model, Techniques::BOTH), programs.clone());
        }
    }

    #[test]
    fn reports_match_under_every_checking_cadence(seed in 0u64..10_000) {
        // The invariant-check cadence must be replayed exactly whatever
        // the period: sparse, never, and (in release) the default 1024.
        let params = RandomParams { procs: 2, ops: 4, addrs: 3, seed };
        let programs = generators::random_racy(&params);
        for period in [512, u64::MAX] {
            let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
            cfg.guard.invariant_period = period;
            run_both(cfg, programs.clone());
        }
    }
}

#[test]
fn figure2_pins_hold_under_legacy_step() {
    // The same table `paper_examples.rs` pins under the default event
    // engine, re-asserted under the per-cycle oracle: the engine choice
    // must not move a single paper number.
    let ex1 = |model, t| {
        let mut m = Machine::new(Cfg::paper_with(model, t), vec![paper::example1()]);
        m.set_engine(Engine::LegacyStep);
        m.run().cycles
    };
    let ex2 = |model, t| {
        let mut m = Machine::new(Cfg::paper_with(model, t), vec![paper::example2()]);
        paper::setup_example2(&mut m);
        m.set_engine(Engine::LegacyStep);
        m.run().cycles
    };
    assert_eq!(ex1(Model::Sc, Techniques::NONE), 301);
    assert_eq!(ex1(Model::Rc, Techniques::NONE), 202);
    assert_eq!(ex1(Model::Sc, Techniques::PREFETCH), 103);
    assert_eq!(ex1(Model::Rc, Techniques::PREFETCH), 103);
    assert_eq!(ex2(Model::Sc, Techniques::NONE), 302);
    assert_eq!(ex2(Model::Rc, Techniques::NONE), 203);
    assert_eq!(ex2(Model::Sc, Techniques::PREFETCH), 203);
    assert_eq!(ex2(Model::Rc, Techniques::PREFETCH), 202);
    assert_eq!(ex2(Model::Sc, Techniques::BOTH), 104);
    assert_eq!(ex2(Model::Rc, Techniques::BOTH), 104);
}

#[test]
fn figure2_examples_fast_forward_and_stay_identical() {
    // The paper walkthroughs are miss-dominated: most of their cycles
    // are quiescent waits on 100-cycle fills, so the fast path must
    // actually engage — while leaving the report untouched (run_both
    // asserts byte equality).
    let (report, telemetry) = run_both(
        Cfg::paper_with(Model::Sc, Techniques::NONE),
        vec![paper::example1()],
    );
    assert_eq!(report.cycles, 301);
    assert!(
        telemetry.skipped_cycles > report.cycles / 2,
        "example 1 is miss-dominated; skipped only {} of {}",
        telemetry.skipped_cycles,
        report.cycles
    );
    assert!(telemetry.spans > 0);
    assert!(telemetry.speedup() > 1.5);
}

#[test]
fn figure5_trace_is_identical_across_fast_forward_modes() {
    // The Figure 5 pair exercises every event family — speculative
    // loads, exclusive prefetches, a mid-flight invalidation with
    // rollback and reissue — on a miss-dominated (hence heavily
    // fast-forwarded) run with primed caches. Its merged trace must not
    // move by a single event between the two loop modes.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
    cfg.trace = true;
    let build = || {
        let mut m = Machine::new(
            cfg,
            vec![paper::figure5_main(), paper::figure5_antagonist(50, 5)],
        );
        paper::setup_figure5(&mut m, 5);
        m
    };
    let (fast, fast_t) = build().run_telemetry();
    let mut slow_machine = build();
    slow_machine.set_engine(Engine::LegacyStep);
    let (slow, _) = slow_machine.run_telemetry();
    assert!(fast_t.skipped_cycles > 0, "fast path must engage");
    assert!(!fast.trace.is_empty());
    assert_eq!(fast.trace, slow.trace, "merged traces must be identical");
    assert_eq!(fast.trace_dropped, 0);
}

#[test]
fn watchdog_fires_on_an_edge_the_loop_never_steps() {
    // A stuck MSHR freezes the only load: after the drop the machine is
    // totally quiescent with nothing scheduled, so the fast path jumps
    // straight toward max_cycles and the watchdog's window edge lies
    // strictly inside the skipped span. The old sampler (`cycle %
    // window == 0`, checked only on stepped cycles) never observes that
    // edge; edge-crossing sampling must still classify the deadlock at
    // exactly the cycle per-cycle stepping reports.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.guard.fault = Some(FaultKind::StuckMshr { nth: 1 });
    cfg.guard.watchdog_window = 1_000;
    cfg.max_cycles = 50_000;
    let prog = ProgramBuilder::new("stuck")
        .load(mcsim_isa::reg::R1, 0x4000u64)
        .halt()
        .build()
        .unwrap();
    let (report, telemetry) = run_both(cfg, vec![prog]);
    let failure = report.failure.as_ref().expect("watchdog must fire");
    let stall = failure.stall().expect("NoProgress expected");
    assert_eq!(stall.class, StallClass::Deadlock);
    assert_eq!(failure.cycle % 1_000, 0, "fires on a window edge");
    assert_eq!(report.cycles, failure.cycle);
    assert!(
        telemetry.stepped_cycles < failure.cycle,
        "the firing edge (cycle {}) must lie beyond the last stepped \
         cycle ({}) — i.e. inside a skipped span",
        failure.cycle,
        telemetry.stepped_cycles
    );
}

#[test]
fn timeout_telemetry_accounts_for_the_whole_span() {
    // An unsatisfied dependence with the watchdog disabled runs to the
    // plain timeout; the fast path must land on exactly max_cycles with
    // stepped + skipped covering it, and the report matching per-cycle.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.guard.fault = Some(FaultKind::StuckMshr { nth: 1 });
    cfg.guard.watchdog_window = 0;
    cfg.max_cycles = 5_000;
    let prog = ProgramBuilder::new("stuck")
        .load(mcsim_isa::reg::R1, 0x4000u64)
        .halt()
        .build()
        .unwrap();
    let (report, telemetry) = run_both(cfg, vec![prog]);
    assert!(report.timed_out);
    assert_eq!(report.cycles, 5_000);
    assert!(telemetry.skipped_cycles > 4_000, "{telemetry:?}");
}

#[test]
fn stale_wakeups_are_clamped_not_spun_on() {
    // The stale-horizon regression (satellite of the event-engine PR): a
    // buggy component publishing an already-elapsed wake-up cycle must
    // never produce a zero-length jump, which would wedge the loop at a
    // fixed cycle forever. `inject_wakeup_for_test` bypasses the queue's
    // past-cycle debug assertion exactly as such a bug would; the run
    // must still terminate and the report must be byte-identical to an
    // uninjected run — a stale event carries no information, so clamping
    // it forward is the only observable-safe treatment.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.trace = true;
    let programs = vec![paper::example1()];
    let (clean, clean_t) = Machine::new(cfg, programs.clone()).run_telemetry();

    for stale_at in [0, 1, 50] {
        let mut m = Machine::new(cfg, programs.clone());
        m.inject_wakeup_for_test(stale_at);
        let (injected, injected_t) = m.run_telemetry();
        assert_eq!(
            serde_json::to_string(&clean).expect("serializes"),
            serde_json::to_string(&injected).expect("serializes"),
            "stale wake-up at {stale_at} changed the report"
        );
        // The stale event may cost extra stepped cycles (the clamp steps
        // one cycle instead of jumping) but never changes the span.
        assert_eq!(
            injected_t.stepped_cycles + injected_t.skipped_cycles,
            clean_t.stepped_cycles + clean_t.skipped_cycles,
            "stale wake-up at {stale_at} changed the simulated span"
        );
    }
}

#[test]
fn dropped_exec_queue_entry_is_an_invariant_violation() {
    // The execute stage visits only the pending-execute queue, so an
    // operand-ready ALU left out of it would never run — under both
    // engines alike, where report equality cannot see it. The first
    // instruction is fetched at cycle 0 with immediate operands; once its
    // enqueue is dropped, the every-cycle check after that step (at cycle
    // 1) must name the missing entry.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.guard.invariant_period = 1;
    let prog = ProgramBuilder::new("alu")
        .alu(mcsim_isa::reg::R1, mcsim_isa::AluOp::Add, 2u64, 3u64)
        .halt()
        .build()
        .unwrap();
    for engine in [Engine::Event, Engine::LegacyStep] {
        let mut m = Machine::new(cfg, vec![prog.clone()]);
        m.set_engine(engine);
        m.drop_next_enqueue_for_test(0);
        let report = m.run();
        let failure = report
            .failure
            .as_ref()
            .expect("dropped entry must be caught");
        assert_eq!(
            failure.violated_invariant(),
            Some(InvariantKind::ExecQueueComplete),
            "{engine:?}: {failure}"
        );
        assert_eq!(failure.cycle, 1, "{engine:?}: {failure}");
        assert_eq!(report.cycles, 1);
    }
}

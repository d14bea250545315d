//! Edge-of-the-envelope machine tests: configurations and interactions
//! that no single module test covers.

use mcsim::prelude::*;
use mcsim::sim::MachineConfig as Cfg;
use mcsim::sim::{FaultKind, InvariantKind, StallClass};
use mcsim::workloads::paper;
use mcsim_consistency::Model;
use mcsim_isa::reg::{R1, R2, R3};
use mcsim_isa::AluOp;

#[test]
fn rcsc_runs_the_paper_examples_between_wc_and_rcpc() {
    // RCsc must match RCpc on the paper's single-sync-pair examples (the
    // extra release->acquire arc never fires with one lock section).
    let cfg = Cfg::paper_with(Model::RcSc, Techniques::NONE);
    let r = Machine::new(cfg, vec![paper::example1()]).run();
    assert_eq!(r.cycles, 202);
    let cfg = Cfg::paper_with(Model::RcSc, Techniques::PREFETCH);
    let r = Machine::new(cfg, vec![paper::example1()]).run();
    assert_eq!(r.cycles, 103);
    // The distinguishing arc is release -> acquire *load* (an acquire
    // RMW's write half is PC-ordered behind the release under both
    // variants): RCpc overlaps the two misses (~101 cycles), RCsc
    // serializes them (~201).
    let rel_then_acq = ProgramBuilder::new("rel-acq")
        .store_release(0x40u64, 0u64)
        .load_acquire(R2, 0x2000u64)
        .halt()
        .build()
        .unwrap();
    let mk = |model| {
        let mut m = Machine::new(
            Cfg::paper_with(model, Techniques::NONE),
            vec![rel_then_acq.clone()],
        );
        m.write_memory(0x2000u64, 1);
        m.run()
    };
    let rcsc = mk(Model::RcSc);
    let rcpc = mk(Model::Rc);
    assert!(rcpc.cycles <= 105, "RCpc overlaps: {}", rcpc.cycles);
    assert!(
        rcsc.cycles >= 200,
        "RCsc serializes release->acquire: {}",
        rcsc.cycles
    );
}

#[test]
fn sixteen_processors_run_disjoint_work() {
    let programs: Vec<_> = (0..16)
        .map(|i| {
            ProgramBuilder::new(format!("p{i}"))
                .store(0x10_000 + (i as u64) * 0x1000, i as u64 + 1)
                .load(R2, 0x10_000 + (i as u64) * 0x1000)
                .halt()
                .build()
                .unwrap()
        })
        .collect();
    let r = Machine::new(Cfg::paper_with(Model::Sc, Techniques::BOTH), programs).run();
    assert!(!r.timed_out);
    for i in 0..16u64 {
        assert_eq!(r.mem_word(0x10_000 + i * 0x1000), i + 1);
        assert_eq!(r.regfiles[i as usize].read(R2), i + 1);
    }
    // Disjoint lines pipeline through the directory: far faster than
    // 16 serialized round trips.
    assert!(r.cycles < 16 * 100, "pipelined: {}", r.cycles);
}

#[test]
fn deep_alu_dependence_chain_commits_in_order() {
    let mut b = ProgramBuilder::new("chain");
    for _ in 0..40 {
        b = b.alu(R3, AluOp::Add, R3, 1u64);
    }
    let prog = b.store(0x1000u64, R3).halt().build().unwrap();
    for t in [Techniques::NONE, Techniques::BOTH] {
        let r = Machine::new(Cfg::paper_with(Model::Sc, t), vec![prog.clone()]).run();
        assert_eq!(r.mem_word(0x1000), 40, "{t}");
        assert!(r.cycles >= 40, "{t}: 40 dependent unit-latency ALUs");
    }
}

#[test]
fn tiny_caches_force_replacement_traffic_but_stay_correct() {
    // A 2-line cache walking 8 lines twice: heavy replacement, every
    // value still correct under speculation (replacement hazards fire).
    let mut b = ProgramBuilder::new("thrash");
    for pass in 0..2u64 {
        for i in 0..8u64 {
            b = b.store(0x10_000 + i * 64, pass * 100 + i);
        }
    }
    let prog = b.halt().build().unwrap();
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
    cfg.mem.cache.sets = 1;
    cfg.mem.cache.ways = 2;
    let r = Machine::new(cfg, vec![prog]).run();
    assert!(!r.timed_out);
    for i in 0..8u64 {
        assert_eq!(r.mem_word(0x10_000 + i * 64), 100 + i);
    }
    assert!(r.mem.replacements > 0, "thrashing must evict");
    assert!(r.mem.writebacks > 0, "dirty lines must write back");
}

#[test]
fn mshr_starvation_resolves() {
    // One MSHR: every parallel technique degrades to serial issue, but
    // everything still completes correctly.
    let mut b = ProgramBuilder::new("narrow");
    for i in 0..6u64 {
        b = b.store(0x10_000 + i * 64, i + 1);
    }
    let prog = b.halt().build().unwrap();
    let mut cfg = Cfg::paper_with(Model::Rc, Techniques::BOTH);
    cfg.mem.mshrs = 1;
    let r = Machine::new(cfg, vec![prog]).run();
    assert!(!r.timed_out);
    for i in 0..6u64 {
        assert_eq!(r.mem_word(0x10_000 + i * 64), i + 1);
    }
    assert!(
        r.cycles >= 600,
        "one MSHR serializes the six misses: {}",
        r.cycles
    );
}

#[test]
fn wider_directory_bandwidth_helps_contended_startup() {
    // Many processors missing simultaneously: a 4-ported directory
    // services the burst faster than a single-ported one.
    let programs = |n: usize| -> Vec<_> {
        (0..n)
            .map(|i| {
                ProgramBuilder::new(format!("p{i}"))
                    .load(R1, 0x10_000 + (i as u64) * 0x1000)
                    .halt()
                    .build()
                    .unwrap()
            })
            .collect()
    };
    let mut narrow = Cfg::paper_with(Model::Sc, Techniques::NONE);
    narrow.mem.dir_bandwidth = 1;
    let mut wide = narrow;
    wide.mem.dir_bandwidth = 4;
    let n = Machine::new(narrow, programs(12)).run();
    let w = Machine::new(wide, programs(12)).run();
    assert!(
        w.cycles <= n.cycles,
        "wider directory cannot be slower: {} vs {}",
        w.cycles,
        n.cycles
    );
    assert!(w.mem.dir_queue_cycles < n.mem.dir_queue_cycles);
}

// ---------------------------------------------------------------------
// Guard layer: watchdog classification and fault injection.
// ---------------------------------------------------------------------

/// A program that reads `addr` after roughly `delay` cycles of dependent
/// unit-latency ALU work — long enough for another processor's
/// 100-cycle cold miss on the same line to complete first.
fn delayed_load(delay: usize, addr: u64) -> Program {
    let mut b = ProgramBuilder::new("delayed-load");
    for _ in 0..delay {
        b = b.alu(R3, AluOp::Add, R3, 1u64);
    }
    b.load(R1, addr).halt().build().unwrap()
}

/// Same, but writing `addr`.
fn delayed_store(delay: usize, addr: u64) -> Program {
    let mut b = ProgramBuilder::new("delayed-store");
    for _ in 0..delay {
        b = b.alu(R3, AluOp::Add, R3, 1u64);
    }
    b.store(addr, 7u64).halt().build().unwrap()
}

#[test]
fn stuck_mshr_is_classified_as_deadlock_across_models_and_techniques() {
    // A dropped fill freezes the only load: no commits, no coherence
    // traffic, nothing in flight. The watchdog must call that a
    // deadlock — under every model and technique combination — and name
    // the stalled processor.
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            let mut cfg = Cfg::paper_with(model, t);
            cfg.guard.fault = Some(FaultKind::StuckMshr { nth: 1 });
            cfg.guard.watchdog_window = 1_000;
            cfg.max_cycles = 50_000;
            let prog = ProgramBuilder::new("stuck")
                .load(R1, 0x4000u64)
                .halt()
                .build()
                .unwrap();
            let r = Machine::new(cfg, vec![prog]).run();
            let failure = r
                .failure
                .as_ref()
                .unwrap_or_else(|| panic!("{model}/{}: watchdog must fire", t.label()));
            let stall = failure.stall().unwrap_or_else(|| {
                panic!("{model}/{}: NoProgress expected, got {failure}", t.label())
            });
            assert_eq!(stall.class, StallClass::Deadlock, "{model}/{}", t.label());
            assert_eq!(
                failure.cycle % 1_000,
                0,
                "fires on a window edge: {}",
                failure.cycle
            );
            assert_eq!(r.cycles, failure.cycle, "report stops at the failure");
            assert_eq!(stall.stalled.len(), 1, "one processor is stuck");
            assert_eq!(stall.stalled[0].proc, 0);
            assert!(
                !stall.stalled[0].awaiting.is_empty(),
                "{model}/{}: the frozen demand read is named",
                t.label()
            );
        }
    }
}

#[test]
fn progressing_spin_is_a_plain_timeout_not_a_watchdog_failure() {
    // A spin loop on a flag nobody sets retires a load and a branch
    // every iteration: slow, but progressing. The watchdog must stay
    // quiet under every model and technique combination, leaving the
    // plain max_cycles timeout.
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            let mut cfg = Cfg::paper_with(model, t);
            cfg.guard.watchdog_window = 1_000;
            cfg.max_cycles = 6_000;
            let prog = ProgramBuilder::new("spin")
                .spin_until(0x4000, 1, R2)
                .halt()
                .build()
                .unwrap();
            let r = Machine::new(cfg, vec![prog]).run();
            assert!(r.timed_out, "{model}/{}", t.label());
            assert_eq!(r.cycles, 6_000, "{model}/{}", t.label());
            assert!(
                r.failure.is_none(),
                "{model}/{}: progressing spin misclassified: {:?}",
                model,
                r.failure
            );
        }
    }
}

#[test]
fn dropped_invalidation_is_caught_as_swmr_violation() {
    // Proc 1 caches the line shared; proc 0 writes it ~250 cycles later.
    // The (dropped) invalidation leaves proc 1's stale copy coexisting
    // with proc 0's exclusive grant — SWMR broken the cycle it lands.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.guard.fault = Some(FaultKind::DropInvalidation { nth: 1 });
    cfg.guard.invariant_period = 1;
    let programs = vec![delayed_store(250, 0x4000), delayed_load(0, 0x4000)];
    let mut m = Machine::new(cfg, programs);
    m.write_memory(0x4000u64, 1);
    let r = m.run();
    let failure = r.failure.expect("dropped invalidation must be caught");
    assert_eq!(
        failure.violated_invariant(),
        Some(InvariantKind::SwmrExclusiveWithCopies),
        "{failure}"
    );
    assert_eq!(failure.cycle, r.cycles);
    assert!(
        failure.cycle > 250,
        "violation lands after the writer's delayed store: {}",
        failure.cycle
    );
}

#[test]
fn corrupted_line_state_is_caught_as_swmr_violation() {
    // The first shared fill (proc 1's cold read) is corrupted into an
    // exclusive grant. The moment proc 0's own shared fill lands, two
    // copies coexist with one marked exclusive.
    let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
    cfg.guard.fault = Some(FaultKind::CorruptLineState { nth: 1 });
    cfg.guard.invariant_period = 1;
    let programs = vec![delayed_load(250, 0x4000), delayed_load(0, 0x4000)];
    let mut m = Machine::new(cfg, programs);
    m.write_memory(0x4000u64, 1);
    let r = m.run();
    let failure = r.failure.expect("corrupted line state must be caught");
    assert_eq!(
        failure.violated_invariant(),
        Some(InvariantKind::SwmrExclusiveWithCopies),
        "{failure}"
    );
    assert_eq!(failure.cycle, r.cycles);
}

#[test]
fn every_first_fault_class_is_detected() {
    // The guard's promise in one sweep: each canonical fault produces a
    // structured failure (never a silent wrong answer, never a panic).
    for kind in FaultKind::ALL_FIRST {
        let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
        cfg.guard.fault = Some(kind);
        cfg.guard.invariant_period = 1;
        cfg.guard.watchdog_window = 1_000;
        cfg.max_cycles = 50_000;
        // Each fault needs its canonical victim: an invalidation to
        // drop requires a later writer; a corrupted exclusive grant is
        // only a violation while a second copy coexists (a writer would
        // first invalidate it).
        let second = match kind {
            FaultKind::CorruptLineState { .. } => delayed_load(250, 0x4000),
            _ => delayed_store(250, 0x4000),
        };
        let programs = vec![second, delayed_load(0, 0x4000)];
        let mut m = Machine::new(cfg, programs);
        m.write_memory(0x4000u64, 1);
        let r = m.run();
        let failure = r
            .failure
            .unwrap_or_else(|| panic!("fault {kind} escaped detection"));
        match kind {
            FaultKind::DropInvalidation { .. } | FaultKind::CorruptLineState { .. } => {
                assert!(failure.violated_invariant().is_some(), "{kind}: {failure}");
            }
            FaultKind::StuckMshr { .. } => {
                assert!(failure.stall().is_some(), "{kind}: {failure}");
            }
        }
    }
}

#[test]
fn misaligned_word_addresses_are_typed_errors_not_panics() {
    use mcsim::mem::Protocol;
    use mcsim::sim::SimErrorKind;
    use mcsim_isa::asm::assemble;
    use mcsim_isa::ValidationError;
    use mcsim_oracle::{OracleConfig, OracleError};

    // A static misaligned address fails in the assembler and the builder.
    let e = assemble("repro", "st [0x10003], 1\nld r1, [0x10000]\nhalt\n").unwrap_err();
    assert!(e.msg.contains("not 8-byte aligned"), "{e}");
    let e = ProgramBuilder::new("b")
        .store(0x10003u64, 1u64)
        .halt()
        .build()
        .unwrap_err();
    assert_eq!(
        e,
        ValidationError::MisalignedAddress {
            at: 0,
            addr: 0x10003
        }
    );

    // A computed one fails the run at address generation, and the oracle.
    let p = assemble(
        "computed",
        "add r2, 0, 3\nst [0x10000+r2], 1\nld r1, [0x10000]\nhalt\n",
    )
    .unwrap();
    for t in Techniques::ALL {
        for protocol in [Protocol::Invalidate, Protocol::Update] {
            let mut cfg = Cfg::paper_with(Model::Sc, t);
            cfg.mem.protocol = protocol;
            let r = Machine::new(cfg, vec![p.clone()]).run();
            let f = r.failure.expect("a misaligned access fails the run");
            assert_eq!(
                f.kind,
                SimErrorKind::Misaligned {
                    addr: 0x10003,
                    pc: 1
                },
                "{}/{protocol:?}",
                t.label()
            );
        }
    }
    let r = mcsim_oracle::outcomes(
        Model::Sc,
        &[p],
        &std::collections::BTreeMap::new(),
        OracleConfig::default(),
    );
    assert!(!r.complete);
    assert_eq!(
        r.error,
        Some(OracleError::Misaligned {
            proc: 0,
            pc: 1,
            addr: 0x10003
        })
    );
}

#[test]
fn a_misaligned_access_on_a_squashed_path_is_no_error() {
    use mcsim::mem::Protocol;
    use mcsim_oracle::OracleConfig;

    // The guard reads 0, so the branch is taken and the misaligned store
    // never executes. Predicted not-taken, the store is fetched and its
    // address computed long before the load's miss resolves the branch.
    let p = mcsim_isa::asm::assemble(
        "wrong-path",
        "add r2, 0, 3\nld r4, [0x1000]\nbeq.nt r4, 0, done\nst [0x10000+r2], 1\ndone:\nhalt\n",
    )
    .unwrap();
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            for protocol in [Protocol::Invalidate, Protocol::Update] {
                let mut cfg = Cfg::paper_with(model, t);
                cfg.mem.protocol = protocol;
                let r = Machine::new(cfg, vec![p.clone()]).run();
                let at = format!("{model}/{}/{protocol:?}", t.label());
                assert!(r.failure.is_none(), "{at}: {:?}", r.failure);
                assert_eq!(r.total.branch_mispredicts, 1, "{at}");
                assert_eq!(r.mem_word(0x10000), 0, "{at}");
            }
        }
    }
    let r = mcsim_oracle::outcomes(
        Model::Sc,
        &[p],
        &std::collections::BTreeMap::new(),
        OracleConfig::default(),
    );
    assert!(r.complete, "{:?}", r.error);
    assert_eq!(r.outcomes.len(), 1);
}

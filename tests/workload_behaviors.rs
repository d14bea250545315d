//! Behavioral pins for the secondary experiments: the *shapes* the paper
//! predicts, asserted as inequalities and exact values where the timing
//! model makes them deterministic.

mod common;

use common::{cycles_of, run_ah};
use mcsim::prelude::*;
use mcsim::sim::MachineConfig as Cfg;
use mcsim::workloads::generators;
use mcsim::workloads::paper;
use mcsim_consistency::Model;
use mcsim_isa::reg::R2;
use mcsim_mem::Protocol;

#[test]
fn update_protocol_nullifies_write_prefetching() {
    // §3.1: read-exclusive prefetch needs an invalidation protocol. Under
    // update, the prefetch column equals baseline exactly.
    for model in [Model::Sc, Model::Rc] {
        let mut base = Cfg::paper_with(model, Techniques::NONE);
        base.mem.protocol = Protocol::Update;
        let mut pf = Cfg::paper_with(model, Techniques::PREFETCH);
        pf.mem.protocol = Protocol::Update;
        let a = cycles_of(base, vec![paper::example1()], |_| {});
        let b = cycles_of(pf, vec![paper::example1()], |_| {});
        assert_eq!(a, b, "{model}: prefetching must not help under update");
    }
    // And the exact update-protocol baselines (every write is a full
    // round trip): SC 400, RC 301.
    let mut sc = Cfg::paper_with(Model::Sc, Techniques::NONE);
    sc.mem.protocol = Protocol::Update;
    assert_eq!(cycles_of(sc, vec![paper::example1()], |_| {}), 400);
    let mut rc = Cfg::paper_with(Model::Rc, Techniques::NONE);
    rc.mem.protocol = Protocol::Update;
    assert_eq!(cycles_of(rc, vec![paper::example1()], |_| {}), 301);
}

#[test]
fn adve_hill_only_helps_writes_with_sharers() {
    // §6's critique, pinned. No sharers: early grants change nothing
    // (301). With a sharer on A and B: conventional pays two invalidation
    // round trips (497); early grants collapse them (301); the paper's
    // techniques do better still (201).
    assert_eq!(run_ah(false, Techniques::NONE, false), 301);
    assert_eq!(run_ah(true, Techniques::NONE, false), 301);
    assert_eq!(run_ah(false, Techniques::NONE, true), 497);
    assert_eq!(run_ah(true, Techniques::NONE, true), 301);
    assert_eq!(run_ah(false, Techniques::BOTH, true), 201);
}

#[test]
fn pointer_chase_defeats_both_techniques() {
    // Serial dependence: neither prefetching (no address to prefetch) nor
    // speculation (no independent work) can help — cycles are identical
    // across all technique combinations.
    let (prog, image) = generators::pointer_chase(6, 11);
    let mut reference = None;
    for t in Techniques::ALL {
        let c = cycles_of(Cfg::paper_with(Model::Sc, t), vec![prog.clone()], |m| {
            for (&a, &v) in &image {
                m.write_memory(a, v);
            }
        });
        match reference {
            None => reference = Some(c),
            Some(r) => assert_eq!(c, r, "{t}: dependence chain must be unhideable"),
        }
    }
    assert!(reference.unwrap() >= 600, "6 serialized misses");
}

#[test]
fn array_sweep_speedup_is_nearly_n_fold() {
    // N independent store misses: conventional SC serializes (~100 each);
    // with prefetching they pipeline to ~100 + N.
    let n = 12;
    let base = cycles_of(
        Cfg::paper_with(Model::Sc, Techniques::NONE),
        vec![generators::array_sweep(n, true)],
        |_| {},
    );
    let pf = cycles_of(
        Cfg::paper_with(Model::Sc, Techniques::BOTH),
        vec![generators::array_sweep(n, true)],
        |_| {},
    );
    assert!(base >= (n as u64) * 100, "serialized: {base}");
    assert!(pf <= 100 + 3 * n as u64, "pipelined: {pf}");
}

#[test]
fn pipeline_handoff_delivers_through_all_stages() {
    // A 3-stage producer/consumer chain (DRF): every model and technique
    // must deliver the fully transformed values.
    for model in Model::ALL {
        for t in [Techniques::NONE, Techniques::BOTH] {
            let cfg = Cfg::paper_with(model, t);
            let m = Machine::new(cfg, generators::pipeline_handoff(3, 2));
            let r = m.run();
            assert!(!r.timed_out, "{model}/{t}");
            // Stage 0 writes i+1; stages 1 and 2 each add 100.
            assert_eq!(r.mem_word(generators::DATA_BASE), 201, "{model}/{t}");
            assert_eq!(
                r.mem_word(generators::DATA_BASE + generators::LINE),
                202,
                "{model}/{t}"
            );
        }
    }
}

#[test]
fn speculation_violation_rate_stays_moderate_under_contention() {
    // The §5 claim, as a regression bound: even on an adversarial
    // fully-contended lock, rollbacks stay well below half the
    // speculative loads.
    let params = generators::CriticalSections {
        procs: 4,
        sections: 3,
        reads: 2,
        writes: 2,
        locks: 1,
        ..Default::default()
    };
    let cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
    let m = Machine::new(cfg, generators::critical_sections(&params));
    let r = m.run();
    assert!(!r.timed_out);
    assert!(r.total.speculative_loads > 100);
    assert!(
        r.total.rollback_rate() < 0.5,
        "rollback rate {:.1}% out of expected range",
        r.total.rollback_rate() * 100.0
    );
    // Latency histograms were populated.
    assert!(r.total.load_latency.count() > 0);
    assert!(r.total.store_latency.count() > 0);
}

#[test]
fn miss_latency_scaling_matches_closed_form() {
    // Example 1 under conventional SC is 3*miss + 1 for any miss latency
    // (three serialized misses plus the unlock hit).
    for miss in [20u64, 50, 100, 300] {
        let mut cfg = Cfg::paper_with(Model::Sc, Techniques::NONE);
        cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(miss);
        let c = cycles_of(cfg, vec![paper::example1()], |_| {});
        assert_eq!(c, 3 * miss + 1, "miss={miss}");
        // And with both techniques: miss + 3 (prefetches overlap the lock).
        let mut cfg = Cfg::paper_with(Model::Sc, Techniques::BOTH);
        cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(miss);
        let c = cycles_of(cfg, vec![paper::example1()], |_| {});
        assert_eq!(c, miss + 3, "miss={miss}");
    }
}

#[test]
fn hit_dependence_chain_orders_techniques_as_the_paper_says() {
    // §3.3's shape on the generalized workload: base > prefetch > spec
    // under SC (speculation subsumes prefetch's benefit for loads).
    let run_chain = |t: Techniques| {
        let (prog, image, preload) = generators::hit_dependence_chain(4, 2);
        cycles_of(Cfg::paper_with(Model::Sc, t), vec![prog], |m| {
            for (&a, &v) in &image {
                m.write_memory(a, v);
            }
            for a in preload {
                m.preload_cache(0, a, false);
            }
        })
    };
    let base = run_chain(Techniques::NONE);
    let pf = run_chain(Techniques::PREFETCH);
    let spec = run_chain(Techniques::SPECULATION);
    assert!(base > pf, "prefetch helps: {base} -> {pf}");
    assert!(pf > spec, "speculation helps more: {pf} -> {spec}");
    let _ = R2;
}

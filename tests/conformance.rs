//! Conformance harness: the simulator versus the execution-enumeration
//! oracle across the *full* model matrix.
//!
//! Three properties, machine-checked:
//!
//! 1. **Membership** — every simulated final state of every corpus
//!    litmus (and of random small racy programs), under every model in
//!    `Model::ALL_EXTENDED` × every technique combination × many seeded
//!    machine configurations, is in the oracle's allowed set for that
//!    model. This is §4.2's claim generalized from SC to the spectrum.
//! 2. **Monotonicity** — whenever model A's delay arcs contain model
//!    B's, A's allowed set is contained in B's (in particular SC's set
//!    is a subset of every weaker model's).
//! 3. **DRF-implies-SC** — data-race-free programs have *identical*
//!    allowed sets under every model (§5's guarantee, checked at the
//!    semantics level rather than per-execution).
//!
//! The corpus allowed sets are additionally pinned as a golden file
//! (regenerate with `BLESS=1 cargo test --test conformance`).

mod common;

use mcsim::sim::{conformance_config, Outcome, RunReport};
use mcsim::workloads::generators::{self, RandomParams};
use mcsim::workloads::litmus::{self, Litmus};
use mcsim_consistency::{AccessClass, Model};
use mcsim_isa::MemFlavor;
use mcsim_mem::Protocol;
use mcsim_proc::Techniques;
use std::collections::BTreeMap;

const SEEDS: u64 = 32;

/// Membership check against a pre-enumerated allowed set (avoids
/// re-running the oracle for every seed of the same litmus × model cell).
fn in_allowed_set(l: &Litmus, allowed: &[Outcome], report: &RunReport) -> bool {
    let observed = l.outcome_of(report, allowed);
    allowed
        .iter()
        .any(|o| o.regs == observed.regs && observed.memory.iter().all(|(k, v)| o.mem(*k) == *v))
}

fn assert_litmus_conforms(l: &Litmus) {
    for model in Model::ALL_EXTENDED {
        let allowed = l.allowed_outcomes(model);
        for t in Techniques::ALL {
            for seed in 0..SEEDS {
                let report = l.run(conformance_config(model, t, seed));
                assert!(
                    report.failure.is_none() && !report.timed_out,
                    "{} @ {model}/{} seed {seed}: {}",
                    l.name,
                    t.label(),
                    report.summary()
                );
                assert!(
                    in_allowed_set(l, &allowed, &report),
                    "{} @ {model}/{} seed {seed}: final state not in the \
                     oracle's allowed set\n{}",
                    l.name,
                    t.label(),
                    report.summary()
                );
            }
        }
    }
}

#[test]
fn store_buffering_conforms() {
    assert_litmus_conforms(&litmus::store_buffering());
}

#[test]
fn message_passing_conforms() {
    assert_litmus_conforms(&litmus::message_passing());
}

#[test]
fn load_buffering_conforms() {
    assert_litmus_conforms(&litmus::load_buffering());
}

#[test]
fn iriw_conforms() {
    assert_litmus_conforms(&litmus::iriw());
}

#[test]
fn coherence_rr_conforms() {
    assert_litmus_conforms(&litmus::coherence_rr());
}

#[test]
fn two_plus_two_w_conforms() {
    assert_litmus_conforms(&litmus::two_plus_two_w());
}

#[test]
fn random_racy_programs_conform_under_every_model() {
    for seed in 0..SEEDS {
        let params = RandomParams {
            procs: 2,
            ops: 4,
            addrs: 3,
            seed,
        };
        let l = Litmus {
            name: "random-racy",
            programs: generators::random_racy(&params),
            init: BTreeMap::new(),
        };
        for model in Model::ALL_EXTENDED {
            let allowed = l.allowed_outcomes(model);
            for t in [Techniques::NONE, Techniques::BOTH] {
                let report = l.run(conformance_config(model, t, seed));
                assert!(
                    in_allowed_set(&l, &allowed, &report),
                    "random seed {seed} @ {model}/{}: outcome outside the allowed set",
                    t.label()
                );
            }
        }
    }
}

/// Update-protocol write serialization: in `random_racy {2, 4, 3}` seed
/// 138 under SC, each processor once saw the other's write to a word
/// last, because a writer's own copy took its value when the write issued
/// rather than in the directory's order.
#[test]
fn update_protocol_writers_see_the_directory_order() {
    let seed = 138;
    let params = RandomParams {
        procs: 2,
        ops: 4,
        addrs: 3,
        seed,
    };
    let l = Litmus {
        name: "random-racy",
        programs: generators::random_racy(&params),
        init: BTreeMap::new(),
    };
    let allowed = l.allowed_outcomes(Model::Sc);
    let mut cfg = conformance_config(Model::Sc, Techniques::NONE, seed);
    cfg.mem.protocol = Protocol::Update;
    let report = l.run(cfg);
    assert!(
        report.failure.is_none() && !report.timed_out,
        "{}",
        report.summary()
    );
    assert!(
        in_allowed_set(&l, &allowed, &report),
        "random seed {seed} @ SC/base under Update: outcome outside the allowed set\n{}",
        report.summary()
    );
}

/// The access classes that occur in litmus programs — the five Figure 1
/// classes plus the ordinary read-modify-write.
const CLASSES: [AccessClass; 6] = [
    AccessClass::LOAD,
    AccessClass::STORE,
    AccessClass {
        reads: true,
        writes: true,
        flavor: MemFlavor::Ordinary,
    },
    AccessClass::ACQUIRE_LOAD,
    AccessClass::ACQUIRE_RMW,
    AccessClass::RELEASE_STORE,
];

/// Whether every delay arc of `weaker` is also an arc of `stricter` — in
/// that case every `stricter` execution is also a `weaker` execution, so
/// the allowed sets must nest.
fn arcs_contained(weaker: Model, stricter: Model) -> bool {
    CLASSES.iter().all(|e| {
        CLASSES
            .iter()
            .all(|l| !weaker.must_delay(*e, *l) || stricter.must_delay(*e, *l))
    })
}

#[test]
fn allowed_sets_are_monotone_in_the_delay_arcs() {
    let corpus = litmus::conformance_corpus();
    let mut pairs = 0;
    for stricter in Model::ALL_EXTENDED {
        for weaker in Model::ALL_EXTENDED {
            if stricter == weaker || !arcs_contained(weaker, stricter) {
                continue;
            }
            pairs += 1;
            for l in &corpus {
                let strict_set = l.allowed_outcomes(stricter);
                let weak_set = l.allowed_outcomes(weaker);
                for o in &strict_set {
                    assert!(
                        weak_set.contains(o),
                        "{}: outcome allowed under {stricter} but not under \
                         the more relaxed {weaker}",
                        l.name
                    );
                }
            }
        }
    }
    // SC above everything (6), TSO above PC/PSO/WC/RCsc/RC (5),
    // PSO above WC/RCsc/RC (3), WC above RCsc/RC (2), RCsc above RC (1).
    assert!(
        pairs >= 17,
        "expected a rich containment order, got {pairs}"
    );
}

#[test]
fn drf_programs_have_identical_allowed_sets_under_every_model() {
    // Properly synchronized programs: the model must be invisible at the
    // semantics level — each relaxed model's allowed set *equals* SC's.
    let mut drf: Vec<Litmus> = vec![litmus::message_passing()];
    for seed in 0..6 {
        let params = RandomParams {
            procs: 2,
            ops: 2,
            addrs: 2,
            seed,
        };
        drf.push(Litmus {
            name: "random-drf",
            programs: generators::random_drf(&params),
            init: BTreeMap::new(),
        });
    }
    for l in &drf {
        let sc = l.allowed_outcomes(Model::Sc);
        for model in Model::ALL_EXTENDED {
            let m = l.allowed_outcomes(model);
            assert_eq!(
                sc, m,
                "{}: DRF program has model-visible outcomes under {model}",
                l.name
            );
        }
    }
}

#[test]
fn racy_programs_do_relax_somewhere() {
    // Sanity check that the harness can tell models apart at all: the
    // corpus must contain at least one litmus whose RC set is strictly
    // larger than its SC set.
    let grew = litmus::conformance_corpus()
        .iter()
        .any(|l| l.allowed_outcomes(Model::Rc).len() > l.allowed_outcomes(Model::Sc).len());
    assert!(grew, "no corpus litmus distinguishes RC from SC");
}

#[test]
fn corpus_allowed_sets_match_golden() {
    let rendered = litmus::render_allowed_sets(&litmus::conformance_corpus());
    common::assert_golden("oracle_allowed.txt", &rendered);
}

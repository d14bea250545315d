//! Litmus tests wired to the execution-enumeration oracle.
//!
//! Each [`Litmus`] bundles the per-processor programs with an initial
//! memory image. [`Litmus::allowed_outcomes`] enumerates the legal final
//! states under any consistency model (delegating to `mcsim-oracle`);
//! [`Litmus::run`] simulates one execution; [`Litmus::outcome_of`]
//! projects the run onto the oracle's state space so membership can be
//! checked with [`Litmus::is_allowed_under`]. Under SC — with any
//! combination of the paper's techniques — every simulated execution
//! must be in the SC set; that is the machine-checkable statement of
//! the paper's correctness argument (§4.2). The conformance harness
//! extends the same membership check to every model in
//! `Model::ALL_EXTENDED`.

use mcsim_consistency::Model;
use mcsim_core::{Machine, MachineConfig, Outcome, RunReport};
use mcsim_isa::reg::{R1, R2};
use mcsim_isa::{Program, ProgramBuilder};
use mcsim_oracle::OracleConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named multiprocessor test with an initial memory image.
#[derive(Debug, Clone)]
pub struct Litmus {
    /// Test name (reports, panics).
    pub name: &'static str,
    /// One program per processor.
    pub programs: Vec<Program>,
    /// Initial memory image.
    pub init: BTreeMap<u64, u64>,
}

impl Litmus {
    /// Enumerates the final states allowed under `model`.
    #[must_use]
    pub fn allowed_outcomes(&self, model: Model) -> Vec<Outcome> {
        let r = mcsim_oracle::outcomes(model, &self.programs, &self.init, OracleConfig::default());
        assert!(
            r.complete,
            "{}: oracle stopped under {model}: {}",
            self.name,
            r.error
                .map_or_else(|| "state budget exceeded".into(), |e| e.to_string())
        );
        r.outcomes.into_iter().collect()
    }

    /// Enumerates the sequentially consistent final states.
    #[must_use]
    pub fn sc_outcomes(&self) -> Vec<Outcome> {
        self.allowed_outcomes(Model::Sc)
    }

    /// Simulates one execution under `cfg`.
    #[must_use]
    pub fn run(&self, cfg: MachineConfig) -> RunReport {
        let mut m = Machine::new(cfg, self.programs.clone());
        for (&a, &v) in &self.init {
            m.write_memory(a, v);
        }
        m.run()
    }

    /// Projects a run report onto the oracle's outcome space: full
    /// register files plus the union of memory addresses any oracle
    /// outcome mentions.
    #[must_use]
    pub fn outcome_of(&self, report: &RunReport, oracle: &[Outcome]) -> Outcome {
        let keys: std::collections::BTreeSet<u64> = oracle
            .iter()
            .flat_map(|o| o.memory.keys().copied())
            .collect();
        Outcome {
            regs: report
                .regfiles
                .iter()
                .map(|rf| rf.iter().map(|(_, v)| v).collect())
                .collect(),
            memory: keys.iter().map(|&k| (k, report.mem_word(k))).collect(),
        }
    }

    /// Whether `report`'s final state is allowed under `model` — the
    /// conformance check. Memory comparison is over the union of
    /// oracle-mentioned addresses (both sides default untouched words to
    /// their initial value).
    #[must_use]
    pub fn is_allowed_under(&self, model: Model, report: &RunReport) -> bool {
        let allowed = self.allowed_outcomes(model);
        let observed = self.outcome_of(report, &allowed);
        allowed.iter().any(|o| {
            o.regs == observed.regs && observed.memory.iter().all(|(k, v)| o.mem(*k) == *v)
        })
    }

    /// Whether `report`'s final state is sequentially consistent — the
    /// SC specialization of [`Litmus::is_allowed_under`].
    #[must_use]
    pub fn is_sequentially_consistent(&self, report: &RunReport) -> bool {
        self.is_allowed_under(Model::Sc, report)
    }
}

// Shared-location map used by the standard suite.
const X: u64 = 0x1000;
const Y: u64 = 0x1100;
const DATA: u64 = 0x1200;
const FLAG: u64 = 0x1300;

/// Store buffering (the Dekker core): `P0: x=1; r1=y` / `P1: y=1; r1=x`.
/// SC forbids both loads returning 0; relaxed models allow it.
#[must_use]
pub fn store_buffering() -> Litmus {
    let p0 = ProgramBuilder::new("sb-p0")
        .store(X, 1u64)
        .load(R1, Y)
        .halt()
        .build()
        .unwrap();
    let p1 = ProgramBuilder::new("sb-p1")
        .store(Y, 1u64)
        .load(R1, X)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "store-buffering",
        programs: vec![p0, p1],
        init: BTreeMap::new(),
    }
}

/// Message passing with release/acquire synchronization:
/// `P0: data=42; flag=1(rel)` / `P1: spin flag(acq); r2=data`.
/// Data-race-free, so every model must deliver 42.
#[must_use]
pub fn message_passing() -> Litmus {
    let p0 = ProgramBuilder::new("mp-p0")
        .store(DATA, 42u64)
        .store_release(FLAG, 1u64)
        .halt()
        .build()
        .unwrap();
    let p1 = ProgramBuilder::new("mp-p1")
        .spin_until(FLAG, 1, R1)
        .load(R2, DATA)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "message-passing",
        programs: vec![p0, p1],
        init: BTreeMap::new(),
    }
}

/// Racy message passing: the flag write is an *ordinary* store. Under SC
/// the data must still follow the flag; relaxed models may reorder.
#[must_use]
pub fn message_passing_racy() -> Litmus {
    let p0 = ProgramBuilder::new("mpr-p0")
        .store(DATA, 42u64)
        .store(FLAG, 1u64)
        .halt()
        .build()
        .unwrap();
    let p1 = ProgramBuilder::new("mpr-p1")
        .load(R1, FLAG)
        .load(R2, DATA)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "message-passing-racy",
        programs: vec![p0, p1],
        init: BTreeMap::new(),
    }
}

/// Load buffering: `P0: r1=x; y=1` / `P1: r1=y; x=1`.
/// SC forbids both loads returning 1.
#[must_use]
pub fn load_buffering() -> Litmus {
    let p0 = ProgramBuilder::new("lb-p0")
        .load(R1, X)
        .store(Y, 1u64)
        .halt()
        .build()
        .unwrap();
    let p1 = ProgramBuilder::new("lb-p1")
        .load(R1, Y)
        .store(X, 1u64)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "load-buffering",
        programs: vec![p0, p1],
        init: BTreeMap::new(),
    }
}

/// Coherence of reads to one location: `P0: x=1` / `P1: r1=x; r2=x`.
/// Reads of the same location must not go backwards (r1=1, r2=0
/// forbidden even under relaxed models — per-location coherence).
#[must_use]
pub fn coherence_rr() -> Litmus {
    let p0 = ProgramBuilder::new("corr-p0")
        .store(X, 1u64)
        .halt()
        .build()
        .unwrap();
    let p1 = ProgramBuilder::new("corr-p1")
        .load(R1, X)
        .load(R2, X)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "coherence-rr",
        programs: vec![p0, p1],
        init: BTreeMap::new(),
    }
}

/// Dekker-style mutual exclusion *without* atomics — correct only under
/// SC. Each processor raises its own flag, checks the peer's, and only
/// enters the critical section (incrementing a counter read-modify-write
/// style with plain loads/stores) when the peer's flag is down;
/// otherwise it skips.
#[must_use]
pub fn dekker_attempt() -> Litmus {
    const ME0: u64 = 0x1400;
    const ME1: u64 = 0x1500;
    const COUNT: u64 = 0x1600;
    let side = |name: &'static str, mine: u64, theirs: u64| {
        let mut b = ProgramBuilder::new(name);
        let skip = b.label();
        b.store(mine, 1u64)
            .load(R1, theirs)
            .branch(
                mcsim_isa::CmpOp::Ne,
                R1,
                0u64,
                skip,
                mcsim_isa::BranchHint::Dynamic,
            )
            .load(R2, COUNT)
            .alu(R2, mcsim_isa::AluOp::Add, R2, 1u64)
            .store(COUNT, R2)
            .bind(skip)
            .halt()
            .build()
            .unwrap()
    };
    Litmus {
        name: "dekker-attempt",
        programs: vec![side("dekker-p0", ME0, ME1), side("dekker-p1", ME1, ME0)],
        init: BTreeMap::new(),
    }
}

/// Independent reads of independent writes:
/// `P0: x=1` / `P1: y=1` / `P2: r1=x; r2=y` / `P3: r1=y; r2=x`.
/// The interesting outcome is the two readers disagreeing on the order
/// of the two writes (P2 sees x first, P3 sees y first) — possible only
/// on non-store-atomic machines. This simulator's coherence protocol
/// serializes writes through the directory, so every model forbids it;
/// the oracle's single atomic memory encodes the same guarantee.
#[must_use]
pub fn iriw() -> Litmus {
    let writer = |name: &'static str, addr: u64| {
        ProgramBuilder::new(name)
            .store(addr, 1u64)
            .halt()
            .build()
            .unwrap()
    };
    let reader = |name: &'static str, first: u64, second: u64| {
        ProgramBuilder::new(name)
            .load(R1, first)
            .load(R2, second)
            .halt()
            .build()
            .unwrap()
    };
    Litmus {
        name: "iriw",
        programs: vec![
            writer("iriw-p0", X),
            writer("iriw-p1", Y),
            reader("iriw-p2", X, Y),
            reader("iriw-p3", Y, X),
        ],
        init: BTreeMap::new(),
    }
}

/// 2+2W: `P0: x=1; y=2` / `P1: y=1; x=2`. The outcome x=1 ∧ y=1 needs
/// each processor's *first* store to overwrite the other's *second* —
/// forbidden while store→store order holds (SC, TSO, PC), allowed once
/// stores may drain out of order (PSO, WC, RC).
#[must_use]
pub fn two_plus_two_w() -> Litmus {
    let side = |name: &'static str, first: u64, second: u64| {
        ProgramBuilder::new(name)
            .store(first, 1u64)
            .store(second, 2u64)
            .halt()
            .build()
            .unwrap()
    };
    Litmus {
        name: "2+2w",
        programs: vec![side("2+2w-p0", X, Y), side("2+2w-p1", Y, X)],
        init: BTreeMap::new(),
    }
}

/// A store after a same-word release: `P0: y=14; x=35 (rel); x=73`.
/// The release waits for `y=14`, and RC has no release → store arc, so
/// only per-location program order keeps `x=73` last. Every model must
/// end with x = 73.
#[must_use]
pub fn release_overtake() -> Litmus {
    let p0 = ProgramBuilder::new("ro-p0")
        .store(Y, 14u64)
        .store_release(X, 35u64)
        .store(X, 73u64)
        .halt()
        .build()
        .unwrap();
    Litmus {
        name: "release-overtake",
        programs: vec![p0],
        init: BTreeMap::new(),
    }
}

/// The standard suite.
#[must_use]
pub fn standard_suite() -> Vec<Litmus> {
    vec![
        store_buffering(),
        message_passing(),
        message_passing_racy(),
        load_buffering(),
        coherence_rr(),
        dekker_attempt(),
    ]
}

/// The conformance corpus: the classic named litmus shapes whose
/// per-model allowed sets are pinned as goldens and checked against the
/// simulator across `Model::ALL_EXTENDED` × techniques × seeds.
#[must_use]
pub fn conformance_corpus() -> Vec<Litmus> {
    vec![
        store_buffering(),
        message_passing(),
        load_buffering(),
        iriw(),
        coherence_rr(),
        two_plus_two_w(),
        release_overtake(),
    ]
}

/// Renders the allowed-outcome sets of every corpus test under every
/// model as stable, diff-friendly text — the golden-file format and the
/// output of `mcsim oracle print`.
#[must_use]
pub fn render_allowed_sets(corpus: &[Litmus]) -> String {
    let mut out = String::new();
    for l in corpus {
        for model in Model::ALL_EXTENDED {
            let allowed = l.allowed_outcomes(model);
            let _ = writeln!(
                out,
                "== {} @ {} ({} outcomes)",
                l.name,
                model.name(),
                allowed.len()
            );
            out.push_str(&mcsim_oracle::format_outcomes(&allowed));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_oracles_are_finite_and_nonempty() {
        for l in standard_suite() {
            let o = l.sc_outcomes();
            assert!(!o.is_empty(), "{}", l.name);
        }
    }

    #[test]
    fn sb_oracle_forbids_zero_zero() {
        let l = store_buffering();
        for o in l.sc_outcomes() {
            assert!(
                !(o.reg(0, R1) == 0 && o.reg(1, R1) == 0),
                "SC forbids (0, 0)"
            );
        }
    }

    #[test]
    fn mp_oracle_always_delivers() {
        let l = message_passing();
        for o in l.sc_outcomes() {
            assert_eq!(o.reg(1, R2), 42);
        }
    }
}

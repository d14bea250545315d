//! # mcsim-oracle — the per-model execution-enumeration oracle
//!
//! An exhaustive abstract-machine enumerator: for litmus-sized programs
//! it computes the *complete* set of allowed final states under each
//! consistency model, in the style of operational "instantaneous
//! instruction execution" (I2E) frameworks.
//!
//! ## The abstract machine
//!
//! Each processor holds a program counter, a register file whose slots
//! are either concrete values or *tags* of not-yet-performed accesses,
//! and an in-program-order queue of pending memory accesses. Two kinds
//! of transition interleave:
//!
//! * **Fetch** is instantaneous and greedy: ALU ops with concrete inputs
//!   execute on the spot, loads/stores/RMWs append to the pending queue
//!   (the destination register receives the entry's tag), ALU ops with
//!   pending inputs are deferred as dataflow entries, and prefetches are
//!   non-binding no-ops. Fetch blocks only where the abstract machine
//!   has no other choice: a branch whose condition is still a tag, or an
//!   address that depends on a pending value.
//! * **Perform** is the nondeterministic choice the search explores: any
//!   pending access may atomically read/write the single shared memory
//!   provided (a) no earlier pending access in the same queue is related
//!   to it by the model's delay arcs ([`Model::must_delay`]), (b) no
//!   earlier pending access targets the same address (uniprocessor
//!   program order per location), and (c) its operands are concrete.
//!
//! Store data may stay symbolic in the queue, so accesses later in
//! program order can legally perform around a store that still waits on
//! a load — the reordering the relaxed models (and the simulator's
//! out-of-order core) actually exhibit.
//!
//! The search memoizes visited states (tags are canonicalized as queue
//! positions), so spin loops reach a repeated state and terminate, and
//! IRIW-sized programs finish in milliseconds.
//!
//! ## What the oracle claims
//!
//! The enumerated set is the *conventional* delayed semantics of the
//! model: every access performs at a time consistent with the delay
//! arcs. The paper's §4.2 argument is that speculation + rollback never
//! commits a value that differs from the value at the access's earliest
//! legal perform time (any intervening coherence action triggers a
//! rollback), so simulator outcomes must be members of this set — that
//! membership is what the conformance harness checks. Two deliberate
//! conservatisms: the shared memory is a single atomic store (writes are
//! seen by all processors at once, so IRIW's non-store-atomic outcome is
//! forbidden under every model, and PC coincides with TSO), and branch
//! outcomes resolve before post-branch accesses perform (the machine's
//! branch speculation never commits a wrong-path access, and a
//! correct-path speculative load that raced a write is rolled back).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;

use mcsim_consistency::Model;
use mcsim_isa::Program;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Bounds for the exhaustive enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Maximum distinct machine states to explore before giving up.
    pub max_states: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_states: 2_000_000,
        }
    }
}

/// A final machine state: registers per processor plus touched memory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Outcome {
    /// Final register values, `regs[proc][reg]`.
    pub regs: Vec<Vec<u64>>,
    /// Final values of every address any execution wrote (reads do not
    /// appear), plus the initial image.
    pub memory: BTreeMap<u64, u64>,
}

impl Outcome {
    /// Register value accessor.
    #[must_use]
    pub fn reg(&self, proc: usize, r: mcsim_isa::RegId) -> u64 {
        self.regs[proc][r.index()]
    }

    /// Memory value (0 if untouched).
    #[must_use]
    pub fn mem(&self, addr: u64) -> u64 {
        self.memory.get(&addr).copied().unwrap_or(0)
    }
}

/// The enumeration result.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// Reachable final states.
    pub outcomes: BTreeSet<Outcome>,
    /// Whether the state space was exhausted. This is the one failure
    /// signal: when false, the outcome set is a subset, and [`Self::error`]
    /// says whether the program was at fault or `max_states` was hit.
    pub complete: bool,
    /// The program's fault that stopped the enumeration; `None` when it
    /// ran out of `max_states`. Only ever set together with
    /// `complete: false`, so callers check `complete` alone and read this
    /// to report why.
    pub error: Option<OracleError>,
}

/// A program the oracle cannot enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// A load, store or RMW computed a word address that is not 8-byte
    /// aligned (static ones already fail program validation).
    Misaligned {
        /// The processor.
        proc: usize,
        /// The instruction.
        pc: u32,
        /// The computed byte address.
        addr: u64,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Misaligned { proc, pc, addr } => write!(
                f,
                "proc {proc} pc {pc}: computed address {addr:#x} is not 8-byte aligned"
            ),
        }
    }
}

impl std::error::Error for OracleError {}

/// Enumerates every final state of `programs` allowed under `model`,
/// starting from the given initial memory image.
#[must_use]
pub fn outcomes(
    model: Model,
    programs: &[Program],
    init_mem: &BTreeMap<u64, u64>,
    cfg: OracleConfig,
) -> OracleResult {
    exec::enumerate(model, programs, init_mem, cfg)
}

/// Enumerates every *sequentially consistent* final state — the SC
/// specialization of [`outcomes`], kept as a named entry point because
/// SC membership is the paper's §4.2 correctness statement.
#[must_use]
pub fn sc_outcomes(
    programs: &[Program],
    init_mem: &BTreeMap<u64, u64>,
    cfg: OracleConfig,
) -> OracleResult {
    outcomes(Model::Sc, programs, init_mem, cfg)
}

/// Executes a single program sequentially to completion (the
/// single-processor special case — handy as a reference semantics).
#[must_use]
pub fn run_sequential(program: &Program, init_mem: &BTreeMap<u64, u64>) -> Outcome {
    let r = sc_outcomes(
        std::slice::from_ref(program),
        init_mem,
        OracleConfig::default(),
    );
    assert!(r.complete, "single program exceeded oracle bounds");
    assert_eq!(
        r.outcomes.len(),
        1,
        "a deterministic single program has exactly one outcome"
    );
    r.outcomes.into_iter().next().expect("checked")
}

/// Renders an outcome set as stable, diff-friendly text: one line per
/// outcome listing every register that is nonzero in *any* outcome of
/// the set and every memory address any outcome mentions. Used for the
/// golden allowed-set files and `mcsim oracle` output.
#[must_use]
pub fn format_outcomes<'a>(set: impl IntoIterator<Item = &'a Outcome>) -> String {
    let set: Vec<&Outcome> = set.into_iter().collect();
    if set.is_empty() {
        return "  (no outcomes)\n".to_string();
    }
    let mut reg_cols: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut mem_cols: BTreeSet<u64> = BTreeSet::new();
    for o in &set {
        for (p, regs) in o.regs.iter().enumerate() {
            for (r, &v) in regs.iter().enumerate() {
                if v != 0 {
                    reg_cols.insert((p, r));
                }
            }
        }
        mem_cols.extend(o.memory.keys().copied());
    }
    let mut out = String::new();
    for o in &set {
        let mut parts: Vec<String> = reg_cols
            .iter()
            .map(|&(p, r)| format!("p{p}.r{r}={}", o.regs[p][r]))
            .collect();
        if parts.is_empty() {
            parts.push("(regs all 0)".to_string());
        }
        let mems: Vec<String> = mem_cols
            .iter()
            .map(|&a| format!("[{a:#x}]={}", o.mem(a)))
            .collect();
        out.push_str("  ");
        out.push_str(&parts.join(" "));
        if !mems.is_empty() {
            out.push_str(" | ");
            out.push_str(&mems.join(" "));
        }
        out.push('\n');
    }
    out
}

/// Whether every outcome of `subset` appears in `superset` — the
/// monotonicity check (a stricter model's allowed set is contained in
/// every more relaxed model's).
#[must_use]
pub fn is_subset(subset: &OracleResult, superset: &OracleResult) -> bool {
    subset.outcomes.is_subset(&superset.outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::reg::{R1, R2};
    use mcsim_isa::ProgramBuilder;

    fn mem0() -> BTreeMap<u64, u64> {
        BTreeMap::new()
    }

    #[test]
    fn sequential_execution() {
        let p = ProgramBuilder::new("t")
            .store(0x10u64, 4u64)
            .load(R1, 0x10u64)
            .alu(R2, mcsim_isa::AluOp::Mul, R1, 3u64)
            .halt()
            .build()
            .unwrap();
        let o = run_sequential(&p, &mem0());
        assert_eq!(o.reg(0, R2), 12);
        assert_eq!(o.mem(0x10), 4);
    }

    #[test]
    fn incomplete_flag_on_tiny_budget() {
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 1u64)
            .store(0x108u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .store(0x110u64, 1u64)
            .store(0x118u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let r = sc_outcomes(&[p0, p1], &mem0(), OracleConfig { max_states: 3 });
        assert!(!r.complete);
    }

    #[test]
    fn format_is_stable_and_mentions_columns() {
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 1u64)
            .load(R1, 0x200u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .store(0x200u64, 1u64)
            .load(R1, 0x100u64)
            .halt()
            .build()
            .unwrap();
        let r = sc_outcomes(&[p0, p1], &mem0(), OracleConfig::default());
        let text = format_outcomes(&r.outcomes);
        assert_eq!(text, format_outcomes(&r.outcomes), "deterministic");
        assert!(text.contains("p0.r1="));
        assert!(text.contains("[0x100]=1"));
        assert_eq!(text.lines().count(), r.outcomes.len());
    }
}

//! The reorder buffer (Smith & Pleszkun [22]; Johnson [11]).
//!
//! Per §4.2 of the paper, the reorder buffer serves three roles:
//! eliminating storage conflicts through register renaming, buffering
//! uncommitted results so execution may proceed past unresolved branches,
//! and providing precise interrupts via in-order retirement. The same
//! squash machinery recovers from branch misprediction *and* from
//! incorrectly speculated loads — the paper's correction mechanism reuses
//! it wholesale.

use mcsim_isa::reg::RegFile;
use mcsim_isa::{Addr, Instr, Operand, RegId, NUM_REGS};
use std::collections::VecDeque;

/// Monotonically increasing instruction sequence number (unique per
/// core). Doubles as the rename tag.
pub type Seq = u64;

/// A source operand slot: resolved, or waiting on a producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Value available.
    Ready(u64),
    /// Waiting for the instruction with this sequence number.
    Waiting(Seq),
}

impl Src {
    /// The value if ready.
    #[must_use]
    pub fn value(&self) -> Option<u64> {
        match self {
            Src::Ready(v) => Some(*v),
            Src::Waiting(_) => None,
        }
    }
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Sequence number (rename tag).
    pub seq: Seq,
    /// Program counter it was fetched from.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
    /// First operand: address-index register (memory ops) or left ALU /
    /// branch operand. `None` when the instruction has no such operand.
    pub src1: Option<Src>,
    /// Second operand: store/RMW data or right ALU / branch operand.
    pub src2: Option<Src>,
    /// Result value (register writers; loads once data returns).
    pub value: Option<u64>,
    /// Cycle an ALU op finishes executing (scheduled by the core).
    pub finishes_at: Option<u64>,
    /// Effective address, once computed by the address unit.
    pub addr: Option<Addr>,
    /// Memory op handed to the load/store unit (address unit done).
    pub dispatched: bool,
    /// A store-buffer entry exists (or existed) for this instruction, so
    /// the store buffer — not this entry — tracks its completion.
    pub in_store_buffer: bool,
    /// Memory access performed (§2's completion notion).
    pub mem_performed: bool,
    /// Load still speculative (its speculative-load-buffer entry has not
    /// retired) — blocks commit so the register file stays precise.
    pub speculative: bool,
    /// Execution finished; the entry may retire when it reaches the head
    /// (memory ops also need their per-model completion conditions).
    pub completed: bool,
    /// Branch prediction made at fetch.
    pub predicted_taken: Option<bool>,
    /// Branch has been resolved (compared against prediction).
    pub resolved: bool,
}

impl RobEntry {
    /// Whether both present operands are resolved.
    #[must_use]
    pub fn srcs_ready(&self) -> bool {
        self.src1.is_none_or(|s| s.value().is_some())
            && self.src2.is_none_or(|s| s.value().is_some())
    }

    /// src1's value (panics if absent/unready — callers check first).
    #[must_use]
    pub fn src1_value(&self) -> u64 {
        self.src1
            .expect("src1 present")
            .value()
            .expect("src1 ready")
    }

    /// src2's value (panics if absent/unready — callers check first).
    #[must_use]
    pub fn src2_value(&self) -> u64 {
        self.src2
            .expect("src2 present")
            .value()
            .expect("src2 ready")
    }
}

/// The reorder buffer plus the rename table and architectural register
/// file it guards.
#[derive(Debug)]
pub struct Rob {
    capacity: usize,
    entries: VecDeque<RobEntry>,
    next_seq: Seq,
    /// Architectural register → most recent in-flight producer.
    rename: [Option<Seq>; NUM_REGS],
    regfile: RegFile,
    /// ALU/branch entries whose last waiting operand was resolved by a
    /// [`Self::set_value`] broadcast — the consumers that just became
    /// startable. Drained by the core into its pending-execute worklist
    /// ([`Self::pop_woken`]) at every publish site, so it never
    /// accumulates.
    woken: Vec<Seq>,
}

impl Rob {
    /// An empty reorder buffer.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Rob {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            next_seq: 0,
            rename: [None; NUM_REGS],
            regfile: RegFile::new(),
            woken: Vec::new(),
        }
    }

    /// Whether another instruction fits.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The committed architectural register file.
    #[must_use]
    pub fn regfile(&self) -> &RegFile {
        &self.regfile
    }

    /// Reads an operand through the rename table: the youngest in-flight
    /// producer's value (or a tag for it), else the architectural file.
    #[must_use]
    pub fn read_reg(&self, r: RegId) -> Src {
        match self.rename[r.index()] {
            Some(seq) => match self.entry(seq).and_then(|e| e.value) {
                Some(v) => Src::Ready(v),
                None => Src::Waiting(seq),
            },
            None => Src::Ready(self.regfile.read(r)),
        }
    }

    fn resolve_operand(&self, op: &Operand) -> Src {
        match op {
            Operand::Imm(v) => Src::Ready(*v),
            Operand::Reg(r) => self.read_reg(*r),
        }
    }

    /// Allocates an entry for `instr` fetched from `pc`, resolving its
    /// operands through the rename table and claiming the destination
    /// register. Returns `None` when full.
    pub fn push(&mut self, pc: u32, instr: Instr) -> Option<Seq> {
        if !self.has_space() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let (src1, src2) = match &instr {
            Instr::Load { addr, .. } => (addr.dep().map(|r| self.read_reg(r)), None),
            Instr::Store { addr, src, .. } | Instr::Rmw { addr, src, .. } => (
                addr.dep().map(|r| self.read_reg(r)),
                Some(self.resolve_operand(src)),
            ),
            Instr::Alu { lhs, rhs, .. } | Instr::Branch { lhs, rhs, .. } => (
                Some(self.resolve_operand(lhs)),
                Some(self.resolve_operand(rhs)),
            ),
            Instr::Prefetch { addr, .. } => (addr.dep().map(|r| self.read_reg(r)), None),
            Instr::Jump { .. } | Instr::Nop | Instr::Halt => (None, None),
        };
        let completed = matches!(instr, Instr::Jump { .. } | Instr::Nop | Instr::Halt);
        if let Some(dst) = instr.dst() {
            self.rename[dst.index()] = Some(seq);
        }
        self.entries.push_back(RobEntry {
            seq,
            pc,
            instr,
            src1,
            src2,
            value: None,
            finishes_at: None,
            addr: None,
            dispatched: false,
            in_store_buffer: false,
            mem_performed: false,
            speculative: false,
            completed,
            predicted_taken: None,
            resolved: false,
        });
        Some(seq)
    }

    fn index_of(&self, seq: Seq) -> Option<usize> {
        // Sequence numbers strictly increase, and a gap opens only where a
        // squash was refetched. So the entry usually sits at its offset
        // from the head (no gap before it) or from the tail (no gap after
        // it); binary-search only when both probes miss.
        let head = self.entries.front()?.seq;
        let tail = self.entries.back()?.seq;
        if seq < head || seq > tail {
            return None;
        }
        let from_head = (seq - head) as usize;
        if self.entries.get(from_head).is_some_and(|e| e.seq == seq) {
            return Some(from_head);
        }
        let from_tail = (tail - seq) as usize;
        if let Some(i) = (self.entries.len() - 1).checked_sub(from_tail) {
            if self.entries[i].seq == seq {
                return Some(i);
            }
        }
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// The entry with sequence `seq`, if still in flight.
    #[must_use]
    pub fn entry(&self, seq: Seq) -> Option<&RobEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Mutable access to an in-flight entry.
    pub fn entry_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        self.index_of(seq).map(move |i| &mut self.entries[i])
    }

    /// The oldest entry.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Mutable iteration oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// Publishes `seq`'s result: stores it in the entry and wakes every
    /// waiting operand slot (values are usable the same cycle, matching
    /// the paper's zero-cost forwarding).
    pub fn set_value(&mut self, seq: Seq, value: u64) {
        if let Some(e) = self.entry_mut(seq) {
            e.value = Some(value);
        }
        for e in &mut self.entries {
            let mut resolved_one = false;
            if e.src1 == Some(Src::Waiting(seq)) {
                e.src1 = Some(Src::Ready(value));
                resolved_one = true;
            }
            if e.src2 == Some(Src::Waiting(seq)) {
                e.src2 = Some(Src::Ready(value));
                resolved_one = true;
            }
            // An ALU/branch whose *last* waiting operand this broadcast
            // resolved just became startable — record it for the core's
            // pending-execute worklist. (Started ALUs and resolved
            // branches have no waiting operands, so they never re-wake.)
            if resolved_one
                && e.srcs_ready()
                && matches!(e.instr, Instr::Alu { .. } | Instr::Branch { .. })
            {
                self.woken.push(e.seq);
            }
        }
    }

    /// Pops one consumer recorded by the last [`Self::set_value`]
    /// broadcasts (order unspecified; callers re-sort).
    pub fn pop_woken(&mut self) -> Option<Seq> {
        self.woken.pop()
    }

    /// Retires the head entry: writes its result to the architectural
    /// register file and releases its rename binding. Returns `None` when
    /// the buffer is empty.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        if let Some(dst) = e.instr.dst() {
            if let Some(v) = e.value {
                self.regfile.write(dst, v);
            }
            if self.rename[dst.index()] == Some(e.seq) {
                self.rename[dst.index()] = None;
            }
        }
        Some(e)
    }

    /// Squashes every entry with `seq >= from` (inclusive), rebuilding the
    /// rename table from the survivors. Returns how many entries it
    /// removed.
    pub fn squash_from(&mut self, from: Seq) -> usize {
        let keep = self.entries.partition_point(|e| e.seq < from);
        let removed = self.entries.len() - keep;
        self.entries.truncate(keep);
        self.woken.retain(|&s| s < from);
        // Rebuild rename: youngest surviving producer per register.
        self.rename = [None; NUM_REGS];
        for e in &self.entries {
            if let Some(dst) = e.instr.dst() {
                self.rename[dst.index()] = Some(e.seq);
            }
        }
        removed
    }

    /// The next sequence number that will be allocated (used by the core
    /// to name the refetch point).
    #[must_use]
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::reg::{R1, R2, R3};
    use mcsim_isa::{AddrExpr, AluOp, MemFlavor};

    fn load(dst: RegId, base: u64) -> Instr {
        Instr::Load {
            dst,
            addr: AddrExpr::direct(base),
            flavor: MemFlavor::Ordinary,
        }
    }

    fn add(dst: RegId, lhs: RegId, imm: u64) -> Instr {
        Instr::Alu {
            dst,
            op: AluOp::Add,
            lhs: Operand::Reg(lhs),
            rhs: Operand::Imm(imm),
            latency: 1,
        }
    }

    #[test]
    fn renaming_chains_through_producers() {
        let mut rob = Rob::new(8);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob.push(1, add(R2, R1, 5)).unwrap();
        // add waits on the load.
        assert_eq!(rob.entry(s1).unwrap().src1, Some(Src::Waiting(s0)));
        rob.set_value(s0, 37);
        assert_eq!(rob.entry(s1).unwrap().src1, Some(Src::Ready(37)));
        assert!(rob.entry(s1).unwrap().srcs_ready());
    }

    #[test]
    fn read_reg_prefers_youngest_producer() {
        let mut rob = Rob::new(8);
        let _ = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob.push(1, load(R1, 0x20)).unwrap();
        assert_eq!(rob.read_reg(R1), Src::Waiting(s1));
        rob.set_value(s1, 9);
        assert_eq!(rob.read_reg(R1), Src::Ready(9));
    }

    #[test]
    fn read_reg_falls_back_to_regfile() {
        let rob = Rob::new(4);
        assert_eq!(rob.read_reg(R3), Src::Ready(0));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        assert!(rob.push(0, Instr::Nop).is_some());
        assert!(rob.push(1, Instr::Nop).is_some());
        assert!(rob.push(2, Instr::Nop).is_none());
        assert!(!rob.has_space());
    }

    #[test]
    fn pop_head_commits_to_regfile() {
        let mut rob = Rob::new(4);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        rob.set_value(s0, 42);
        let e = rob.pop_head().expect("non-empty");
        assert_eq!(e.seq, s0);
        assert_eq!(rob.regfile().read(R1), 42);
        // Rename binding released: reads now hit the regfile.
        assert_eq!(rob.read_reg(R1), Src::Ready(42));
    }

    #[test]
    fn squash_rebuilds_rename() {
        let mut rob = Rob::new(8);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob.push(1, load(R2, 0x20)).unwrap();
        let s2 = rob.push(2, load(R1, 0x30)).unwrap();
        assert_eq!(rob.squash_from(s1), 2);
        assert!(rob.entry(s2).is_none());
        // R1 renames to the surviving s0, R2 back to the regfile.
        assert_eq!(rob.read_reg(R1), Src::Waiting(s0));
        assert_eq!(rob.read_reg(R2), Src::Ready(0));
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn lookup_works_with_non_contiguous_seqs() {
        // After a squash the next push creates a gap in sequence numbers;
        // lookups must still resolve (regression: the original index math
        // assumed contiguity and silently dropped refetched entries).
        let mut rob = Rob::new(8);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob.push(1, load(R2, 0x20)).unwrap();
        let _s2 = rob.push(2, load(R1, 0x30)).unwrap();
        rob.squash_from(s1);
        let s3 = rob.push(1, load(R2, 0x40)).unwrap();
        assert!(s3 > s1 + 1, "squash leaves a seq gap");
        assert!(rob.entry(s0).is_some());
        assert!(rob.entry(s3).is_some(), "refetched entry must be findable");
        assert!(rob.entry(s1).is_none());
        rob.set_value(s3, 5);
        assert_eq!(rob.entry(s3).unwrap().value, Some(5));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push,
        SetValue(usize, u64),
        PopHead,
        Squash(usize),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            (any::<usize>(), any::<u64>()).prop_map(|(i, v)| Op::SetValue(i, v)),
            Just(Op::PopHead),
            any::<usize>().prop_map(Op::Squash),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 256, ..Default::default() })]

        /// `entry(seq)` agrees with a linear scan of a reference list of
        /// live `(seq, value)` pairs after every step, for every seq ever
        /// allocated (retired and squashed ones included) and one beyond.
        #[test]
        fn lookup_matches_linear_scan(ops in proptest::collection::vec(op(), 0..160)) {
            let mut rob = Rob::new(16);
            let mut live: Vec<(Seq, Option<u64>)> = Vec::new();
            for op in ops {
                let next = rob.next_seq();
                match op {
                    Op::Push => {
                        let pushed = rob.push(0, load(R1, 0x10));
                        proptest::prop_assert_eq!(pushed.is_some(), live.len() < 16);
                        if let Some(seq) = pushed {
                            live.push((seq, None));
                        }
                    }
                    Op::SetValue(i, v) => {
                        // Any seq ever allocated (retired, squashed or live).
                        let seq = (i as u64) % (next + 1);
                        rob.set_value(seq, v);
                        if let Some(e) = live.iter_mut().find(|e| e.0 == seq) {
                            e.1 = Some(v);
                        }
                    }
                    Op::PopHead => {
                        let popped = rob.pop_head().map(|e| e.seq);
                        let expected = (!live.is_empty()).then(|| live.remove(0).0);
                        proptest::prop_assert_eq!(popped, expected);
                    }
                    Op::Squash(i) => {
                        // A live seq (opening a gap once refetched) or the
                        // next one (a no-op squash).
                        let from = live.get(i % (live.len() + 1)).map_or(next, |e| e.0);
                        let before = live.len();
                        live.retain(|e| e.0 < from);
                        proptest::prop_assert_eq!(rob.squash_from(from), before - live.len());
                    }
                }
                for seq in 0..=rob.next_seq() {
                    let expected = live.iter().find(|e| e.0 == seq).map(|e| e.1);
                    proptest::prop_assert_eq!(rob.entry(seq).map(|e| e.value), expected);
                }
            }
        }
    }

    #[test]
    fn squash_from_future_is_noop() {
        let mut rob = Rob::new(4);
        let _ = rob.push(0, Instr::Nop);
        assert_eq!(rob.squash_from(100), 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn set_value_wakes_both_slots() {
        let mut rob = Rob::new(8);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob
            .push(
                1,
                Instr::Alu {
                    dst: R2,
                    op: AluOp::Add,
                    lhs: Operand::Reg(R1),
                    rhs: Operand::Reg(R1),
                    latency: 1,
                },
            )
            .unwrap();
        rob.set_value(s0, 4);
        let e = rob.entry(s1).unwrap();
        assert_eq!(e.src1, Some(Src::Ready(4)));
        assert_eq!(e.src2, Some(Src::Ready(4)));
    }

    #[test]
    fn store_resolves_address_and_data_operands() {
        let mut rob = Rob::new(8);
        let s0 = rob.push(0, load(R1, 0x10)).unwrap();
        let s1 = rob
            .push(
                1,
                Instr::Store {
                    addr: AddrExpr::indexed(0x100, R1, 8),
                    src: Operand::Reg(R1),
                    flavor: MemFlavor::Ordinary,
                },
            )
            .unwrap();
        let e = rob.entry(s1).unwrap();
        assert_eq!(e.src1, Some(Src::Waiting(s0)));
        assert_eq!(e.src2, Some(Src::Waiting(s0)));
        assert!(!e.srcs_ready());
    }

    #[test]
    fn nop_jump_halt_complete_immediately() {
        let mut rob = Rob::new(8);
        let s = rob.push(0, Instr::Halt).unwrap();
        assert!(rob.entry(s).unwrap().completed);
    }
}

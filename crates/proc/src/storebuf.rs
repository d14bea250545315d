//! The store buffer (Figure 4 of the paper).
//!
//! Stores (and the write halves of read-modify-writes) wait here after
//! address translation. Two gates control issue:
//!
//! 1. **Precise interrupts** — a store may not issue until the reorder
//!    buffer signals that it reached the head (`rob_released`), i.e. all
//!    previous instructions have completed. This single mechanism also
//!    delays stores behind previous loads and acquires, conservatively
//!    satisfying every model's store-after-load arcs (§4.2: "although the
//!    mechanism described is stricter than what RC requires, the
//!    conservative implementation is required for providing precise
//!    interrupts").
//! 2. **Store-side delay arcs** — an entry may not issue while an earlier
//!    incomplete entry `j` exists with `must_delay(j, me)`. Under SC/PC
//!    this serializes stores; under RC ordinary stores pipeline and only a
//!    release waits for everything before it.
//!
//! The buffer also answers dependence checks from later loads
//! (store-to-load forwarding) and feeds the prefetch unit with delayed
//! entries.

use crate::rob::Seq;
use mcsim_consistency::{AccessClass, Model};
use mcsim_isa::{Addr, RmwKind};
use mcsim_mem::TxnId;
use std::collections::VecDeque;

/// Progress of one store-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbState {
    /// Not yet issued to the memory system.
    Waiting,
    /// Issued; completion pending.
    Issued {
        /// Transaction carrying it.
        txn: TxnId,
    },
}

/// One buffered store or RMW write-half.
#[derive(Debug, Clone)]
pub struct SbEntry {
    /// The instruction's sequence number (also the spec-buffer store tag).
    pub seq: Seq,
    /// Ordering classification.
    pub class: AccessClass,
    /// Target word.
    pub addr: Addr,
    /// Store value, or the RMW operand.
    pub value: u64,
    /// `Some` for the write half of a read-modify-write.
    pub rmw: Option<RmwKind>,
    /// The reorder buffer has signaled the entry reached its head.
    pub rob_released: bool,
    /// Issue progress.
    pub state: SbState,
    /// A read-exclusive prefetch has been sent for it (§3.2).
    pub prefetch_sent: bool,
    /// Cycle it was issued to the memory system (latency stats).
    pub issued_at: Option<u64>,
}

/// Result of a load's dependence check against the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardResult {
    /// No earlier same-address store: the load may go to memory.
    None,
    /// An earlier plain store supplies the value (store-to-load
    /// forwarding); the load logically performs when that store does.
    Value {
        /// The forwarding store.
        seq: Seq,
        /// Its value.
        value: u64,
    },
    /// An earlier same-address RMW whose result is not yet known; the
    /// load must wait for it to complete.
    Conflict {
        /// The conflicting entry.
        seq: Seq,
    },
}

/// The FIFO store buffer.
#[derive(Debug, Default)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
}

impl StoreBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        StoreBuffer::default()
    }

    /// Number of incomplete entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty (all stores performed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (program order).
    pub fn push(&mut self, e: SbEntry) {
        debug_assert!(
            self.entries.back().is_none_or(|b| b.seq < e.seq),
            "store buffer entries must arrive in program order"
        );
        self.entries.push_back(e);
    }

    /// Marks `seq` as released by the reorder buffer (reached the head).
    pub fn mark_released(&mut self, seq: Seq) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.rob_released = true;
        }
    }

    /// The entry for `seq`, if incomplete.
    #[must_use]
    pub fn get(&self, seq: Seq) -> Option<&SbEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    /// Mutable entry lookup.
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut SbEntry> {
        self.entries.iter_mut().find(|e| e.seq == seq)
    }

    /// Whether `me` is blocked by an earlier incomplete entry under
    /// `model`'s store-side delay arcs.
    #[must_use]
    pub fn blocked_by_earlier(&self, model: Model, me: &SbEntry) -> bool {
        self.entries
            .iter()
            .take_while(|j| j.seq < me.seq)
            .any(|j| model.must_delay(j.class, me.class))
    }

    /// Fills `out` with the sequence numbers of entries eligible to issue
    /// this cycle, oldest first: released, still waiting, and not blocked
    /// by an earlier entry's delay arc.
    pub fn issuable(&self, model: Model, out: &mut Vec<Seq>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|e| {
                    e.rob_released
                        && matches!(e.state, SbState::Waiting)
                        && !self.blocked_by_earlier(model, e)
                })
                .map(|e| e.seq),
        );
    }

    /// Fills `out` with the entries that are *delayed* (waiting but not
    /// issuable) and have not been prefetched, as read-exclusive prefetch
    /// requests `(seq, addr, true)`, oldest first — the prefetch unit's
    /// candidates (§3.2: prefetches are generated for accesses "delayed
    /// due to consistency constraints").
    pub fn prefetch_candidates(&self, model: Model, out: &mut Vec<(Seq, Addr, bool)>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|e| {
                    matches!(e.state, SbState::Waiting)
                        && !e.prefetch_sent
                        && (!e.rob_released || self.blocked_by_earlier(model, e))
                })
                .map(|e| (e.seq, e.addr, true)),
        );
    }

    /// Removes a completed entry, returning it (the spec buffer nullifies
    /// matching store tags with it).
    pub fn complete(&mut self, seq: Seq) -> Option<SbEntry> {
        let i = self.entries.iter().position(|e| e.seq == seq)?;
        self.entries.remove(i)
    }

    /// Dependence check for a load at `load_seq` against earlier entries
    /// to the same word. The *youngest* earlier match wins.
    #[must_use]
    pub fn forward(&self, addr: Addr, load_seq: Seq) -> ForwardResult {
        for e in self.entries.iter().rev().skip_while(|e| e.seq >= load_seq) {
            if e.addr == addr {
                return match e.rmw {
                    None => ForwardResult::Value {
                        seq: e.seq,
                        value: e.value,
                    },
                    Some(_) => ForwardResult::Conflict { seq: e.seq },
                };
            }
        }
        ForwardResult::None
    }

    /// The youngest incomplete entry older than `load_seq` whose class
    /// constrains a later access of class `later` — the spec-buffer store
    /// tag (§4.2: "if the consistency constraints require the load to be
    /// delayed for a previous store, the store tag uniquely identifies
    /// that store").
    #[must_use]
    pub fn constraining_store(
        &self,
        model: Model,
        load_seq: Seq,
        later: AccessClass,
    ) -> Option<Seq> {
        self.entries
            .iter()
            .rev()
            .skip_while(|e| e.seq >= load_seq)
            .find(|e| model.must_delay(e.class, later))
            .map(|e| e.seq)
    }

    /// Squashes entries with `seq >= from`.
    ///
    /// # Panics
    /// If a squashed entry was already issued — the release discipline
    /// guarantees stores younger than any speculative load are unissued
    /// (they can only be released after the load commits).
    pub fn squash_from(&mut self, from: Seq) {
        while self.entries.back().is_some_and(|e| e.seq >= from) {
            let e = self.entries.pop_back().expect("checked");
            assert!(
                matches!(e.state, SbState::Waiting),
                "squashed store {} was already issued to memory",
                e.seq
            );
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: Seq, class: AccessClass, addr: u64) -> SbEntry {
        SbEntry {
            seq,
            class,
            addr: Addr(addr),
            value: seq, // distinct values for forwarding checks
            rmw: None,
            rob_released: false,
            state: SbState::Waiting,
            prefetch_sent: false,
            issued_at: None,
        }
    }

    fn issuable(sb: &StoreBuffer, model: Model) -> Vec<Seq> {
        let mut out = vec![99]; // stale contents are cleared
        sb.issuable(model, &mut out);
        out
    }

    fn candidates(sb: &StoreBuffer, model: Model) -> Vec<(Seq, Addr, bool)> {
        let mut out = Vec::new();
        sb.prefetch_candidates(model, &mut out);
        out
    }

    #[test]
    fn sc_serializes_stores() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(2, AccessClass::STORE, 0x200));
        sb.mark_released(1);
        sb.mark_released(2);
        assert_eq!(issuable(&sb, Model::Sc), vec![1], "only the oldest store");
        sb.complete(1);
        assert_eq!(issuable(&sb, Model::Sc), vec![2]);
    }

    #[test]
    fn rc_pipelines_ordinary_stores() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(2, AccessClass::STORE, 0x200));
        sb.push(entry(3, AccessClass::RELEASE_STORE, 0x40));
        sb.mark_released(1);
        sb.mark_released(2);
        sb.mark_released(3);
        assert_eq!(
            issuable(&sb, Model::Rc),
            vec![1, 2],
            "ordinary stores pipeline; the release waits"
        );
        sb.complete(1);
        sb.complete(2);
        assert_eq!(issuable(&sb, Model::Rc), vec![3]);
    }

    #[test]
    fn unreleased_entries_never_issue() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        assert!(issuable(&sb, Model::Rc).is_empty());
        sb.mark_released(1);
        assert_eq!(issuable(&sb, Model::Rc), vec![1]);
    }

    #[test]
    fn prefetch_candidates_are_delayed_entries() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(2, AccessClass::STORE, 0x200));
        sb.mark_released(1);
        // Under SC, entry 1 is issuable (not a candidate); entry 2 is
        // delayed behind it.
        let cands = candidates(&sb, Model::Sc);
        assert_eq!(cands, vec![(2, Addr(0x200), true)]);
        // Marking prefetch_sent removes it.
        sb.get_mut(2).unwrap().prefetch_sent = true;
        assert!(candidates(&sb, Model::Sc).is_empty());
    }

    #[test]
    fn unreleased_entry_is_prefetch_candidate() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        assert_eq!(candidates(&sb, Model::Rc), vec![(1, Addr(0x100), true)]);
    }

    #[test]
    fn forwarding_picks_youngest_earlier_match() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(3, AccessClass::STORE, 0x100));
        sb.push(entry(5, AccessClass::STORE, 0x200));
        assert_eq!(
            sb.forward(Addr(0x100), 7),
            ForwardResult::Value { seq: 3, value: 3 }
        );
        assert_eq!(
            sb.forward(Addr(0x100), 2),
            ForwardResult::Value { seq: 1, value: 1 },
            "only entries older than the load are checked"
        );
        assert_eq!(sb.forward(Addr(0x300), 7), ForwardResult::None);
    }

    #[test]
    fn rmw_conflicts_instead_of_forwarding() {
        let mut sb = StoreBuffer::new();
        let mut e = entry(1, AccessClass::ACQUIRE_RMW, 0x40);
        e.rmw = Some(RmwKind::TestAndSet);
        sb.push(e);
        assert_eq!(
            sb.forward(Addr(0x40), 5),
            ForwardResult::Conflict { seq: 1 }
        );
    }

    #[test]
    fn constraining_store_respects_model() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(2, AccessClass::RELEASE_STORE, 0x40));
        // SC: any earlier store constrains a later load — youngest wins.
        assert_eq!(
            sb.constraining_store(Model::Sc, 5, AccessClass::LOAD),
            Some(2)
        );
        // RC: ordinary loads are not delayed for earlier stores at all
        // (release -> ordinary load is free).
        assert_eq!(sb.constraining_store(Model::Rc, 5, AccessClass::LOAD), None);
        // WC: the release (a sync access) constrains later loads; the
        // ordinary store does not.
        assert_eq!(
            sb.constraining_store(Model::Wc, 5, AccessClass::LOAD),
            Some(2)
        );
        sb.complete(2);
        assert_eq!(sb.constraining_store(Model::Wc, 5, AccessClass::LOAD), None);
    }

    #[test]
    fn squash_removes_unissued_tail() {
        let mut sb = StoreBuffer::new();
        sb.push(entry(1, AccessClass::STORE, 0x100));
        sb.push(entry(4, AccessClass::STORE, 0x200));
        sb.squash_from(2);
        assert_eq!(sb.len(), 1);
        assert!(sb.get(4).is_none());
        assert!(sb.get(1).is_some());
    }

    #[test]
    #[should_panic(expected = "already issued")]
    fn squashing_issued_store_panics() {
        let mut sb = StoreBuffer::new();
        let mut e = entry(1, AccessClass::STORE, 0x100);
        e.state = SbState::Issued { txn: TxnId(1) };
        sb.push(e);
        sb.squash_from(0);
    }
}

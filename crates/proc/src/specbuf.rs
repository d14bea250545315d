//! The speculative-load buffer — the paper's central new structure
//! (Figure 4, §4.2).
//!
//! Every speculatively issued load (and the read-exclusive half of a
//! split RMW, Appendix A) gets an entry with the paper's four fields:
//! *load address* (kept at line granularity — the matching grain of the
//! coherence protocol), *acq*, *done*, and *store tag*. Entries retire in
//! FIFO order when (1) the store tag is null and (2) `done` is set if
//! `acq` is set. Until retirement the entry's load is speculative and the
//! reorder buffer may not commit it.
//!
//! The detection mechanism is an associative match of incoming
//! invalidations, updates, and replacements against the buffered line
//! addresses; the match closest to the head is reported (§4.2). An entry
//! whose value came from store-to-load forwarding is immune: its value is
//! supplied by this processor's own pending store, which no coherence
//! event can falsify.

use crate::rob::Seq;
use mcsim_consistency::AccessClass;
use mcsim_isa::{Addr, LineAddr};
use std::collections::VecDeque;

/// One speculative load.
#[derive(Debug, Clone)]
pub struct SpecEntry {
    /// The load's sequence number.
    pub seq: Seq,
    /// Line it reads (the associative-match key).
    pub line: LineAddr,
    /// The exact word it reads (for the optional exact-update check —
    /// footnote 2's conservatism made configurable).
    pub addr: Addr,
    /// The speculated value once bound (None until the access returns).
    pub bound: Option<u64>,
    /// Acquire semantics under the active model: later loads must wait
    /// for this one to perform. Set for *all* loads under SC and PC, only
    /// for synchronization loads under WC/RC (§4.2).
    pub acq: bool,
    /// The access has performed (value bound by the memory system).
    pub done: bool,
    /// Youngest earlier store this load must wait for, per the model's
    /// arcs; `None` once no such store remains.
    pub store_tag: Option<Seq>,
    /// Ordering class of the load (needed to recompute the tag when a
    /// store completes).
    pub class: AccessClass,
    /// `Some(store)` when the value came from store-to-load forwarding:
    /// the load logically performs when that store does, and no coherence
    /// event can falsify its value (it is this processor's own).
    pub forward_src: Option<Seq>,
}

impl SpecEntry {
    /// Whether the value came from forwarding (hazard-immune).
    #[must_use]
    pub fn forwarded(&self) -> bool {
        self.forward_src.is_some()
    }
}

/// What the detection mechanism found for a hazard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HazardMatch {
    /// The matched (oldest) entry's load.
    pub seq: Seq,
    /// Whether its speculated value had already been bound (and thus
    /// possibly consumed): `true` → full rollback; `false` → the load is
    /// merely reissued (§4.2's two correction cases).
    pub done: bool,
}

/// The buffer itself.
#[derive(Debug, Default)]
pub struct SpeculativeLoadBuffer {
    entries: VecDeque<SpecEntry>,
}

impl SpeculativeLoadBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SpeculativeLoadBuffer::default()
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no speculative loads are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (program order).
    pub fn push(&mut self, e: SpecEntry) {
        debug_assert!(
            self.entries.back().is_none_or(|b| b.seq < e.seq),
            "spec-buffer entries must arrive in program order"
        );
        self.entries.push_back(e);
    }

    /// The entry for `seq`.
    #[must_use]
    pub fn get(&self, seq: Seq) -> Option<&SpecEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    /// Marks the load's access performed, recording the bound value when
    /// the caller knows it.
    pub fn mark_done(&mut self, seq: Seq) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.done = true;
        }
    }

    /// Records the speculated value for the exact-update check.
    pub fn set_bound(&mut self, seq: Seq, value: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.bound = Some(value);
        }
    }

    /// Records that the load's value came from store-to-load forwarding
    /// (discovered at issue, after the entry was created at dispatch).
    pub fn set_forward_src(&mut self, seq: Seq, store: Seq) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.forward_src = Some(store);
        }
    }

    /// A store performed: forwarded loads that took their value from it
    /// are now logically performed too.
    pub fn mark_forward_sources_done(&mut self, store_seq: Seq) {
        for e in &mut self.entries {
            if e.forward_src == Some(store_seq) {
                e.done = true;
            }
        }
    }

    /// A store completed: nullify or recompute matching store tags.
    /// `retag(load_seq, class)` returns the next constraining store for
    /// that load, if any (the core asks its store buffer).
    pub fn store_completed(
        &mut self,
        store_seq: Seq,
        mut retag: impl FnMut(Seq, AccessClass) -> Option<Seq>,
    ) {
        for e in &mut self.entries {
            if e.store_tag == Some(store_seq) {
                e.store_tag = retag(e.seq, e.class);
            }
        }
    }

    /// Retires the head entry if it is ready (FIFO): store tag null, and
    /// done if acq. Returns its sequence number; call until `None` to
    /// retire every ready entry, oldest first.
    pub fn retire_head(&mut self) -> Option<Seq> {
        if self
            .entries
            .front()
            .is_some_and(|h| h.store_tag.is_none() && (!h.acq || h.done))
        {
            self.entries.pop_front().map(|e| e.seq)
        } else {
            None
        }
    }

    /// The detection mechanism: associatively matches a coherence hazard
    /// (invalidation, update, or replacement) for `line` against the
    /// buffer. The match closest to the head is reported. Entries whose
    /// values came from forwarding are skipped (immune), as is a head
    /// entry that already satisfies its retirement conditions — it would
    /// have been allowed to perform at this point anyway (footnote 4 of
    /// the paper).
    #[must_use]
    pub fn match_hazard(&self, line: LineAddr) -> Option<HazardMatch> {
        self.match_hazard_where(line, |_| true)
    }

    /// [`Self::match_hazard`] with an additional predicate: entries for
    /// which `applies` returns false are skipped. Used by the exact-update
    /// check to ignore false-sharing and same-value update hazards
    /// (footnote 2's two provably-safe cases).
    #[must_use]
    pub fn match_hazard_where(
        &self,
        line: LineAddr,
        mut applies: impl FnMut(&SpecEntry) -> bool,
    ) -> Option<HazardMatch> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.line != line || e.forwarded() || !applies(e) {
                continue;
            }
            let retirable = e.store_tag.is_none() && (!e.acq || e.done);
            if i == 0 && retirable && e.done {
                continue; // effectively non-speculative already
            }
            return Some(HazardMatch {
                seq: e.seq,
                done: e.done,
            });
        }
        None
    }

    /// Removes the entry for `seq` (reissue path keeps the slot? no — the
    /// reissued access gets a fresh entry in program-order position; the
    /// caller re-inserts). Returns whether it existed.
    pub fn remove(&mut self, seq: Seq) -> bool {
        if let Some(i) = self.entries.iter().position(|e| e.seq == seq) {
            self.entries.remove(i);
            true
        } else {
            false
        }
    }

    /// Resets the `done` flag for a reissued load (its first value was
    /// discarded before use; the entry keeps its buffer position so FIFO
    /// ordering is preserved — footnote 5's tagging of return values is
    /// modeled by the core's token epochs).
    pub fn mark_reissued(&mut self, seq: Seq) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.done = false;
        }
    }

    /// Squashes entries with `seq >= from`.
    pub fn squash_from(&mut self, from: Seq) {
        while self.entries.back().is_some_and(|e| e.seq >= from) {
            self.entries.pop_back();
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &SpecEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: Seq, line: u64, acq: bool, tag: Option<Seq>) -> SpecEntry {
        SpecEntry {
            seq,
            line: LineAddr(line),
            addr: Addr(line << 6),
            bound: None,
            acq,
            done: false,
            store_tag: tag,
            class: AccessClass::LOAD,
            forward_src: None,
        }
    }

    #[test]
    fn fifo_retirement_conditions() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, true, None)); // acq, not done -> blocks
        b.push(entry(2, 11, false, None)); // ready but behind
        assert_eq!(b.retire_head(), None);
        b.mark_done(1);
        assert_eq!(b.retire_head(), Some(1));
        assert_eq!(b.retire_head(), Some(2));
        assert_eq!(b.retire_head(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn store_tag_blocks_retirement() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, false, Some(7)));
        assert_eq!(b.retire_head(), None);
        // Store 7 completes; no further constraining store.
        b.store_completed(7, |_, _| None);
        assert_eq!(b.retire_head(), Some(1));
    }

    #[test]
    fn store_completion_can_retag() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, false, Some(7)));
        b.store_completed(7, |_, _| Some(5));
        assert_eq!(b.get(1).unwrap().store_tag, Some(5));
        assert_eq!(b.retire_head(), None);
    }

    #[test]
    fn hazard_matches_oldest() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, true, None));
        b.push(entry(2, 99, true, None));
        b.push(entry(3, 99, true, None));
        b.mark_done(2);
        let m = b.match_hazard(LineAddr(99)).unwrap();
        assert_eq!(m.seq, 2, "match closest to the head");
        assert!(m.done);
        assert!(b.match_hazard(LineAddr(55)).is_none());
    }

    #[test]
    fn forwarded_entries_are_immune() {
        let mut b = SpeculativeLoadBuffer::new();
        let mut e = entry(1, 10, true, Some(0));
        e.forward_src = Some(0);
        b.push(e);
        assert!(b.match_hazard(LineAddr(10)).is_none());
    }

    #[test]
    fn retirable_done_head_is_skipped() {
        // Footnote 4: the head entry with a null tag has effectively been
        // allowed to perform; once done, a hazard no longer applies to it.
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, true, None));
        b.mark_done(1);
        assert!(b.match_hazard(LineAddr(10)).is_none());
        // But a non-head or still-constrained entry does match.
        b.push(entry(2, 10, true, None));
        b.mark_done(2);
        let m = b.match_hazard(LineAddr(10)).unwrap();
        assert_eq!(m.seq, 2);
    }

    #[test]
    fn undone_match_reports_reissue_case() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, true, Some(5)));
        let m = b.match_hazard(LineAddr(10)).unwrap();
        assert!(!m.done, "not-done match -> reissue, not rollback");
        b.mark_reissued(1);
        assert!(!b.get(1).unwrap().done);
    }

    #[test]
    fn squash_drops_tail() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, false, None));
        b.push(entry(4, 11, false, None));
        b.push(entry(6, 12, false, None));
        b.squash_from(4);
        assert_eq!(b.len(), 1);
        assert!(b.get(1).is_some());
    }

    #[test]
    fn remove_specific_entry() {
        let mut b = SpeculativeLoadBuffer::new();
        b.push(entry(1, 10, false, None));
        assert!(b.remove(1));
        assert!(!b.remove(1));
    }
}

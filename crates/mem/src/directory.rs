//! The directory and backing memory (DASH-style [18]).
//!
//! The directory tracks, per line, which caches hold copies and in what
//! capacity, serializes transactions per line, and owns the backing
//! memory image. Timing and message scheduling live in
//! [`crate::system`]; this module is the directory's *state*: pure data
//! structure and bookkeeping, individually testable.
//!
//! # Sharer-set formats
//!
//! The sharer set behind [`DirState::Shared`] is a [`SharerSet`]: it
//! always carries the *exact* set of holders (the simulator's ground
//! truth — timing decisions and the update-protocol fan-out are computed
//! from it), plus per-[`DirFormat`] metadata modelling what real
//! directory hardware of that format would know. An exclusive grant fans
//! invalidations out to the *format's decoded* set
//! ([`SharerSet::for_each_format_target`]); targets outside the exact
//! set are spurious — the message is sent (and counted) but finds no
//! copy to kill, so under the fixed-latency implicit-ack network it is
//! architecturally inert. The one format that changes architecture is
//! [`OverflowPolicy::Invalidate`] (Dir_i NB): pointer overflow evicts a
//! *real* sharer, which [`SharerSet::insert`] reports so the system can
//! schedule the eviction invalidation.

use crate::config::{DirFormat, OverflowPolicy};
use crate::msg::{ProcId, TxnId, WriteOp};
use mcsim_guard::FxHashMap;
use mcsim_isa::{Addr, LineAddr};
use std::collections::{btree_set, BTreeSet, VecDeque};

/// What [`SharerSet::insert`] (and [`Directory::add_sharer`]) had to do
/// to record the new sharer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddSharerOutcome {
    /// The format ran out of precise state (coarse formats never
    /// overflow; limited-pointer formats do once `ptrs` is exceeded).
    pub overflowed: bool,
    /// Under [`OverflowPolicy::Invalidate`], the sharer whose pointer
    /// was reclaimed: it was removed from the set and must receive a
    /// real invalidation.
    pub evicted: Option<ProcId>,
}

impl AddSharerOutcome {
    fn merge(self, other: AddSharerOutcome) -> AddSharerOutcome {
        AddSharerOutcome {
            overflowed: self.overflowed || other.overflowed,
            evicted: self.evicted.or(other.evicted),
        }
    }
}

/// Format-specific directory metadata, maintained alongside the exact
/// sharer set.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FormatMeta {
    /// Full bit map: the exact set *is* the hardware state.
    Full,
    /// Sticky region bits (`CoarseVector`): bit `r` covers processors
    /// `r*procs_per_bit .. (r+1)*procs_per_bit`. Bits are set on insert
    /// and never cleared while the line stays shared — coarse hardware
    /// cannot tell when the last sharer in a region left.
    Coarse { regions: BTreeSet<usize> },
    /// Limited pointers (`LimitedPointer`): insertion-ordered exact
    /// pointers, plus the sticky broadcast bit for
    /// [`OverflowPolicy::Broadcast`].
    Limited { ptrs: Vec<ProcId>, overflowed: bool },
}

/// A line's sharer set: exact ground truth plus format metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharerSet {
    format: DirFormat,
    exact: BTreeSet<ProcId>,
    meta: FormatMeta,
}

impl SharerSet {
    /// An empty set for the given format.
    #[must_use]
    pub fn new(format: DirFormat) -> Self {
        let meta = match format {
            DirFormat::FullMap => FormatMeta::Full,
            DirFormat::CoarseVector { .. } => FormatMeta::Coarse {
                regions: BTreeSet::new(),
            },
            DirFormat::LimitedPointer { .. } => FormatMeta::Limited {
                ptrs: Vec::new(),
                overflowed: false,
            },
        };
        SharerSet {
            format,
            exact: BTreeSet::new(),
            meta,
        }
    }

    /// Convenience constructor for tests and preloads.
    #[must_use]
    pub fn of(format: DirFormat, procs: impl IntoIterator<Item = ProcId>) -> Self {
        let mut s = SharerSet::new(format);
        for p in procs {
            let _ = s.insert(p);
        }
        s
    }

    /// Records `p` as a sharer.
    pub fn insert(&mut self, p: ProcId) -> AddSharerOutcome {
        if !self.exact.insert(p) {
            return AddSharerOutcome::default();
        }
        match (&mut self.meta, self.format) {
            (FormatMeta::Full, _) => AddSharerOutcome::default(),
            (FormatMeta::Coarse { regions }, DirFormat::CoarseVector { procs_per_bit }) => {
                regions.insert(p / procs_per_bit);
                AddSharerOutcome::default()
            }
            (
                FormatMeta::Limited { ptrs, overflowed },
                DirFormat::LimitedPointer {
                    ptrs: cap,
                    overflow,
                },
            ) => {
                if *overflowed {
                    // Already in broadcast mode: pointers are stale.
                    return AddSharerOutcome {
                        overflowed: false,
                        evicted: None,
                    };
                }
                if ptrs.len() < cap {
                    ptrs.push(p);
                    return AddSharerOutcome::default();
                }
                match overflow {
                    OverflowPolicy::Broadcast => {
                        *overflowed = true;
                        AddSharerOutcome {
                            overflowed: true,
                            evicted: None,
                        }
                    }
                    OverflowPolicy::Invalidate => {
                        let victim = ptrs.remove(0);
                        ptrs.push(p);
                        self.exact.remove(&victim);
                        AddSharerOutcome {
                            overflowed: true,
                            evicted: Some(victim),
                        }
                    }
                }
            }
            _ => unreachable!("meta always matches format"),
        }
    }

    /// Removes `p` (replacement notification). Limited pointers are
    /// freed — the notification is synchronous — but coarse region bits
    /// and the broadcast bit stay sticky: that hardware cannot tell
    /// whether other sharers remain behind the same bit.
    pub fn remove(&mut self, p: ProcId) {
        self.exact.remove(&p);
        if let FormatMeta::Limited { ptrs, .. } = &mut self.meta {
            ptrs.retain(|&q| q != p);
        }
    }

    /// Whether `p` really holds a copy (ground truth).
    #[must_use]
    pub fn contains(&self, p: ProcId) -> bool {
        self.exact.contains(&p)
    }

    /// Whether the format's decoded set covers `p` — the soundness
    /// obligation: every true sharer must be covered.
    #[must_use]
    pub fn covers(&self, p: ProcId) -> bool {
        match (&self.meta, self.format) {
            (FormatMeta::Full, _) => self.exact.contains(&p),
            (FormatMeta::Coarse { regions }, DirFormat::CoarseVector { procs_per_bit }) => {
                regions.contains(&(p / procs_per_bit))
            }
            (FormatMeta::Limited { overflowed, .. }, _) => *overflowed || self.exact.contains(&p),
            _ => unreachable!("meta always matches format"),
        }
    }

    /// True when the set is in broadcast mode (limited-pointer overflow
    /// under [`OverflowPolicy::Broadcast`]).
    #[must_use]
    pub fn is_broadcast(&self) -> bool {
        matches!(
            self.meta,
            FormatMeta::Limited {
                overflowed: true,
                ..
            }
        )
    }

    /// Number of true sharers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether no cache holds a copy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Iterates the exact sharer set.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.exact.iter().copied()
    }

    /// Visits every invalidation target the *format* prescribes for an
    /// exclusive grant to `requester`: the decoded sharer set minus the
    /// requester. `spurious` is true for targets that hold no real copy
    /// (imprecision traffic). Allocation-free by construction.
    pub fn for_each_format_target(
        &self,
        requester: ProcId,
        nprocs: usize,
        mut visit: impl FnMut(ProcId, bool),
    ) {
        match (&self.meta, self.format) {
            (FormatMeta::Full, _) => {
                for &p in &self.exact {
                    if p != requester {
                        visit(p, false);
                    }
                }
            }
            (FormatMeta::Coarse { regions }, DirFormat::CoarseVector { procs_per_bit }) => {
                for &r in regions {
                    let start = r * procs_per_bit;
                    for p in start..(start + procs_per_bit).min(nprocs) {
                        if p != requester {
                            visit(p, !self.exact.contains(&p));
                        }
                    }
                }
            }
            (FormatMeta::Limited { overflowed, .. }, _) => {
                if *overflowed {
                    for p in 0..nprocs {
                        if p != requester {
                            visit(p, !self.exact.contains(&p));
                        }
                    }
                } else {
                    // Non-overflowed pointers track exactly the sharers in
                    // `exact`; visit via the sorted set so invalidation
                    // order is canonical (ascending) across every format.
                    for &p in &self.exact {
                        if p != requester {
                            visit(p, false);
                        }
                    }
                }
            }
            _ => unreachable!("meta always matches format"),
        }
    }
}

/// Sharing state of a line at the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line; memory is current.
    Uncached,
    /// These caches hold shared (read-only) copies; memory is current.
    Shared(SharerSet),
    /// This cache holds the line exclusively; its copy may be newer than
    /// memory.
    Owned(ProcId),
}

/// Allocation-free iterator over [`DirState::copies_excluding`].
pub struct CopiesExcluding<'a> {
    inner: CopiesInner<'a>,
    requester: ProcId,
}

enum CopiesInner<'a> {
    None,
    One(Option<ProcId>),
    Set(btree_set::Iter<'a, ProcId>),
}

impl Iterator for CopiesExcluding<'_> {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        match &mut self.inner {
            CopiesInner::None => None,
            CopiesInner::One(p) => p.take().filter(|&p| p != self.requester),
            CopiesInner::Set(it) => it.by_ref().copied().find(|&p| p != self.requester),
        }
    }
}

impl DirState {
    /// Caches that really hold a copy, excluding `requester` — the set
    /// whose size decides grant timing. Allocation-free (the 64-core
    /// invalidation fan-out used to build a `Vec` per transaction).
    #[must_use]
    pub fn copies_excluding(&self, requester: ProcId) -> CopiesExcluding<'_> {
        let inner = match self {
            DirState::Uncached => CopiesInner::None,
            DirState::Shared(s) => CopiesInner::Set(s.exact.iter()),
            DirState::Owned(o) => CopiesInner::One(Some(*o)),
        };
        CopiesExcluding { inner, requester }
    }

    /// Whether `p` holds a shared copy.
    #[must_use]
    pub fn is_sharer(&self, p: ProcId) -> bool {
        matches!(self, DirState::Shared(s) if s.contains(p))
    }

    /// Whether `p` owns the line exclusively.
    #[must_use]
    pub fn is_owner(&self, p: ProcId) -> bool {
        matches!(self, DirState::Owned(o) if *o == p)
    }

    /// Whether the format's decoded state covers `p`'s copy (owners
    /// cover themselves). The soundness invariant checks this for every
    /// line a cache actually holds.
    #[must_use]
    pub fn covers(&self, p: ProcId) -> bool {
        match self {
            DirState::Uncached => false,
            DirState::Shared(s) => s.covers(p),
            DirState::Owned(o) => *o == p,
        }
    }
}

/// Kinds of requests a processor's cache controller sends to the
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read miss: a shared copy, please.
    GetShared,
    /// Write miss or upgrade: exclusive ownership, please (invalidation
    /// protocol only).
    GetExclusive,
    /// Update-protocol write or atomic: performed at the directory (the
    /// serialization point), which updates memory and every other copy.
    Update(WriteOp),
}

/// A request in flight to (or queued at) the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting processor.
    pub proc: ProcId,
    /// Target line.
    pub line: LineAddr,
    /// What is being asked.
    pub kind: ReqKind,
    /// Transaction id the response must carry.
    pub txn: TxnId,
    /// Launched as a prefetch (stats only).
    pub is_prefetch: bool,
    /// Cycle the processor issued it (queue-delay stats).
    pub issued_at: u64,
}

/// The directory: per-line sharing state, backing memory, per-line
/// serialization, and the arrival queue.
#[derive(Debug)]
pub struct Directory {
    block_words: usize,
    block_bits: u32,
    format: DirFormat,
    states: FxHashMap<u64, DirState>,
    memory: FxHashMap<u64, Box<[u64]>>,
    busy_until: FxHashMap<u64, u64>,
    pending: VecDeque<Request>,
    waiters: FxHashMap<u64, VecDeque<Request>>,
}

impl Directory {
    /// An empty directory for lines of `1 << block_bits` bytes, with the
    /// given sharer-set format.
    #[must_use]
    pub fn new(block_bits: u32, format: DirFormat) -> Self {
        Directory {
            block_words: (1usize << block_bits) / 8,
            block_bits,
            format,
            states: FxHashMap::default(),
            memory: FxHashMap::default(),
            busy_until: FxHashMap::default(),
            pending: VecDeque::new(),
            waiters: FxHashMap::default(),
        }
    }

    /// The sharer-set format this directory is built with.
    #[must_use]
    pub fn format(&self) -> DirFormat {
        self.format
    }

    /// Borrowed sharing state, if the line is tracked (hot invariant
    /// checks avoid the clone [`Self::state`] makes).
    #[must_use]
    pub fn state_ref(&self, line: LineAddr) -> Option<&DirState> {
        self.states.get(&line.0)
    }

    /// Sharing state of a line (Uncached if never touched).
    #[must_use]
    pub fn state(&self, line: LineAddr) -> DirState {
        self.states
            .get(&line.0)
            .cloned()
            .unwrap_or(DirState::Uncached)
    }

    /// Replaces a line's sharing state.
    pub fn set_state(&mut self, line: LineAddr, s: DirState) {
        if matches!(s, DirState::Uncached) {
            self.states.remove(&line.0);
        } else {
            self.states.insert(line.0, s);
        }
    }

    /// Adds `p` as a sharer (downgrading an owner is the caller's job).
    /// The outcome reports format overflow and, under
    /// [`OverflowPolicy::Invalidate`], a sharer the caller must really
    /// invalidate.
    pub fn add_sharer(&mut self, line: LineAddr, p: ProcId) -> AddSharerOutcome {
        let format = self.format;
        let (next, outcome) = match self.state(line) {
            DirState::Uncached => {
                let mut s = SharerSet::new(format);
                let outcome = s.insert(p);
                (DirState::Shared(s), outcome)
            }
            DirState::Shared(mut s) => {
                let outcome = s.insert(p);
                (DirState::Shared(s), outcome)
            }
            DirState::Owned(o) => {
                let mut s = SharerSet::new(format);
                let first = s.insert(o);
                let second = s.insert(p);
                (DirState::Shared(s), first.merge(second))
            }
        };
        self.set_state(line, next);
        outcome
    }

    /// Removes `p`'s copy (on replacement). No-op if `p` holds nothing.
    pub fn drop_copy(&mut self, line: LineAddr, p: ProcId) {
        let next = match self.state(line) {
            DirState::Uncached => DirState::Uncached,
            DirState::Shared(mut s) => {
                s.remove(p);
                if s.is_empty() {
                    DirState::Uncached
                } else {
                    DirState::Shared(s)
                }
            }
            DirState::Owned(o) if o == p => DirState::Uncached,
            owned => owned,
        };
        self.set_state(line, next);
    }

    /// A copy of the line's backing data (zeros if untouched).
    #[must_use]
    pub fn mem_line(&self, line: LineAddr) -> Box<[u64]> {
        self.memory
            .get(&line.0)
            .cloned()
            .unwrap_or_else(|| vec![0; self.block_words].into_boxed_slice())
    }

    /// Overwrites the line's backing data (writeback / flush arrival).
    pub fn write_mem_line(&mut self, line: LineAddr, data: Box<[u64]>) {
        self.memory.insert(line.0, data);
    }

    /// Reads one backing-memory word.
    #[must_use]
    pub fn read_mem_word(&self, addr: Addr) -> u64 {
        let line = addr.line(self.block_bits);
        let word = (addr.offset(self.block_bits) / 8) as usize;
        self.memory.get(&line.0).map_or(0, |d| d[word])
    }

    /// Writes one backing-memory word (update protocol, or initial image).
    pub fn write_mem_word(&mut self, addr: Addr, value: u64) {
        let line = addr.line(self.block_bits);
        let word = (addr.offset(self.block_bits) / 8) as usize;
        let words = self.block_words;
        self.memory
            .entry(line.0)
            .or_insert_with(|| vec![0; words].into_boxed_slice())[word] = value;
    }

    // ----- queueing -----

    /// Enqueues a request that has arrived over the network.
    pub fn push_arrival(&mut self, req: Request) {
        self.pending.push_back(req);
    }

    /// Pops the first serviceable request: the oldest arrival whose line
    /// is not busy at `now`. Arrivals for busy lines are parked per line
    /// and re-queued (in order) when the line frees, so a hot line never
    /// head-of-line-blocks the directory.
    pub fn next_serviceable(&mut self, now: u64) -> Option<Request> {
        while let Some(req) = self.pending.pop_front() {
            if self.busy_until.get(&req.line.0).copied().unwrap_or(0) > now {
                self.waiters.entry(req.line.0).or_default().push_back(req);
            } else {
                return Some(req);
            }
        }
        None
    }

    /// Marks a line busy until `until` (the cycle its response is sent).
    pub fn mark_busy(&mut self, line: LineAddr, until: u64) {
        self.busy_until.insert(line.0, until);
    }

    /// When a line's busy window closes, re-admits its parked requests at
    /// the *front* of the queue (oldest first) so they are serviced before
    /// newer traffic.
    pub fn release_line(&mut self, line: LineAddr) {
        if let Some(mut ws) = self.waiters.remove(&line.0) {
            while let Some(req) = ws.pop_back() {
                self.pending.push_front(req);
            }
        }
    }

    /// Outstanding queue length (pending + parked), for stats.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.pending.len() + self.waiters.values().map(VecDeque::len).sum::<usize>()
    }

    /// Every line the directory has ever tracked (sharing state or
    /// backing data) — the domain of a final-state snapshot.
    #[must_use]
    pub fn known_lines(&self) -> std::collections::BTreeSet<LineAddr> {
        self.states
            .keys()
            .chain(self.memory.keys())
            .map(|&l| LineAddr(l))
            .collect()
    }

    /// Every line currently recorded as owned, with its owner — the
    /// (unsorted) domain of the owner-agreement invariant check. Lines
    /// with backing data but no sharing state can never be owned, so
    /// this is a strict (and much cheaper) subset of [`known_lines`]
    /// for that purpose.
    ///
    /// [`known_lines`]: Self::known_lines
    #[must_use]
    pub fn owned_lines(&self) -> Vec<(LineAddr, ProcId)> {
        self.states
            .iter()
            .filter_map(|(&l, s)| match s {
                DirState::Owned(p) => Some((LineAddr(l), *p)),
                _ => None,
            })
            .collect()
    }

    /// Every line with a sharing state, for the sharer-coverage
    /// (soundness) invariant check.
    pub fn tracked_states(&self) -> impl Iterator<Item = (LineAddr, &DirState)> {
        self.states.iter().map(|(&l, s)| (LineAddr(l), s))
    }

    /// Words per line.
    #[must_use]
    pub fn block_words(&self) -> usize {
        self.block_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PTR2_INV: DirFormat = DirFormat::LimitedPointer {
        ptrs: 2,
        overflow: OverflowPolicy::Invalidate,
    };
    const PTR2_BCAST: DirFormat = DirFormat::LimitedPointer {
        ptrs: 2,
        overflow: OverflowPolicy::Broadcast,
    };
    const COARSE4: DirFormat = DirFormat::CoarseVector { procs_per_bit: 4 };

    fn req(proc: ProcId, line: u64, txn: u64) -> Request {
        Request {
            proc,
            line: LineAddr(line),
            kind: ReqKind::GetShared,
            txn: TxnId(txn),
            is_prefetch: false,
            issued_at: 0,
        }
    }

    fn targets(s: &SharerSet, requester: ProcId, nprocs: usize) -> Vec<(ProcId, bool)> {
        let mut out = Vec::new();
        s.for_each_format_target(requester, nprocs, |p, spurious| out.push((p, spurious)));
        out
    }

    #[test]
    fn state_transitions() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        let l = LineAddr(9);
        assert_eq!(d.state(l), DirState::Uncached);
        assert_eq!(d.add_sharer(l, 0), AddSharerOutcome::default());
        assert_eq!(d.add_sharer(l, 2), AddSharerOutcome::default());
        assert!(d.state(l).is_sharer(0));
        assert!(d.state(l).is_sharer(2));
        assert_eq!(d.state(l).copies_excluding(0).collect::<Vec<_>>(), vec![2]);
        d.set_state(l, DirState::Owned(1));
        assert!(d.state(l).is_owner(1));
        assert_eq!(d.state(l).copies_excluding(1).count(), 0);
        assert_eq!(d.state(l).copies_excluding(0).collect::<Vec<_>>(), vec![1]);
        d.drop_copy(l, 1);
        assert_eq!(d.state(l), DirState::Uncached);
    }

    #[test]
    fn drop_last_sharer_goes_uncached() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        let l = LineAddr(3);
        d.add_sharer(l, 0);
        d.drop_copy(l, 0);
        assert_eq!(d.state(l), DirState::Uncached);
    }

    #[test]
    fn owner_becomes_sharer_on_add() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        let l = LineAddr(3);
        d.set_state(l, DirState::Owned(1));
        d.add_sharer(l, 0);
        assert!(d.state(l).is_sharer(0));
        assert!(d.state(l).is_sharer(1));
    }

    #[test]
    fn full_map_targets_are_exact() {
        let s = SharerSet::of(DirFormat::FullMap, [0, 2, 5]);
        assert_eq!(targets(&s, 2, 8), vec![(0, false), (5, false)]);
        assert!(s.covers(5));
        assert!(!s.covers(1));
    }

    #[test]
    fn coarse_vector_covers_whole_regions_and_is_sticky() {
        let mut s = SharerSet::of(COARSE4, [1, 6]);
        // Regions 0 (procs 0-3) and 1 (procs 4-7) are marked; everyone in
        // them except the requester is a target, non-holders spuriously.
        assert_eq!(
            targets(&s, 1, 8),
            vec![
                (0, true),
                (2, true),
                (3, true),
                (4, true),
                (5, true),
                (6, false),
                (7, true),
            ]
        );
        assert!(s.covers(3), "region bit covers non-holders too");
        // Removing the last holder of region 1 leaves its bit set.
        s.remove(6);
        assert!(s.covers(6), "region bits are sticky");
        assert!(!s.contains(6));
        // Decode clips to nprocs.
        assert_eq!(targets(&s, 1, 3), vec![(0, true), (2, true)]);
    }

    #[test]
    fn limited_pointer_broadcast_sets_sticky_overflow_bit() {
        let mut s = SharerSet::new(PTR2_BCAST);
        assert_eq!(s.insert(0), AddSharerOutcome::default());
        assert_eq!(s.insert(1), AddSharerOutcome::default());
        let out = s.insert(2);
        assert!(out.overflowed);
        assert_eq!(out.evicted, None);
        assert!(s.is_broadcast());
        assert_eq!(s.len(), 3, "broadcast keeps every true sharer");
        // Broadcast targets everyone but the requester; only the two
        // non-holders are spurious.
        assert_eq!(
            targets(&s, 1, 5),
            vec![(0, false), (2, false), (3, true), (4, true)]
        );
        assert!(s.covers(4), "overflowed set covers everyone");
        // Sticky: dropping below the pointer count keeps broadcast mode.
        s.remove(0);
        s.remove(2);
        assert!(s.is_broadcast());
    }

    #[test]
    fn limited_pointer_invalidate_evicts_oldest_pointer() {
        let mut s = SharerSet::new(PTR2_INV);
        s.insert(3);
        s.insert(1);
        let out = s.insert(5);
        assert!(out.overflowed);
        assert_eq!(out.evicted, Some(3), "FIFO victim");
        assert!(!s.contains(3), "victim leaves the exact set");
        assert_eq!(s.len(), 2);
        assert!(!s.covers(3));
        assert_eq!(targets(&s, 1, 8), vec![(5, false)]);
        // Freed pointers are reusable after a removal.
        s.remove(1);
        assert_eq!(s.insert(7), AddSharerOutcome::default());
    }

    #[test]
    fn reinserting_a_sharer_never_overflows() {
        let mut s = SharerSet::of(PTR2_INV, [0, 1]);
        assert_eq!(s.insert(1), AddSharerOutcome::default());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn owner_downgrade_can_evict_through_the_format() {
        let mut d = Directory::new(
            6,
            DirFormat::LimitedPointer {
                ptrs: 1,
                overflow: OverflowPolicy::Invalidate,
            },
        );
        let l = LineAddr(3);
        d.set_state(l, DirState::Owned(1));
        let out = d.add_sharer(l, 0);
        assert!(out.overflowed);
        assert_eq!(out.evicted, Some(1), "old owner's pointer is reclaimed");
        assert!(d.state(l).is_sharer(0));
        assert!(!d.state(l).is_sharer(1));
    }

    #[test]
    fn memory_defaults_to_zero() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        assert_eq!(d.read_mem_word(Addr(0x100)), 0);
        d.write_mem_word(Addr(0x100), 7);
        assert_eq!(d.read_mem_word(Addr(0x100)), 7);
        assert_eq!(d.read_mem_word(Addr(0x108)), 0);
        let line = d.mem_line(Addr(0x100).line(6));
        assert_eq!(line[0], 7);
    }

    #[test]
    fn queue_serves_in_order_skipping_busy_lines() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        d.push_arrival(req(0, 1, 1));
        d.push_arrival(req(1, 1, 2)); // same line, will be parked
        d.push_arrival(req(2, 9, 3)); // different line
        let first = d.next_serviceable(10).unwrap();
        assert_eq!(first.txn, TxnId(1));
        d.mark_busy(LineAddr(1), 20);
        // txn2 is parked; txn3 is serviceable.
        let second = d.next_serviceable(10).unwrap();
        assert_eq!(second.txn, TxnId(3));
        assert!(d.next_serviceable(10).is_none());
        assert_eq!(d.queue_len(), 1);
        // Line frees: txn2 re-admitted at the front.
        d.release_line(LineAddr(1));
        let third = d.next_serviceable(20).unwrap();
        assert_eq!(third.txn, TxnId(2));
    }

    #[test]
    fn release_preserves_waiter_order() {
        let mut d = Directory::new(6, DirFormat::FullMap);
        d.mark_busy(LineAddr(1), 100);
        d.push_arrival(req(0, 1, 1));
        d.push_arrival(req(1, 1, 2));
        assert!(d.next_serviceable(0).is_none()); // both parked
        d.release_line(LineAddr(1));
        assert_eq!(d.next_serviceable(100).unwrap().txn, TxnId(1));
        d.mark_busy(LineAddr(1), 200);
        assert!(d.next_serviceable(100).is_none());
    }
}

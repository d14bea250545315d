//! Per-processor set-associative cache arrays.
//!
//! The cache stores real word data (not just tags) so that executions
//! observe genuine values — litmus tests depend on a stale-but-legal value
//! being readable while an invalidation is still in flight. State is a
//! compact MSI-without-M: `Shared` (readable) and `Exclusive` (readable +
//! writable, implies no other copies; dirty data lives here until flushed
//! or written back).
//!
//! A way can be *reserved* for an outstanding fill: reservation happens at
//! issue time (evicting the LRU victim immediately), which guarantees a
//! fill always has a slot and — per footnote 3 of the paper — a line with
//! an outstanding access is never chosen as a victim.

use crate::config::CacheConfig;
use crate::msg::LineState;
use mcsim_isa::{Addr, LineAddr};

/// One way of one set.
#[derive(Debug, Clone)]
enum Way {
    /// Empty.
    Invalid,
    /// Holds a valid line.
    Present {
        line: u64,
        state: LineState,
        data: Box<[u64]>,
        lru: u64,
        /// Set when the line was brought in by a prefetch and no demand
        /// reference has touched it yet (for the useful-prefetch stat).
        prefetched: bool,
        /// An outstanding transaction (an in-place upgrade) targets this
        /// line: it must not be victimized (footnote 3 of the paper).
        pinned: bool,
    },
    /// Reserved for an outstanding fill of `line`.
    Reserved { line: u64 },
}

/// Every way in the set is occupied by an outstanding fill; the access
/// must retry (footnote 3 keeps those ways unevictable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetFull;

/// A protocol-contract violation detected by the cache array: the caller
/// asked for an operation the coherence protocol should have made
/// impossible. These were formerly `panic!` sites; the memory system now
/// converts them into structured [`mcsim_guard::SimError`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// `read_word` on a line that is not present.
    ReadAbsent {
        /// The absent line.
        line: LineAddr,
    },
    /// `write_word` on a line that is not present.
    WriteAbsent {
        /// The absent line.
        line: LineAddr,
    },
    /// `write_word` on a line held in a non-exclusive state.
    WriteNotExclusive {
        /// The line written.
        line: LineAddr,
        /// The state it was actually in.
        state: LineState,
    },
    /// `demote_to_reserved` on a line that is not present.
    DemoteAbsent {
        /// The absent line.
        line: LineAddr,
    },
    /// `pin` on a line that is not present.
    PinAbsent {
        /// The absent line.
        line: LineAddr,
    },
    /// A fill for a reserved way arrived without data.
    FillWithoutData {
        /// The line being filled.
        line: LineAddr,
    },
    /// A fill arrived for a line with no reserved or present way.
    FillWithoutWay {
        /// The line being filled.
        line: LineAddr,
    },
}

impl std::fmt::Display for CacheFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheFault::ReadAbsent { line } => write!(f, "read_word on absent line {line}"),
            CacheFault::WriteAbsent { line } => write!(f, "write_word on absent line {line}"),
            CacheFault::WriteNotExclusive { line, state } => {
                write!(f, "write_word on {line} held {state:?}, not exclusive")
            }
            CacheFault::DemoteAbsent { line } => {
                write!(f, "demote_to_reserved on absent line {line}")
            }
            CacheFault::PinAbsent { line } => write!(f, "pin on absent line {line}"),
            CacheFault::FillWithoutData { line } => {
                write!(f, "fill of reserved way for {line} arrived without data")
            }
            CacheFault::FillWithoutWay { line } => {
                write!(f, "fill for {line} with no reserved or present way")
            }
        }
    }
}

impl CacheFault {
    /// The line the faulting operation targeted.
    #[must_use]
    pub fn line(&self) -> LineAddr {
        match self {
            CacheFault::ReadAbsent { line }
            | CacheFault::WriteAbsent { line }
            | CacheFault::WriteNotExclusive { line, .. }
            | CacheFault::DemoteAbsent { line }
            | CacheFault::PinAbsent { line }
            | CacheFault::FillWithoutData { line }
            | CacheFault::FillWithoutWay { line } => *line,
        }
    }
}

/// Result of reserving a way: what (if anything) was evicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evicted {
    /// An invalid way was used; nothing evicted.
    None,
    /// A clean (shared) line was dropped.
    Clean {
        /// The evicted line.
        line: LineAddr,
    },
    /// An exclusive (possibly dirty) line was evicted; its data must be
    /// written back to memory.
    Dirty {
        /// The evicted line.
        line: LineAddr,
        /// The line's data.
        data: Box<[u64]>,
    },
}

/// A set-associative, word-granular, coherence-state-tracking cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
}

impl Cache {
    /// An empty cache with the given geometry.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        Cache {
            sets: vec![vec![Way::Invalid; cfg.ways]; cfg.sets],
            cfg,
            clock: 0,
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_of(&self, line: LineAddr) -> usize {
        self.cfg.set_of(line.0)
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        self.sets[self.set_of(line)].iter().position(|w| match w {
            Way::Present { line: l, .. } | Way::Reserved { line: l } => *l == line.0,
            Way::Invalid => false,
        })
    }

    /// The line's state if it is present (not merely reserved).
    #[must_use]
    pub fn state(&self, line: LineAddr) -> Option<LineState> {
        let set = &self.sets[self.set_of(line)];
        set.iter().find_map(|w| match w {
            Way::Present { line: l, state, .. } if *l == line.0 => Some(*state),
            _ => None,
        })
    }

    /// Whether a way is reserved for an outstanding fill of this line.
    #[must_use]
    pub fn is_reserved(&self, line: LineAddr) -> bool {
        let set = &self.sets[self.set_of(line)];
        set.iter()
            .any(|w| matches!(w, Way::Reserved { line: l } if *l == line.0))
    }

    /// Marks a demand touch: refreshes LRU and clears the prefetched flag,
    /// returning whether this was the first demand touch of a
    /// prefetch-filled line (a *useful* prefetch).
    pub fn demand_touch(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            if let Way::Present {
                line: l,
                lru,
                prefetched,
                ..
            } = w
            {
                if *l == line.0 {
                    *lru = clock;
                    return std::mem::take(prefetched);
                }
            }
        }
        false
    }

    /// The line of `addr` and the word's index within it.
    fn word_of(&self, addr: Addr) -> (LineAddr, usize) {
        let word = (addr.offset(self.cfg.block_bits) / 8) as usize;
        (addr.line(self.cfg.block_bits), word)
    }

    /// The word at `addr` in a present (not merely reserved) copy of its
    /// line, with the line's state. `Err` names the line when no copy is
    /// present.
    fn word_mut(&mut self, addr: Addr) -> Result<(LineState, &mut u64), LineAddr> {
        let (line, word) = self.word_of(addr);
        let set = self.set_of(line);
        self.sets[set]
            .iter_mut()
            .find_map(|w| match w {
                Way::Present {
                    line: l,
                    state,
                    data,
                    ..
                } if *l == line.0 => Some((*state, &mut data[word])),
                _ => None,
            })
            .ok_or(line)
    }

    /// Reads the word at `addr`. Errors if the line is not present —
    /// callers must only read lines the protocol has made readable.
    pub fn read_word(&self, addr: Addr) -> Result<u64, CacheFault> {
        let (line, word) = self.word_of(addr);
        self.sets[self.set_of(line)]
            .iter()
            .find_map(|w| match w {
                Way::Present { line: l, data, .. } if *l == line.0 => Some(data[word]),
                _ => None,
            })
            .ok_or(CacheFault::ReadAbsent { line })
    }

    /// Writes the word at `addr`. Errors if the line is not held
    /// exclusively — the protocol must grant ownership before a write
    /// (invalidation protocol), or the caller is the update-protocol path
    /// which uses [`Cache::update_word`].
    pub fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), CacheFault> {
        match self.word_mut(addr) {
            Ok((LineState::Exclusive, w)) => {
                *w = value;
                Ok(())
            }
            Ok((state, _)) => Err(CacheFault::WriteNotExclusive {
                line: addr.line(self.cfg.block_bits),
                state,
            }),
            Err(line) => Err(CacheFault::WriteAbsent { line }),
        }
    }

    /// Update-protocol word refresh: overwrites the word in place if the
    /// line is present (any state); no-op otherwise. Returns whether a
    /// copy was present.
    pub fn update_word(&mut self, addr: Addr, value: u64) -> bool {
        self.word_mut(addr).map(|(_, w)| *w = value).is_ok()
    }

    /// Reserves a way for an outstanding fill of `line`, evicting the LRU
    /// present line if necessary. Returns `Err(SetFull)` if every way in
    /// the set is reserved for other outstanding fills (the caller
    /// reports it and the access retries).
    ///
    /// Lines with outstanding accesses occupy `Reserved` ways and are thus
    /// never victims (footnote 3: a replacement request to a line with an
    /// outstanding access must be delayed).
    pub fn reserve(&mut self, line: LineAddr) -> Result<Evicted, SetFull> {
        let set_idx = self.set_of(line);
        debug_assert!(
            self.find(line).is_none(),
            "reserve called for already-tracked line {line}"
        );
        // Prefer an invalid way.
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| matches!(w, Way::Invalid)) {
            *w = Way::Reserved { line: line.0 };
            return Ok(Evicted::None);
        }
        // Evict the LRU present way.
        let victim = set
            .iter()
            .enumerate()
            .filter_map(|(i, w)| match w {
                Way::Present { lru, pinned, .. } if !pinned => Some((*lru, i)),
                _ => None,
            })
            .min()
            .map(|(_, i)| i);
        let Some(i) = victim else {
            return Err(SetFull); // every way reserved or pinned
        };
        let old = std::mem::replace(&mut set[i], Way::Reserved { line: line.0 });
        if let Way::Present {
            line: vl,
            state,
            data,
            ..
        } = old
        {
            Ok(match state {
                LineState::Exclusive => Evicted::Dirty {
                    line: LineAddr(vl),
                    data,
                },
                LineState::Shared => Evicted::Clean { line: LineAddr(vl) },
            })
        } else {
            // The victim index was computed from present ways, so this arm
            // cannot run; restoring the way and reporting a full set is the
            // benign recovery if it ever does.
            set[i] = old;
            Err(SetFull)
        }
    }

    /// Converts a present line's way into a reservation, keeping the slot
    /// earmarked for an in-flight upgrade whose shared copy was just
    /// invalidated (the upgrade will now be answered with full data).
    /// Errors if the line is absent.
    pub fn demote_to_reserved(&mut self, line: LineAddr) -> Result<(), CacheFault> {
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            if let Way::Present { line: l, .. } = w {
                if *l == line.0 {
                    *w = Way::Reserved { line: line.0 };
                    return Ok(());
                }
            }
        }
        Err(CacheFault::DemoteAbsent { line })
    }

    /// Pins a present line so it cannot be victimized while an in-place
    /// transaction (upgrade) is outstanding for it. Cleared by the next
    /// [`Cache::fill`]. Errors if the line is absent.
    pub fn pin(&mut self, line: LineAddr) -> Result<(), CacheFault> {
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            if let Way::Present {
                line: l, pinned, ..
            } = w
            {
                if *l == line.0 {
                    *pinned = true;
                    return Ok(());
                }
            }
        }
        Err(CacheFault::PinAbsent { line })
    }

    /// Installs fill data.
    ///
    /// * On a `Reserved` way: fills it (`data` required).
    /// * On a `Present` way (upgrade completion): raises the state; if the
    ///   directory sent data (upgrade race), replaces the data too.
    ///
    /// Errors if the line is neither reserved nor present, or a reserved
    /// fill arrives without data.
    pub fn fill(
        &mut self,
        line: LineAddr,
        state: LineState,
        data: Option<Box<[u64]>>,
        prefetched: bool,
    ) -> Result<(), CacheFault> {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            match w {
                Way::Reserved { line: l } if *l == line.0 => {
                    let Some(data) = data else {
                        return Err(CacheFault::FillWithoutData { line });
                    };
                    *w = Way::Present {
                        line: line.0,
                        state,
                        data,
                        lru: clock,
                        prefetched,
                        pinned: false,
                    };
                    return Ok(());
                }
                Way::Present {
                    line: l,
                    state: st,
                    data: d,
                    lru,
                    prefetched: pf,
                    pinned,
                } if *l == line.0 => {
                    *st = state;
                    if let Some(data) = data {
                        *d = data;
                    }
                    *lru = clock;
                    *pf = prefetched && *pf;
                    *pinned = false;
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(CacheFault::FillWithoutWay { line })
    }

    /// Invalidates the line if present, returning its data (needed when
    /// the invalidation doubles as a dirty flush). `None` if absent.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Box<[u64]>> {
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            if matches!(w, Way::Present { line: l, .. } if *l == line.0) {
                if let Way::Present { data, .. } = std::mem::replace(w, Way::Invalid) {
                    return Some(data);
                }
            }
        }
        None
    }

    /// Downgrades an exclusive line to shared (a read-flush), returning a
    /// copy of its data. `None` if the line is absent.
    pub fn downgrade(&mut self, line: LineAddr) -> Option<Box<[u64]>> {
        let set_idx = self.set_of(line);
        for w in &mut self.sets[set_idx] {
            if let Way::Present {
                line: l,
                state,
                data,
                ..
            } = w
            {
                if *l == line.0 {
                    *state = LineState::Shared;
                    return Some(data.clone());
                }
            }
        }
        None
    }

    /// Every present line with its state and pin status — the invariant
    /// checker walks this to verify SWMR and directory agreement.
    pub fn present_lines(&self) -> impl Iterator<Item = (LineAddr, LineState, bool)> + '_ {
        self.sets.iter().flatten().filter_map(|w| match w {
            Way::Present {
                line,
                state,
                pinned,
                ..
            } => Some((LineAddr(*line), *state, *pinned)),
            _ => None,
        })
    }

    /// Number of valid (present) lines — used by tests and stats.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|w| matches!(w, Way::Present { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            sets: 4,
            ways: 2,
            block_bits: 6,
        }
    }

    fn line_data(v: u64) -> Box<[u64]> {
        vec![v; 8].into_boxed_slice()
    }

    // Two lines mapping to the same set (sets=4 → stride 4 lines).
    const L0: LineAddr = LineAddr(0);
    const L4: LineAddr = LineAddr(4);
    const L8: LineAddr = LineAddr(8);

    #[test]
    fn reserve_fill_read() {
        let mut c = Cache::new(cfg());
        assert_eq!(c.state(L0), None);
        assert_eq!(c.reserve(L0), Ok(Evicted::None));
        assert!(c.is_reserved(L0));
        c.fill(L0, LineState::Shared, Some(line_data(7)), false)
            .unwrap();
        assert_eq!(c.state(L0), Some(LineState::Shared));
        assert_eq!(c.read_word(Addr(8)), Ok(7));
    }

    #[test]
    fn write_requires_exclusive() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Exclusive, Some(line_data(0)), false)
            .unwrap();
        c.write_word(Addr(16), 99).unwrap();
        assert_eq!(c.read_word(Addr(16)), Ok(99));
        assert_eq!(c.read_word(Addr(8)), Ok(0));
    }

    #[test]
    fn write_to_shared_is_a_fault() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(0)), false)
            .unwrap();
        assert_eq!(
            c.write_word(Addr(0), 1),
            Err(CacheFault::WriteNotExclusive {
                line: L0,
                state: LineState::Shared,
            })
        );
        assert_eq!(
            c.write_word(Addr(256), 1),
            Err(CacheFault::WriteAbsent { line: L4 })
        );
        assert_eq!(
            c.read_word(Addr(256)),
            Err(CacheFault::ReadAbsent { line: L4 })
        );
    }

    #[test]
    fn lru_eviction_prefers_older() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(1)), false)
            .unwrap();
        let _ = c.reserve(L4);
        c.fill(L4, LineState::Shared, Some(line_data(2)), false)
            .unwrap();
        // Touch L0 so L4 becomes LRU.
        c.demand_touch(L0);
        match c.reserve(L8) {
            Ok(Evicted::Clean { line }) => assert_eq!(line, L4),
            other => panic!("expected clean eviction of L4, got {other:?}"),
        }
    }

    #[test]
    fn dirty_eviction_returns_data() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Exclusive, Some(line_data(0)), false)
            .unwrap();
        c.write_word(Addr(0), 42).unwrap();
        let _ = c.reserve(L4);
        c.fill(L4, LineState::Shared, Some(line_data(2)), false)
            .unwrap();
        match c.reserve(L8) {
            Ok(Evicted::Dirty { line, data }) => {
                assert_eq!(line, L0);
                assert_eq!(data[0], 42);
            }
            other => panic!("expected dirty eviction of L0, got {other:?}"),
        }
    }

    #[test]
    fn set_full_when_all_ways_reserved() {
        let mut c = Cache::new(cfg());
        assert!(c.reserve(L0).is_ok());
        assert!(c.reserve(L4).is_ok());
        assert_eq!(c.reserve(L8), Err(SetFull));
    }

    #[test]
    fn reserved_lines_never_evicted() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0); // outstanding fill
        let _ = c.reserve(L4);
        c.fill(L4, LineState::Shared, Some(line_data(2)), false)
            .unwrap();
        // Only L4 is evictable; the reserved L0 must survive.
        match c.reserve(L8) {
            Ok(Evicted::Clean { line }) => assert_eq!(line, L4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.is_reserved(L0));
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Exclusive, Some(line_data(5)), false)
            .unwrap();
        let data = c.downgrade(L0).unwrap();
        assert_eq!(data[0], 5);
        assert_eq!(c.state(L0), Some(LineState::Shared));
        let data = c.invalidate(L0).unwrap();
        assert_eq!(data[0], 5);
        assert_eq!(c.state(L0), None);
        assert_eq!(c.invalidate(L0), None);
    }

    #[test]
    fn prefetched_flag_cleared_on_first_demand_touch() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(0)), true)
            .unwrap();
        assert!(c.demand_touch(L0), "first touch reports useful prefetch");
        assert!(!c.demand_touch(L0), "second touch does not");
    }

    #[test]
    fn upgrade_fill_in_place() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(3)), false)
            .unwrap();
        // Upgrade ack without data.
        c.fill(L0, LineState::Exclusive, None, false).unwrap();
        assert_eq!(c.state(L0), Some(LineState::Exclusive));
        assert_eq!(c.read_word(Addr(0)), Ok(3));
    }

    #[test]
    fn demote_to_reserved_keeps_slot() {
        let mut c = Cache::new(cfg());
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(3)), false)
            .unwrap();
        c.demote_to_reserved(L0).unwrap();
        assert!(c.is_reserved(L0));
        c.fill(L0, LineState::Exclusive, Some(line_data(9)), false)
            .unwrap();
        assert_eq!(c.read_word(Addr(0)), Ok(9));
    }

    #[test]
    fn update_word_in_place() {
        let mut c = Cache::new(cfg());
        assert!(!c.update_word(Addr(0), 1), "absent line not updated");
        let _ = c.reserve(L0);
        c.fill(L0, LineState::Shared, Some(line_data(0)), false)
            .unwrap();
        assert!(c.update_word(Addr(0), 11));
        assert_eq!(c.read_word(Addr(0)), Ok(11));
    }

    #[test]
    fn resident_count() {
        let mut c = Cache::new(cfg());
        assert_eq!(c.resident_lines(), 0);
        let _ = c.reserve(L0);
        assert_eq!(c.resident_lines(), 0, "reserved is not resident");
        c.fill(L0, LineState::Shared, Some(line_data(0)), false)
            .unwrap();
        assert_eq!(c.resident_lines(), 1);
    }
}

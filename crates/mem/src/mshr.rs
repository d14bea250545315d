//! Miss-status holding registers (MSHRs) — the lockup-free cache machinery
//! (Kroft [14]; Scheurich & Dubois [21] in the paper's bibliography).
//!
//! Each outstanding transaction of a processor occupies one MSHR, keyed by
//! line. The paper's §3.2 merging requirement — "if a processor references
//! a location it has prefetched before the result has returned, the
//! reference request is combined with the prefetch request" — is
//! implemented by [`MshrFile::get_mut`]: the load/store unit finds the
//! entry, flips `prefetch_only` off, and waits on the existing
//! transaction.

use crate::msg::{DemandToken, TxnId, WriteOp};
use mcsim_guard::FxHashMap;
use mcsim_isa::{Addr, LineAddr};

/// A demand operation attached to an outstanding transaction, applied
/// atomically when the response arrives (grant and data use are one
/// event, as in real protocols — no later coherence message can slip
/// between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// Bind the word's value for a load.
    Read {
        /// Word to read.
        addr: Addr,
    },
    /// Perform a store or an atomic read-modify-write.
    Write(WriteOp),
}

/// One outstanding transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mshr {
    /// The transaction's id (completion events carry it).
    pub txn: TxnId,
    /// The line being fetched / upgraded.
    pub line: LineAddr,
    /// Whether completion grants exclusive ownership.
    pub exclusive: bool,
    /// Whether this was launched as a prefetch with no demand reference
    /// merged into it yet.
    pub prefetch_only: bool,
    /// Whether the requester held a shared copy at issue (upgrade): no way
    /// was reserved because the line already occupies one.
    pub is_upgrade: bool,
    /// Issue cycle (for latency stats).
    pub issued_at: u64,
    /// Demand operations to apply, in issue order, when the response
    /// arrives.
    pub pending: Vec<(DemandToken, PendingOp)>,
}

/// An MSHR-bookkeeping violation: allocation past capacity or a second
/// transaction for a line that already has one outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrFault {
    /// Allocation attempted while every MSHR is occupied.
    Overflow {
        /// The line the rejected transaction targeted.
        line: LineAddr,
    },
    /// The line already has an outstanding MSHR.
    DuplicateLine {
        /// The doubly-tracked line.
        line: LineAddr,
    },
}

impl std::fmt::Display for MshrFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrFault::Overflow { line } => {
                write!(f, "MSHR file full when allocating for {line}")
            }
            MshrFault::DuplicateLine { line } => {
                write!(f, "{line} already has an outstanding MSHR")
            }
        }
    }
}

/// The per-processor file of MSHRs.
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    max: usize,
    entries: FxHashMap<u64, Mshr>,
}

impl MshrFile {
    /// A file with capacity `max` (the lockup-free depth).
    #[must_use]
    pub fn new(max: usize) -> Self {
        assert!(max > 0, "need at least one MSHR");
        MshrFile {
            max,
            entries: FxHashMap::with_capacity_and_hasher(max, Default::default()),
        }
    }

    /// Whether every MSHR is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max
    }

    /// Number of outstanding transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no transactions are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for `line`, if any.
    #[must_use]
    pub fn get(&self, line: LineAddr) -> Option<&Mshr> {
        self.entries.get(&line.0)
    }

    /// Mutable entry for `line` (used to merge a demand reference into a
    /// prefetch).
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut Mshr> {
        self.entries.get_mut(&line.0)
    }

    /// Allocates an entry. Errors if the file is full or the line already
    /// has an entry — callers check first (`is_full`, `get`), so an error
    /// here is a lockup-free-bookkeeping bug.
    pub fn allocate(&mut self, m: Mshr) -> Result<(), MshrFault> {
        if self.is_full() {
            return Err(MshrFault::Overflow { line: m.line });
        }
        let line = m.line;
        if self.entries.contains_key(&line.0) {
            return Err(MshrFault::DuplicateLine { line });
        }
        self.entries.insert(line.0, m);
        Ok(())
    }

    /// Configured capacity (the lockup-free depth).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.max
    }

    /// Removes and returns the entry for `line` (on completion).
    pub fn complete(&mut self, line: LineAddr) -> Option<Mshr> {
        self.entries.remove(&line.0)
    }

    /// Iterates over outstanding entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Mshr> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64, txn: u64) -> Mshr {
        Mshr {
            txn: TxnId(txn),
            line: LineAddr(line),
            exclusive: false,
            prefetch_only: true,
            is_upgrade: false,
            issued_at: 0,
            pending: Vec::new(),
        }
    }

    #[test]
    fn allocate_get_complete() {
        let mut f = MshrFile::new(2);
        assert!(f.is_empty());
        f.allocate(entry(1, 10)).unwrap();
        assert_eq!(f.get(LineAddr(1)).unwrap().txn, TxnId(10));
        assert_eq!(f.len(), 1);
        let done = f.complete(LineAddr(1)).unwrap();
        assert_eq!(done.txn, TxnId(10));
        assert!(f.get(LineAddr(1)).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut f = MshrFile::new(1);
        f.allocate(entry(1, 10)).unwrap();
        assert!(f.is_full());
        assert_eq!(f.capacity(), 1);
    }

    #[test]
    fn overflow_is_a_fault() {
        let mut f = MshrFile::new(1);
        f.allocate(entry(1, 10)).unwrap();
        assert_eq!(
            f.allocate(entry(2, 11)),
            Err(MshrFault::Overflow { line: LineAddr(2) })
        );
    }

    #[test]
    fn duplicate_line_is_a_fault() {
        let mut f = MshrFile::new(2);
        f.allocate(entry(1, 10)).unwrap();
        assert_eq!(
            f.allocate(entry(1, 11)),
            Err(MshrFault::DuplicateLine { line: LineAddr(1) })
        );
        assert_eq!(f.get(LineAddr(1)).unwrap().txn, TxnId(10), "kept original");
    }

    #[test]
    fn merge_flips_prefetch_only() {
        let mut f = MshrFile::new(2);
        f.allocate(entry(1, 10)).unwrap();
        let m = f.get_mut(LineAddr(1)).unwrap();
        assert!(m.prefetch_only);
        m.prefetch_only = false;
        assert!(!f.get(LineAddr(1)).unwrap().prefetch_only);
    }
}

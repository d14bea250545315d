//! Transaction identifiers, processor-visible events, and issue results.

use mcsim_isa::{Addr, LineAddr, RmwKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique identifier of a memory transaction (one miss or
/// prefetch). Demand references merged into an outstanding prefetch share
/// its `TxnId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Identifier of one *demand operation* riding a transaction.
///
/// When a transaction's response arrives, the memory system applies every
/// demand operation attached to it atomically with the fill — the write
/// happens the instant ownership is granted, and load values are bound
/// before any later coherence message can steal the line. Loads and RMWs
/// retrieve their bound value afterwards with
/// [`crate::MemorySystem::take_bound_value`], keyed by this token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DemandToken(pub u64);

impl fmt::Display for DemandToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A demand write, from the core to the directory: a store of `operand`
/// (`rmw = None`), or an atomic read-modify-write of kind `rmw` with
/// `operand`, whose old value is bound to the demand's token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOp {
    /// Word written.
    pub addr: Addr,
    /// The atomic's kind; `None` for a plain store.
    pub rmw: Option<RmwKind>,
    /// The stored value, or the atomic's operand.
    pub operand: u64,
}

impl WriteOp {
    /// The value the write leaves in a word that held `old`.
    #[must_use]
    pub fn new_value(&self, old: u64) -> u64 {
        self.rmw
            .map_or(self.operand, |k| k.new_value(old, self.operand))
    }
}

/// Index of a processor in the machine.
pub type ProcId = usize;

/// Coherence state of a cached line, as seen by probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineState {
    /// Readable, possibly shared with other caches.
    Shared,
    /// Readable and writable; no other cache holds a copy.
    Exclusive,
}

/// What a (free) cache probe reports about a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeResult {
    /// Not cached and no outstanding transaction.
    Absent,
    /// Cached in the given state.
    Present(LineState),
    /// An outstanding transaction will fill the line.
    Pending {
        /// The outstanding transaction.
        txn: TxnId,
        /// Whether the fill will grant exclusivity.
        exclusive: bool,
        /// Whether the transaction was launched as a prefetch (nothing is
        /// waiting on it yet).
        prefetch_only: bool,
    },
}

/// Outcome of a demand issue through the cache port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IssueResult {
    /// The access hit in the cache; it completes after the hit latency.
    /// Its architectural effect was applied at issue; the bound value
    /// (load / RMW-old) is already retrievable via `token`.
    Hit {
        /// Token holding the bound value.
        token: DemandToken,
    },
    /// A miss was launched; completion arrives as [`MemEvent::Done`]. The
    /// operation's effect is applied atomically with the fill; bound
    /// values are retrieved by `token`.
    Miss {
        /// Transaction to wait for.
        txn: TxnId,
        /// Token to retrieve the bound value (loads, RMWs).
        token: DemandToken,
    },
    /// The access merged with an outstanding transaction (typically a
    /// prefetch) without consuming a new MSHR; it completes when that
    /// transaction's response returns (§3.2: "the reference completes as
    /// soon as the prefetch result returns").
    Merged {
        /// Transaction to wait for.
        txn: TxnId,
        /// Token to retrieve the bound value (loads, RMWs).
        token: DemandToken,
    },
    /// A write found an outstanding *shared* fill for its line; it must
    /// wait for that fill and then upgrade. The caller retries after
    /// [`MemEvent::Done`] for `txn`.
    WaitForFill {
        /// The shared fill in flight.
        txn: TxnId,
    },
    /// No MSHR available (lockup-free depth exhausted); retry later.
    NoMshr,
    /// Every way in the target set has an outstanding fill; retry later.
    SetFull,
}

/// Outcome of a prefetch issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetchResult {
    /// Prefetch launched.
    Issued {
        /// Transaction created for the prefetch.
        txn: TxnId,
    },
    /// Line already present in a sufficient state — prefetch discarded
    /// (§3.2: "a prefetch request first checks the cache").
    AlreadyPresent,
    /// A transaction for the line is already outstanding — discarded.
    AlreadyPending,
    /// No MSHR or no evictable way; not issued.
    NoResource,
    /// The protocol cannot service this prefetch (read-exclusive prefetch
    /// under the update protocol, §3.1).
    Unsupported,
}

/// Events delivered to a processor by the memory system. The completion
/// events drive the load/store unit; the coherence events
/// (invalidate/update/replace) additionally feed the speculative-load
/// buffer's detection mechanism (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemEvent {
    /// A transaction completed; the line is now filled in the cache (or,
    /// for update-protocol writes, the write is performed).
    Done {
        /// The completed transaction.
        txn: TxnId,
        /// The line it concerned.
        line: LineAddr,
        /// Whether the line is now held exclusively.
        exclusive: bool,
    },
    /// The cache lost the line to an invalidation (or exclusivity-stealing
    /// flush) from another processor's write (or read, for E→I flushes).
    Invalidated {
        /// The line that was invalidated.
        line: LineAddr,
    },
    /// Update protocol: another processor wrote this word; the local copy
    /// was refreshed in place. Carries the word and new value so a
    /// detection mechanism may discriminate false sharing and same-value
    /// writes (footnote 2 of the paper makes this conservative choice
    /// configurable here).
    Updated {
        /// The line that was updated.
        line: LineAddr,
        /// The exact word written.
        addr: mcsim_isa::Addr,
        /// The new value.
        value: u64,
    },
    /// The cache replaced (evicted) this line to make room for a fill.
    Replaced {
        /// The line that was evicted.
        line: LineAddr,
    },
}

impl MemEvent {
    /// The line this event concerns.
    #[must_use]
    pub fn line(&self) -> LineAddr {
        match self {
            MemEvent::Done { line, .. }
            | MemEvent::Invalidated { line }
            | MemEvent::Updated { line, .. }
            | MemEvent::Replaced { line } => *line,
        }
    }

    /// Whether this is a coherence event the speculative-load buffer must
    /// match against (invalidation, update, or replacement — §4.2's
    /// detection triggers).
    #[must_use]
    pub fn is_coherence_hazard(&self) -> bool {
        !matches!(self, MemEvent::Done { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazard_classification() {
        let done = MemEvent::Done {
            txn: TxnId(1),
            line: LineAddr(4),
            exclusive: false,
        };
        assert!(!done.is_coherence_hazard());
        assert!(MemEvent::Invalidated { line: LineAddr(4) }.is_coherence_hazard());
        assert!(MemEvent::Updated {
            line: LineAddr(4),
            addr: mcsim_isa::Addr(0x100),
            value: 9
        }
        .is_coherence_hazard());
        assert!(MemEvent::Replaced { line: LineAddr(4) }.is_coherence_hazard());
        assert_eq!(done.line(), LineAddr(4));
    }

    #[test]
    fn txn_display() {
        assert_eq!(TxnId(7).to_string(), "txn7");
    }
}

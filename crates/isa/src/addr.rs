//! Memory addresses and effective-address expressions.
//!
//! The simulator is word-oriented: every load/store moves one 64-bit value
//! and addresses are plain byte addresses of 8-byte-aligned words (a
//! misaligned static address fails program validation, a misaligned
//! computed one fails the run). Cache geometry maps an
//! [`Addr`] to a [`LineAddr`] by shifting off the block-offset bits; the
//! coherence protocol, the speculative-load buffer's associative match, and
//! the prefetcher all work at line granularity — which is exactly why
//! footnote 2 of the paper calls false sharing a source of conservative
//! (but safe) speculation failures.

use crate::reg::RegId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte address in the shared physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address, for a block of
    /// `1 << block_bits` bytes.
    #[must_use]
    pub fn line(self, block_bits: u32) -> LineAddr {
        LineAddr(self.0 >> block_bits)
    }

    /// Whether this is the address of a whole 8-byte word. Every load,
    /// store and read-modify-write must name one: the cache indexes words
    /// by `offset / 8`, while store-buffer forwarding and the oracle key
    /// on the exact address, so a misaligned access would mean different
    /// things to each.
    #[must_use]
    pub fn is_aligned(self) -> bool {
        self.0.is_multiple_of(8)
    }

    /// Byte offset of this address within its cache line.
    #[must_use]
    pub fn offset(self, block_bits: u32) -> u64 {
        self.0 & ((1u64 << block_bits) - 1)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-line address (an [`Addr`] with the block-offset bits removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte address of this line.
    #[must_use]
    pub fn base(self, block_bits: u32) -> Addr {
        Addr(self.0 << block_bits)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// An effective-address expression: `base + reg * scale`.
///
/// This is the only address mode, but it is enough to express the paper's
/// `read E[D]` (Figure 2): the base is the array start and the index
/// register carries the previously loaded value of `D`. An access whose
/// `index` register is produced by an earlier load cannot even *issue*
/// until that load's value returns — the out-of-order-consumption
/// bottleneck that defeats prefetching (§3.3) and motivates speculative
/// loads (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddrExpr {
    /// Constant base address.
    pub base: u64,
    /// Optional index register.
    pub index: Option<RegId>,
    /// Multiplier applied to the index register's value (commonly 8).
    pub scale: u64,
}

impl AddrExpr {
    /// A direct (register-free) address.
    #[must_use]
    pub fn direct(base: u64) -> Self {
        AddrExpr {
            base,
            index: None,
            scale: 0,
        }
    }

    /// An indexed address `base + reg * scale`.
    #[must_use]
    pub fn indexed(base: u64, index: RegId, scale: u64) -> Self {
        AddrExpr {
            base,
            index: Some(index),
            scale,
        }
    }

    /// Evaluates the expression given a way to read the index register.
    ///
    /// Wrapping arithmetic: address wrap-around in a synthetic workload is
    /// a workload bug, not something the simulator should crash on.
    #[must_use]
    pub fn eval(&self, read_reg: impl FnOnce(RegId) -> u64) -> Addr {
        let idx = match self.index {
            Some(r) => read_reg(r).wrapping_mul(self.scale),
            None => 0,
        };
        Addr(self.base.wrapping_add(idx))
    }

    /// The register this expression depends on, if any.
    #[must_use]
    pub fn dep(&self) -> Option<RegId> {
        self.index
    }
}

impl fmt::Display for AddrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            None => write!(f, "[{:#x}]", self.base),
            Some(r) if self.scale == 1 => write!(f, "[{:#x}+{r}]", self.base),
            Some(r) => write!(f, "[{:#x}+{r}*{}]", self.base, self.scale),
        }
    }
}

impl From<u64> for AddrExpr {
    fn from(base: u64) -> Self {
        AddrExpr::direct(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::R2;

    #[test]
    fn line_and_offset() {
        let a = Addr(0x12_34);
        assert_eq!(a.line(6), LineAddr(0x12_34 >> 6));
        assert_eq!(a.offset(6), 0x34 & 0x3f);
        assert_eq!(LineAddr(3).base(6), Addr(3 << 6));
    }

    #[test]
    fn same_line_iff_high_bits_match() {
        assert_eq!(Addr(0x100).line(6), Addr(0x13f).line(6));
        assert_ne!(Addr(0x100).line(6), Addr(0x140).line(6));
    }

    #[test]
    fn direct_eval() {
        let e = AddrExpr::direct(0x400);
        assert_eq!(e.eval(|_| panic!("no reg read expected")), Addr(0x400));
        assert_eq!(e.dep(), None);
    }

    #[test]
    fn indexed_eval() {
        let e = AddrExpr::indexed(0x1000, R2, 8);
        assert_eq!(e.eval(|r| if r == R2 { 5 } else { 0 }), Addr(0x1028));
        assert_eq!(e.dep(), Some(R2));
    }

    #[test]
    fn eval_wraps() {
        let e = AddrExpr::indexed(u64::MAX, R2, 1);
        assert_eq!(e.eval(|_| 2), Addr(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AddrExpr::direct(0x10).to_string(), "[0x10]");
        assert_eq!(AddrExpr::indexed(0x10, R2, 1).to_string(), "[0x10+r2]");
        assert_eq!(AddrExpr::indexed(0x10, R2, 8).to_string(), "[0x10+r2*8]");
    }
}

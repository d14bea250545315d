//! Instruction set.
//!
//! Memory instructions carry a [`MemFlavor`] classifying them as ordinary,
//! acquire, or release accesses — the information release consistency (and
//! weak consistency, which treats both sync kinds alike) exploits. Under SC
//! and PC the flavor is irrelevant for ordering (every access is ordered)
//! but is still tracked so the same program runs unchanged under every
//! model.

use crate::addr::AddrExpr;
use crate::reg::RegId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A source operand: an immediate or a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A 64-bit immediate constant.
    Imm(u64),
    /// The value of a register.
    Reg(RegId),
}

impl Operand {
    /// The register this operand depends on, if any.
    #[must_use]
    pub fn dep(&self) -> Option<RegId> {
        match self {
            Operand::Imm(_) => None,
            Operand::Reg(r) => Some(*r),
        }
    }

    /// Evaluates the operand.
    #[must_use]
    pub fn eval(&self, read_reg: impl FnOnce(RegId) -> u64) -> u64 {
        match self {
            Operand::Imm(v) => *v,
            Operand::Reg(r) => read_reg(*r),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

impl From<RegId> for Operand {
    fn from(r: RegId) -> Self {
        Operand::Reg(r)
    }
}

/// Classification of a memory access for the consistency models (§2).
///
/// * `Ordinary` — a plain data access.
/// * `Acquire` — a read synchronization access gaining access to shared
///   data (lock acquisition, spinning on a flag). Always a read (or the
///   read half of a read-modify-write).
/// * `Release` — a write synchronization access granting that permission
///   (unlock, setting a flag). Always a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemFlavor {
    /// Plain data access.
    Ordinary,
    /// Read synchronization (lock, flag spin).
    Acquire,
    /// Write synchronization (unlock, flag set).
    Release,
}

impl MemFlavor {
    /// Whether this is a synchronization access (acquire or release) —
    /// what weak consistency keys its delays on.
    #[must_use]
    pub fn is_sync(self) -> bool {
        !matches!(self, MemFlavor::Ordinary)
    }
}

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping multiplication.
    Mul,
}

impl AluOp {
    /// Applies the operation.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Branch comparison predicates (unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the predicate.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Static prediction hint attached to a conditional branch.
///
/// The paper assumes the predictor follows the path on which the lock
/// succeeds (§3.3); `NotTaken` on a spin loop's backward branch encodes
/// exactly that. `Dynamic` defers to the core's branch target buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchHint {
    /// Let the BTB / dynamic predictor decide.
    Dynamic,
    /// Statically predict taken.
    Taken,
    /// Statically predict not taken.
    NotTaken,
}

/// Atomic read-modify-write kinds (Appendix A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RmwKind {
    /// Test-and-set: reads the old value, writes 1. A successful lock
    /// acquisition reads 0.
    TestAndSet,
    /// Fetch-and-add: reads the old value, writes `old + operand`.
    FetchAdd,
    /// Swap: reads the old value, writes the operand.
    Swap,
}

impl RmwKind {
    /// The value stored by the atomic, given the old memory value and the
    /// instruction operand.
    #[must_use]
    pub fn new_value(self, old: u64, operand: u64) -> u64 {
        match self {
            RmwKind::TestAndSet => 1,
            RmwKind::FetchAdd => old.wrapping_add(operand),
            RmwKind::Swap => operand,
        }
    }
}

/// One instruction of the mini-ISA.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// `dst <- mem[addr]`.
    Load {
        /// Destination register.
        dst: RegId,
        /// Effective-address expression.
        addr: AddrExpr,
        /// Consistency classification.
        flavor: MemFlavor,
    },
    /// `mem[addr] <- src`.
    Store {
        /// Effective-address expression.
        addr: AddrExpr,
        /// Value to store.
        src: Operand,
        /// Consistency classification.
        flavor: MemFlavor,
    },
    /// Atomic `dst <- mem[addr]; mem[addr] <- kind(old, src)`.
    Rmw {
        /// Destination register (receives the old memory value).
        dst: RegId,
        /// Effective-address expression.
        addr: AddrExpr,
        /// Which read-modify-write operation.
        kind: RmwKind,
        /// Operand for the modify step.
        src: Operand,
        /// Consistency classification (usually [`MemFlavor::Acquire`]).
        flavor: MemFlavor,
    },
    /// `dst <- op(lhs, rhs)`, completing `latency` cycles after issue.
    Alu {
        /// Destination register.
        dst: RegId,
        /// Operation.
        op: AluOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Execution latency in cycles (minimum 1).
        latency: u32,
    },
    /// Conditional branch: if `cond(lhs, rhs)` then `pc <- target`.
    Branch {
        /// Comparison predicate.
        cond: CmpOp,
        /// Left comparison operand.
        lhs: Operand,
        /// Right comparison operand.
        rhs: Operand,
        /// Target instruction index within the program.
        target: u32,
        /// Static prediction hint.
        hint: BranchHint,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index within the program.
        target: u32,
    },
    /// A software-controlled non-binding prefetch hint (§6 of the paper:
    /// Porterfield / Mowry & Gupta style). Brings the line toward the
    /// cache — read-shared or read-exclusive — without binding a value,
    /// so it is exempt from all consistency constraints.
    Prefetch {
        /// Effective-address expression.
        addr: AddrExpr,
        /// Request exclusive ownership (for an upcoming write).
        exclusive: bool,
    },
    /// Does nothing for one cycle.
    Nop,
    /// Terminates the processor's program.
    Halt,
}

impl Instr {
    /// Whether this instruction reads memory (loads and RMWs).
    #[must_use]
    pub fn is_mem_read(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Rmw { .. })
    }

    /// Whether this instruction writes memory (stores and RMWs).
    #[must_use]
    pub fn is_mem_write(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::Rmw { .. })
    }

    /// The address expression of a word access (load, store or RMW).
    #[must_use]
    pub fn word_addr(&self) -> Option<&AddrExpr> {
        match self {
            Instr::Load { addr, .. } | Instr::Store { addr, .. } | Instr::Rmw { addr, .. } => {
                Some(addr)
            }
            _ => None,
        }
    }

    /// Whether this instruction accesses memory at all.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.is_mem_read() || self.is_mem_write()
    }

    /// The memory flavor, if this is a memory instruction.
    #[must_use]
    pub fn mem_flavor(&self) -> Option<MemFlavor> {
        match self {
            Instr::Load { flavor, .. }
            | Instr::Store { flavor, .. }
            | Instr::Rmw { flavor, .. } => Some(*flavor),
            _ => None,
        }
    }

    /// The destination register, if the instruction produces one.
    #[must_use]
    pub fn dst(&self) -> Option<RegId> {
        match self {
            Instr::Load { dst, .. } | Instr::Rmw { dst, .. } | Instr::Alu { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All registers the instruction reads, in no particular order.
    #[must_use]
    pub fn sources(&self) -> Vec<RegId> {
        let mut out = Vec::new();
        let mut push = |r: Option<RegId>| {
            if let Some(r) = r {
                out.push(r);
            }
        };
        match self {
            Instr::Load { addr, .. } => push(addr.dep()),
            Instr::Store { addr, src, .. } => {
                push(addr.dep());
                push(src.dep());
            }
            Instr::Rmw { addr, src, .. } => {
                push(addr.dep());
                push(src.dep());
            }
            Instr::Alu { lhs, rhs, .. } => {
                push(lhs.dep());
                push(rhs.dep());
            }
            Instr::Branch { lhs, rhs, .. } => {
                push(lhs.dep());
                push(rhs.dep());
            }
            Instr::Prefetch { addr, .. } => push(addr.dep()),
            Instr::Jump { .. } | Instr::Nop | Instr::Halt => {}
        }
        out
    }

    /// Branch/jump target, if this is a control transfer.
    #[must_use]
    pub fn target(&self) -> Option<u32> {
        match self {
            Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn suffix(flavor: &MemFlavor) -> &'static str {
            match flavor {
                MemFlavor::Ordinary => "",
                MemFlavor::Acquire => ".acq",
                MemFlavor::Release => ".rel",
            }
        }
        match self {
            Instr::Load { dst, addr, flavor } => {
                write!(f, "ld{} {dst}, {addr}", suffix(flavor))
            }
            Instr::Store { addr, src, flavor } => {
                write!(f, "st{} {addr}, {src}", suffix(flavor))
            }
            Instr::Rmw {
                dst,
                addr,
                kind,
                src,
                flavor,
            } => {
                let mnem = match kind {
                    RmwKind::TestAndSet => "tas",
                    RmwKind::FetchAdd => "fadd",
                    RmwKind::Swap => "swap",
                };
                // RMWs default to acquire in the assembler (the lock
                // idiom), so ordinary needs an explicit suffix.
                let sfx = match flavor {
                    MemFlavor::Acquire => "",
                    MemFlavor::Ordinary => ".ord",
                    MemFlavor::Release => ".rel",
                };
                write!(f, "{mnem}{sfx} {dst}, {addr}, {src}")
            }
            Instr::Alu {
                dst,
                op,
                lhs,
                rhs,
                latency,
            } => {
                let mnem = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                    AluOp::Mul => "mul",
                };
                if *latency == 1 {
                    write!(f, "{mnem} {dst}, {lhs}, {rhs}")
                } else {
                    write!(f, "{mnem}.{latency} {dst}, {lhs}, {rhs}")
                }
            }
            Instr::Branch {
                cond,
                lhs,
                rhs,
                target,
                hint,
            } => {
                let mnem = match cond {
                    CmpOp::Eq => "beq",
                    CmpOp::Ne => "bne",
                    CmpOp::Lt => "blt",
                    CmpOp::Ge => "bge",
                };
                let h = match hint {
                    BranchHint::Dynamic => "",
                    BranchHint::Taken => ".t",
                    BranchHint::NotTaken => ".nt",
                };
                write!(f, "{mnem}{h} {lhs}, {rhs}, @{target}")
            }
            Instr::Prefetch { addr, exclusive } => {
                if *exclusive {
                    write!(f, "pf.ex {addr}")
                } else {
                    write!(f, "pf {addr}")
                }
            }
            Instr::Jump { target } => write!(f, "jmp @{target}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{R1, R2, R3};

    #[test]
    fn alu_ops() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Mul.apply(u64::MAX, 2), u64::MAX - 1);
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.apply(4, 4));
        assert!(CmpOp::Ne.apply(4, 5));
        assert!(CmpOp::Lt.apply(4, 5));
        assert!(CmpOp::Ge.apply(5, 5));
        assert!(!CmpOp::Lt.apply(5, 4));
    }

    #[test]
    fn rmw_new_values() {
        assert_eq!(RmwKind::TestAndSet.new_value(0, 99), 1);
        assert_eq!(RmwKind::FetchAdd.new_value(10, 5), 15);
        assert_eq!(RmwKind::Swap.new_value(10, 5), 5);
    }

    #[test]
    fn flavor_sync() {
        assert!(!MemFlavor::Ordinary.is_sync());
        assert!(MemFlavor::Acquire.is_sync());
        assert!(MemFlavor::Release.is_sync());
    }

    #[test]
    fn classification_predicates() {
        let ld = Instr::Load {
            dst: R1,
            addr: AddrExpr::direct(0),
            flavor: MemFlavor::Ordinary,
        };
        let st = Instr::Store {
            addr: AddrExpr::direct(0),
            src: Operand::Imm(1),
            flavor: MemFlavor::Release,
        };
        let rmw = Instr::Rmw {
            dst: R1,
            addr: AddrExpr::direct(0),
            kind: RmwKind::TestAndSet,
            src: Operand::Imm(0),
            flavor: MemFlavor::Acquire,
        };
        assert!(ld.is_mem_read() && !ld.is_mem_write());
        assert!(!st.is_mem_read() && st.is_mem_write());
        assert!(rmw.is_mem_read() && rmw.is_mem_write());
        assert_eq!(st.mem_flavor(), Some(MemFlavor::Release));
        assert_eq!(Instr::Nop.mem_flavor(), None);
    }

    #[test]
    fn sources_collects_deps() {
        let i = Instr::Store {
            addr: AddrExpr::indexed(0x10, R2, 8),
            src: Operand::Reg(R3),
            flavor: MemFlavor::Ordinary,
        };
        let s = i.sources();
        assert!(s.contains(&R2) && s.contains(&R3));
        assert_eq!(i.dst(), None);
    }

    #[test]
    fn display_roundtrippable_shapes() {
        let i = Instr::Load {
            dst: R1,
            addr: AddrExpr::indexed(0x1000, R2, 8),
            flavor: MemFlavor::Acquire,
        };
        assert_eq!(i.to_string(), "ld.acq r1, [0x1000+r2*8]");
        let b = Instr::Branch {
            cond: CmpOp::Ne,
            lhs: Operand::Reg(R1),
            rhs: Operand::Imm(0),
            target: 3,
            hint: BranchHint::NotTaken,
        };
        assert_eq!(b.to_string(), "bne.nt r1, 0, @3");
    }
}

//! Programs and the fluent [`ProgramBuilder`].

use crate::addr::AddrExpr;
use crate::instr::{AluOp, BranchHint, CmpOp, Instr, MemFlavor, Operand, RmwKind};
use crate::reg::RegId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A validated straight-line-or-looping program for one processor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
}

/// A structural problem found while validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: u32,
        /// Program length.
        len: usize,
    },
    /// The program has no `halt`, so the processor could run forever.
    NoHalt,
    /// An ALU latency of zero (instructions take at least one cycle).
    ZeroLatency {
        /// Index of the offending instruction.
        at: usize,
    },
    /// A load, store or RMW names a static address that is not 8-byte
    /// aligned.
    MisalignedAddress {
        /// Index of the offending instruction.
        at: usize,
        /// The address.
        addr: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::TargetOutOfRange { at, target, len } => write!(
                f,
                "instruction {at}: control-flow target @{target} outside program of length {len}"
            ),
            ValidationError::NoHalt => write!(f, "program contains no halt instruction"),
            ValidationError::ZeroLatency { at } => {
                write!(f, "instruction {at}: ALU latency must be at least 1")
            }
            ValidationError::MisalignedAddress { at, addr } => {
                write!(
                    f,
                    "instruction {at}: address {addr:#x} is not 8-byte aligned"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    /// Returns a [`ValidationError`] if a control-flow target is out of
    /// range, an ALU latency is zero, a static word address is misaligned,
    /// or the program cannot halt.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Result<Self, ValidationError> {
        let len = instrs.len();
        let mut has_halt = false;
        for (at, i) in instrs.iter().enumerate() {
            if let Some(target) = i.target() {
                if target as usize >= len {
                    return Err(ValidationError::TargetOutOfRange { at, target, len });
                }
            }
            if let Instr::Alu { latency: 0, .. } = i {
                return Err(ValidationError::ZeroLatency { at });
            }
            if let Some(a) = i.word_addr().filter(|a| a.dep().is_none()) {
                if !crate::Addr(a.base).is_aligned() {
                    return Err(ValidationError::MisalignedAddress { at, addr: a.base });
                }
            }
            has_halt |= matches!(i, Instr::Halt);
        }
        if !has_halt {
            return Err(ValidationError::NoHalt);
        }
        Ok(Program {
            name: name.into(),
            instrs,
        })
    }

    /// An empty program that halts immediately (useful for idle processors).
    #[must_use]
    pub fn idle() -> Self {
        Program {
            name: "idle".into(),
            instrs: vec![Instr::Halt],
        }
    }

    /// The program's name (for traces and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `pc`, or `None` past the end.
    #[must_use]
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// All instructions.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Count of memory instructions (loads + stores + RMWs).
    #[must_use]
    pub fn mem_instr_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_mem()).count()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program `{}`", self.name)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:4}: {i}")?;
        }
        Ok(())
    }
}

/// An unresolved label used by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Fluent builder for [`Program`]s, with forward labels and `lock`/`unlock`
/// macros that expand to the paper's synchronization idioms.
///
/// ```
/// use mcsim_isa::{ProgramBuilder, reg::{R1, R2}};
/// let p = ProgramBuilder::new("example1")
///     .lock(0x40, R1)       // tas + spin branch (predicted to succeed)
///     .store(0x100, 1)      // write A
///     .store(0x140, 2)      // write B
///     .unlock(0x40)         // st.rel
///     .halt()
///     .build()
///     .unwrap();
/// assert!(p.len() >= 5);
/// let _ = R2;
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: HashMap<Label, u32>,
    next_label: usize,
    pending: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Starts building a program.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Index the next appended instruction will get.
    #[must_use]
    pub fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Allocates a label to be bound later with [`Self::bind`].
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    #[must_use]
    pub fn bind(mut self, label: Label) -> Self {
        let at = self.here();
        self.labels.insert(label, at);
        self
    }

    /// Appends an ordinary load `dst <- mem[addr]`.
    #[must_use]
    pub fn load(mut self, dst: RegId, addr: impl Into<AddrExpr>) -> Self {
        self.instrs.push(Instr::Load {
            dst,
            addr: addr.into(),
            flavor: MemFlavor::Ordinary,
        });
        self
    }

    /// Appends an acquire load (flag spin read).
    #[must_use]
    pub fn load_acquire(mut self, dst: RegId, addr: impl Into<AddrExpr>) -> Self {
        self.instrs.push(Instr::Load {
            dst,
            addr: addr.into(),
            flavor: MemFlavor::Acquire,
        });
        self
    }

    /// Appends an ordinary store `mem[addr] <- src`.
    #[must_use]
    pub fn store(mut self, addr: impl Into<AddrExpr>, src: impl Into<Operand>) -> Self {
        self.instrs.push(Instr::Store {
            addr: addr.into(),
            src: src.into(),
            flavor: MemFlavor::Ordinary,
        });
        self
    }

    /// Appends a release store (flag set / unlock).
    #[must_use]
    pub fn store_release(mut self, addr: impl Into<AddrExpr>, src: impl Into<Operand>) -> Self {
        self.instrs.push(Instr::Store {
            addr: addr.into(),
            src: src.into(),
            flavor: MemFlavor::Release,
        });
        self
    }

    /// Appends an atomic read-modify-write.
    #[must_use]
    pub fn rmw(
        mut self,
        dst: RegId,
        addr: impl Into<AddrExpr>,
        kind: RmwKind,
        src: impl Into<Operand>,
        flavor: MemFlavor,
    ) -> Self {
        self.instrs.push(Instr::Rmw {
            dst,
            addr: addr.into(),
            kind,
            src: src.into(),
            flavor,
        });
        self
    }

    /// Appends an ALU operation with unit latency.
    #[must_use]
    pub fn alu(
        self,
        dst: RegId,
        op: AluOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> Self {
        self.alu_lat(dst, op, lhs, rhs, 1)
    }

    /// Appends an ALU operation with explicit latency.
    #[must_use]
    pub fn alu_lat(
        mut self,
        dst: RegId,
        op: AluOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        latency: u32,
    ) -> Self {
        self.instrs.push(Instr::Alu {
            dst,
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
            latency,
        });
        self
    }

    /// Appends a conditional branch to a (possibly forward) label.
    #[must_use]
    pub fn branch(
        mut self,
        cond: CmpOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        to: Label,
        hint: BranchHint,
    ) -> Self {
        let at = self.instrs.len();
        self.instrs.push(Instr::Branch {
            cond,
            lhs: lhs.into(),
            rhs: rhs.into(),
            target: u32::MAX, // patched in build()
            hint,
        });
        self.pending.push((at, to));
        self
    }

    /// Appends an unconditional jump to a label.
    #[must_use]
    pub fn jump(mut self, to: Label) -> Self {
        let at = self.instrs.len();
        self.instrs.push(Instr::Jump { target: u32::MAX });
        self.pending.push((at, to));
        self
    }

    /// Appends a software prefetch hint (non-binding; §6 of the paper).
    #[must_use]
    pub fn prefetch(mut self, addr: impl Into<AddrExpr>, exclusive: bool) -> Self {
        self.instrs.push(Instr::Prefetch {
            addr: addr.into(),
            exclusive,
        });
        self
    }

    /// Appends a `nop`.
    #[must_use]
    pub fn nop(mut self) -> Self {
        self.instrs.push(Instr::Nop);
        self
    }

    /// Appends a `halt`.
    #[must_use]
    pub fn halt(mut self) -> Self {
        self.instrs.push(Instr::Halt);
        self
    }

    /// Lock acquisition: a test-and-set acquire RMW on `lock_addr` followed
    /// by a spin branch predicted *not taken* — the paper's assumption that
    /// the predictor follows the lock-success path (§3.3). `scratch`
    /// receives the old lock value.
    #[must_use]
    pub fn lock(mut self, lock_addr: u64, scratch: RegId) -> Self {
        let top = self.here();
        self.instrs.push(Instr::Rmw {
            dst: scratch,
            addr: AddrExpr::direct(lock_addr),
            kind: RmwKind::TestAndSet,
            src: Operand::Imm(0),
            flavor: MemFlavor::Acquire,
        });
        // Spin while the old value was nonzero (lock held by someone else).
        self.instrs.push(Instr::Branch {
            cond: CmpOp::Ne,
            lhs: Operand::Reg(scratch),
            rhs: Operand::Imm(0),
            target: top,
            hint: BranchHint::NotTaken,
        });
        self
    }

    /// Lock release: a release store of 0.
    #[must_use]
    pub fn unlock(self, lock_addr: u64) -> Self {
        self.store_release(lock_addr, 0u64)
    }

    /// Spin until `mem[flag_addr] == expect` using an acquire load.
    /// The spin branch is predicted not taken (flag assumed already set).
    #[must_use]
    pub fn spin_until(mut self, flag_addr: u64, expect: u64, scratch: RegId) -> Self {
        let top = self.here();
        self.instrs.push(Instr::Load {
            dst: scratch,
            addr: AddrExpr::direct(flag_addr),
            flavor: MemFlavor::Acquire,
        });
        self.instrs.push(Instr::Branch {
            cond: CmpOp::Ne,
            lhs: Operand::Reg(scratch),
            rhs: Operand::Imm(expect),
            target: top,
            hint: BranchHint::NotTaken,
        });
        self
    }

    /// Resolves labels and validates.
    ///
    /// # Errors
    /// [`ValidationError`] from [`Program::new`], plus a panic-free error if
    /// a label was never bound.
    pub fn build(mut self) -> Result<Program, ValidationError> {
        for (at, label) in std::mem::take(&mut self.pending) {
            let Some(&target) = self.labels.get(&label) else {
                // An unbound label means the builder was misused; surface it
                // as an out-of-range target so callers get one error type.
                return Err(ValidationError::TargetOutOfRange {
                    at,
                    target: u32::MAX,
                    len: self.instrs.len(),
                });
            };
            match &mut self.instrs[at] {
                Instr::Branch { target: t, .. } | Instr::Jump { target: t } => *t = target,
                _ => unreachable!("pending patch always points at a control instruction"),
            }
        }
        Program::new(self.name, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{R1, R2};

    #[test]
    fn validation_rejects_bad_target() {
        let err = Program::new("p", vec![Instr::Jump { target: 5 }, Instr::Halt]).unwrap_err();
        assert!(matches!(err, ValidationError::TargetOutOfRange { .. }));
    }

    #[test]
    fn validation_rejects_no_halt() {
        let err = Program::new("p", vec![Instr::Nop]).unwrap_err();
        assert_eq!(err, ValidationError::NoHalt);
    }

    #[test]
    fn validation_rejects_zero_latency() {
        let err = Program::new(
            "p",
            vec![
                Instr::Alu {
                    dst: R1,
                    op: AluOp::Add,
                    lhs: Operand::Imm(1),
                    rhs: Operand::Imm(2),
                    latency: 0,
                },
                Instr::Halt,
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::ZeroLatency { at: 0 }));
    }

    #[test]
    fn builder_lock_expands_to_rmw_and_spin() {
        let p = ProgramBuilder::new("t")
            .lock(0x40, R1)
            .halt()
            .build()
            .unwrap();
        assert!(matches!(
            p.fetch(0),
            Some(Instr::Rmw {
                kind: RmwKind::TestAndSet,
                flavor: MemFlavor::Acquire,
                ..
            })
        ));
        assert!(matches!(
            p.fetch(1),
            Some(Instr::Branch {
                target: 0,
                hint: BranchHint::NotTaken,
                ..
            })
        ));
    }

    #[test]
    fn builder_labels_resolve_forward() {
        let mut b = ProgramBuilder::new("t");
        let end = b.label();
        let p = b
            .jump(end)
            .store(0x100, 1u64)
            .bind(end)
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.fetch(0), Some(&Instr::Jump { target: 2 }));
    }

    #[test]
    fn builder_unbound_label_errors() {
        let mut b = ProgramBuilder::new("t");
        let nowhere = b.label();
        let err = b.jump(nowhere).halt().build().unwrap_err();
        assert!(matches!(err, ValidationError::TargetOutOfRange { .. }));
    }

    #[test]
    fn mem_instr_count() {
        let p = ProgramBuilder::new("t")
            .load(R1, 0x10u64)
            .alu(R2, AluOp::Add, R1, 1u64)
            .store(0x18u64, R2)
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.mem_instr_count(), 2);
    }

    #[test]
    fn display_includes_name_and_indices() {
        let p = ProgramBuilder::new("show").halt().build().unwrap();
        let s = p.to_string();
        assert!(s.contains("`show`"));
        assert!(s.contains("0: halt"));
    }

    #[test]
    fn idle_program() {
        let p = Program::idle();
        assert_eq!(p.len(), 1);
        assert!(matches!(p.fetch(0), Some(Instr::Halt)));
    }
}

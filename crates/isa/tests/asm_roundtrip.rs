//! Property: `assemble(disassemble(p))` reproduces any valid program.

use mcsim_isa::asm::{assemble, disassemble};
use mcsim_isa::{
    AddrExpr, AluOp, BranchHint, CmpOp, Instr, MemFlavor, Operand, Program, RegId, RmwKind,
};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = RegId> {
    (0u8..32).prop_map(RegId::new)
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        any::<u64>().prop_map(Operand::Imm),
        reg().prop_map(Operand::Reg),
    ]
}

fn addr_expr() -> impl Strategy<Value = AddrExpr> {
    prop_oneof![
        // A valid program's static word addresses are 8-byte aligned.
        (0u64..0x2_0000).prop_map(|w| AddrExpr::direct(w * 8)),
        (0u64..0x10_0000, reg(), 1u64..16).prop_map(|(b, r, s)| AddrExpr::indexed(b, r, s)),
    ]
}

fn flavor() -> impl Strategy<Value = MemFlavor> {
    prop_oneof![
        Just(MemFlavor::Ordinary),
        Just(MemFlavor::Acquire),
        Just(MemFlavor::Release),
    ]
}

/// A non-control instruction (targets are patched separately so they
/// always stay in range).
fn straight_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (reg(), addr_expr(), flavor()).prop_map(|(dst, addr, flavor)| Instr::Load {
            dst,
            addr,
            flavor
        }),
        (addr_expr(), operand(), flavor()).prop_map(|(addr, src, flavor)| Instr::Store {
            addr,
            src,
            flavor
        }),
        (
            reg(),
            addr_expr(),
            prop_oneof![
                Just(RmwKind::TestAndSet),
                Just(RmwKind::FetchAdd),
                Just(RmwKind::Swap)
            ],
            operand(),
            flavor()
        )
            .prop_map(|(dst, addr, kind, src, flavor)| Instr::Rmw {
                dst,
                addr,
                kind,
                src,
                flavor
            }),
        (
            reg(),
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Sub),
                Just(AluOp::And),
                Just(AluOp::Or),
                Just(AluOp::Xor),
                Just(AluOp::Mul)
            ],
            operand(),
            operand(),
            1u32..100
        )
            .prop_map(|(dst, op, lhs, rhs, latency)| Instr::Alu {
                dst,
                op,
                lhs,
                rhs,
                latency
            }),
        (addr_expr(), any::<bool>())
            .prop_map(|(addr, exclusive)| Instr::Prefetch { addr, exclusive }),
        Just(Instr::Nop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn disassemble_assemble_roundtrip(
        body in prop::collection::vec(straight_instr(), 0..24),
        branch in (
            prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne), Just(CmpOp::Lt), Just(CmpOp::Ge)],
            operand(),
            operand(),
            prop_oneof![Just(BranchHint::Dynamic), Just(BranchHint::Taken), Just(BranchHint::NotTaken)],
        ),
        target_frac in 0.0f64..1.0,
    ) {
        // Assemble a program: body, a branch whose target is somewhere in
        // range, then halt.
        let mut instrs = body;
        let len_after = instrs.len() as u32 + 2; // + branch + halt
        let target = ((len_after - 1) as f64 * target_frac) as u32;
        let (cond, lhs, rhs, hint) = branch;
        instrs.push(Instr::Branch { cond, lhs, rhs, target, hint });
        instrs.push(Instr::Halt);
        let p = Program::new("prop", instrs).expect("constructed valid");

        let text = disassemble(&p);
        let p2 = assemble("prop", &text)
            .unwrap_or_else(|e| panic!("reassembly failed: {e}\n{text}"));
        prop_assert_eq!(p.instrs(), p2.instrs());
    }
}

//! The abstract machine behind the oracle: canonical states, the greedy
//! fetch closure, the per-model perform rule, and the memoized search.

use crate::{OracleConfig, OracleError, OracleResult, Outcome};
use mcsim_consistency::{AccessClass, Model};
use mcsim_isa::{Addr, AddrExpr, AluOp, Instr, Operand, Program, RmwKind, NUM_REGS};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A register or operand value: concrete, or the tag of a pending entry
/// in the same processor's queue. Tags are the entry's *current queue
/// position*, renumbered whenever an earlier entry retires — that keeps
/// states canonical, so a spin loop's second iteration hashes equal to
/// its first and the visited set prunes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val {
    C(u64),
    T(u8),
}

impl Val {
    fn concrete(self) -> Option<u64> {
        match self {
            Val::C(v) => Some(v),
            Val::T(_) => None,
        }
    }

    fn subst(&mut self, tag: u8, v: u64) {
        if *self == Val::T(tag) {
            *self = Val::C(v);
        }
    }

    fn shift_down(&mut self, removed: u8) {
        if let Val::T(t) = *self {
            debug_assert_ne!(t, removed, "dangling tag after retirement");
            if t > removed {
                *self = Val::T(t - 1);
            }
        }
    }
}

/// One not-yet-performed operation. `Alu` entries are pure dataflow —
/// they resolve automatically once their inputs do and never constrain
/// memory ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Entry {
    Load {
        addr: u64,
        class: AccessClass,
    },
    Store {
        addr: u64,
        class: AccessClass,
        data: Val,
    },
    Rmw {
        addr: u64,
        class: AccessClass,
        kind: RmwKind,
        src: Val,
    },
    Alu {
        op: AluOp,
        lhs: Val,
        rhs: Val,
    },
}

impl Entry {
    /// Class and address if this is a memory access.
    fn mem(&self) -> Option<(AccessClass, u64)> {
        match *self {
            Entry::Load { addr, class } => Some((class, addr)),
            Entry::Store { addr, class, .. } | Entry::Rmw { addr, class, .. } => {
                Some((class, addr))
            }
            Entry::Alu { .. } => None,
        }
    }

    fn subst(&mut self, tag: u8, v: u64) {
        match self {
            Entry::Load { .. } => {}
            Entry::Store { data, .. } => data.subst(tag, v),
            Entry::Rmw { src, .. } => src.subst(tag, v),
            Entry::Alu { lhs, rhs, .. } => {
                lhs.subst(tag, v);
                rhs.subst(tag, v);
            }
        }
    }

    fn shift_down(&mut self, removed: u8) {
        match self {
            Entry::Load { .. } => {}
            Entry::Store { data, .. } => data.shift_down(removed),
            Entry::Rmw { src, .. } => src.shift_down(removed),
            Entry::Alu { lhs, rhs, .. } => {
                lhs.shift_down(removed);
                rhs.shift_down(removed);
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProcState {
    pc: u32,
    regs: Vec<Val>,
    pending: Vec<Entry>,
}

impl ProcState {
    fn new() -> Self {
        ProcState {
            pc: 0,
            regs: vec![Val::C(0); NUM_REGS],
            pending: Vec::new(),
        }
    }

    fn operand(&self, o: &Operand) -> Val {
        match o {
            Operand::Imm(v) => Val::C(*v),
            Operand::Reg(r) => self.regs[r.index()],
        }
    }

    /// Evaluates a word address expression; `Ok(None)` while its index
    /// register is still a pending tag, `Err` if the address is not
    /// 8-byte aligned.
    fn addr(&self, proc: usize, a: &AddrExpr) -> Result<Option<u64>, OracleError> {
        let index = match a.dep() {
            Some(r) => match self.regs[r.index()].concrete() {
                Some(v) => v,
                None => return Ok(None),
            },
            None => 0,
        };
        let addr = a.eval(|_| index);
        if !addr.is_aligned() {
            return Err(OracleError::Misaligned {
                proc,
                pc: self.pc,
                addr: addr.0,
            });
        }
        Ok(Some(addr.0))
    }

    fn push(&mut self, e: Entry) -> u8 {
        let tag = u8::try_from(self.pending.len()).expect("pending queue exceeds 255 entries");
        self.pending.push(e);
        tag
    }

    /// Retires entry `i`: substitutes its produced value (if any) into
    /// every register and queue operand, removes it, and renumbers the
    /// tags of everything younger.
    fn retire(&mut self, i: usize, produced: Option<u64>) {
        let tag = i as u8;
        if let Some(v) = produced {
            for r in &mut self.regs {
                r.subst(tag, v);
            }
            for e in &mut self.pending {
                e.subst(tag, v);
            }
        }
        self.pending.remove(i);
        for r in &mut self.regs {
            r.shift_down(tag);
        }
        for e in &mut self.pending {
            e.shift_down(tag);
        }
    }

    /// Resolves every deferred ALU entry whose inputs have become
    /// concrete (cascading: one resolution may unblock the next).
    fn cascade(&mut self) {
        loop {
            let ready = self.pending.iter().position(|e| {
                matches!(e, Entry::Alu { lhs, rhs, .. }
                    if lhs.concrete().is_some() && rhs.concrete().is_some())
            });
            let Some(i) = ready else { return };
            let Entry::Alu { op, lhs, rhs } = self.pending[i].clone() else {
                unreachable!("position matched an Alu entry");
            };
            let v = op.apply(
                lhs.concrete().expect("ready"),
                rhs.concrete().expect("ready"),
            );
            self.retire(i, Some(v));
        }
    }

    /// Greedy instantaneous fetch: executes/enqueues instructions in
    /// program order until a halt, a branch on a pending value, or an
    /// address that depends on a pending value. `proc` names this
    /// processor in a misaligned-address error.
    fn fetch_closure(&mut self, proc: usize, prog: &Program) -> Result<(), OracleError> {
        loop {
            let Some(instr) = prog.fetch(self.pc as usize) else {
                return Ok(());
            };
            match instr {
                Instr::Halt => return Ok(()),
                Instr::Nop | Instr::Prefetch { .. } => self.pc += 1,
                Instr::Jump { target } => self.pc = *target,
                Instr::Alu {
                    dst, op, lhs, rhs, ..
                } => {
                    let (l, r) = (self.operand(lhs), self.operand(rhs));
                    self.regs[dst.index()] = match (l.concrete(), r.concrete()) {
                        (Some(a), Some(b)) => Val::C(op.apply(a, b)),
                        _ => Val::T(self.push(Entry::Alu {
                            op: *op,
                            lhs: l,
                            rhs: r,
                        })),
                    };
                    self.pc += 1;
                }
                Instr::Branch {
                    cond,
                    lhs,
                    rhs,
                    target,
                    ..
                } => {
                    let (Some(a), Some(b)) =
                        (self.operand(lhs).concrete(), self.operand(rhs).concrete())
                    else {
                        return Ok(()); // blocked on a pending condition
                    };
                    self.pc = if cond.apply(a, b) {
                        *target
                    } else {
                        self.pc + 1
                    };
                }
                Instr::Load { dst, addr, .. } => {
                    let Some(a) = self.addr(proc, addr)? else {
                        return Ok(());
                    };
                    let class = AccessClass::of_instr(instr).expect("load is a memory access");
                    let tag = self.push(Entry::Load { addr: a, class });
                    self.regs[dst.index()] = Val::T(tag);
                    self.pc += 1;
                }
                Instr::Store { addr, src, .. } => {
                    let Some(a) = self.addr(proc, addr)? else {
                        return Ok(());
                    };
                    let class = AccessClass::of_instr(instr).expect("store is a memory access");
                    let data = self.operand(src);
                    self.push(Entry::Store {
                        addr: a,
                        class,
                        data,
                    });
                    self.pc += 1;
                }
                Instr::Rmw {
                    dst,
                    addr,
                    kind,
                    src,
                    ..
                } => {
                    let Some(a) = self.addr(proc, addr)? else {
                        return Ok(());
                    };
                    let class = AccessClass::of_instr(instr).expect("rmw is a memory access");
                    let src = self.operand(src);
                    let tag = self.push(Entry::Rmw {
                        addr: a,
                        class,
                        kind: *kind,
                        src,
                    });
                    self.regs[dst.index()] = Val::T(tag);
                    self.pc += 1;
                }
            }
        }
    }

    fn halted(&self, prog: &Program) -> bool {
        matches!(prog.fetch(self.pc as usize), Some(Instr::Halt) | None)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    procs: Vec<ProcState>,
    mem: Vec<(u64, u64)>, // sorted — hashable form of the map
}

impl State {
    fn read(&self, addr: u64) -> u64 {
        match self.mem.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.mem[i].1,
            Err(_) => 0,
        }
    }

    fn write(&mut self, addr: u64, v: u64) {
        match self.mem.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.mem[i].1 = v,
            Err(i) => self.mem.insert(i, (addr, v)),
        }
    }
}

/// Whether pending entry `i` of queue `q` may perform now under `model`.
fn may_perform(model: Model, q: &[Entry], i: usize) -> bool {
    let Some((class, addr)) = q[i].mem() else {
        return false; // ALU entries resolve by cascade, not by choice
    };
    let data_ready = match &q[i] {
        Entry::Store { data, .. } => data.concrete().is_some(),
        Entry::Rmw { src, .. } => src.concrete().is_some(),
        _ => true,
    };
    if !data_ready {
        return false;
    }
    q[..i].iter().all(|e| match e.mem() {
        None => true,
        Some((ec, ea)) => !model.must_order((ec, Addr(ea)), (class, Addr(addr))),
    })
}

/// Performs pending entry `i` of processor `p`, producing the successor
/// state (atomic read/write of the single shared memory, tag resolution,
/// ALU cascade, then resumed fetch).
fn perform(st: &State, programs: &[Program], p: usize, i: usize) -> Result<State, OracleError> {
    let mut next = st.clone();
    let entry = next.procs[p].pending[i].clone();
    match entry {
        Entry::Load { addr, .. } => {
            let v = next.read(addr);
            next.procs[p].retire(i, Some(v));
        }
        Entry::Store { addr, data, .. } => {
            let v = data.concrete().expect("checked by may_perform");
            next.write(addr, v);
            next.procs[p].retire(i, None);
        }
        Entry::Rmw {
            addr, kind, src, ..
        } => {
            let old = next.read(addr);
            let operand = src.concrete().expect("checked by may_perform");
            next.write(addr, kind.new_value(old, operand));
            next.procs[p].retire(i, Some(old));
        }
        Entry::Alu { .. } => unreachable!("ALU entries are never chosen to perform"),
    }
    next.procs[p].cascade();
    next.procs[p].fetch_closure(p, &programs[p])?;
    Ok(next)
}

/// Exhaustive memoized DFS over the abstract machine's state graph.
pub(crate) fn enumerate(
    model: Model,
    programs: &[Program],
    init_mem: &BTreeMap<u64, u64>,
    cfg: OracleConfig,
) -> OracleResult {
    let mut start = State {
        procs: (0..programs.len()).map(|_| ProcState::new()).collect(),
        mem: init_mem.iter().map(|(&a, &v)| (a, v)).collect(),
    };
    let stopped = |error| OracleResult {
        outcomes: BTreeSet::new(),
        complete: false,
        error: Some(error),
    };
    for (p, prog) in programs.iter().enumerate() {
        if let Err(e) = start.procs[p].fetch_closure(p, prog) {
            return stopped(e);
        }
    }
    let mut visited: HashSet<State> = HashSet::new();
    let mut outcomes = BTreeSet::new();
    let mut stack = vec![start.clone()];
    visited.insert(start);
    let mut complete = true;
    while let Some(st) = stack.pop() {
        if visited.len() > cfg.max_states {
            complete = false;
            break;
        }
        let mut terminal = true;
        for p in 0..programs.len() {
            for i in 0..st.procs[p].pending.len() {
                if may_perform(model, &st.procs[p].pending, i) {
                    terminal = false;
                    let next = match perform(&st, programs, p, i) {
                        Ok(next) => next,
                        Err(e) => return stopped(e),
                    };
                    if visited.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
        }
        if terminal {
            // With empty queues a fetch-closed processor is necessarily
            // halted; a non-empty queue always has a performable entry
            // (its oldest access has no earlier constraints), so this
            // state is a genuine end state.
            debug_assert!(st
                .procs
                .iter()
                .zip(programs)
                .all(|(ps, prog)| ps.pending.is_empty() && ps.halted(prog)));
            outcomes.insert(Outcome {
                regs: st
                    .procs
                    .iter()
                    .map(|ps| {
                        ps.regs
                            .iter()
                            .map(|v| v.concrete().expect("terminal registers are concrete"))
                            .collect()
                    })
                    .collect(),
                memory: st.mem.iter().copied().collect(),
            });
        }
    }
    OracleResult {
        outcomes,
        complete,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{outcomes as enumerate_model, sc_outcomes, OracleConfig};
    use mcsim_isa::reg::{R1, R2};
    use mcsim_isa::ProgramBuilder;

    fn mem0() -> BTreeMap<u64, u64> {
        BTreeMap::new()
    }

    fn sb() -> Vec<Program> {
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 1u64)
            .load(R1, 0x200u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .store(0x200u64, 1u64)
            .load(R1, 0x100u64)
            .halt()
            .build()
            .unwrap();
        vec![p0, p1]
    }

    #[test]
    fn store_buffering_outcomes_per_model() {
        let progs = sb();
        let zero_zero = |r: &OracleResult| {
            r.outcomes
                .iter()
                .any(|o| o.reg(0, R1) == 0 && o.reg(1, R1) == 0)
        };
        let sc = sc_outcomes(&progs, &mem0(), OracleConfig::default());
        assert!(sc.complete);
        assert!(!zero_zero(&sc), "SC forbids both loads reading 0");
        // The three other combinations are all SC-reachable.
        for want in [(0, 1), (1, 0), (1, 1)] {
            assert!(sc
                .outcomes
                .iter()
                .any(|o| (o.reg(0, R1), o.reg(1, R1)) == want));
        }
        // Every relaxed model allows (0, 0): the store -> load arc is gone.
        for model in [Model::Tso, Model::Pc, Model::Pso, Model::Wc, Model::Rc] {
            let r = enumerate_model(model, &progs, &mem0(), OracleConfig::default());
            assert!(r.complete);
            assert!(zero_zero(&r), "{model} allows (0, 0)");
            assert!(sc.outcomes.is_subset(&r.outcomes), "SC ⊆ {model}");
        }
    }

    #[test]
    fn load_buffering_forbidden_under_store_buffer_models() {
        // LB: P0: r1=x; y=1.  P1: r1=y; x=1.  (1,1) needs a load to pass
        // an earlier... later store to pass an earlier load — kept by SC,
        // TSO, PSO, and PC (the load -> store arc), dropped by WC/RC.
        let p0 = ProgramBuilder::new("p0")
            .load(R1, 0x100u64)
            .store(0x200u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .load(R1, 0x200u64)
            .store(0x100u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let progs = vec![p0, p1];
        let one_one = |r: &OracleResult| {
            r.outcomes
                .iter()
                .any(|o| o.reg(0, R1) == 1 && o.reg(1, R1) == 1)
        };
        for model in [Model::Sc, Model::Tso, Model::Pc, Model::Pso] {
            let r = enumerate_model(model, &progs, &mem0(), OracleConfig::default());
            assert!(!one_one(&r), "{model} forbids (1, 1)");
        }
        for model in [Model::Wc, Model::RcSc, Model::Rc] {
            let r = enumerate_model(model, &progs, &mem0(), OracleConfig::default());
            assert!(one_one(&r), "{model} allows (1, 1)");
        }
    }

    #[test]
    fn pso_reorders_plain_stores_but_not_releases() {
        // MP with an ordinary flag store: PSO lets the flag pass the data
        // (stale read possible); with a release flag store it cannot.
        let racy_p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 42u64)
            .store(0x200u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let rel_p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 42u64)
            .store_release(0x200u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .load(R1, 0x200u64)
            .load(R2, 0x100u64)
            .halt()
            .build()
            .unwrap();
        let stale = |r: &OracleResult| {
            r.outcomes
                .iter()
                .any(|o| o.reg(1, R1) == 1 && o.reg(1, R2) == 0)
        };
        let racy = enumerate_model(
            Model::Pso,
            &[racy_p0, p1.clone()],
            &mem0(),
            OracleConfig::default(),
        );
        assert!(stale(&racy), "PSO reorders the two plain stores");
        let rel = enumerate_model(Model::Pso, &[rel_p0, p1], &mem0(), OracleConfig::default());
        assert!(!stale(&rel), "release store keeps the data ahead");
    }

    #[test]
    fn tso_keeps_stores_in_order() {
        // Same racy MP: TSO's store -> store arc forbids the stale read.
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 42u64)
            .store(0x200u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .load(R1, 0x200u64)
            .load(R2, 0x100u64)
            .halt()
            .build()
            .unwrap();
        let r = enumerate_model(Model::Tso, &[p0, p1], &mem0(), OracleConfig::default());
        assert!(!r
            .outcomes
            .iter()
            .any(|o| o.reg(1, R1) == 1 && o.reg(1, R2) == 0));
    }

    #[test]
    fn coherence_rr_never_goes_backwards() {
        // Per-location program order holds under every model.
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .load(R1, 0x100u64)
            .load(R2, 0x100u64)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            let r = enumerate_model(
                model,
                &[p0.clone(), p1.clone()],
                &mem0(),
                OracleConfig::default(),
            );
            assert!(
                !r.outcomes
                    .iter()
                    .any(|o| o.reg(1, R1) == 1 && o.reg(1, R2) == 0),
                "{model}: reads of one location went backwards"
            );
        }
    }

    #[test]
    fn message_passing_with_spin_converges() {
        let p0 = ProgramBuilder::new("p0")
            .store(0x100u64, 42u64)
            .store_release(0x200u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .spin_until(0x200, 1, R1)
            .load(R2, 0x100u64)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            let r = enumerate_model(
                model,
                &[p0.clone(), p1.clone()],
                &mem0(),
                OracleConfig::default(),
            );
            assert!(r.complete, "{model}: spin loop pruned by visited set");
            assert!(!r.outcomes.is_empty());
            for o in &r.outcomes {
                assert_eq!(o.reg(1, R2), 42, "{model}: DRF hand-off must deliver");
            }
        }
    }

    #[test]
    fn lock_counter_has_unique_outcome_under_every_model() {
        let worker = || {
            ProgramBuilder::new("w")
                .lock(0x40, R1)
                .load(R2, 0x1000u64)
                .alu(R2, mcsim_isa::AluOp::Add, R2, 1u64)
                .store(0x1000u64, R2)
                .unlock(0x40)
                .halt()
                .build()
                .unwrap()
        };
        for model in Model::ALL_EXTENDED {
            let r = enumerate_model(
                model,
                &[worker(), worker()],
                &mem0(),
                OracleConfig::default(),
            );
            assert!(r.complete, "{model}");
            for o in &r.outcomes {
                assert_eq!(o.mem(0x1000), 2, "{model}: critical sections interleaved");
            }
        }
    }

    #[test]
    fn store_data_dependence_does_not_block_later_accesses() {
        // P0: r1 = A; store B = r1+1; store C = 7.  Under WC the
        // independent store to C may perform before the load of A — the
        // symbolic store data must not serialize the queue.
        let p0 = ProgramBuilder::new("p0")
            .load(R1, 0x100u64)
            .alu(R2, mcsim_isa::AluOp::Add, R1, 1u64)
            .store(0x200u64, R2)
            .store(0x300u64, 7u64)
            .halt()
            .build()
            .unwrap();
        // P1 observes C then writes A: if it sees C == 7 and then sets A,
        // P0's load may still return the new A only if the load performed
        // after — under WC both r1 values must be reachable with C seen.
        let p1 = ProgramBuilder::new("p1")
            .load(R1, 0x300u64)
            .store(0x100u64, 9u64)
            .halt()
            .build()
            .unwrap();
        let r = enumerate_model(Model::Wc, &[p0, p1], &mem0(), OracleConfig::default());
        assert!(r.complete);
        // The interesting interleaving: P1 saw C=7 (store C passed the
        // load of A), then wrote A, and P0's load still read the new 9.
        assert!(
            r.outcomes
                .iter()
                .any(|o| o.reg(1, R1) == 7 && o.reg(0, R1) == 9),
            "store C must be able to perform before the load of A"
        );
    }

    #[test]
    fn rmw_is_atomic_under_every_model() {
        // Two racing fetch-adds: a lost update (both read 0, final 1) must
        // be impossible; the two old values are always {0, 1}.
        let adder = |n: &'static str| {
            ProgramBuilder::new(n)
                .rmw(
                    R1,
                    0x100u64,
                    mcsim_isa::RmwKind::FetchAdd,
                    1u64,
                    mcsim_isa::MemFlavor::Ordinary,
                )
                .halt()
                .build()
                .unwrap()
        };
        for model in Model::ALL_EXTENDED {
            let r = enumerate_model(
                model,
                &[adder("a"), adder("b")],
                &mem0(),
                OracleConfig::default(),
            );
            assert!(r.complete && !r.outcomes.is_empty(), "{model}");
            for o in &r.outcomes {
                assert_eq!(o.mem(0x100), 2, "{model}: lost update");
                assert_eq!(o.reg(0, R1) + o.reg(1, R1), 1, "{model}: old values");
            }
        }
    }

    #[test]
    fn sc_agrees_with_atomic_interleaving_on_alu_heavy_programs() {
        // The deferred-ALU machinery must not change SC outcomes.
        let p0 = ProgramBuilder::new("p0")
            .load(R1, 0x100u64)
            .alu(R2, mcsim_isa::AluOp::Mul, R1, 3u64)
            .store(0x200u64, R2)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("p1")
            .store(0x100u64, 2u64)
            .load(R1, 0x200u64)
            .halt()
            .build()
            .unwrap();
        let r = sc_outcomes(&[p0, p1], &mem0(), OracleConfig::default());
        assert!(r.complete);
        // P0 writes either 0 or 6 to 0x200; P1 reads 0 or that value.
        for o in &r.outcomes {
            assert!(o.mem(0x200) == 0 || o.mem(0x200) == 6);
            assert!(o.reg(1, R1) == 0 || o.reg(1, R1) == o.mem(0x200));
        }
    }
}

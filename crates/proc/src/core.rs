//! The processor core: Johnson's dynamically scheduled organization
//! (Figure 3) with the paper's modified load/store unit (Figure 4).
//!
//! ## Cycle structure
//!
//! Each [`Processor::tick`] runs these stages in order (the memory system
//! has already ticked, so this cycle's fills and coherence traffic are
//! waiting):
//!
//! 1. **Drain** — consume memory events: completions finish loads/stores;
//!    invalidations, updates, and replacements are matched against the
//!    speculative-load buffer (detection, §4.2) and trigger rollback or
//!    reissue (correction). Locally scheduled hit completions are
//!    processed first, so a value bound by a hit counts as *consumed*
//!    when a hazard lands in the same cycle (conservative, like the
//!    paper).
//! 2. **Spec retire** — FIFO-retire speculative-load-buffer entries whose
//!    conditions hold; their loads become non-speculative.
//! 3. **Execute** — ALU completion and in-order branch resolution (with
//!    misprediction squash).
//! 4. **Commit** — in-order retirement from the reorder buffer; a store
//!    reaching the head is *released* to the store buffer; under SC/PC
//!    the head store retires only when it completes (serializing
//!    stores), under WC/RC it retires at address translation (§4.2).
//! 5. **Fetch** — follow the predicted path (ideal or width-limited).
//! 6. **Address unit** — in-order effective-address computation;
//!    dispatches stores/RMWs to the store buffer and loads to the load
//!    queue (creating speculative-load-buffer entries when the
//!    speculation technique is on; splitting RMWs per Appendix A).
//! 7. **Store issue** — eligible store-buffer entries issue through the
//!    cache port; merges with outstanding prefetches are port-free.
//! 8. **Load issue** — speculative mode: loads issue as soon as their
//!    address is known; conventional mode: the oldest waiting load
//!    issues only when the model's `may_perform` allows. Store-to-load
//!    forwarding is checked first in both modes.
//! 9. **Prefetch** — one hardware prefetch per free port cycle for
//!    consistency-delayed buffer entries (§3.2).
//!
//! The single cache port accepts one *new* access per cycle; merges with
//! outstanding transactions are free, which is what makes a merged
//! reference "complete as soon as the prefetch result returns" (§3.2)
//! and reproduces the paper's cycle counts exactly.

use crate::btb::Predictor;
use crate::config::ProcConfig;
use crate::rob::{Rob, Seq};
use crate::specbuf::{SpecEntry, SpeculativeLoadBuffer};
use crate::stats::ProcStats;
use crate::storebuf::{ForwardResult, SbEntry, SbState, StoreBuffer};
use mcsim_consistency::{AccessClass, Model, Outstanding};
use mcsim_guard::{FxHashMap, InvariantKind, SimError, StalledProc};
use mcsim_isa::reg::RegFile;
use mcsim_isa::{Addr, Instr, LineAddr, Program, RmwKind};
use mcsim_mem::config::Protocol;
use mcsim_mem::msg::ProcId;
use mcsim_mem::{
    DemandToken, IssueResult, MemEvent, MemorySystem, PrefetchResult, ProbeResult, TxnId,
};
use mcsim_trace::{BufferKind, IssueOutcome, TraceBuffer, TraceEvent, TraceKind};
use std::collections::VecDeque;

/// Cycles between a squash and the first refetched instruction entering
/// the reorder buffer.
const REFETCH_PENALTY: u64 = 1;

/// What kind of access a load-queue entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadKind {
    /// An ordinary load.
    Plain,
    /// The speculative read-exclusive half of a split RMW (Appendix A).
    RmwSplit,
    /// A whole RMW issued conventionally (speculation off, or update
    /// protocol where exclusivity cannot be pre-acquired).
    RmwConv { kind: RmwKind, operand: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadState {
    Waiting,
    Issued { token: DemandToken },
}

#[derive(Debug)]
struct LoadReq {
    seq: Seq,
    addr: Addr,
    class: AccessClass,
    kind: LoadKind,
    prefetch_sent: bool,
    state: LoadState,
    issued_at: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
enum HitCompletion {
    Load { seq: Seq, value: u64 },
    Store { seq: Seq, rmw_old: Option<u64> },
}

impl HitCompletion {
    fn seq(&self) -> Seq {
        match self {
            HitCompletion::Load { seq, .. } | HitCompletion::Store { seq, .. } => *seq,
        }
    }
}

/// The breakdown component a cycle was attributed to (one variant per
/// [`crate::stats::CycleBreakdown`] field) — remembered so a span of
/// frozen cycles can be bulk-accounted identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallBucket {
    Busy,
    Read,
    Write,
    Acquire,
    Rollback,
    Fetch,
}

/// Per-tick lists, kept across ticks so a busy core does not allocate
/// (DESIGN.md, "Hot-path rules"). A stage takes one out, clears and
/// fills it, and puts it back; contents never outlive the stage.
#[derive(Debug, Default)]
struct Scratch {
    /// Hit completions due this cycle (drain stage).
    due: Vec<HitCompletion>,
    /// Memory events handed over by [`MemorySystem::drain_events`].
    events: Vec<MemEvent>,
    /// Sequence numbers to visit: issuable stores, then waiting loads.
    seqs: Vec<Seq>,
    /// Prefetch candidates `(seq, addr, exclusive)`.
    prefetches: Vec<(Seq, Addr, bool)>,
}

/// One out-of-order processor.
#[derive(Debug)]
pub struct Processor {
    id: ProcId,
    cfg: ProcConfig,
    model: Model,
    program: Program,
    rob: Rob,
    pred: Predictor,
    sb: StoreBuffer,
    specbuf: SpeculativeLoadBuffer,
    pc: u32,
    fetch_stalled_until: u64,
    fetch_done: bool,
    program_finished: bool,
    halted: bool,
    addr_queue: VecDeque<Seq>,
    load_queue: VecDeque<LoadReq>,
    awaiting: FxHashMap<DemandToken, Seq>,
    txn_tokens: FxHashMap<TxnId, Vec<DemandToken>>,
    sb_txn: FxHashMap<TxnId, Vec<(Seq, Option<DemandToken>)>>,
    hit_completions: Vec<(u64, HitCompletion)>,
    forward_waiters: Vec<(Seq, Seq)>, // (store, load)
    /// Software prefetch hints awaiting a free port cycle (§6).
    sw_prefetches: VecDeque<(Seq, Addr, bool)>,
    port_used: bool,
    /// Whether this cycle's port consumer was a prefetch (the stall
    /// counter must still see waiting demand work behind it).
    port_used_by_prefetch: bool,
    /// Pending execute work, in program order: ALU entries that are
    /// executing (started, finish pending) plus ALU/branch entries whose
    /// operands are ready but which have not started/resolved yet.
    /// Entries enter at fetch (when their operands resolve at rename) or
    /// via [`Self::publish_value`] when a result broadcast resolves their
    /// last waiting operand; squash prunes the younger tail. Entries
    /// still waiting on an in-flight producer are deliberately absent —
    /// they cannot act this cycle, and the producer's broadcast will
    /// enqueue them the cycle they become startable. Completeness is the
    /// `ExecQueueComplete` invariant ([`Self::check_invariants`]).
    exec_queue: VecDeque<Seq>,
    /// Wake-up cycles published since the machine last drained them:
    /// every future cycle at which this core can change state on its own
    /// (a scheduled hit completion, an ALU finish, the refetch stall
    /// expiring), recorded when the event is *created*. The event engine
    /// feeds them into the machine's calendar queue; the per-cycle engine
    /// drains and discards them.
    wakeups: Vec<u64>,
    /// Set by every architectural mutation this tick. `false` after a
    /// tick means the core is frozen until an external event: nothing a
    /// per-cycle re-tick could do will change its state. Pure accounting
    /// (`stall_cycles`, `breakdown`) deliberately does not count — those
    /// counters advance even in frozen cycles and are replayed exactly by
    /// [`Self::account_skipped`].
    progress: bool,
    /// Breakdown component the most recent accounted cycle landed in.
    /// While the core's state is frozen (a fast-forwarded span), every
    /// cycle classifies identically, so this one remembered verdict is
    /// enough to bulk-account the whole span ([`Self::account_skipped`]).
    last_bucket: StallBucket,
    /// Whether the most recent cycle bumped `stats.stall_cycles` (same
    /// replay logic as `last_bucket`).
    last_stalled: bool,
    /// Test hook: the next operand-ready ALU/branch fetched is left out
    /// of `exec_queue` ([`Self::drop_next_enqueue_for_test`]).
    drop_next_enqueue: bool,
    stats: ProcStats,
    scratch: Scratch,
    /// Event sink; `None` (the default) makes recording a single branch.
    tracer: Option<TraceBuffer>,
    /// First structured fault hit by this core (pipeline-bookkeeping
    /// contract breaches that used to panic). The machine polls it.
    fault: Option<SimError>,
}

impl Processor {
    /// A fresh core running `program` under `model`.
    #[must_use]
    pub fn new(id: ProcId, cfg: ProcConfig, model: Model, program: Program) -> Self {
        cfg.validate();
        Processor {
            id,
            rob: Rob::new(cfg.rob_size),
            pred: Predictor::new(),
            sb: StoreBuffer::new(),
            specbuf: SpeculativeLoadBuffer::new(),
            pc: 0,
            fetch_stalled_until: 0,
            fetch_done: false,
            program_finished: false,
            halted: false,
            addr_queue: VecDeque::new(),
            load_queue: VecDeque::new(),
            awaiting: FxHashMap::default(),
            txn_tokens: FxHashMap::default(),
            sb_txn: FxHashMap::default(),
            hit_completions: Vec::new(),
            forward_waiters: Vec::new(),
            sw_prefetches: VecDeque::new(),
            port_used: false,
            port_used_by_prefetch: false,
            exec_queue: VecDeque::new(),
            wakeups: Vec::new(),
            progress: false,
            last_bucket: StallBucket::Busy,
            last_stalled: false,
            drop_next_enqueue: false,
            stats: ProcStats::default(),
            scratch: Scratch::default(),
            tracer: None,
            fault: None,
            cfg,
            model,
            program,
        }
    }

    /// This core's index.
    #[must_use]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The consistency model it enforces.
    #[must_use]
    pub fn model(&self) -> Model {
        self.model
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ProcConfig {
        &self.cfg
    }

    /// Whether the core has fully drained (program committed, all memory
    /// operations performed).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Per-core statistics.
    #[must_use]
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// The committed architectural registers.
    #[must_use]
    pub fn regfile(&self) -> &RegFile {
        self.rob.regfile()
    }

    /// Starts recording [`TraceEvent`]s into a ring of `capacity`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(TraceBuffer::new(capacity));
    }

    /// Takes the retained events (emission order; the ring keeps running).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer
            .as_mut()
            .map(TraceBuffer::drain)
            .unwrap_or_default()
    }

    /// Total events ever recorded (monotone — compared across jumps to
    /// assert skipped spans emit nothing).
    #[must_use]
    pub fn trace_emitted(&self) -> u64 {
        self.tracer.as_ref().map_or(0, TraceBuffer::emitted)
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, TraceBuffer::dropped)
    }

    /// Records an event for `seq`, resolving its PC from the live
    /// reorder-buffer entry. Events about already-retired instructions
    /// must go through [`Self::emit_at`] with the popped entry's PC.
    fn emit(&mut self, cycle: u64, seq: Seq, kind: TraceKind) {
        if self.tracer.is_some() {
            let pc = self.rob.entry(seq).map(|e| e.pc);
            self.emit_at(cycle, seq, pc, kind);
        }
    }

    fn emit_at(&mut self, cycle: u64, seq: Seq, pc: Option<u32>, kind: TraceKind) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent {
                cycle,
                proc: self.id,
                seq: Some(seq),
                pc,
                kind,
            });
        }
    }

    fn split_rmw(&self, mem: &MemorySystem) -> bool {
        self.cfg.techniques.speculative_loads && mem.config().protocol == Protocol::Invalidate
    }

    // ------------------------------------------------------------------
    // Guard hooks: fault slot, invariants, watchdog telemetry.
    // ------------------------------------------------------------------

    /// Takes the first structured fault this core recorded, if any.
    pub fn take_fault(&mut self) -> Option<SimError> {
        self.fault.take()
    }

    /// Records a fault, keeping the first (earliest cycle wins).
    fn set_fault(&mut self, e: SimError) {
        self.progress = true;
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Current fetch program counter (watchdog telemetry: a moving PC
    /// with no retirement distinguishes livelock from deadlock).
    #[must_use]
    pub fn fetch_pc(&self) -> u32 {
        self.pc
    }

    /// Reorder-buffer occupancy.
    #[must_use]
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    // ------------------------------------------------------------------
    // Discrete-event engine support: wake-up publication + progress flag.
    // ------------------------------------------------------------------

    /// Takes and resets the progress flag: whether any tick since the
    /// last call changed architectural state (pure accounting excluded).
    /// `false` means the core is frozen until an external event — the
    /// machine may jump straight to the next published wake-up.
    pub fn take_progress(&mut self) -> bool {
        std::mem::take(&mut self.progress)
    }

    /// Drains the wake-up cycles published since the last drain into
    /// `sink`. Entries may be stale (a squashed ALU's finish cycle) or
    /// duplicated; consumers treat them as hints — stepping a cycle where
    /// nothing happens is harmless.
    pub fn drain_wakeups(&mut self, mut sink: impl FnMut(u64)) {
        for at in self.wakeups.drain(..) {
            sink(at);
        }
    }

    /// Test hook (execute-queue regression): the next operand-ready
    /// ALU/branch this core fetches is left out of the pending-execute
    /// queue, exactly as a buggy enqueue would. The `ExecQueueComplete`
    /// invariant must catch it.
    #[doc(hidden)]
    pub fn drop_next_enqueue_for_test(&mut self) {
        self.drop_next_enqueue = true;
    }

    /// Checks the core's buffer-ordering invariants — the reorder buffer,
    /// store buffer, and speculative-load buffer must each hold entries in
    /// strictly increasing program (sequence) order (retirement and the
    /// associative hazard match both assume it) — the cycle-accounting
    /// identity (breakdown components sum to exactly the cycles this core
    /// has been accounted for: `halted_at` once halted, `now` while live),
    /// and the completeness of the pending-execute queue.
    pub fn check_invariants(&self, now: u64) -> Result<(), SimError> {
        let accounted = if self.halted {
            self.stats.halted_at
        } else {
            now
        };
        let summed = self.stats.breakdown.total();
        if summed != accounted {
            return Err(SimError::invariant(
                now,
                Some(self.id),
                None,
                InvariantKind::CycleBreakdownSum,
                format!(
                    "breakdown components sum to {summed}, expected {accounted} accounted cycles"
                ),
            ));
        }
        let mut prev: Option<Seq> = None;
        for e in self.rob.iter() {
            if prev.is_some_and(|p| p >= e.seq) {
                return Err(SimError::invariant(
                    now,
                    Some(self.id),
                    None,
                    InvariantKind::RobOrder,
                    format!("ROB entry seq {} follows seq {:?}", e.seq, prev),
                ));
            }
            prev = Some(e.seq);
        }
        let mut prev: Option<Seq> = None;
        for e in self.sb.iter() {
            if prev.is_some_and(|p| p >= e.seq) {
                return Err(SimError::invariant(
                    now,
                    Some(self.id),
                    None,
                    InvariantKind::StoreBufferOrder,
                    format!("store-buffer entry seq {} follows seq {:?}", e.seq, prev),
                ));
            }
            prev = Some(e.seq);
        }
        let mut prev: Option<Seq> = None;
        for e in self.specbuf.iter() {
            if prev.is_some_and(|p| p >= e.seq) {
                return Err(SimError::invariant(
                    now,
                    Some(self.id),
                    None,
                    InvariantKind::SpecBufferOrder,
                    format!("spec-buffer entry seq {} follows seq {:?}", e.seq, prev),
                ));
            }
            prev = Some(e.seq);
        }
        self.check_exec_queue(now)
    }

    /// `ExecQueueComplete`: the execute stage visits only `exec_queue`,
    /// so it must be in program order and hold every entry a full
    /// reorder-buffer scan would act on — each executing or
    /// operand-ready ALU without a value, and each operand-ready
    /// unresolved branch. A missing entry would never execute.
    fn check_exec_queue(&self, now: u64) -> Result<(), SimError> {
        let violation = |detail: String| {
            Err(SimError::invariant(
                now,
                Some(self.id),
                None,
                InvariantKind::ExecQueueComplete,
                detail,
            ))
        };
        if let Some(w) = self
            .exec_queue
            .iter()
            .zip(self.exec_queue.iter().skip(1))
            .find(|(a, b)| a >= b)
        {
            return violation(format!("execute-queue seq {} follows seq {}", w.1, w.0));
        }
        for e in self.rob.iter() {
            let actionable = match e.instr {
                Instr::Alu { .. } => {
                    e.value.is_none() && (e.finishes_at.is_some() || e.srcs_ready())
                }
                Instr::Branch { .. } => !e.resolved && e.srcs_ready(),
                _ => false,
            };
            if actionable && self.exec_queue.binary_search(&e.seq).is_err() {
                return violation(format!(
                    "{} at seq {} (pc {}) is ready to execute but missing from the execute queue",
                    e.instr, e.seq, e.pc
                ));
            }
        }
        Ok(())
    }

    /// A rendered snapshot of this core's architectural position and held
    /// buffer entries, for the watchdog's stall report.
    #[must_use]
    pub fn stall_snapshot(&self) -> StalledProc {
        let store_buffer = self
            .sb
            .iter()
            .map(|e| format!("seq {} addr {:#x} {:?}", e.seq, e.addr.0, e.state))
            .collect();
        let spec_buffer = self
            .specbuf
            .iter()
            .map(|e| {
                format!(
                    "seq {} line {:#x} acq={} done={} tag={:?}",
                    e.seq, e.line.0, e.acq, e.done, e.store_tag
                )
            })
            .collect();
        let mut awaiting: Vec<(Seq, DemandToken)> =
            self.awaiting.iter().map(|(t, s)| (*s, *t)).collect();
        awaiting.sort_unstable_by_key(|(s, _)| *s);
        StalledProc {
            proc: self.id,
            pc: u64::from(self.pc),
            committed: self.stats.committed,
            rob_entries: self.rob.len(),
            store_buffer,
            spec_buffer,
            awaiting: awaiting
                .into_iter()
                .map(|(s, t)| format!("seq {s} token {t:?}"))
                .collect(),
        }
    }

    /// Runs one cycle. The memory system must already have ticked to
    /// `now`. Whichever engine drives the machine, this is the only tick;
    /// the caller drains [`Self::drain_wakeups`] after it.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        if self.halted {
            return;
        }
        self.port_used = false;
        self.port_used_by_prefetch = false;
        self.stage_drain(now, mem);
        self.stage_spec_retire(now);
        self.stage_execute(now);
        let retired = self.stage_commit(now);
        self.stage_fetch(now);
        self.stage_dispatch(now, mem);
        self.stage_store_issue(now, mem);
        self.stage_load_issue(now, mem);
        self.stage_prefetch(now, mem);
        self.finish_tick(now, retired);
    }

    /// The shared tick epilogue: port-stall accounting, the halt check,
    /// and per-cause cycle attribution.
    fn finish_tick(&mut self, now: u64, retired: u64) {
        // Demand work waited while no demand access took the port —
        // whether the port sat idle (consistency delay arcs) or was
        // consumed by a prefetch.
        let stalled = (!self.port_used || self.port_used_by_prefetch)
            && (!self.load_queue.is_empty() || !self.sb.is_empty());
        if stalled {
            self.stats.stall_cycles += 1;
        }
        self.last_stalled = stalled;
        if self.program_finished
            && self.sb.is_empty()
            && self.load_queue.is_empty()
            && self.awaiting.is_empty()
            && self.specbuf.is_empty()
            && self.hit_completions.is_empty()
            && !self.halted
        {
            self.halted = true;
            self.stats.halted_at = now;
            self.progress = true;
        }
        // Attribute this cycle to exactly one breakdown component. The
        // halting tick is not accounted: the core is done at `halted_at`,
        // so components sum to `halted_at` once halted (and to the ticks
        // run so far while live) — the CycleBreakdownSum invariant.
        if !self.halted {
            self.account_cycle(now, retired);
        }
    }

    /// Classifies one non-halting cycle by what blocked retirement at the
    /// reorder-buffer head (the paper's Section 5 execution-time
    /// decomposition).
    fn account_cycle(&mut self, now: u64, retired: u64) {
        let bucket = if retired > 0 {
            StallBucket::Busy
        } else if let Some(head) = self.rob.head() {
            match AccessClass::of_instr(&head.instr) {
                Some(c) if c.is_acquire() => StallBucket::Acquire,
                Some(c) if c.reads => StallBucket::Read,
                Some(_) => StallBucket::Write,
                // ALU/branch (or a not-yet-dispatched hint) at the head,
                // still executing: the processor is doing useful work.
                None => StallBucket::Busy,
            }
        } else if !self.sb.is_empty() || !self.load_queue.is_empty() || !self.awaiting.is_empty() {
            // Program committed, store buffer (or a stray demand access)
            // still draining — the post-halt write stall SC pays and RC
            // overlaps.
            StallBucket::Write
        } else if now < self.fetch_stalled_until {
            // Refetching after a squash: correction overhead.
            StallBucket::Rollback
        } else {
            StallBucket::Fetch
        };
        self.last_bucket = bucket;
        self.bump_bucket(bucket, 1);
    }

    fn bump_bucket(&mut self, bucket: StallBucket, n: u64) {
        let b = &mut self.stats.breakdown;
        match bucket {
            StallBucket::Busy => b.busy += n,
            StallBucket::Read => b.read_stall += n,
            StallBucket::Write => b.write_stall += n,
            StallBucket::Acquire => b.acquire_stall += n,
            StallBucket::Rollback => b.rollback_stall += n,
            StallBucket::Fetch => b.fetch_stall += n,
        }
    }

    /// Bulk-accounts `n` fast-forwarded cycles exactly as per-cycle
    /// simulation would have: a skipped span is by construction a stretch
    /// of frozen state, so every cycle in it repeats the classification
    /// (and port-stall verdict) of the quiescent cycle that opened it.
    /// No-op for a halted core, which per-cycle ticks stop accounting.
    pub fn account_skipped(&mut self, n: u64) {
        if self.halted || n == 0 {
            return;
        }
        if self.last_stalled {
            self.stats.stall_cycles += n;
        }
        self.bump_bucket(self.last_bucket, n);
    }

    // ------------------------------------------------------------------
    // Stage 1: drain memory events and local hit completions.
    // ------------------------------------------------------------------

    fn stage_drain(&mut self, now: u64, mem: &mut MemorySystem) {
        // Local hit completions first: a value bound by a hit counts as
        // consumed before any hazard arriving this cycle (conservative).
        let mut due = std::mem::take(&mut self.scratch.due);
        self.hit_completions.retain(|(at, hc)| {
            if *at <= now {
                due.push(*hc);
                false
            } else {
                true
            }
        });
        if !due.is_empty() {
            self.progress = true;
        }
        for hc in due.drain(..) {
            match hc {
                HitCompletion::Load { seq, value } => self.complete_load(now, seq, value),
                HitCompletion::Store { seq, rmw_old } => self.complete_store(now, seq, rmw_old),
            }
        }
        self.scratch.due = due;

        let mut events = std::mem::take(&mut self.scratch.events);
        mem.drain_events(self.id, &mut events);
        if !events.is_empty() {
            self.progress = true;
        }
        for ev in events.drain(..) {
            match ev {
                MemEvent::Done { txn, .. } => {
                    if let Some(entries) = self.sb_txn.remove(&txn) {
                        // Several stores may have merged into one
                        // transaction (same line); all complete with it.
                        for (seq, token) in entries {
                            let old = token.and_then(|t| mem.take_bound_value(t));
                            self.complete_store(now, seq, old);
                        }
                    }
                    if let Some(tokens) = self.txn_tokens.remove(&txn) {
                        for token in tokens {
                            let value = mem.take_bound_value(token);
                            if let Some(seq) = self.awaiting.remove(&token) {
                                let Some(value) = value else {
                                    self.set_fault(SimError::protocol(
                                        now,
                                        Some(self.id),
                                        None,
                                        format!("completed demand read (seq {seq}) bound no value"),
                                    ));
                                    continue;
                                };
                                self.complete_load(now, seq, value);
                            }
                            // else: a squashed/reissued load's stale value
                            // (footnote 5's tagging) — dropped.
                        }
                    }
                }
                MemEvent::Invalidated { line } | MemEvent::Replaced { line } => {
                    self.handle_hazard(now, mem, line, None);
                }
                MemEvent::Updated { line, addr, value } => {
                    self.handle_hazard(now, mem, line, Some((addr, value)));
                }
            }
        }
        self.scratch.events = events;
    }

    /// Detection + correction (§4.2): match the hazard against the
    /// speculative-load buffer and roll back or reissue.
    fn handle_hazard(
        &mut self,
        now: u64,
        mem: &MemorySystem,
        line: LineAddr,
        update: Option<(Addr, u64)>,
    ) {
        // Footnote 2 ablation: an update hazard names the written word and
        // value, so false sharing and same-value writes — both provably
        // harmless to the speculation — can be filtered out.
        let exact = self.cfg.exact_update_check;
        let mut filtered = 0u64;
        let m = self.specbuf.match_hazard_where(line, |e| {
            if let (true, Some((addr, value))) = (exact, update) {
                let harmless = e.addr != addr || e.bound == Some(value);
                if harmless {
                    filtered += 1;
                    return false;
                }
            }
            true
        });
        self.stats.hazards_filtered += filtered;
        let Some(m) = m else {
            return;
        };
        let entry_class = self.specbuf.get(m.seq).expect("matched entry exists").class;
        // Appendix A: once the RMW's atomic has *issued* (or already
        // performed — non-idempotent, it must never re-execute), only the
        // computation following it is discarded; the atomic's own return
        // value is authoritative.
        let rmw_issued = entry_class.writes
            && (self
                .sb
                .get(m.seq)
                .is_some_and(|e| matches!(e.state, SbState::Issued { .. }))
                || self.rob.entry(m.seq).is_none_or(|e| e.mem_performed));
        let _ = mem;
        if rmw_issued {
            // Appendix A: the atomic has already issued; its own value will
            // be the real one — discard only the computation after it.
            let Some(e) = self.rob.entry(m.seq) else {
                return;
            };
            let next_pc = e.pc + 1;
            self.stats.rollbacks += 1;
            self.emit(now, m.seq, TraceKind::RmwPartialRollback { line });
            self.squash(now, m.seq + 1, next_pc, true);
        } else if m.done {
            // Value (possibly) consumed: treat the load as mispredicted —
            // discard it and everything after, refetch (§4.2 case 1).
            let e = self
                .rob
                .entry(m.seq)
                .expect("speculative entries always have live ROB entries");
            let pc = e.pc;
            self.stats.rollbacks += 1;
            let squashed = self.squash(now, m.seq, pc, true);
            self.emit_at(now, m.seq, Some(pc), TraceKind::Rollback { line, squashed });
        } else {
            // Value not yet consumed: reissue the access only (§4.2 case
            // 2); the in-flight response is dropped by token epoch.
            self.stats.reissues += 1;
            self.specbuf.mark_reissued(m.seq);
            if let Some(req) = self.load_queue.iter_mut().find(|r| r.seq == m.seq) {
                if let LoadState::Issued { token } = req.state {
                    self.awaiting.remove(&token);
                    req.state = LoadState::Waiting;
                }
            }
            self.emit(now, m.seq, TraceKind::Reissue { line });
        }
    }

    /// Squashes all instructions with `seq >= from`, restarting fetch at
    /// `new_pc`. Returns how many instructions were squashed.
    fn squash(&mut self, now: u64, from: Seq, new_pc: u32, spec: bool) -> usize {
        if self.tracer.is_some() {
            // Squashed entries leave their buffers; record the exits
            // before the buffers forget them.
            let exits: Vec<(Seq, BufferKind, Addr)> = self
                .sb
                .iter()
                .filter(|e| e.seq >= from)
                .map(|e| (e.seq, BufferKind::Store, e.addr))
                .chain(
                    self.specbuf
                        .iter()
                        .filter(|e| e.seq >= from)
                        .map(|e| (e.seq, BufferKind::Spec, e.addr)),
                )
                .chain(
                    self.load_queue
                        .iter()
                        .filter(|r| r.seq >= from)
                        .map(|r| (r.seq, BufferKind::Load, r.addr)),
                )
                .collect();
            for (seq, buffer, addr) in exits {
                self.emit(now, seq, TraceKind::BufferExit { buffer, addr });
            }
        }
        let n = self.rob.squash_from(from);
        if spec {
            self.stats.squashed_by_spec += n as u64;
        } else {
            self.stats.squashed_by_branch += n as u64;
        }
        self.sb.squash_from(from);
        self.specbuf.squash_from(from);
        self.addr_queue.retain(|&s| s < from);
        let awaiting = &mut self.awaiting;
        self.load_queue.retain(|r| {
            if r.seq >= from {
                if let LoadState::Issued { token } = r.state {
                    awaiting.remove(&token);
                }
                false
            } else {
                true
            }
        });
        self.hit_completions.retain(|(_, hc)| hc.seq() < from);
        self.forward_waiters.retain(|(_, l)| *l < from);
        self.sw_prefetches.retain(|(s, _, _)| *s < from);
        self.exec_queue.retain(|&s| s < from);
        self.pc = new_pc;
        self.fetch_stalled_until = now + REFETCH_PENALTY;
        self.wakeups.push(self.fetch_stalled_until);
        self.fetch_done = false;
        self.progress = true;
        n
    }

    /// Publishes a result through the reorder buffer's broadcast and
    /// funnels every consumer that just became startable into the
    /// pending-execute worklist. Sorted insertion keeps the worklist in
    /// program order; a woken consumer is always younger than `seq`, so
    /// when this is called from inside the execute stage's walk it can
    /// only insert *ahead of* the cursor, and a same-cycle cascade
    /// starts consumers oldest first.
    fn publish_value(&mut self, seq: Seq, value: u64) {
        self.rob.set_value(seq, value);
        while let Some(s) = self.rob.pop_woken() {
            if let Err(i) = self.exec_queue.binary_search(&s) {
                self.exec_queue.insert(i, s);
            }
        }
    }

    /// Finishes a load: publishes its value and marks it performed. For a
    /// split RMW's read-exclusive half, only the (speculative) value is
    /// published — the RMW performs when its store-buffer half does.
    fn complete_load(&mut self, now: u64, seq: Seq, value: u64) {
        let Some(i) = self.load_queue.iter().position(|r| r.seq == seq) else {
            return;
        };
        let req = self.load_queue.remove(i).expect("index valid");
        self.progress = true;
        if let Some(at) = req.issued_at {
            self.stats.load_latency.record(now.saturating_sub(at));
        }
        self.publish_value(seq, value);
        self.specbuf.set_bound(seq, value);
        self.specbuf.mark_done(seq);
        if !matches!(req.kind, LoadKind::RmwSplit) {
            if let Some(e) = self.rob.entry_mut(seq) {
                e.mem_performed = true;
                e.completed = true;
            }
        }
        self.emit(
            now,
            seq,
            TraceKind::BufferExit {
                buffer: BufferKind::Load,
                addr: req.addr,
            },
        );
        self.emit(now, seq, TraceKind::Performed { addr: req.addr });
    }

    /// Finishes a store (or the atomic half of an RMW): removes it from
    /// the store buffer, publishes an RMW's authoritative old value,
    /// retags the speculative-load buffer, and performs forwarded loads.
    fn complete_store(&mut self, now: u64, seq: Seq, rmw_old: Option<u64>) {
        let Some(entry) = self.sb.complete(seq) else {
            self.set_fault(SimError::protocol(
                now,
                Some(self.id),
                None,
                format!("store completion for unknown store-buffer entry (seq {seq})"),
            ));
            return;
        };
        self.progress = true;
        if let Some(at) = entry.issued_at {
            self.stats.store_latency.record(now.saturating_sub(at));
        }
        if let Some(old) = rmw_old {
            self.publish_value(seq, old);
        }
        if let Some(e) = self.rob.entry_mut(seq) {
            e.mem_performed = true;
            e.completed = true;
        }
        // Forwarded loads that took this store's value have now performed.
        let mut performed_loads = Vec::new();
        self.forward_waiters.retain(|(s, l)| {
            if *s == seq {
                performed_loads.push(*l);
                false
            } else {
                true
            }
        });
        for l in performed_loads {
            if let Some(e) = self.rob.entry_mut(l) {
                e.mem_performed = true;
            }
        }
        self.specbuf.mark_forward_sources_done(seq);
        self.specbuf.mark_done(seq); // split-RMW spec entry
        let model = self.model;
        let sb = &self.sb;
        self.specbuf.store_completed(seq, |load_seq, class| {
            sb.constraining_store(model, load_seq, class)
        });
        self.emit(
            now,
            seq,
            TraceKind::BufferExit {
                buffer: BufferKind::Store,
                addr: entry.addr,
            },
        );
        self.emit(now, seq, TraceKind::Performed { addr: entry.addr });
    }

    // ------------------------------------------------------------------
    // Stage 2: speculative-load-buffer retirement.
    // ------------------------------------------------------------------

    fn stage_spec_retire(&mut self, now: u64) {
        while let Some(seq) = self.specbuf.retire_head() {
            self.progress = true;
            if let Some(e) = self.rob.entry_mut(seq) {
                e.speculative = false;
            }
            self.emit(now, seq, TraceKind::SpecRetired);
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: execute (ALU completion, in-order branch resolution).
    // ------------------------------------------------------------------

    /// Walks the pending-work queue instead of the whole reorder buffer:
    /// `exec_queue` holds the executing ALUs and the operand-ready
    /// unstarted ALUs / unresolved branches, in program order. A full
    /// scan's visits to the other entries would be no-ops (finished
    /// entries are skipped, operand-waiting entries fail `srcs_ready`),
    /// and an entry can only *become* startable through a result
    /// broadcast — which enqueues it on the spot ([`Self::publish_value`]),
    /// including the mid-walk cascade where a zero-latency finish readies
    /// a younger consumer in the same cycle (woken consumers are younger,
    /// so they insert ahead of the cursor). The `ExecQueueComplete`
    /// invariant checks that the queue is never missing such an entry.
    fn stage_execute(&mut self, now: u64) {
        let mut i = 0;
        while i < self.exec_queue.len() {
            let seq = self.exec_queue[i];
            let Some(e) = self.rob.entry(seq) else {
                // Retired or squashed out from under the queue.
                self.exec_queue.remove(i);
                continue;
            };
            match &e.instr {
                Instr::Alu { op, latency, .. } => {
                    let op = *op;
                    let latency = u64::from(*latency);
                    if e.value.is_some() {
                        self.exec_queue.remove(i);
                        continue;
                    }
                    if e.finishes_at.is_none() && e.srcs_ready() {
                        let v1 = e.src1_value();
                        let v2 = e.src2_value();
                        let e = self.rob.entry_mut(seq).expect("present");
                        e.finishes_at = Some(now + latency);
                        let result = op.apply(v1, v2);
                        e.value = None;
                        e.src1 = Some(crate::rob::Src::Ready(result)); // result parked in src1
                        self.progress = true;
                        if latency > 0 {
                            self.wakeups.push(now + latency);
                        }
                    }
                    let e = self.rob.entry(seq).expect("present");
                    if e.finishes_at.is_some_and(|f| f <= now) && e.value.is_none() {
                        let result = e.src1_value();
                        self.publish_value(seq, result);
                        if let Some(e) = self.rob.entry_mut(seq) {
                            e.completed = true;
                        }
                        self.progress = true;
                        self.exec_queue.remove(i);
                        continue;
                    }
                    i += 1;
                }
                Instr::Branch {
                    cond,
                    target,
                    hint: _,
                    ..
                } => {
                    if e.resolved {
                        self.exec_queue.remove(i);
                        continue;
                    }
                    if !e.srcs_ready() {
                        i += 1;
                        continue;
                    }
                    let cond = *cond;
                    let target = *target;
                    let pc = e.pc;
                    let predicted = e.predicted_taken.expect("branches are predicted at fetch");
                    let actual = cond.apply(e.src1_value(), e.src2_value());
                    self.stats.branches += 1;
                    self.progress = true;
                    self.pred.resolve(pc, predicted, actual, target);
                    {
                        let e = self.rob.entry_mut(seq).expect("present");
                        e.resolved = true;
                        e.completed = true;
                    }
                    // The squash below prunes only younger entries, so this
                    // index still addresses the just-resolved branch.
                    self.exec_queue.remove(i);
                    if actual != predicted {
                        self.stats.branch_mispredicts += 1;
                        let new_pc = if actual { target } else { pc + 1 };
                        self.emit(now, seq, TraceKind::BranchMispredicted);
                        self.squash(now, seq + 1, new_pc, false);
                        break; // everything younger is gone
                    }
                }
                _ => {
                    // Only ALU/branch entries are ever enqueued.
                    self.exec_queue.remove(i);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 4: commit.
    // ------------------------------------------------------------------

    /// Returns how many instructions retired this cycle (drives the busy
    /// component of the cycle breakdown).
    fn stage_commit(&mut self, now: u64) -> u64 {
        let mut retired = 0u64;
        while let Some(head) = self.rob.head() {
            let seq = head.seq;
            if let Some(a) = head
                .addr
                .filter(|a| !a.is_aligned() && head.instr.word_addr().is_some())
            {
                // Reached only on the committed path: dispatch kept the
                // access out of every buffer, and a squash would have
                // discarded it with its entry.
                self.set_fault(SimError::misaligned(now, Some(self.id), a.0, head.pc));
                break;
            }
            let retire = match &head.instr {
                Instr::Nop | Instr::Jump { .. } => true,
                Instr::Halt => true,
                // A software prefetch is a retired hint once its address
                // went to the prefetch queue (non-binding: nothing waits).
                Instr::Prefetch { .. } => head.dispatched,
                Instr::Alu { .. } => head.value.is_some(),
                Instr::Branch { .. } => head.resolved,
                Instr::Load { .. } => head.value.is_some() && !head.speculative,
                Instr::Store { .. } => {
                    if !head.dispatched {
                        false
                    } else {
                        self.release_store(now, seq);
                        match self.model {
                            // SC/PC: the head store retires only when it
                            // completes (stores one-at-a-time, §4.2).
                            Model::Sc | Model::Pc => self.rob.head().expect("head").mem_performed,
                            // TSO/PSO/WC/RC: retired as soon as address
                            // translation is done — the store waits in the
                            // store buffer, whose drain order the delay
                            // arcs already govern (FIFO under TSO, free
                            // under PSO for ordinary stores).
                            Model::Tso | Model::Pso | Model::Wc | Model::RcSc | Model::Rc => true,
                        }
                    }
                }
                Instr::Rmw { .. } => {
                    if head.dispatched && head.in_store_buffer {
                        self.release_store(now, seq);
                    }
                    let head = self.rob.head().expect("head");
                    head.dispatched
                        && head.value.is_some()
                        && !head.speculative
                        && head.mem_performed
                }
            };
            if !retire {
                break;
            }
            let Some(e) = self.rob.pop_head() else { break };
            retired += 1;
            self.progress = true;
            self.stats.committed += 1;
            // The entry is gone from the ROB; stamp the event with the
            // popped entry's own PC.
            self.emit_at(now, e.seq, Some(e.pc), TraceKind::Retired);
            if e.instr.is_mem_read() {
                self.stats.loads += 1;
            }
            if e.instr.is_mem_write() {
                self.stats.stores += 1;
            }
            if matches!(e.instr, Instr::Rmw { .. }) {
                self.stats.rmws += 1;
            }
            if matches!(e.instr, Instr::Halt) {
                self.program_finished = true;
                self.emit_at(now, e.seq, Some(e.pc), TraceKind::HaltCommitted);
                break;
            }
        }
        retired
    }

    fn release_store(&mut self, now: u64, seq: Seq) {
        if let Some(e) = self.sb.get(seq) {
            if !e.rob_released {
                self.sb.mark_released(seq);
                self.progress = true;
                self.emit(now, seq, TraceKind::StoreReleased);
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 5: fetch along the predicted path.
    // ------------------------------------------------------------------

    fn stage_fetch(&mut self, now: u64) {
        if self.fetch_done || now < self.fetch_stalled_until {
            return;
        }
        let width = self.cfg.fetch_width.unwrap_or(usize::MAX);
        for _ in 0..width {
            if !self.rob.has_space() {
                break;
            }
            let Some(instr) = self.program.fetch(self.pc as usize) else {
                // Ran off the end (program validation guarantees a halt,
                // so this means a wild predicted path) — stop fetching;
                // a squash will redirect us.
                self.fetch_done = true;
                self.progress = true;
                break;
            };
            let instr = instr.clone();
            let pc = self.pc;
            let seq = self.rob.push(pc, instr.clone()).expect("space checked");
            self.progress = true;
            self.emit_at(now, seq, Some(pc), TraceKind::Fetched);
            match &instr {
                Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Rmw { .. }
                | Instr::Prefetch { .. } => {
                    self.addr_queue.push_back(seq);
                    self.pc += 1;
                }
                Instr::Branch { hint, target, .. } => {
                    let taken = self.pred.predict(pc, *hint, *target);
                    self.rob
                        .entry_mut(seq)
                        .expect("just pushed")
                        .predicted_taken = Some(taken);
                    self.pc = if taken { *target } else { pc + 1 };
                    self.enqueue_fetched(seq);
                }
                Instr::Jump { target } => {
                    self.pc = *target;
                }
                Instr::Halt => {
                    self.fetch_done = true;
                    break;
                }
                Instr::Alu { .. } => {
                    self.pc += 1;
                    self.enqueue_fetched(seq);
                }
                Instr::Nop => {
                    self.pc += 1;
                }
            }
        }
    }

    /// Queues a just-fetched ALU/branch whose operands resolved at
    /// rename: it is startable now. Otherwise the `set_value` broadcast
    /// that resolves its last operand enqueues it ([`Self::publish_value`]).
    fn enqueue_fetched(&mut self, seq: Seq) {
        if self.rob.entry(seq).expect("just pushed").srcs_ready()
            && !std::mem::take(&mut self.drop_next_enqueue)
        {
            self.exec_queue.push_back(seq);
        }
    }

    // ------------------------------------------------------------------
    // Stage 6: in-order address unit / dispatch.
    // ------------------------------------------------------------------

    fn stage_dispatch(&mut self, now: u64, mem: &MemorySystem) {
        while let Some(&seq) = self.addr_queue.front() {
            let Some(e) = self.rob.entry(seq) else {
                self.addr_queue.pop_front();
                self.progress = true;
                continue;
            };
            if !e.srcs_ready() {
                break; // in-order: stall behind an unresolved address/data
            }
            let instr = e.instr.clone();
            let (Instr::Load { addr, .. }
            | Instr::Store { addr, .. }
            | Instr::Rmw { addr, .. }
            | Instr::Prefetch { addr, .. }) = &instr
            else {
                // The fetch stage only queues memory ops; anything else
                // here is a dispatch-bookkeeping breach. Drop it and
                // report, rather than unwinding mid-cycle.
                self.set_fault(SimError::protocol(
                    now,
                    Some(self.id),
                    None,
                    format!("non-memory instruction {instr:?} in the address queue"),
                ));
                self.addr_queue.pop_front();
                continue;
            };
            let a = addr.eval(|_| e.src1.and_then(|s| s.value()).expect("index operand ready"));
            // Store data or RMW operand.
            let data = e.src2.and_then(|s| s.value());
            {
                let e = self.rob.entry_mut(seq).expect("present");
                e.addr = Some(a);
                e.dispatched = true;
            }
            self.addr_queue.pop_front();
            self.progress = true;
            if instr.word_addr().is_some() && !a.is_aligned() {
                // A program error. The access enters no buffer and fails
                // the run only when it commits, so a squash discards a
                // wrong-path one (`stage_commit`).
                continue;
            }
            // Software prefetches carry no ordering class.
            let class = AccessClass::of_instr(&instr).unwrap_or(AccessClass::LOAD);
            match instr {
                Instr::Load { .. } => {
                    if self.cfg.techniques.speculative_loads {
                        self.push_spec_entry(now, mem, seq, a, class, None);
                    }
                    self.load_queue.push_back(LoadReq {
                        seq,
                        addr: a,
                        class,
                        kind: LoadKind::Plain,
                        prefetch_sent: false,
                        state: LoadState::Waiting,
                        issued_at: None,
                    });
                    self.emit(
                        now,
                        seq,
                        TraceKind::BufferEnter {
                            buffer: BufferKind::Load,
                            addr: a,
                        },
                    );
                }
                Instr::Store { .. } => {
                    self.rob.entry_mut(seq).expect("present").in_store_buffer = true;
                    self.sb.push(SbEntry {
                        seq,
                        class,
                        addr: a,
                        value: data.expect("store data ready"),
                        rmw: None,
                        rob_released: false,
                        state: SbState::Waiting,
                        prefetch_sent: false,
                        issued_at: None,
                    });
                    self.emit(
                        now,
                        seq,
                        TraceKind::BufferEnter {
                            buffer: BufferKind::Store,
                            addr: a,
                        },
                    );
                }
                Instr::Rmw { kind, .. } => {
                    let operand = data.expect("RMW operand ready");
                    let split = self.split_rmw(mem);
                    self.rob.entry_mut(seq).expect("present").in_store_buffer = split;
                    if split {
                        // Appendix A: speculative read-exclusive load +
                        // the buffered atomic. The spec entry's store tag
                        // is the RMW's own store-buffer slot.
                        self.sb.push(SbEntry {
                            seq,
                            class,
                            addr: a,
                            value: operand,
                            rmw: Some(kind),
                            rob_released: false,
                            state: SbState::Waiting,
                            prefetch_sent: false,
                            issued_at: None,
                        });
                        self.emit(
                            now,
                            seq,
                            TraceKind::BufferEnter {
                                buffer: BufferKind::Store,
                                addr: a,
                            },
                        );
                        self.push_spec_entry(now, mem, seq, a, class, Some(seq));
                        self.load_queue.push_back(LoadReq {
                            seq,
                            addr: a,
                            class,
                            kind: LoadKind::RmwSplit,
                            prefetch_sent: false,
                            state: LoadState::Waiting,
                            issued_at: None,
                        });
                    } else {
                        self.load_queue.push_back(LoadReq {
                            seq,
                            addr: a,
                            class,
                            kind: LoadKind::RmwConv { kind, operand },
                            prefetch_sent: false,
                            state: LoadState::Waiting,
                            issued_at: None,
                        });
                    }
                    self.emit(
                        now,
                        seq,
                        TraceKind::BufferEnter {
                            buffer: BufferKind::Load,
                            addr: a,
                        },
                    );
                }
                Instr::Prefetch { exclusive, .. } => {
                    self.sw_prefetches.push_back((seq, a, exclusive));
                }
                // Every other instruction left at the `let ... else` above.
                _ => {}
            }
        }
    }

    fn push_spec_entry(
        &mut self,
        now: u64,
        mem: &MemorySystem,
        seq: Seq,
        addr: Addr,
        class: AccessClass,
        own_tag: Option<Seq>,
    ) {
        let store_tag = match own_tag {
            Some(t) => Some(t),
            None => self.sb.constraining_store(self.model, seq, class),
        };
        // acq: later loads must wait for this access to perform — exactly
        // when the model has a delay arc from this class to an ordinary
        // load (all loads under SC/PC, sync accesses under WC/RC).
        let acq = self.model.must_delay(class, AccessClass::LOAD);
        self.specbuf.push(SpecEntry {
            seq,
            line: mem.line_of(addr),
            addr,
            bound: None,
            acq,
            done: false,
            store_tag,
            class,
            forward_src: None,
        });
        if let Some(e) = self.rob.entry_mut(seq) {
            e.speculative = true;
        }
        self.progress = true;
        self.stats.speculative_loads += 1;
        self.emit(
            now,
            seq,
            TraceKind::BufferEnter {
                buffer: BufferKind::Spec,
                addr,
            },
        );
    }

    // ------------------------------------------------------------------
    // Stage 7: store issue.
    // ------------------------------------------------------------------

    fn stage_store_issue(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut issuable = std::mem::take(&mut self.scratch.seqs);
        self.sb.issuable(self.model, &mut issuable);
        for &seq in &issuable {
            let e = self.sb.get(seq).expect("issuable entry exists");
            let (addr, value, rmw) = (e.addr, e.value, e.rmw);
            let line = mem.line_of(addr);
            if self.port_used {
                // Only merge-candidates may proceed without the port.
                match mem.probe(self.id, line) {
                    ProbeResult::Pending {
                        exclusive: true, ..
                    } => {}
                    _ => continue,
                }
            }
            let result = mem.issue_demand_write(self.id, addr, rmw, value);
            match result {
                IssueResult::Hit { token } => {
                    let old = mem.take_bound_value(token);
                    let old = rmw.map(|_| old.expect("RMW hit binds its old value"));
                    let complete_at = now + mem.config().timings.hit;
                    self.hit_completions
                        .push((complete_at, HitCompletion::Store { seq, rmw_old: old }));
                    self.wakeups.push(complete_at);
                    self.progress = true;
                    // Keep the entry in the buffer until completion but
                    // stop reissuing it.
                    if let Some(e) = self.sb.get_mut(seq) {
                        e.state = SbState::Issued { txn: TxnId(0) };
                        e.issued_at.get_or_insert(now);
                    }
                    self.port_used = true;
                    self.emit(
                        now,
                        seq,
                        TraceKind::StoreIssue {
                            addr,
                            outcome: IssueOutcome::Hit,
                        },
                    );
                }
                IssueResult::Miss { txn, token } | IssueResult::Merged { txn, token } => {
                    let merged = matches!(result, IssueResult::Merged { .. });
                    self.progress = true;
                    self.sb_txn
                        .entry(txn)
                        .or_default()
                        .push((seq, rmw.map(|_| token)));
                    if let Some(e) = self.sb.get_mut(seq) {
                        e.state = SbState::Issued { txn };
                        e.issued_at.get_or_insert(now);
                    }
                    if !merged {
                        self.port_used = true;
                    }
                    self.emit(
                        now,
                        seq,
                        TraceKind::StoreIssue {
                            addr,
                            outcome: if merged {
                                IssueOutcome::Merged
                            } else {
                                IssueOutcome::Miss
                            },
                        },
                    );
                }
                IssueResult::WaitForFill { .. } | IssueResult::NoMshr | IssueResult::SetFull => {
                    // The attempt occupied the cache; retry next cycle.
                    self.port_used = true;
                }
            }
        }
        self.scratch.seqs = issuable;
    }

    // ------------------------------------------------------------------
    // Stage 8: load issue.
    // ------------------------------------------------------------------

    fn stage_load_issue(&mut self, now: u64, mem: &mut MemorySystem) {
        let speculative = self.cfg.techniques.speculative_loads;
        let mut waiting = std::mem::take(&mut self.scratch.seqs);
        waiting.clear();
        waiting.extend(
            self.load_queue
                .iter()
                .filter(|r| matches!(r.state, LoadState::Waiting))
                .map(|r| r.seq),
        );
        for &seq in &waiting {
            let Some(req) = self.load_queue.iter().find(|r| r.seq == seq) else {
                continue;
            };
            let (addr, class, kind) = (req.addr, req.class, req.kind);
            // Conventional mode: the access may not even be *attempted*
            // until the model's delay arcs allow it to perform.
            if !speculative && !self.may_perform_now(seq, class) {
                break; // in-order: younger loads are equally blocked
            }
            // Dependence check against the store buffer (§4.2).
            match self.sb.forward(addr, seq) {
                ForwardResult::Value { seq: store, value } if matches!(kind, LoadKind::Plain) => {
                    self.complete_forward(now, seq, addr, store, value);
                    continue; // no port consumed
                }
                ForwardResult::Value { .. } | ForwardResult::Conflict { .. } => {
                    // An atomic's read cannot forward (its value must be
                    // observed at perform time), and a conflicting RMW
                    // blocks: wait for the store-buffer entry to drain.
                    if !speculative {
                        break;
                    }
                    continue;
                }
                ForwardResult::None => {}
            }
            let line = mem.line_of(addr);
            if self.port_used {
                // Port taken: only merge-candidates may still proceed.
                let ok = match mem.probe(self.id, line) {
                    ProbeResult::Pending { exclusive, .. } => match kind {
                        LoadKind::Plain => true,
                        LoadKind::RmwSplit | LoadKind::RmwConv { .. } => exclusive,
                    },
                    _ => false,
                };
                if !ok {
                    if !speculative {
                        break;
                    }
                    continue;
                }
            }
            let result = match kind {
                LoadKind::Plain => mem.issue_demand_read(self.id, addr),
                LoadKind::RmwSplit => mem.issue_demand_read_ex(self.id, addr),
                LoadKind::RmwConv { kind, operand } => {
                    mem.issue_demand_write(self.id, addr, Some(kind), operand)
                }
            };
            let is_spec_entry = self.specbuf.get(seq).is_some();
            match result {
                IssueResult::Hit { token } => {
                    let value = mem
                        .take_bound_value(token)
                        .expect("hit binds its value at issue");
                    let complete_at = now + mem.config().timings.hit;
                    self.hit_completions
                        .push((complete_at, HitCompletion::Load { seq, value }));
                    self.wakeups.push(complete_at);
                    self.progress = true;
                    if let Some(r) = self.load_queue.iter_mut().find(|r| r.seq == seq) {
                        r.state = LoadState::Issued { token };
                        r.issued_at.get_or_insert(now);
                    }
                    self.port_used = true;
                    self.emit(
                        now,
                        seq,
                        TraceKind::LoadIssue {
                            addr,
                            outcome: IssueOutcome::Hit,
                            speculative: is_spec_entry,
                        },
                    );
                }
                IssueResult::Miss { txn, token } | IssueResult::Merged { txn, token } => {
                    let merged = matches!(result, IssueResult::Merged { .. });
                    self.progress = true;
                    self.awaiting.insert(token, seq);
                    self.txn_tokens.entry(txn).or_default().push(token);
                    if let Some(r) = self.load_queue.iter_mut().find(|r| r.seq == seq) {
                        r.state = LoadState::Issued { token };
                        r.issued_at.get_or_insert(now);
                    }
                    if !merged {
                        self.port_used = true;
                    }
                    self.emit(
                        now,
                        seq,
                        TraceKind::LoadIssue {
                            addr,
                            outcome: if merged {
                                IssueOutcome::Merged
                            } else {
                                IssueOutcome::Miss
                            },
                            speculative: is_spec_entry,
                        },
                    );
                }
                IssueResult::WaitForFill { .. } | IssueResult::NoMshr | IssueResult::SetFull => {
                    self.port_used = true;
                    if !speculative {
                        break;
                    }
                }
            }
        }
        self.scratch.seqs = waiting;
    }

    /// Completes a load via store-to-load forwarding: the value is this
    /// core's own pending store's, so it is immune to coherence hazards;
    /// the load performs when the store does.
    fn complete_forward(&mut self, now: u64, seq: Seq, addr: Addr, store: Seq, value: u64) {
        let Some(i) = self.load_queue.iter().position(|r| r.seq == seq) else {
            return;
        };
        self.load_queue.remove(i);
        self.progress = true;
        self.emit(
            now,
            seq,
            TraceKind::BufferExit {
                buffer: BufferKind::Load,
                addr,
            },
        );
        self.publish_value(seq, value);
        if let Some(e) = self.rob.entry_mut(seq) {
            e.completed = true;
            e.speculative = false; // the value can never be wrong
        }
        self.forward_waiters.push((store, seq));
        self.specbuf.set_forward_src(seq, store);
        self.stats.loads_forwarded += 1;
        self.emit(
            now,
            seq,
            TraceKind::LoadIssue {
                addr,
                outcome: IssueOutcome::Forwarded,
                speculative: false,
            },
        );
    }

    /// The conventional implementation's gate: may an access of `class`
    /// perform given the incomplete earlier accesses?
    fn may_perform_now(&self, seq: Seq, class: AccessClass) -> bool {
        self.model.may_perform(class, &self.outstanding_before(seq))
    }

    /// Incomplete memory accesses older than `seq`: pure loads still in
    /// the reorder buffer plus everything in the store buffer (stores may
    /// outlive their ROB entries under WC/RC).
    fn outstanding_before(&self, seq: Seq) -> Outstanding {
        let mut o = Outstanding::none();
        for e in self.rob.iter() {
            if e.seq >= seq {
                break;
            }
            if !e.instr.is_mem() || e.in_store_buffer {
                continue;
            }
            if !e.mem_performed {
                if let Some(c) = AccessClass::of_instr(&e.instr) {
                    o.add(c);
                }
            }
        }
        for j in self.sb.iter() {
            if j.seq < seq {
                o.add(j.class);
            }
        }
        o
    }

    // ------------------------------------------------------------------
    // Stage 9: hardware prefetch (§3).
    // ------------------------------------------------------------------

    fn stage_prefetch(&mut self, now: u64, mem: &mut MemorySystem) {
        if self.port_used {
            return;
        }
        // Software prefetch hints (§6) are explicit instructions and work
        // with or without the hardware prefetch unit. One issue per free
        // port cycle; cache-filtered discards are free.
        while let Some(&(seq, addr, exclusive)) = self.sw_prefetches.front() {
            self.stats.prefetch_requests += 1;
            self.progress = true;
            match mem.issue_prefetch(self.id, addr, exclusive) {
                PrefetchResult::Issued { .. } => {
                    self.sw_prefetches.pop_front();
                    self.port_used = true;
                    self.port_used_by_prefetch = true;
                    self.emit(now, seq, TraceKind::PrefetchIssue { addr, exclusive });
                    return;
                }
                PrefetchResult::AlreadyPresent
                | PrefetchResult::AlreadyPending
                | PrefetchResult::Unsupported => {
                    self.sw_prefetches.pop_front();
                }
                PrefetchResult::NoResource => return, // retry next cycle
            }
        }
        if !self.cfg.techniques.prefetch {
            return;
        }
        // Candidates: consistency-delayed store-buffer entries
        // (read-exclusive) and — in conventional mode — delayed loads
        // (read; read-exclusive for RMWs). Oldest first.
        let mut cands = std::mem::take(&mut self.scratch.prefetches);
        self.sb.prefetch_candidates(self.model, &mut cands);
        if !self.cfg.techniques.speculative_loads {
            for r in &self.load_queue {
                if matches!(r.state, LoadState::Waiting)
                    && !r.prefetch_sent
                    && !self.may_perform_now(r.seq, r.class)
                {
                    let exclusive = !matches!(r.kind, LoadKind::Plain);
                    cands.push((r.seq, r.addr, exclusive));
                }
            }
        }
        cands.sort_unstable_by_key(|(s, _, _)| *s);
        for &(seq, addr, exclusive) in &cands {
            self.stats.prefetch_requests += 1;
            self.progress = true;
            match mem.issue_prefetch(self.id, addr, exclusive) {
                PrefetchResult::Issued { .. } => {
                    self.mark_prefetch_sent(seq);
                    self.port_used = true;
                    self.port_used_by_prefetch = true;
                    self.emit(now, seq, TraceKind::PrefetchIssue { addr, exclusive });
                    break;
                }
                PrefetchResult::AlreadyPresent
                | PrefetchResult::AlreadyPending
                | PrefetchResult::Unsupported => {
                    // Discarded by the cache check (§3.2); don't retry,
                    // and keep scanning — discards are port-free.
                    self.mark_prefetch_sent(seq);
                }
                PrefetchResult::NoResource => break, // retry next cycle
            }
        }
        self.scratch.prefetches = cands;
    }

    fn mark_prefetch_sent(&mut self, seq: Seq) {
        if let Some(e) = self.sb.get_mut(seq) {
            e.prefetch_sent = true;
        }
        if let Some(r) = self.load_queue.iter_mut().find(|r| r.seq == seq) {
            r.prefetch_sent = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Techniques;
    use mcsim_isa::reg::{R1, R2, R3, R4};
    use mcsim_isa::ProgramBuilder;
    use mcsim_mem::MemConfig;

    /// Steps one core against its memory system until it halts, checking
    /// the core's invariants after every cycle (the machine's
    /// every-cycle cadence: after the tick at `cycle`, `cycle + 1`
    /// cycles have been accounted) and discarding published wake-ups
    /// as the per-cycle engine does. Returns the halting cycle.
    fn run_to_halt(p: &mut Processor, mem: &mut MemorySystem, limit: u64) -> u64 {
        for cycle in 0..limit {
            mem.tick(cycle);
            p.tick(cycle, mem);
            mem.drain_wakeups(|_| {});
            p.drain_wakeups(|_| {});
            if let Err(e) = p.check_invariants(cycle + 1) {
                panic!("{e}");
            }
            if p.halted() {
                return p.stats().halted_at;
            }
        }
        panic!("processor did not halt");
    }

    fn run(
        model: Model,
        techniques: Techniques,
        program: Program,
        setup: impl FnOnce(&mut MemorySystem),
    ) -> (u64, Processor, MemorySystem) {
        let mut mem = MemorySystem::new(MemConfig::paper(), 1);
        setup(&mut mem);
        let mut p = Processor::new(0, ProcConfig::paper(techniques), model, program);
        let halted_at = run_to_halt(&mut p, &mut mem, 100_000);
        (halted_at, p, mem)
    }

    const L: u64 = 0x40; // lock
    const A: u64 = 0x1000;
    const B: u64 = 0x1100;

    #[test]
    fn straight_line_loads_and_alu() {
        let prog = ProgramBuilder::new("t")
            .load(R1, A)
            .alu(R2, mcsim_isa::AluOp::Add, R1, 5u64)
            .halt()
            .build()
            .unwrap();
        let (cycles, p, _) = run(Model::Sc, Techniques::NONE, prog, |m| {
            m.write_initial(Addr(A), 37);
        });
        assert_eq!(p.regfile().read(R2), 42);
        assert!(cycles >= 100, "one miss minimum");
        assert_eq!(p.stats().loads, 1);
    }

    #[test]
    fn store_then_load_forwards() {
        let prog = ProgramBuilder::new("t")
            .store(A, 7u64)
            .load(R1, A)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                let (_, p, mem) = run(model, t, prog.clone(), |_| {});
                assert_eq!(p.regfile().read(R1), 7, "{model}/{t}");
                assert_eq!(mem.read_coherent(Addr(A)), 7, "{model}/{t}");
            }
        }
    }

    #[test]
    fn rmw_test_and_set_returns_old_and_writes_one() {
        let prog = ProgramBuilder::new("t").lock(L, R1).halt().build().unwrap();
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                let (_, p, mem) = run(model, t, prog.clone(), |_| {});
                assert_eq!(p.regfile().read(R1), 0, "{model}/{t}: lock was free");
                assert_eq!(mem.read_coherent(Addr(L)), 1, "{model}/{t}: now held");
                assert_eq!(p.stats().branch_mispredicts, 0, "{model}/{t}");
            }
        }
    }

    #[test]
    fn dependent_load_chain() {
        // r2 = mem[0x2000 + mem[A]*8]
        let prog = ProgramBuilder::new("t")
            .load(R1, A)
            .load(R2, mcsim_isa::AddrExpr::indexed(0x2000, R1, 8))
            .halt()
            .build()
            .unwrap();
        let (_, p, _) = run(Model::Sc, Techniques::BOTH, prog, |m| {
            m.write_initial(Addr(A), 3);
            m.write_initial(Addr(0x2000 + 24), 99);
        });
        assert_eq!(p.regfile().read(R2), 99);
    }

    #[test]
    fn mispredicted_branch_squashes_and_refetches() {
        // Branch on a loaded value; static hint predicts the wrong way.
        let mut b = ProgramBuilder::new("t");
        let skip = b.label();
        let prog = b
            .load(R1, A)
            .branch(
                mcsim_isa::CmpOp::Eq,
                R1,
                1u64,
                skip,
                mcsim_isa::BranchHint::NotTaken,
            )
            .store(B, 5u64) // squashed path
            .bind(skip)
            .store(B, 9u64)
            .halt()
            .build()
            .unwrap();
        let (_, p, mem) = run(Model::Rc, Techniques::BOTH, prog, |m| {
            m.write_initial(Addr(A), 1); // branch actually taken
        });
        assert_eq!(p.stats().branch_mispredicts, 1);
        assert_eq!(
            mem.read_coherent(Addr(B)),
            9,
            "wrong-path store never issued"
        );
    }

    #[test]
    fn spin_lock_contended_by_initial_value_spins_until_free() {
        // Lock starts held (1); no one releases it... so instead test a
        // flag spin: flag starts 0, we poll it, but the program itself
        // sets it first — simplest self-contained spin exercise:
        // store flag=1; spin_until flag==1 must exit on first try via
        // forwarding.
        let prog = ProgramBuilder::new("t")
            .store(0x3000u64, 1u64)
            .spin_until(0x3000, 1, R3)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            let (_, p, _) = run(model, Techniques::BOTH, prog.clone(), |_| {});
            assert_eq!(p.regfile().read(R3), 1, "{model}");
        }
    }

    #[test]
    fn speculation_stats_recorded() {
        let prog = ProgramBuilder::new("t")
            .load(R1, A)
            .load(R2, B)
            .halt()
            .build()
            .unwrap();
        let (_, p, _) = run(Model::Sc, Techniques::SPECULATION, prog, |_| {});
        assert_eq!(p.stats().speculative_loads, 2);
        assert_eq!(p.stats().rollbacks, 0);
    }

    #[test]
    fn spec_loads_pipeline_under_sc() {
        // Two independent load misses under SC: conventional serializes
        // (~200), speculation pipelines (~101).
        let prog = ProgramBuilder::new("t")
            .load(R1, A)
            .load(R2, B)
            .halt()
            .build()
            .unwrap();
        let (base, ..) = run(Model::Sc, Techniques::NONE, prog.clone(), |_| {});
        let (spec, ..) = run(Model::Sc, Techniques::SPECULATION, prog, |_| {});
        assert!(base >= 200, "conventional SC serializes: {base}");
        assert!(spec <= 105, "speculation pipelines: {spec}");
    }

    #[test]
    fn prefetch_pipelines_sc_stores() {
        let prog = ProgramBuilder::new("t")
            .store(A, 1u64)
            .store(B, 2u64)
            .halt()
            .build()
            .unwrap();
        let (base, ..) = run(Model::Sc, Techniques::NONE, prog.clone(), |_| {});
        let (pf, _, mem) = run(Model::Sc, Techniques::PREFETCH, prog, |_| {});
        assert!(base >= 200, "conventional SC stores serialize: {base}");
        assert!(pf <= 105, "prefetched stores pipeline: {pf}");
        assert!(mem.stats().prefetches_issued >= 1);
        assert_eq!(mem.read_coherent(Addr(B)), 2);
    }

    #[test]
    fn rc_pipelines_without_techniques() {
        let prog = ProgramBuilder::new("t")
            .store(A, 1u64)
            .store(B, 2u64)
            .halt()
            .build()
            .unwrap();
        let (rc, ..) = run(Model::Rc, Techniques::NONE, prog, |_| {});
        assert!(rc <= 105, "RC pipelines ordinary stores: {rc}");
    }

    #[test]
    fn width_limited_frontend_still_correct() {
        let prog = ProgramBuilder::new("t")
            .load(R1, A)
            .alu(R2, mcsim_isa::AluOp::Add, R1, 5u64)
            .store(B, R2)
            .halt()
            .build()
            .unwrap();
        for (rob, width) in [(2usize, 1usize), (4, 1), (8, 2)] {
            let mut mem = MemorySystem::new(MemConfig::paper(), 1);
            mem.write_initial(Addr(A), 10);
            let cfg = ProcConfig::with_window(Techniques::BOTH, rob, width);
            let mut p = Processor::new(0, cfg, Model::Sc, prog.clone());
            run_to_halt(&mut p, &mut mem, 50_000);
            assert_eq!(mem.read_coherent(Addr(B)), 15, "rob={rob} width={width}");
        }
    }

    #[test]
    fn software_prefetch_hides_store_latency_without_hw_unit() {
        let prog = ProgramBuilder::new("t")
            .prefetch(A, true)
            .prefetch(B, true)
            .alu_lat(R1, mcsim_isa::AluOp::Add, 0u64, 0u64, 99)
            .store(A, 1u64)
            .store(B, 2u64)
            .halt()
            .build()
            .unwrap();
        let (cycles, _, mem) = run(Model::Sc, Techniques::NONE, prog, |_| {});
        assert!(
            cycles < 150,
            "prefetched stores complete as hits after the delay: {cycles}"
        );
        assert_eq!(mem.stats().prefetches_issued, 2);
        assert_eq!(mem.read_coherent(Addr(B)), 2);
    }

    #[test]
    fn software_prefetch_is_semantically_inert() {
        let with = ProgramBuilder::new("t")
            .prefetch(A, false)
            .load(R1, A)
            .halt()
            .build()
            .unwrap();
        let (_, p, _) = run(Model::Sc, Techniques::NONE, with, |m| {
            m.write_initial(Addr(A), 33);
        });
        assert_eq!(p.regfile().read(R1), 33);
        assert_eq!(p.stats().loads, 1, "prefetch does not count as a load");
    }

    #[test]
    fn rcsc_behaves_between_wc_and_rc() {
        // acquire after release: RCsc delays it, RCpc does not.
        let prog = ProgramBuilder::new("t")
            .store_release(A, 1u64)
            .load_acquire(R1, B)
            .halt()
            .build()
            .unwrap();
        let (rcsc, ..) = run(Model::RcSc, Techniques::NONE, prog.clone(), |_| {});
        let (rcpc, ..) = run(Model::Rc, Techniques::NONE, prog, |_| {});
        assert!(
            rcsc > rcpc,
            "RCsc serializes release->acquire ({rcsc}) vs RCpc ({rcpc})"
        );
    }

    #[test]
    fn all_model_technique_combinations_run_and_agree_on_values() {
        let prog = ProgramBuilder::new("t")
            .lock(L, R1)
            .load(R2, A)
            .alu(R3, mcsim_isa::AluOp::Add, R2, 1u64)
            .store(B, R3)
            .load(R4, B)
            .unlock(L)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                let (_, p, mem) = run(model, t, prog.clone(), |m| {
                    m.write_initial(Addr(A), 10);
                });
                assert_eq!(p.regfile().read(R4), 11, "{model}/{t}");
                assert_eq!(mem.read_coherent(Addr(B)), 11, "{model}/{t}");
                assert_eq!(mem.read_coherent(Addr(L)), 0, "{model}/{t}: unlocked");
            }
        }
    }
}

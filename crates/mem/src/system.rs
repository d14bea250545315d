//! The [`MemorySystem`]: caches + MSHRs + directory + network timing,
//! behind the port interface the processor's load/store unit drives.
//!
//! ## Cycle discipline
//!
//! The machine calls [`MemorySystem::tick`] once per cycle *before* the
//! processors run. `tick` delivers every message scheduled for the current
//! cycle (fills, invalidations, updates, flushes) in deterministic
//! `(time, sequence)` order, then lets the directory start up to
//! `dir_bandwidth` new transactions. Processors then issue at most one
//! demand access or prefetch per cycle through their port.
//!
//! ## Atomic grant-and-apply
//!
//! Every demand access carries a [`DemandToken`]. Its architectural effect
//! — binding a load value, or performing a write — is applied *atomically
//! with the grant*: on a hit, at issue; on a miss, the instant the
//! response arrives, before any later coherence message can steal the
//! line (exactly as a real cache controller performs the pending access
//! in the same transaction that grants ownership). Bound values are
//! retrieved with [`MemorySystem::take_bound_value`].
//!
//! A write is one thing from the core to the directory: a [`WriteOp`]
//! `(addr, rmw, operand)`, a plain store when `rmw` is `None`, otherwise
//! an atomic whose old value is bound. The written value is always
//! [`WriteOp::new_value`] of the word's old value. Under the invalidation
//! protocol it is applied to the owned line with the exclusive grant.
//! Under the update protocol the directory performs it (the serialization
//! point), refreshes every other copy, and answers with the word's old
//! and new values. The writer's own copy is written only then, from that
//! directory-serialized value, never at issue: a remote write the
//! directory ordered earlier has already landed by then, and one ordered
//! later lands after. Until the response, the core's store buffer serves
//! the writer's own loads of the word.
//!
//! Every transaction opens through one path: check for a free MSHR, hold
//! a cache way (reserve one for a fill, pin the present line for an
//! upgrade, or hold none for an update-protocol write), then allocate the
//! [`TxnId`] and the MSHR and send the request. A refused attempt
//! allocates no id.
//!
//! ## Timing recap (see [`crate::config::MemTimings`])
//!
//! * request travels `hop` cycles to the directory and is serviced the
//!   cycle it arrives (absent contention);
//! * a clean transaction's response is sent `svc` cycles later and lands
//!   `hop` cycles after that — `hop + svc + hop` end to end;
//! * invalidating sharers or flushing a remote owner inserts one extra
//!   round trip (`2 * hop`) before the response is sent.
//!
//! ## Simplification: synchronous writeback
//!
//! Evicting a dirty line updates the directory's memory image and sharing
//! state in the same cycle (an "atomic writeback"). This removes the
//! writeback/flush race of real protocols — a flush that finds the line
//! already gone simply falls back to the (current) memory copy — without
//! affecting any timing the paper's experiments observe. Documented in
//! DESIGN.md.

use crate::cache::{Cache, CacheFault, Evicted};
use crate::config::{MemConfig, Protocol};
use crate::directory::{AddSharerOutcome, DirState, Directory, ReqKind, Request};
use crate::msg::{
    DemandToken, IssueResult, LineState, MemEvent, PrefetchResult, ProbeResult, ProcId, TxnId,
    WriteOp,
};
use crate::mshr::{Mshr, MshrFault, MshrFile, PendingOp};
use crate::stats::MemStats;
use mcsim_guard::{FaultKind, FxHashMap, InvariantKind, SimError};
use mcsim_isa::{Addr, LineAddr, RmwKind};
use mcsim_trace::{TraceBuffer, TraceEvent, TraceKind};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Messages delivered to a processor-side cache controller.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProcMsg {
    /// Response to a GetShared / GetExclusive: install the line.
    Fill {
        txn: TxnId,
        line: LineAddr,
        exclusive: bool,
        /// `None` for an upgrade acknowledgement (data already cached).
        data: Option<Box<[u64]>>,
    },
    /// Response to an update-protocol write or RMW (no fill): the word
    /// and its value before and after the write, in the directory's order.
    WriteDone {
        txn: TxnId,
        line: LineAddr,
        addr: Addr,
        old: u64,
        new: u64,
    },
    /// Another processor is gaining exclusive ownership: drop the line.
    Invalidate { line: LineAddr },
    /// The directory needs this (owned) line's data; `share` keeps a
    /// shared copy, otherwise the line is invalidated.
    Flush {
        line: LineAddr,
        share: bool,
        req: Request,
    },
    /// Update protocol: refresh one word in place.
    Update { addr: Addr, value: u64 },
}

/// Internal scheduled actions.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    /// A request reaches the directory.
    DirReceive(Request),
    /// A busy line's window closes; re-admit parked requests.
    LineFree(LineAddr),
    /// Deliver a message to a processor.
    Deliver { proc: ProcId, msg: ProcMsg },
    /// Flushed data (or a not-present nack) returns to the directory.
    FlushBack {
        req: Request,
        data: Option<Box<[u64]>>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    at: u64,
    seq: u64,
    action: Action,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop earliest (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An armed fault-injection plan: which perturbation, how many matching
/// messages have been seen, and whether it has fired.
#[derive(Debug, Clone, Copy)]
struct FaultInjector {
    kind: FaultKind,
    seen: u64,
    fired: bool,
}

/// How a new transaction holds a cache way while it is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// Reserve a way for the fill (evicting a victim if needed).
    Reserve,
    /// Pin the line's present way: an upgrade in place.
    Pin,
    /// Hold none: an update-protocol write installs no line.
    Wayless,
}

/// The machine-wide coherent memory system.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    now: u64,
    next_txn: u64,
    next_seq: u64,
    next_token: u64,
    caches: Vec<Cache>,
    mshrs: Vec<MshrFile>,
    dir: Directory,
    sched: BinaryHeap<Scheduled>,
    /// Delivery cycles scheduled since the machine last drained them
    /// ([`Self::drain_wakeups`]) — published when the action is created,
    /// like the cores' wake-ups. `sched` still carries the actions.
    wakeups: Vec<u64>,
    outbox: Vec<Vec<MemEvent>>,
    bound_values: FxHashMap<DemandToken, u64>,
    stats: MemStats,
    /// First protocol-contract failure detected this run (formerly panic
    /// sites). Polled by the machine loop via [`Self::take_fault`].
    fault: Option<SimError>,
    injector: Option<FaultInjector>,
    /// Event sink; `None` (the default) makes recording a single branch.
    tracer: Option<TraceBuffer>,
    /// Whether anything observable changed since the last
    /// [`Self::take_progress`]: a message handled, a directory request
    /// serviced, a monotone ID allocated (every demand/prefetch attempt
    /// allocates one, so even failed retries count), an event drained, a
    /// bound value consumed, a fault recorded. `false` means the system
    /// is frozen until the next scheduled delivery — the discrete-event
    /// engine's licence to jump.
    progress: bool,
}

impl MemorySystem {
    /// A memory system serving `nprocs` processors.
    #[must_use]
    pub fn new(cfg: MemConfig, nprocs: usize) -> Self {
        cfg.validate();
        assert!(nprocs > 0, "need at least one processor");
        assert!(
            cfg.timings.svc >= 1,
            "directory service latency must be >= 1"
        );
        MemorySystem {
            caches: (0..nprocs).map(|_| Cache::new(cfg.cache)).collect(),
            mshrs: (0..nprocs).map(|_| MshrFile::new(cfg.mshrs)).collect(),
            dir: Directory::new(cfg.cache.block_bits, cfg.dir_format),
            sched: BinaryHeap::new(),
            wakeups: Vec::new(),
            outbox: vec![Vec::new(); nprocs],
            bound_values: FxHashMap::default(),
            stats: MemStats::default(),
            next_txn: 0,
            next_seq: 0,
            next_token: 0,
            now: 0,
            fault: None,
            injector: None,
            tracer: None,
            progress: false,
            cfg,
        }
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

    /// Records an event at the current cycle for the given requester.
    /// Memory-side events carry no instruction id.
    fn emit(&mut self, proc: ProcId, kind: TraceKind) {
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent {
                cycle: self.now,
                proc,
                seq: None,
                pc: None,
                kind,
            });
        }
    }

    /// Arms a deterministic protocol fault: the `nth` matching message is
    /// perturbed at delivery (see [`FaultKind`]). Used by the
    /// fault-injection harness to mutation-test the invariant checker.
    pub fn arm_fault(&mut self, kind: FaultKind) {
        self.injector = Some(FaultInjector {
            kind,
            seen: 0,
            fired: false,
        });
    }

    /// Whether an armed fault has fired yet.
    #[must_use]
    pub fn fault_fired(&self) -> bool {
        self.injector.is_some_and(|i| i.fired)
    }

    /// Takes the first protocol-contract failure detected so far, if any.
    /// The machine loop polls this each cycle and converts it into a
    /// structured run failure.
    pub fn take_fault(&mut self) -> Option<SimError> {
        self.fault.take()
    }

    /// Records a failure, keeping the first if several occur.
    fn set_fault(&mut self, err: SimError) {
        self.progress = true;
        if self.fault.is_none() {
            self.fault = Some(err);
        }
    }

    fn fault_from_cache(&mut self, proc: ProcId, e: CacheFault) {
        let err = SimError::protocol(self.now, Some(proc), Some(e.line().0), e.to_string());
        self.set_fault(err);
    }

    fn fault_from_mshr(&mut self, proc: ProcId, e: MshrFault) {
        let line = match e {
            MshrFault::Overflow { line } | MshrFault::DuplicateLine { line } => line,
        };
        let err = SimError::protocol(self.now, Some(proc), Some(line.0), e.to_string());
        self.set_fault(err);
    }

    /// Reads a cached word on a path the protocol guarantees present,
    /// recording a fault (and yielding 0) if the guarantee is broken.
    fn cache_read(&mut self, proc: ProcId, addr: Addr) -> u64 {
        match self.caches[proc].read_word(addr) {
            Ok(v) => v,
            Err(e) => {
                self.fault_from_cache(proc, e);
                0
            }
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The current cycle (last `tick` target).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Cache-line address of `addr` under this configuration's geometry.
    #[must_use]
    pub fn line_of(&self, addr: Addr) -> LineAddr {
        addr.line(self.cfg.cache.block_bits)
    }

    /// Writes the initial memory image (before simulation starts).
    pub fn write_initial(&mut self, addr: Addr, value: u64) {
        self.dir.write_mem_word(addr, value);
    }

    /// Pre-warms `proc`'s cache with the line containing `addr`, outside
    /// simulated time (for workload setup — the paper's examples assume
    /// some locations start cached, e.g. `read D (hit)` in Figure 2).
    ///
    /// # Panics
    /// If the set has no room or another processor already owns the line
    /// exclusively — preloading is for pristine startup states.
    pub fn preload(&mut self, proc: ProcId, addr: Addr, exclusive: bool) {
        let line = self.line_of(addr);
        assert!(
            self.mshrs[proc].get(line).is_none() && self.caches[proc].state(line).is_none(),
            "preload of a line already in flight or cached"
        );
        assert!(
            matches!(self.dir.state(line), DirState::Uncached)
                || (!exclusive && matches!(self.dir.state(line), DirState::Shared(_))),
            "preload conflicts with existing sharing state of {line}"
        );
        let evicted = self.caches[proc]
            .reserve(line)
            .unwrap_or_else(|_| panic!("no room to preload {line}"));
        assert!(
            matches!(evicted, Evicted::None),
            "preload must not evict (set already occupied)"
        );
        let data = self.dir.mem_line(line);
        let state = if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        self.caches[proc]
            .fill(line, state, Some(data), false)
            .unwrap_or_else(|e| panic!("preload: {e}"));
        if exclusive {
            self.dir.set_state(line, DirState::Owned(proc));
        } else {
            let outcome = self.dir.add_sharer(line, proc);
            if outcome.overflowed {
                self.stats.pointer_overflows += 1;
            }
            // Preloading happens outside simulated time, so an
            // invalidate-overflow eviction silently drops the victim's
            // pre-warmed copy instead of sending a message.
            if let Some(victim) = outcome.evicted {
                let _ = self.caches[victim].invalidate(line);
            }
        }
    }

    /// A coherent snapshot of every word the machine has touched, by byte
    /// address. Used for final-state checks against the SC oracle.
    #[must_use]
    pub fn snapshot_coherent(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        let words = self.dir.block_words();
        for line in self.dir.known_lines() {
            let base = line.base(self.cfg.cache.block_bits);
            for w in 0..words {
                let addr = Addr(base.0 + (w as u64) * 8);
                out.insert(addr.0, self.read_coherent(addr));
            }
        }
        out
    }

    /// The globally coherent value of `addr`: an exclusive cached copy if
    /// one exists, otherwise memory. Used to check final states.
    #[must_use]
    pub fn read_coherent(&self, addr: Addr) -> u64 {
        let line = self.line_of(addr);
        if let DirState::Owned(p) = self.dir.state(line) {
            if self.caches[p].state(line) == Some(LineState::Exclusive) {
                if let Ok(v) = self.caches[p].read_word(addr) {
                    return v;
                }
            }
        }
        self.dir.read_mem_word(addr)
    }

    fn schedule(&mut self, at: u64, action: Action) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.progress = true;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sched.push(Scheduled { at, seq, action });
        self.wakeups.push(at);
    }

    fn fresh_txn(&mut self) -> TxnId {
        self.progress = true;
        self.next_txn += 1;
        TxnId(self.next_txn)
    }

    fn fresh_token(&mut self) -> DemandToken {
        self.progress = true;
        self.next_token += 1;
        DemandToken(self.next_token)
    }

    /// Advances to cycle `now`: delivers due messages, then lets the
    /// directory start transactions.
    ///
    /// # Panics
    /// If called with a cycle earlier than a previous call.
    pub fn tick(&mut self, now: u64) {
        assert!(now >= self.now, "time went backwards");
        self.now = now;
        while self.sched.peek().is_some_and(|s| s.at <= now) {
            if let Some(s) = self.sched.pop() {
                self.progress = true;
                self.handle(s.action);
            }
        }
        for _ in 0..self.cfg.dir_bandwidth {
            let Some(req) = self.dir.next_serviceable(now) else {
                break;
            };
            self.progress = true;
            self.service(req);
        }
    }

    /// Hands `proc`'s event stream (completions + coherence hazards, in
    /// delivery order) to the caller by swapping it with `events`, which
    /// is cleared first. The outbox keeps `events`' allocation, so a core
    /// that hands back the same buffer every cycle never reallocates.
    pub fn drain_events(&mut self, proc: ProcId, events: &mut Vec<MemEvent>) {
        events.clear();
        if !self.outbox[proc].is_empty() {
            self.progress = true;
        }
        std::mem::swap(&mut self.outbox[proc], events);
    }

    /// Consumes the value bound for a demand operation: the loaded word
    /// for reads, the pre-modification word for RMWs. `None` for writes
    /// or if already taken.
    pub fn take_bound_value(&mut self, token: DemandToken) -> Option<u64> {
        let v = self.bound_values.remove(&token);
        if v.is_some() {
            self.progress = true;
        }
        v
    }

    // ------------------------------------------------------------------
    // Port operations (at most one demand issue or prefetch per processor
    // per cycle — enforced by the load/store unit).
    // ------------------------------------------------------------------

    /// A free (port-less) probe of the processor's cache and MSHRs.
    #[must_use]
    pub fn probe(&self, proc: ProcId, line: LineAddr) -> ProbeResult {
        if let Some(m) = self.mshrs[proc].get(line) {
            return ProbeResult::Pending {
                txn: m.txn,
                exclusive: m.exclusive,
                prefetch_only: m.prefetch_only,
            };
        }
        match self.caches[proc].state(line) {
            Some(s) => ProbeResult::Present(s),
            None => ProbeResult::Absent,
        }
    }

    /// Reads a word from the processor's cache (line must be present).
    /// Test/diagnostic helper; demand paths use bound values.
    pub fn read_word(&self, proc: ProcId, addr: Addr) -> Result<u64, CacheFault> {
        self.caches[proc].read_word(addr)
    }

    /// Issues a demand read. On `Hit` the value is bound immediately; on
    /// `Miss`/`Merged` it binds when the fill arrives. Retrieve it with
    /// [`Self::take_bound_value`].
    pub fn issue_demand_read(&mut self, proc: ProcId, addr: Addr) -> IssueResult {
        self.issue_cached(proc, addr, PendingOp::Read { addr }, false)
    }

    /// Issues a demand write: a store of `operand` (`rmw = None`), or an
    /// atomic read-modify-write of kind `rmw` whose old value is bound to
    /// the returned token. Under the invalidation protocol this obtains
    /// exclusive ownership and performs the write atomically with the
    /// grant (immediately on a hit). Under the update protocol the write
    /// rides to the directory, which performs it (the serialization
    /// point); it completes when all copies are refreshed.
    pub fn issue_demand_write(
        &mut self,
        proc: ProcId,
        addr: Addr,
        rmw: Option<RmwKind>,
        operand: u64,
    ) -> IssueResult {
        let op = WriteOp { addr, rmw, operand };
        match self.cfg.protocol {
            Protocol::Invalidate => self.issue_cached(proc, addr, PendingOp::Write(op), true),
            Protocol::Update => self.issue_update_txn(proc, op),
        }
    }

    /// Issues a *read-exclusive* demand read: brings the line into the
    /// cache in exclusive mode and binds the word's current value, without
    /// writing anything — the speculative first half of a split
    /// read-modify-write (Appendix A of the paper). Invalidation protocol
    /// only; the update protocol has no exclusivity to request.
    ///
    /// # Panics
    /// If called under the update protocol.
    pub fn issue_demand_read_ex(&mut self, proc: ProcId, addr: Addr) -> IssueResult {
        assert_eq!(
            self.cfg.protocol,
            Protocol::Invalidate,
            "read-exclusive demands require the invalidation protocol"
        );
        self.issue_cached(proc, addr, PendingOp::Read { addr }, true)
    }

    /// Applies a demand op against the local cache (a write needs the line
    /// held exclusively), binding values as needed.
    fn apply_op(&mut self, proc: ProcId, token: DemandToken, op: PendingOp) {
        match op {
            PendingOp::Read { addr } => {
                let v = self.cache_read(proc, addr);
                self.bound_values.insert(token, v);
            }
            PendingOp::Write(w) => {
                let old = w.rmw.map(|_| self.cache_read(proc, w.addr));
                let new = w.new_value(old.unwrap_or_default());
                if let Err(e) = self.caches[proc].write_word(w.addr, new) {
                    self.fault_from_cache(proc, e);
                }
                if let Some(old) = old {
                    self.bound_values.insert(token, old);
                }
            }
        }
    }

    /// A demand served by the cache: a read, or (`exclusive`) an access
    /// that needs ownership — a read-exclusive or an invalidation-protocol
    /// write. It merges into an outstanding transaction for the line,
    /// applies at issue on a hit, or opens a transaction; its op applies
    /// atomically with the grant.
    fn issue_cached(
        &mut self,
        proc: ProcId,
        addr: Addr,
        op: PendingOp,
        exclusive: bool,
    ) -> IssueResult {
        let line = self.line_of(addr);
        let token = self.fresh_token();
        if let Some(m) = self.mshrs[proc].get_mut(line) {
            if exclusive && !m.exclusive {
                // A shared fill is in flight; the access must wait for it
                // and then upgrade.
                return IssueResult::WaitForFill { txn: m.txn };
            }
            if m.prefetch_only {
                m.prefetch_only = false;
                self.stats.prefetches_useful += 1;
            }
            m.pending.push((token, op));
            self.stats.demand_merges += 1;
            return IssueResult::Merged { txn: m.txn, token };
        }
        let Some((kind, hold)) = self.txn_needed(proc, line, exclusive) else {
            if self.caches[proc].demand_touch(line) {
                self.stats.prefetches_useful += 1;
            }
            self.apply_op(proc, token, op);
            self.stats.demand_hits += 1;
            return IssueResult::Hit { token };
        };
        match self.open_txn(proc, line, kind, hold, Some((token, op))) {
            Ok(txn) => IssueResult::Miss { txn, token },
            Err(refused) => refused,
        }
    }

    /// The transaction an access to `line` needs, or `None` if the cached
    /// copy already serves it. An `exclusive` access to a shared copy
    /// upgrades it in place (the line keeps its way, pinned — footnote 3).
    fn txn_needed(&self, proc: ProcId, line: LineAddr, exclusive: bool) -> Option<(ReqKind, Hold)> {
        match self.caches[proc].state(line) {
            Some(LineState::Exclusive) => None,
            Some(LineState::Shared) if !exclusive => None,
            Some(LineState::Shared) => Some((ReqKind::GetExclusive, Hold::Pin)),
            None if exclusive => Some((ReqKind::GetExclusive, Hold::Reserve)),
            None => Some((ReqKind::GetShared, Hold::Reserve)),
        }
    }

    /// Update-protocol write/RMW: a directory round trip. Nothing is
    /// written locally here: the writer's own copy takes the
    /// directory-serialized value when [`ProcMsg::WriteDone`] arrives, and
    /// until then the core's store buffer serves its own loads.
    fn issue_update_txn(&mut self, proc: ProcId, op: WriteOp) -> IssueResult {
        let line = self.line_of(op.addr);
        if let Some(m) = self.mshrs[proc].get(line) {
            // Serialize same-line transactions from one processor.
            return IssueResult::WaitForFill { txn: m.txn };
        }
        // Checked before the token is taken: a refused update write
        // consumes no token.
        if self.mshrs[proc].is_full() {
            return IssueResult::NoMshr;
        }
        let token = self.fresh_token();
        let demand = Some((token, PendingOp::Write(op)));
        match self.open_txn(proc, line, ReqKind::Update(op), Hold::Wayless, demand) {
            Ok(txn) => IssueResult::Miss { txn, token },
            Err(refused) => refused,
        }
    }

    /// Opens a transaction for `line` — the one place an MSHR is
    /// allocated. Checks MSHR space, then holds a cache way as `hold`
    /// says, then allocates the [`TxnId`] and the MSHR and sends the
    /// request. `demand` is `None` for a prefetch. A refusal
    /// (`NoMshr`/`SetFull`) allocates no id.
    fn open_txn(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        kind: ReqKind,
        hold: Hold,
        demand: Option<(DemandToken, PendingOp)>,
    ) -> Result<TxnId, IssueResult> {
        if self.mshrs[proc].is_full() {
            return Err(IssueResult::NoMshr);
        }
        match hold {
            Hold::Reserve => match self.caches[proc].reserve(line) {
                Ok(evicted) => self.handle_eviction(proc, evicted),
                Err(crate::cache::SetFull) => return Err(IssueResult::SetFull),
            },
            Hold::Pin => {
                if let Err(e) = self.caches[proc].pin(line) {
                    self.fault_from_cache(proc, e);
                    return Err(IssueResult::NoMshr);
                }
            }
            Hold::Wayless => {}
        }
        let txn = self.fresh_txn();
        let is_prefetch = demand.is_none();
        if let Err(e) = self.mshrs[proc].allocate(Mshr {
            txn,
            line,
            exclusive: kind == ReqKind::GetExclusive,
            prefetch_only: is_prefetch,
            // Nothing fills a way the transaction did not reserve.
            is_upgrade: hold != Hold::Reserve,
            issued_at: self.now,
            pending: demand.into_iter().collect(),
        }) {
            self.fault_from_mshr(proc, e);
            return Err(IssueResult::NoMshr);
        }
        self.send_request(proc, line, kind, txn, is_prefetch);
        if is_prefetch {
            self.stats.prefetches_issued += 1;
        } else {
            self.stats.demand_misses += 1;
        }
        Ok(txn)
    }

    /// Issues a non-binding prefetch: read (`exclusive = false`) or
    /// read-exclusive (`exclusive = true`). The prefetch first checks the
    /// cache and outstanding transactions, and is discarded if the line is
    /// already on its way (§3.2).
    pub fn issue_prefetch(&mut self, proc: ProcId, addr: Addr, exclusive: bool) -> PrefetchResult {
        // Every attempt bumps a stats counter below, whatever the outcome.
        self.progress = true;
        if exclusive && self.cfg.protocol == Protocol::Update {
            self.stats.prefetches_unsupported += 1;
            return PrefetchResult::Unsupported;
        }
        let line = self.line_of(addr);
        if self.mshrs[proc].get(line).is_some() {
            self.stats.prefetches_already_pending += 1;
            return PrefetchResult::AlreadyPending;
        }
        let Some((kind, hold)) = self.txn_needed(proc, line, exclusive) else {
            self.stats.prefetches_already_present += 1;
            return PrefetchResult::AlreadyPresent;
        };
        match self.open_txn(proc, line, kind, hold, None) {
            Ok(txn) => PrefetchResult::Issued { txn },
            Err(_) => {
                self.stats.prefetches_no_resource += 1;
                PrefetchResult::NoResource
            }
        }
    }

    // ------------------------------------------------------------------
    // Event horizon: fast-forward support.
    // ------------------------------------------------------------------

    /// Drains the delivery cycles scheduled since the last drain into
    /// `sink`: every future cycle at which the memory system can change
    /// state on its own. Everything the system does is driven by the
    /// scheduler heap — every busy directory line has a `LineFree`
    /// scheduled at its release cycle, every message a delivery cycle —
    /// and each entry is published here as it is pushed. Directory
    /// requests parked behind a busy line wake at that line's `LineFree`;
    /// the armed fault injector triggers on message *delivery* (it has no
    /// timed component of its own).
    pub fn drain_wakeups(&mut self, mut sink: impl FnMut(u64)) {
        for at in self.wakeups.drain(..) {
            sink(at);
        }
    }

    /// Takes and resets the progress flag: whether anything observable
    /// changed since the last call. The monotone ID counters make even
    /// balanced changes count: a scheduler pop+push, or a failed (retried)
    /// demand issue, each allocate an ID and so flag progress. `false`
    /// means ticking any cycle before the earliest drained wake-up is a
    /// pure no-op, which is what lets the machine fast-forward over them.
    pub fn take_progress(&mut self) -> bool {
        std::mem::take(&mut self.progress)
    }

    // ------------------------------------------------------------------
    // Guard layer: invariant checking and watchdog telemetry
    // ------------------------------------------------------------------

    /// Messages and requests currently in flight: scheduled deliveries
    /// plus directory-queued requests. Zero means the network is silent.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.sched.len() + self.dir.queue_len()
    }

    /// A monotone activity counter that increases whenever the memory
    /// system performs coherence work. The watchdog compares samples of it
    /// to detect a silent window.
    #[must_use]
    pub fn activity(&self) -> u64 {
        let s = &self.stats;
        s.demand_hits
            + s.demand_misses
            + s.demand_merges
            + s.prefetches_issued
            + s.invalidations_delivered
            + s.updates_delivered
            + s.flushes
            + s.writebacks
            + s.replacements
            + s.dir_transactions
    }

    /// Verifies the coherence/buffer invariant catalog at the current
    /// cycle (see [`InvariantKind`]). Every checked invariant holds at
    /// cycle boundaries even while transactions are in flight, so an `Err`
    /// is a real protocol bug (or an injected fault). The first violation
    /// found is returned, with a deterministic description.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        // SWMR: collect every present copy, per line, across caches. The
        // checker runs on a cadence in the simulation hot loop, so this
        // uses flat sorted vectors, not per-line map allocations; the
        // sort is stable and the per-cache iteration is in proc order,
        // so lines (and holders within a line) are visited in the same
        // deterministic order a line-keyed map would give.
        let mut copies: Vec<(u64, ProcId, bool)> = Vec::new();
        for (p, cache) in self.caches.iter().enumerate() {
            for (line, state, _pinned) in cache.present_lines() {
                copies.push((line.0, p, state == LineState::Exclusive));
            }
        }
        copies.sort_by_key(|&(line, _, _)| line);
        for group in copies.chunk_by(|a, b| a.0 == b.0) {
            let line = group[0].0;
            let owners: Vec<ProcId> = group
                .iter()
                .filter(|&&(_, _, excl)| excl)
                .map(|&(_, p, _)| p)
                .collect();
            if owners.is_empty() {
                continue;
            }
            if owners.len() > 1 {
                return Err(SimError::invariant(
                    self.now,
                    Some(owners[0]),
                    Some(line),
                    InvariantKind::SwmrMultipleExclusive,
                    format!("procs {owners:?} all hold line {line:#x} exclusively"),
                ));
            }
            if group.len() > 1 {
                let holders: Vec<ProcId> = group.iter().map(|&(_, p, _)| p).collect();
                return Err(SimError::invariant(
                    self.now,
                    Some(owners[0]),
                    Some(line),
                    InvariantKind::SwmrExclusiveWithCopies,
                    format!(
                        "proc {} holds line {line:#x} exclusively while procs {holders:?} hold copies",
                        owners[0]
                    ),
                ));
            }
        }
        // Sharer coverage (format soundness): every cache that really
        // holds a copy of a *Shared* line must be covered by the
        // directory format's decoded sharer set — imprecise formats may
        // over-approximate (spurious invalidations) but never
        // under-approximate, or an exclusive grant would miss a copy.
        // The one legal window is a limited-pointer eviction whose
        // invalidation is still in flight; the (lazy) schedule scan
        // excuses it. Lines the format grants exclusively are covered by
        // the SWMR and owner-agreement checks instead.
        for &(line, p, _) in &copies {
            let Some(DirState::Shared(sharers)) = self.dir.state_ref(LineAddr(line)) else {
                continue;
            };
            if sharers.covers(p) {
                continue;
            }
            let inval_in_flight = self.sched.iter().any(|s| match &s.action {
                Action::Deliver {
                    proc,
                    msg: ProcMsg::Invalidate { line: l },
                }
                | Action::Deliver {
                    proc,
                    msg: ProcMsg::Flush { line: l, .. },
                } => *proc == p && l.0 == line,
                _ => false,
            });
            if !inval_in_flight {
                return Err(SimError::invariant(
                    self.now,
                    Some(p),
                    Some(line),
                    InvariantKind::DirSharerNotCovered,
                    format!(
                        "proc {p} holds a copy of line {line:#x} but the {} directory's \
                         decoded sharer set does not cover it (and no invalidation is in \
                         flight)",
                        self.cfg.dir_format
                    ),
                ));
            }
        }
        // Directory-owner agreement: a recorded owner must hold the line
        // exclusively or have the transaction that will make it so still
        // outstanding (clean grants and flush-and-invalidate both keep the
        // requester's MSHR open until the fill lands). Only lines with a
        // directory sharing state can be owned, so memory-only lines
        // (which `known_lines` would also yield) need no visit; sorting
        // keeps the first-violation order identical.
        let mut owned = self.dir.owned_lines();
        owned.sort_unstable_by_key(|(line, _)| line.0);
        for (line, p) in owned {
            let ok = self.caches[p].state(line) == Some(LineState::Exclusive)
                || self.mshrs[p].get(line).is_some();
            if !ok {
                return Err(SimError::invariant(
                    self.now,
                    Some(p),
                    Some(line.0),
                    InvariantKind::DirOwnerDisagrees,
                    format!(
                        "directory records proc {p} as owner of {line} but its cache neither \
                         holds the line exclusively nor has a transaction outstanding"
                    ),
                ));
            }
        }
        // MSHR occupancy and way agreement.
        for (p, file) in self.mshrs.iter().enumerate() {
            if file.len() > file.capacity() {
                return Err(SimError::invariant(
                    self.now,
                    Some(p),
                    None,
                    InvariantKind::MshrOverflow,
                    format!(
                        "{} entries in a {}-entry MSHR file",
                        file.len(),
                        file.capacity()
                    ),
                ));
            }
            let mut entries: Vec<&Mshr> = file.iter().collect();
            entries.sort_by_key(|m| m.line.0);
            for m in entries {
                // Update-protocol transactions are wayless by design.
                if m.is_upgrade && self.cfg.protocol == Protocol::Update {
                    continue;
                }
                let has_way = if m.is_upgrade {
                    // Pinned in place, or demoted to a reservation by a
                    // racing invalidation.
                    self.caches[p].state(m.line).is_some() || self.caches[p].is_reserved(m.line)
                } else {
                    self.caches[p].is_reserved(m.line)
                };
                if !has_way {
                    return Err(SimError::invariant(
                        self.now,
                        Some(p),
                        Some(m.line.0),
                        InvariantKind::MshrMissingWay,
                        format!(
                            "outstanding {} MSHR for {} has no cache way to land in",
                            if m.is_upgrade { "upgrade" } else { "fill" },
                            m.line
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn send_request(
        &mut self,
        proc: ProcId,
        line: LineAddr,
        kind: ReqKind,
        txn: TxnId,
        is_prefetch: bool,
    ) {
        let hop = self.cfg.timings.hop;
        // Every request is sent right after its MSHR was allocated, so
        // this is the one place both events are recorded.
        if self.tracer.is_some() {
            let exclusive = matches!(kind, ReqKind::GetExclusive);
            self.emit(proc, TraceKind::MshrAllocate { line, txn: txn.0 });
            let issue = if is_prefetch {
                TraceKind::PrefetchTxn {
                    line,
                    txn: txn.0,
                    exclusive,
                }
            } else {
                TraceKind::MissIssue {
                    line,
                    txn: txn.0,
                    exclusive,
                }
            };
            self.emit(proc, issue);
        }
        let req = Request {
            proc,
            line,
            kind,
            txn,
            is_prefetch,
            issued_at: self.now,
        };
        self.schedule(self.now + hop, Action::DirReceive(req));
    }

    fn handle_eviction(&mut self, proc: ProcId, evicted: Evicted) {
        match evicted {
            Evicted::None => {}
            Evicted::Clean { line } => {
                // Synchronous directory update (atomic writeback — see the
                // module docs).
                self.dir.drop_copy(line, proc);
                self.stats.replacements += 1;
                self.outbox[proc].push(MemEvent::Replaced { line });
            }
            Evicted::Dirty { line, data } => {
                self.dir.write_mem_line(line, data);
                self.dir.drop_copy(line, proc);
                self.stats.replacements += 1;
                self.stats.writebacks += 1;
                self.outbox[proc].push(MemEvent::Replaced { line });
            }
        }
    }

    fn handle(&mut self, action: Action) {
        match action {
            Action::DirReceive(req) => self.dir.push_arrival(req),
            Action::LineFree(line) => self.dir.release_line(line),
            Action::FlushBack { req, data } => self.finish_flush(req, data),
            Action::Deliver { proc, msg } => self.deliver(proc, msg),
        }
    }

    /// Applies the armed fault-injection plan to a message about to be
    /// delivered. Returns `None` when the fault consumes the message.
    fn inject(&mut self, msg: ProcMsg) -> Option<ProcMsg> {
        let Some(inj) = self.injector.as_mut() else {
            return Some(msg);
        };
        if inj.fired {
            return Some(msg);
        }
        match (inj.kind, &msg) {
            (FaultKind::DropInvalidation { nth }, ProcMsg::Invalidate { .. }) => {
                inj.seen += 1;
                if inj.seen == nth {
                    inj.fired = true;
                    return None;
                }
            }
            (
                FaultKind::CorruptLineState { nth },
                ProcMsg::Fill {
                    exclusive: false, ..
                },
            ) => {
                inj.seen += 1;
                if inj.seen == nth {
                    inj.fired = true;
                    if let ProcMsg::Fill {
                        txn, line, data, ..
                    } = msg
                    {
                        return Some(ProcMsg::Fill {
                            txn,
                            line,
                            exclusive: true,
                            data,
                        });
                    }
                }
            }
            (FaultKind::StuckMshr { nth }, ProcMsg::Fill { .. }) => {
                inj.seen += 1;
                if inj.seen == nth {
                    inj.fired = true;
                    return None;
                }
            }
            _ => {}
        }
        Some(msg)
    }

    /// Closes `proc`'s transaction for `line` on its response and
    /// records its latency. `None` (with a fault recorded) if no MSHR was
    /// outstanding.
    fn complete_txn(&mut self, proc: ProcId, txn: TxnId, line: LineAddr) -> Option<Mshr> {
        let Some(m) = self.mshrs[proc].complete(line) else {
            self.set_fault(SimError::protocol(
                self.now,
                Some(proc),
                Some(line.0),
                format!("response for {line} without an outstanding MSHR"),
            ));
            return None;
        };
        debug_assert_eq!(m.txn, txn);
        // The latency is attributed to the most demanding merged
        // operation: RMW > write > read; a transaction that completed with
        // nothing merged in was a pure prefetch.
        let latency = self.now.saturating_sub(m.issued_at);
        let ops = |f: fn(&PendingOp) -> bool| m.pending.iter().any(|(_, op)| f(op));
        let h = if ops(|op| matches!(op, PendingOp::Write(w) if w.rmw.is_some())) {
            &mut self.stats.rmw_txn_latency
        } else if ops(|op| matches!(op, PendingOp::Write(_))) {
            &mut self.stats.write_txn_latency
        } else if !m.pending.is_empty() {
            &mut self.stats.read_txn_latency
        } else {
            &mut self.stats.prefetch_txn_latency
        };
        h.record(latency);
        Some(m)
    }

    /// Tells `proc`'s core its transaction completed.
    fn publish_done(&mut self, proc: ProcId, txn: TxnId, line: LineAddr, exclusive: bool) {
        self.emit(
            proc,
            TraceKind::Deliver {
                line,
                txn: txn.0,
                exclusive,
            },
        );
        self.outbox[proc].push(MemEvent::Done {
            txn,
            line,
            exclusive,
        });
    }

    /// Tells `proc`'s core it lost `line` (or, on a read-flush, its
    /// exclusive hold): the trace event and the coherence hazard.
    /// `counted` adds it to the delivered-invalidation statistic.
    fn publish_invalidated(&mut self, proc: ProcId, line: LineAddr, counted: bool) {
        if counted {
            self.stats.invalidations_delivered += 1;
        }
        self.emit(proc, TraceKind::Invalidation { line });
        self.outbox[proc].push(MemEvent::Invalidated { line });
    }

    fn deliver(&mut self, proc: ProcId, msg: ProcMsg) {
        let Some(msg) = self.inject(msg) else {
            return;
        };
        match msg {
            ProcMsg::Fill {
                txn,
                line,
                exclusive,
                data,
            } => {
                let Some(m) = self.complete_txn(proc, txn, line) else {
                    return;
                };
                let state = if exclusive {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                };
                if let Err(e) = self.caches[proc].fill(line, state, data, m.prefetch_only) {
                    self.fault_from_cache(proc, e);
                    return;
                }
                // Apply the demand operations atomically with the grant.
                for (token, op) in m.pending {
                    self.apply_op(proc, token, op);
                }
                self.publish_done(proc, txn, line, exclusive);
            }
            ProcMsg::WriteDone {
                txn,
                line,
                addr,
                old,
                new,
            } => {
                let Some(m) = self.complete_txn(proc, txn, line) else {
                    return;
                };
                // The writer's copy takes the value in the directory's
                // order: a remote write serialized earlier has already
                // landed, one serialized later lands after this.
                self.caches[proc].update_word(addr, new);
                for (token, op) in m.pending {
                    if matches!(op, PendingOp::Write(w) if w.rmw.is_some()) {
                        self.bound_values.insert(token, old);
                    }
                }
                self.publish_done(proc, txn, line, false);
            }
            ProcMsg::Invalidate { line } => {
                // An in-flight upgrade keeps its slot: the way becomes a
                // reservation and the directory will answer with data.
                let has_upgrade = self.mshrs[proc]
                    .get(line)
                    .is_some_and(|m| m.is_upgrade && m.exclusive);
                if self.caches[proc].state(line).is_some() {
                    if has_upgrade {
                        if let Err(e) = self.caches[proc].demote_to_reserved(line) {
                            self.fault_from_cache(proc, e);
                            return;
                        }
                    } else {
                        self.caches[proc].invalidate(line);
                    }
                    self.publish_invalidated(proc, line, true);
                }
            }
            ProcMsg::Flush { line, share, req } => {
                // A read-flush keeps a shared copy and is not counted as
                // an invalidation.
                let data = if share {
                    self.caches[proc].downgrade(line)
                } else {
                    self.caches[proc].invalidate(line)
                };
                if data.is_some() {
                    self.publish_invalidated(proc, line, !share);
                }
                let hop = self.cfg.timings.hop;
                self.schedule(self.now + hop, Action::FlushBack { req, data });
            }
            ProcMsg::Update { addr, value } => {
                let line = self.line_of(addr);
                if self.caches[proc].update_word(addr, value) {
                    self.stats.updates_delivered += 1;
                    self.emit(proc, TraceKind::Update { line, addr });
                    self.outbox[proc].push(MemEvent::Updated { line, addr, value });
                }
            }
        }
    }

    /// Completes a transaction that needed a remote flush: the owner's
    /// data (or, if the owner had already written the line back, the
    /// current memory image) is installed and the response dispatched.
    fn finish_flush(&mut self, req: Request, data: Option<Box<[u64]>>) {
        let t = self.cfg.timings;
        if let Some(d) = data {
            self.dir.write_mem_line(req.line, d);
            self.stats.flushes += 1;
        }
        let line_data = self.dir.mem_line(req.line);
        let exclusive = req.kind == ReqKind::GetExclusive;
        self.schedule(
            self.now + t.svc + t.hop,
            Action::Deliver {
                proc: req.proc,
                msg: ProcMsg::Fill {
                    txn: req.txn,
                    line: req.line,
                    exclusive,
                    data: Some(line_data),
                },
            },
        );
    }

    /// Services one directory transaction (the line is not busy).
    fn service(&mut self, req: Request) {
        let t = self.cfg.timings;
        let ts = self.now;
        self.stats.dir_transactions += 1;
        let arrival = req.issued_at + t.hop;
        self.stats.dir_queue_cycles += ts.saturating_sub(arrival);
        let state = self.dir.state(req.line);

        match req.kind {
            ReqKind::GetShared => match state {
                DirState::Owned(owner) if owner != req.proc => {
                    // Remote dirty: flush-and-share. The new sharing state
                    // is set now (the line is busy until the response is
                    // sent, so no other transaction observes it early).
                    let outcome = self.dir.add_sharer(req.line, req.proc);
                    self.schedule(
                        ts + t.hop,
                        Action::Deliver {
                            proc: owner,
                            msg: ProcMsg::Flush {
                                line: req.line,
                                share: true,
                                req,
                            },
                        },
                    );
                    self.apply_add_outcome(req.line, outcome, ts);
                    self.busy_for(req.line, ts + 2 * t.hop + t.svc);
                }
                _ => {
                    let outcome = self.dir.add_sharer(req.line, req.proc);
                    self.apply_add_outcome(req.line, outcome, ts);
                    let data = self.dir.mem_line(req.line);
                    self.respond_fill(req, false, Some(data), ts + t.svc);
                    self.busy_for(req.line, ts + t.svc);
                }
            },
            ReqKind::GetExclusive => {
                // Grant timing is decided by the *exact* copy set; the
                // directory format decides the invalidation message list
                // (see `fan_out_invalidations`).
                let has_copies = state.copies_excluding(req.proc).next().is_some();
                let was_owner_remote = matches!(state, DirState::Owned(o) if o != req.proc);
                let requester_has_copy = state.is_sharer(req.proc) || state.is_owner(req.proc);
                self.dir.set_state(req.line, DirState::Owned(req.proc));
                self.emit(req.proc, TraceKind::OwnershipTransfer { line: req.line });
                if was_owner_remote {
                    // Flush-and-invalidate the remote owner; its data
                    // rides back and out to the requester.
                    let owner = state
                        .copies_excluding(req.proc)
                        .next()
                        .expect("a remote owner is a copy");
                    self.schedule(
                        ts + t.hop,
                        Action::Deliver {
                            proc: owner,
                            msg: ProcMsg::Flush {
                                line: req.line,
                                share: false,
                                req,
                            },
                        },
                    );
                    self.busy_for(req.line, ts + 2 * t.hop + t.svc);
                } else if !has_copies {
                    // Clean grant. Upgrade requesters already hold data.
                    let data = if requester_has_copy {
                        None
                    } else {
                        Some(self.dir.mem_line(req.line))
                    };
                    self.respond_fill(req, true, data, ts + t.svc);
                    self.busy_for(req.line, ts + t.svc);
                } else {
                    // Invalidate sharers, then grant after the ack round
                    // trip (acks are implicit: latencies are fixed). With
                    // Adve–Hill early grants the response does not wait
                    // for the acks — their visibility-control mechanism
                    // (not timed here) preserves SC.
                    self.fan_out_invalidations(&req, &state, ts);
                    let data = if requester_has_copy {
                        None
                    } else {
                        Some(self.dir.mem_line(req.line))
                    };
                    let send = if self.cfg.early_grant_writes {
                        ts + t.svc
                    } else {
                        ts + 2 * t.hop + t.svc
                    };
                    self.respond_fill(req, true, data, send);
                    self.busy_for(req.line, ts + 2 * t.hop + t.svc);
                }
            }
            ReqKind::Update(w) => {
                let old = self.dir.read_mem_word(w.addr);
                let new = w.new_value(old);
                self.dir.write_mem_word(w.addr, new);
                let send = self.fan_out_updates(&req, state, w.addr, new, ts);
                self.schedule(
                    send + t.hop,
                    Action::Deliver {
                        proc: req.proc,
                        msg: ProcMsg::WriteDone {
                            txn: req.txn,
                            line: req.line,
                            addr: w.addr,
                            old,
                            new,
                        },
                    },
                );
                self.busy_for(req.line, send);
            }
        }
    }

    /// Sends the invalidation messages an exclusive grant requires,
    /// targeting the set the *directory format* decodes (a superset of
    /// the true copies under imprecise formats). Spurious messages —
    /// targets holding no copy — are counted and delivered but find
    /// nothing to kill, so they are architecturally inert: formats
    /// differ only in traffic, not outcomes, under the fixed-latency
    /// implicit-ack network.
    fn fan_out_invalidations(&mut self, req: &Request, state: &DirState, ts: u64) {
        let DirState::Shared(sharers) = state else {
            return;
        };
        let t = self.cfg.timings;
        let nprocs = self.caches.len();
        if sharers.is_broadcast() {
            self.stats.broadcasts += 1;
        }
        let line = req.line;
        let mut sent = 0u64;
        let mut spurious = 0u64;
        sharers.for_each_format_target(req.proc, nprocs, |p, is_spurious| {
            sent += 1;
            spurious += u64::from(is_spurious);
            self.schedule(
                ts + t.hop,
                Action::Deliver {
                    proc: p,
                    msg: ProcMsg::Invalidate { line },
                },
            );
        });
        self.stats.invalidations_sent += sent;
        self.stats.spurious_invalidations += spurious;
    }

    /// Applies the side effects of recording a new sharer: the overflow
    /// counter, and — under the limited-pointer invalidate policy — a
    /// *real* invalidation to the sharer whose pointer was reclaimed.
    /// The victim's copy dies at `ts + hop`, before any later
    /// transaction on the line can materialize an exclusive copy, so
    /// SWMR is preserved.
    fn apply_add_outcome(&mut self, line: LineAddr, outcome: AddSharerOutcome, ts: u64) {
        if outcome.overflowed {
            self.stats.pointer_overflows += 1;
        }
        if let Some(victim) = outcome.evicted {
            self.stats.invalidations_sent += 1;
            self.schedule(
                ts + self.cfg.timings.hop,
                Action::Deliver {
                    proc: victim,
                    msg: ProcMsg::Invalidate { line },
                },
            );
        }
    }

    /// Sends update-protocol refreshes to every remote sharer; returns the
    /// cycle the response may be sent (after the implicit ack round trip
    /// when sharers exist). The update fan-out always uses the exact
    /// sharer set: directory-format imprecision is modelled on the
    /// invalidation protocol only (the scalable-directory literature's
    /// setting); the update protocol keeps full-map behavior.
    fn fan_out_updates(
        &mut self,
        req: &Request,
        state: DirState,
        addr: Addr,
        value: u64,
        ts: u64,
    ) -> u64 {
        let t = self.cfg.timings;
        let mut had_sharers = false;
        for p in state.copies_excluding(req.proc) {
            had_sharers = true;
            self.schedule(
                ts + t.hop,
                Action::Deliver {
                    proc: p,
                    msg: ProcMsg::Update { addr, value },
                },
            );
        }
        if had_sharers {
            ts + 2 * t.hop + t.svc
        } else {
            ts + t.svc
        }
    }

    fn respond_fill(&mut self, req: Request, exclusive: bool, data: Option<Box<[u64]>>, send: u64) {
        let t = self.cfg.timings;
        self.schedule(
            send + t.hop,
            Action::Deliver {
                proc: req.proc,
                msg: ProcMsg::Fill {
                    txn: req.txn,
                    line: req.line,
                    exclusive,
                    data,
                },
            },
        );
    }

    fn busy_for(&mut self, line: LineAddr, until: u64) {
        self.dir.mark_busy(line, until);
        self.schedule(until, Action::LineFree(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::RmwKind;

    const A: Addr = Addr(0x1000);
    const B: Addr = Addr(0x2000);

    impl MemorySystem {
        /// The events drained for `proc`, in a fresh vector.
        fn events(&mut self, proc: ProcId) -> Vec<MemEvent> {
            let mut events = Vec::new();
            self.drain_events(proc, &mut events);
            events
        }
    }

    fn sys(nprocs: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::paper(), nprocs)
    }

    #[test]
    fn drain_events_swaps_and_never_recirculates_stale_events() {
        let mut s = sys(1);
        s.tick(0);
        let IssueResult::Miss { .. } = s.issue_demand_read(0, A) else {
            panic!("cold read misses")
        };
        let stale = MemEvent::Invalidated { line: s.line_of(B) };
        let mut events = vec![stale];
        s.drain_events(0, &mut events);
        assert!(
            events.is_empty(),
            "nothing delivered yet; stale entry cleared"
        );
        let (_, delivered) = run_until_event(&mut s, 0, 200);
        assert!(
            matches!(delivered[..], [MemEvent::Done { .. }]),
            "{delivered:?}"
        );
        events.push(stale);
        s.drain_events(0, &mut events);
        assert!(
            events.is_empty(),
            "the stale entry never reached the outbox"
        );
    }

    /// Ticks until an event arrives for `proc` or `limit` cycles pass.
    fn run_until_event(s: &mut MemorySystem, proc: ProcId, limit: u64) -> (u64, Vec<MemEvent>) {
        let start = s.now();
        for c in start..=start + limit {
            s.tick(c);
            let ev = s.events(proc);
            if !ev.is_empty() {
                return (c, ev);
            }
        }
        panic!("no event within {limit} cycles");
    }

    #[test]
    fn clean_read_miss_takes_exactly_100_cycles() {
        let mut s = sys(1);
        s.write_initial(A, 7);
        s.tick(0);
        let r = s.issue_demand_read(0, A);
        let IssueResult::Miss { txn, token } = r else {
            panic!("expected miss, got {r:?}");
        };
        let (cycle, ev) = run_until_event(&mut s, 0, 200);
        assert_eq!(cycle, 100);
        assert_eq!(
            ev,
            vec![MemEvent::Done {
                txn,
                line: s.line_of(A),
                exclusive: false
            }]
        );
        assert_eq!(s.take_bound_value(token), Some(7));
        assert_eq!(s.take_bound_value(token), None, "bound values are consumed");
    }

    #[test]
    fn read_hit_binds_value_at_issue() {
        let mut s = sys(1);
        s.write_initial(A, 3);
        s.tick(0);
        let IssueResult::Miss { token, .. } = s.issue_demand_read(0, A) else {
            panic!()
        };
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(s.take_bound_value(token), Some(3));
        // Now a hit.
        let r = s.issue_demand_read(0, A);
        assert!(matches!(r, IssueResult::Hit { .. }));
        assert_eq!(s.stats().demand_hits, 1);
    }

    #[test]
    fn write_miss_applies_store_at_grant() {
        let mut s = sys(1);
        s.tick(0);
        let r = s.issue_demand_write(0, A, None, 5);
        assert!(matches!(r, IssueResult::Miss { .. }));
        let (cycle, ev) = run_until_event(&mut s, 0, 200);
        assert_eq!(cycle, 100);
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
        assert_eq!(s.read_coherent(A), 5, "store performed with the grant");
    }

    #[test]
    fn rmw_miss_binds_old_value() {
        let mut s = sys(1);
        s.write_initial(A, 0);
        s.tick(0);
        let IssueResult::Miss { token, .. } =
            s.issue_demand_write(0, A, Some(RmwKind::TestAndSet), 0)
        else {
            panic!()
        };
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(s.take_bound_value(token), Some(0), "old value bound");
        assert_eq!(s.read_coherent(A), 1, "test-and-set wrote 1");
    }

    #[test]
    fn demand_merges_into_prefetch_and_completes_with_it() {
        let mut s = sys(1);
        s.write_initial(A, 11);
        s.tick(0);
        // Prefetch at cycle 0 (completes at 100), demand read at cycle 40.
        let pf = s.issue_prefetch(0, A, false);
        let PrefetchResult::Issued { txn } = pf else {
            panic!("expected issue, got {pf:?}");
        };
        for c in 1..=40 {
            s.tick(c);
        }
        let r = s.issue_demand_read(0, A);
        let IssueResult::Merged { txn: t2, token } = r else {
            panic!("expected merge, got {r:?}");
        };
        assert_eq!(t2, txn);
        let (cycle, _) = run_until_event(&mut s, 0, 200);
        assert_eq!(cycle, 100, "merged demand completes with the prefetch");
        assert_eq!(s.take_bound_value(token), Some(11));
        assert_eq!(s.stats().prefetches_useful, 1);
        assert_eq!(s.stats().demand_merges, 1);
    }

    #[test]
    fn write_merges_into_exclusive_prefetch() {
        let mut s = sys(1);
        s.tick(0);
        let PrefetchResult::Issued { txn } = s.issue_prefetch(0, A, true) else {
            panic!()
        };
        s.tick(1);
        let r = s.issue_demand_write(0, A, None, 9);
        assert!(matches!(r, IssueResult::Merged { txn: t, .. } if t == txn));
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(s.read_coherent(A), 9);
    }

    #[test]
    fn prefetch_discarded_when_line_present() {
        let mut s = sys(1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(
            s.issue_prefetch(0, A, false),
            PrefetchResult::AlreadyPresent
        );
        let _ = s.issue_prefetch(0, B, false);
        assert_eq!(
            s.issue_prefetch(0, B, false),
            PrefetchResult::AlreadyPending
        );
    }

    #[test]
    fn exclusive_prefetch_upgrades_shared_line() {
        let mut s = sys(1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A); // brings A shared
        let _ = run_until_event(&mut s, 0, 200);
        let r = s.issue_prefetch(0, A, true);
        assert!(
            matches!(r, PrefetchResult::Issued { .. }),
            "upgrade prefetch: {r:?}"
        );
        let (_, ev) = run_until_event(&mut s, 0, 300);
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
    }

    #[test]
    fn write_invalidates_remote_sharer() {
        let mut s = sys(2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(1, A); // proc 1 caches A shared
        let _ = run_until_event(&mut s, 1, 200);
        // Proc 0 writes A: needs exclusivity, must invalidate proc 1.
        let _ = s.issue_demand_write(0, A, None, 9);
        let (cycle, ev) = run_until_event(&mut s, 0, 400);
        // Extra invalidation round trip: 198 total after issue at 100.
        assert_eq!(cycle, 100 + 198);
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
        // Proc 1 saw the invalidation strictly before the grant.
        let ev1 = s.events(1);
        assert_eq!(ev1, vec![MemEvent::Invalidated { line: s.line_of(A) }]);
        assert_eq!(s.read_coherent(A), 9);
    }

    #[test]
    fn read_of_remote_dirty_line_flushes_owner() {
        let mut s = sys(2);
        s.tick(0);
        let _ = s.issue_demand_write(0, A, None, 77);
        let _ = run_until_event(&mut s, 0, 200);
        // Proc 1 reads A: dirty at proc 0 → flush.
        let t0 = s.now();
        let IssueResult::Miss { token, .. } = s.issue_demand_read(1, A) else {
            panic!()
        };
        let (cycle, ev) = run_until_event(&mut s, 1, 400);
        assert_eq!(
            cycle - t0,
            198,
            "remote dirty miss costs an extra round trip"
        );
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: false,
                ..
            }
        ));
        assert_eq!(s.take_bound_value(token), Some(77), "flushed data visible");
        // Owner was downgraded and notified.
        let ev0 = s.events(0);
        assert_eq!(ev0, vec![MemEvent::Invalidated { line: s.line_of(A) }]);
        assert_eq!(s.caches[0].state(s.line_of(A)), Some(LineState::Shared));
        assert_eq!(s.stats().flushes, 1);
    }

    #[test]
    fn upgrade_from_shared() {
        let mut s = sys(2);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        let _ = run_until_event(&mut s, 0, 200);
        let t0 = s.now();
        let r = s.issue_demand_write(0, A, None, 1);
        assert!(
            matches!(r, IssueResult::Miss { .. }),
            "upgrade is a transaction"
        );
        let (cycle, ev) = run_until_event(&mut s, 0, 300);
        assert_eq!(
            cycle - t0,
            100,
            "uncontended upgrade costs a clean round trip"
        );
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
        assert_eq!(s.read_coherent(A), 1);
    }

    #[test]
    fn write_to_line_with_shared_fill_in_flight_waits() {
        let mut s = sys(1);
        s.tick(0);
        let IssueResult::Miss { txn, .. } = s.issue_demand_read(0, A) else {
            panic!()
        };
        let r = s.issue_demand_write(0, A, None, 1);
        assert_eq!(r, IssueResult::WaitForFill { txn });
    }

    #[test]
    fn mshr_exhaustion_reported() {
        let mut cfg = MemConfig::paper();
        cfg.mshrs = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        assert_eq!(s.issue_demand_read(0, B), IssueResult::NoMshr);
        assert_eq!(s.issue_prefetch(0, B, false), PrefetchResult::NoResource);
    }

    #[test]
    fn set_conflict_reported() {
        let mut cfg = MemConfig::paper();
        cfg.cache.sets = 1;
        cfg.cache.ways = 2;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        let _ = s.issue_demand_read(0, Addr(0));
        let _ = s.issue_demand_read(0, Addr(64));
        assert_eq!(s.issue_demand_read(0, Addr(128)), IssueResult::SetFull);
    }

    #[test]
    fn eviction_notifies_and_writes_back() {
        let mut cfg = MemConfig::paper();
        cfg.cache.sets = 1;
        cfg.cache.ways = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        let _ = s.issue_demand_write(0, Addr(0), None, 42);
        let _ = run_until_event(&mut s, 0, 200);
        // Next fill evicts the dirty line; memory must see 42.
        let _ = s.issue_demand_read(0, Addr(64));
        let (_, ev) = run_until_event(&mut s, 0, 300);
        assert!(ev.contains(&MemEvent::Replaced { line: LineAddr(0) }));
        assert_eq!(s.read_coherent(Addr(0)), 42);
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn update_protocol_write_refreshes_sharers() {
        let mut cfg = MemConfig::paper();
        cfg.protocol = Protocol::Update;
        let mut s = MemorySystem::new(cfg, 2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 1, 200);
        let t0 = s.now();
        let r = s.issue_demand_write(0, A, None, 9);
        assert!(matches!(r, IssueResult::Miss { .. }));
        let (cycle, _) = run_until_event(&mut s, 0, 400);
        assert_eq!(cycle - t0, 198, "update write waits for remote acks");
        // Sharer's copy was refreshed in place, not invalidated.
        let ev1 = s.events(1);
        assert_eq!(
            ev1,
            vec![MemEvent::Updated {
                line: s.line_of(A),
                addr: A,
                value: 9
            }]
        );
        assert_eq!(s.read_word(1, A), Ok(9));
        assert_eq!(s.read_coherent(A), 9);
    }

    #[test]
    fn update_protocol_rejects_exclusive_prefetch() {
        let mut cfg = MemConfig::paper();
        cfg.protocol = Protocol::Update;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        assert_eq!(s.issue_prefetch(0, A, true), PrefetchResult::Unsupported);
        assert!(matches!(
            s.issue_prefetch(0, A, false),
            PrefetchResult::Issued { .. }
        ));
    }

    #[test]
    fn update_protocol_rmw_returns_old_value() {
        let mut cfg = MemConfig::paper();
        cfg.protocol = Protocol::Update;
        let mut s = MemorySystem::new(cfg, 1);
        s.write_initial(A, 0);
        s.tick(0);
        let IssueResult::Miss { token, .. } =
            s.issue_demand_write(0, A, Some(RmwKind::TestAndSet), 0)
        else {
            panic!()
        };
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(s.take_bound_value(token), Some(0));
        assert_eq!(s.read_coherent(A), 1);
    }

    #[test]
    fn update_protocol_writer_copy_takes_the_directory_order() {
        // Both processors share A under the update protocol. P1's write
        // reaches the directory first, so P0's is serialized last and its
        // value is the coherent one. P0's own copy must end with it even
        // though P1's update lands at P0 after P0 issued its write.
        let mut cfg = MemConfig::paper();
        cfg.protocol = Protocol::Update;
        let mut s = MemorySystem::new(cfg, 2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 0, 200);
        let _ = run_until_event(&mut s, 1, 200);
        let t0 = s.now() + 1;
        s.tick(t0);
        assert!(matches!(
            s.issue_demand_write(1, A, None, 20),
            IssueResult::Miss { .. }
        ));
        s.tick(t0 + 1);
        assert!(matches!(
            s.issue_demand_write(0, A, None, 10),
            IssueResult::Miss { .. }
        ));
        let mut done = 0;
        for c in t0 + 2..t0 + 900 {
            s.tick(c);
            for p in 0..2 {
                done += s
                    .events(p)
                    .iter()
                    .filter(|e| matches!(e, MemEvent::Done { .. }))
                    .count();
            }
        }
        assert_eq!(done, 2, "both writes completed");
        assert_eq!(s.read_coherent(A), 10, "P0's write was serialized last");
        for p in 0..2 {
            assert_eq!(
                s.read_word(p, A),
                Ok(s.read_coherent(A)),
                "proc {p}'s copy disagrees with the directory's order"
            );
        }
    }

    #[test]
    fn refused_transactions_allocate_no_txn_id() {
        // Every refusal leaves the id counter alone: the next successful
        // transaction gets the id it would have had without them.
        let next_txn = |r: IssueResult| match r {
            IssueResult::Miss { txn, .. } => txn,
            other => panic!("expected a miss, got {other:?}"),
        };
        // NoMshr, for demands and prefetches alike.
        let mut cfg = MemConfig::paper();
        cfg.mshrs = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        assert_eq!(next_txn(s.issue_demand_read(0, A)), TxnId(1));
        assert_eq!(s.issue_demand_read(0, B), IssueResult::NoMshr);
        assert_eq!(s.issue_demand_write(0, B, None, 1), IssueResult::NoMshr);
        assert_eq!(s.issue_prefetch(0, B, true), PrefetchResult::NoResource);
        // WaitForFill: a write behind the shared fill in flight.
        assert_eq!(
            s.issue_demand_write(0, A, None, 1),
            IssueResult::WaitForFill { txn: TxnId(1) }
        );
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(next_txn(s.issue_demand_read(0, B)), TxnId(2));

        // SetFull: the only way is reserved for the fill in flight.
        let mut cfg = MemConfig::paper();
        cfg.cache.sets = 1;
        cfg.cache.ways = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        assert_eq!(next_txn(s.issue_demand_read(0, Addr(0))), TxnId(1));
        assert_eq!(s.issue_demand_read(0, Addr(64)), IssueResult::SetFull);
        assert_eq!(
            s.issue_demand_write(0, Addr(64), Some(RmwKind::TestAndSet), 0),
            IssueResult::SetFull
        );
        assert_eq!(
            s.issue_prefetch(0, Addr(64), false),
            PrefetchResult::NoResource
        );
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(next_txn(s.issue_demand_read(0, Addr(64))), TxnId(2));

        // The update protocol's write path: WaitForFill and NoMshr.
        let mut cfg = MemConfig::paper();
        cfg.protocol = Protocol::Update;
        cfg.mshrs = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        assert_eq!(next_txn(s.issue_demand_write(0, A, None, 1)), TxnId(1));
        assert_eq!(
            s.issue_demand_write(0, A, None, 2),
            IssueResult::WaitForFill { txn: TxnId(1) }
        );
        assert_eq!(s.issue_demand_write(0, B, None, 2), IssueResult::NoMshr);
        assert_eq!(s.issue_prefetch(0, B, false), PrefetchResult::NoResource);
        let _ = run_until_event(&mut s, 0, 200);
        assert_eq!(next_txn(s.issue_demand_write(0, B, None, 2)), TxnId(2));
    }

    #[test]
    fn upgrade_raced_by_invalidation_still_gets_data() {
        let mut s = sys(2);
        s.write_initial(A, 3);
        s.tick(0);
        // Both procs cache A shared.
        let _ = s.issue_demand_read(0, A);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 0, 200);
        let _ = run_until_event(&mut s, 1, 200);
        // Both try to upgrade in the same cycle; one is serviced first,
        // invalidating the other's copy while its upgrade is in flight;
        // the loser must receive a full data fill (with the winner's
        // value flushed through) and apply its own store on top.
        let r0 = s.issue_demand_write(0, A, None, 10);
        let r1 = s.issue_demand_write(1, A, None, 20);
        assert!(matches!(r0, IssueResult::Miss { .. }));
        assert!(matches!(r1, IssueResult::Miss { .. }));
        let mut grants = Vec::new();
        for c in s.now() + 1..s.now() + 900 {
            s.tick(c);
            for p in 0..2 {
                for e in s.events(p) {
                    if matches!(
                        e,
                        MemEvent::Done {
                            exclusive: true,
                            ..
                        }
                    ) {
                        grants.push((c, p));
                    }
                }
            }
        }
        assert_eq!(grants.len(), 2, "both writes eventually granted");
        assert!(grants[1].0 > grants[0].0, "grants strictly ordered");
        // The final value is the last writer's.
        let winner_value = if grants[1].1 == 0 { 10 } else { 20 };
        assert_eq!(s.read_coherent(A), winner_value);
    }

    #[test]
    fn two_misses_pipeline_one_cycle_apart() {
        let mut s = sys(1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        s.tick(1);
        let _ = s.issue_demand_read(0, B);
        let mut done_cycles = Vec::new();
        for c in 2..=200 {
            s.tick(c);
            for e in s.events(0) {
                if matches!(e, MemEvent::Done { .. }) {
                    done_cycles.push(c);
                }
            }
        }
        assert_eq!(done_cycles, vec![100, 101], "lockup-free pipelining");
    }

    #[test]
    fn contended_line_serializes_at_directory() {
        let mut s = sys(2);
        s.tick(0);
        // Both processors write-miss the same line in the same cycle.
        let _ = s.issue_demand_write(0, A, None, 1);
        let _ = s.issue_demand_write(1, A, None, 2);
        let mut grants = Vec::new();
        for c in 1..=800 {
            s.tick(c);
            for p in 0..2 {
                for e in s.events(p) {
                    if matches!(
                        e,
                        MemEvent::Done {
                            exclusive: true,
                            ..
                        }
                    ) {
                        grants.push((c, p));
                    }
                }
            }
        }
        assert_eq!(grants.len(), 2);
        assert!(
            grants[1].0 > grants[0].0,
            "second grant strictly after the first: {grants:?}"
        );
        // The last writer's value wins (stores applied at grant).
        let last = grants[1].1 as u64 + 1;
        assert_eq!(s.read_coherent(A), last);
    }

    #[test]
    fn early_grant_skips_invalidation_round_trip() {
        // Adve-Hill mode (§6): the write is granted without waiting for
        // the sharer acks; the invalidations still go out.
        let mut cfg = MemConfig::paper();
        cfg.early_grant_writes = true;
        let mut s = MemorySystem::new(cfg, 2);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 1, 200);
        let t0 = s.now();
        let _ = s.issue_demand_write(0, A, None, 9);
        let (cycle, ev) = run_until_event(&mut s, 0, 400);
        assert_eq!(
            cycle - t0,
            100,
            "grant at clean-miss latency despite sharers"
        );
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
        // The sharer is still invalidated (later).
        let (_, ev1) = run_until_event(&mut s, 1, 400);
        assert!(matches!(ev1[0], MemEvent::Invalidated { .. }));
    }

    #[test]
    fn snapshot_reflects_exclusive_cached_values() {
        let mut s = sys(1);
        s.tick(0);
        let _ = s.issue_demand_write(0, A, None, 5);
        let _ = run_until_event(&mut s, 0, 200);
        // The dirty value lives only in the cache; the snapshot must
        // still see it.
        let snap = s.snapshot_coherent();
        assert_eq!(snap.get(&A.0).copied(), Some(5));
    }

    #[test]
    fn pinned_upgrade_line_survives_set_pressure() {
        // One set, one way: the line being upgraded must not be
        // victimized while its transaction is in flight; the conflicting
        // access reports SetFull instead.
        let mut cfg = MemConfig::paper();
        cfg.cache.sets = 1;
        cfg.cache.ways = 1;
        let mut s = MemorySystem::new(cfg, 1);
        s.tick(0);
        let _ = s.issue_demand_read(0, Addr(0));
        let _ = run_until_event(&mut s, 0, 200);
        // Upgrade in flight pins the line.
        let r = s.issue_demand_write(0, Addr(0), None, 1);
        assert!(matches!(r, IssueResult::Miss { .. }));
        assert_eq!(s.issue_demand_read(0, Addr(64)), IssueResult::SetFull);
        let (_, ev) = run_until_event(&mut s, 0, 300);
        assert!(matches!(
            ev[0],
            MemEvent::Done {
                exclusive: true,
                ..
            }
        ));
        assert_eq!(s.read_coherent(Addr(0)), 1);
        // After the fill the pin is released and the conflicting read can
        // evict it.
        let r = s.issue_demand_read(0, Addr(64));
        assert!(matches!(r, IssueResult::Miss { .. }));
    }

    #[test]
    fn flush_after_replacement_falls_back_to_memory() {
        // Owner writes a line, evicts it (synchronous writeback), and a
        // remote read whose flush was already in flight must still get
        // the current data from memory.
        let mut cfg = MemConfig::paper();
        cfg.cache.sets = 1;
        cfg.cache.ways = 1;
        let mut s = MemorySystem::new(cfg, 2);
        s.tick(0);
        let _ = s.issue_demand_write(0, A, None, 77);
        let _ = run_until_event(&mut s, 0, 200);
        // Proc 1 reads A (flush heads toward proc 0)...
        let IssueResult::Miss { token, .. } = s.issue_demand_read(1, A) else {
            panic!()
        };
        // ...while proc 0 evicts A before the flush lands.
        for c in s.now() + 1..s.now() + 30 {
            s.tick(c);
        }
        let _ = s.issue_demand_read(0, B); // evicts A (1 set x 1 way)
        let (_, ev1) = run_until_event(&mut s, 1, 500);
        assert!(matches!(ev1[0], MemEvent::Done { .. }));
        assert_eq!(s.take_bound_value(token), Some(77), "memory copy current");
    }

    #[test]
    fn preload_rejects_conflicts() {
        let mut s = sys(2);
        s.preload(0, A, true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s2 = sys(2);
            s2.preload(0, A, true);
            s2.preload(1, A, false); // conflicts with exclusive owner
        }));
        assert!(r.is_err(), "conflicting preload must panic");
        let _ = s;
    }

    /// Ticks until `check_invariants` first fails, returning the cycle and
    /// the error, or panics after `limit` clean cycles.
    fn run_until_violation(s: &mut MemorySystem, limit: u64) -> (u64, SimError) {
        let start = s.now();
        for c in start..=start + limit {
            s.tick(c);
            if let Err(e) = s.check_invariants() {
                return (c, e);
            }
        }
        panic!("no invariant violation within {limit} cycles");
    }

    #[test]
    fn clean_runs_satisfy_invariants_every_cycle() {
        let mut s = sys(2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = s.issue_demand_write(0, B, None, 5);
        for c in 1..=400 {
            s.tick(c);
            let _ = s.events(0);
            let _ = s.events(1);
            s.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
        }
        // Contended upgrade race, checked every cycle.
        let _ = s.issue_demand_write(0, A, None, 10);
        let _ = s.issue_demand_write(1, A, None, 20);
        for c in 401..=1200 {
            s.tick(c);
            let _ = s.events(0);
            let _ = s.events(1);
            s.check_invariants()
                .unwrap_or_else(|e| panic!("cycle {c}: {e}"));
        }
        assert!(s.take_fault().is_none());
    }

    #[test]
    fn dropped_invalidation_caught_when_writer_fill_lands() {
        // Proc 1 caches A shared; proc 0 then writes A. The invalidation
        // to proc 1 is dropped, so when proc 0's exclusive fill lands at
        // the usual 198-cycle contended latency, two copies coexist.
        let mut s = sys(2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 1, 200);
        s.arm_fault(FaultKind::DropInvalidation { nth: 1 });
        let t0 = s.now();
        let _ = s.issue_demand_write(0, A, None, 9);
        let (cycle, err) = run_until_violation(&mut s, 400);
        assert_eq!(
            cycle - t0,
            198,
            "first violation exactly when the tainted grant lands"
        );
        assert_eq!(
            err.violated_invariant(),
            Some(InvariantKind::SwmrExclusiveWithCopies)
        );
        assert_eq!(err.cycle, cycle);
        assert_eq!(err.line, Some(s.line_of(A).0));
        assert!(s.fault_fired());
        // The stale copy is observable: proc 1 still reads the old value.
        assert_eq!(s.read_word(1, A), Ok(1));
    }

    #[test]
    fn corrupted_line_state_caught_at_fill_delivery() {
        // Proc 1 holds A shared; proc 0's shared fill is corrupted into an
        // exclusive grant. At delivery (100 cycles after issue) proc 0
        // believes it owns a line proc 1 still shares.
        let mut s = sys(2);
        s.write_initial(A, 1);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 1, 200);
        s.arm_fault(FaultKind::CorruptLineState { nth: 1 });
        let t0 = s.now();
        let _ = s.issue_demand_read(0, A);
        let (cycle, err) = run_until_violation(&mut s, 400);
        assert_eq!(cycle - t0, 100, "violation the cycle the fill delivers");
        assert_eq!(
            err.violated_invariant(),
            Some(InvariantKind::SwmrExclusiveWithCopies)
        );
        assert_eq!(err.proc, Some(0));
    }

    #[test]
    fn stuck_mshr_leaves_network_silent_with_entry_outstanding() {
        // The dropped fill freezes the transaction: no invariant is
        // violated (the reservation stays coherent), but the network goes
        // silent with an MSHR outstanding — the watchdog's signature.
        let mut s = sys(1);
        s.tick(0);
        s.arm_fault(FaultKind::StuckMshr { nth: 1 });
        let IssueResult::Miss { token, .. } = s.issue_demand_read(0, A) else {
            panic!()
        };
        for c in 1..=400 {
            s.tick(c);
            s.check_invariants().unwrap();
            assert!(s.events(0).is_empty(), "fill must never arrive");
        }
        assert!(s.fault_fired());
        assert_eq!(s.in_flight(), 0, "network silent");
        assert!(
            matches!(s.probe(0, s.line_of(A)), ProbeResult::Pending { .. }),
            "MSHR still open"
        );
        assert_eq!(s.take_bound_value(token), None);
    }

    #[test]
    fn fill_without_mshr_reports_structured_fault() {
        // Drive the private deliver path via a corrupted completion: a
        // second fill for an already-completed line.
        let mut s = sys(1);
        s.tick(0);
        let _ = s.issue_demand_read(0, A);
        let _ = run_until_event(&mut s, 0, 200);
        assert!(s.take_fault().is_none());
        s.deliver(
            0,
            ProcMsg::Fill {
                txn: TxnId(999),
                line: s.line_of(A),
                exclusive: false,
                data: None,
            },
        );
        let err = s.take_fault().expect("fault recorded");
        assert!(err.to_string().contains("without an outstanding MSHR"));
        assert_eq!(err.proc, Some(0));
        assert!(s.take_fault().is_none(), "fault is taken once");
    }

    #[test]
    fn activity_counter_is_monotone_and_settles() {
        let mut s = sys(1);
        s.tick(0);
        let a0 = s.activity();
        let _ = s.issue_demand_read(0, A);
        assert!(s.activity() > a0, "issue counted as activity");
        let _ = run_until_event(&mut s, 0, 200);
        let a1 = s.activity();
        let quiet_from = s.now() + 1;
        for c in quiet_from..quiet_from + 50 {
            s.tick(c);
        }
        assert_eq!(s.activity(), a1, "idle ticks add no activity");
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn invalidation_strictly_precedes_new_owner_grant() {
        // The property the speculative-load buffer relies on: when another
        // processor's write performs, every cache that held the line has
        // already seen the invalidation.
        let mut s = sys(2);
        s.tick(0);
        let _ = s.issue_demand_read(1, A);
        let _ = run_until_event(&mut s, 1, 200);
        let _ = s.issue_demand_write(0, A, None, 9);
        let mut inval_at = None;
        let mut grant_at = None;
        for c in s.now() + 1..s.now() + 400 {
            s.tick(c);
            for e in s.events(1) {
                if matches!(e, MemEvent::Invalidated { .. }) {
                    inval_at = Some(c);
                }
            }
            for e in s.events(0) {
                if matches!(
                    e,
                    MemEvent::Done {
                        exclusive: true,
                        ..
                    }
                ) {
                    grant_at = Some(c);
                }
            }
        }
        assert!(
            inval_at.unwrap() < grant_at.unwrap(),
            "invalidation ({inval_at:?}) must precede grant ({grant_at:?})"
        );
    }
}

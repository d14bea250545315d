//! The multiprocessor machine and its configuration.

use crate::event::EventQueue;
use crate::report::RunReport;
use mcsim_consistency::Model;
use mcsim_guard::{GuardConfig, SimError, StallReport};
use mcsim_isa::{Addr, Program};
use mcsim_mem::{MemConfig, MemorySystem};
use mcsim_proc::{ProcConfig, Processor, Techniques};
use mcsim_trace::{merge_traces, DEFAULT_CAPACITY};
use serde::{Deserialize, Serialize};

/// Everything needed to build a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Consistency model every core enforces.
    pub model: Model,
    /// The paper's technique switches (applied to every core).
    pub techniques: Techniques,
    /// Core microarchitecture (its `techniques` field is overridden by
    /// [`MachineConfig::techniques`] at build time).
    pub proc: ProcConfig,
    /// Memory-system parameters.
    pub mem: MemConfig,
    /// Safety bound: the run aborts (with `timed_out` set in the report)
    /// after this many cycles.
    pub max_cycles: u64,
    /// Record per-core event traces (Figure 5 style).
    pub trace: bool,
    /// Runtime-verification settings: invariant-check cadence, the
    /// forward-progress watchdog, and fault injection.
    pub guard: GuardConfig,
}

impl MachineConfig {
    /// The paper's calibration: ideal frontend, 1-cycle hits, 100-cycle
    /// clean misses, invalidation protocol, SC with both techniques off.
    #[must_use]
    pub fn paper() -> Self {
        MachineConfig {
            model: Model::Sc,
            techniques: Techniques::NONE,
            proc: ProcConfig::paper(Techniques::NONE),
            mem: MemConfig::paper(),
            max_cycles: 2_000_000,
            trace: false,
            guard: GuardConfig::default(),
        }
    }

    /// Paper calibration with a chosen model and techniques.
    #[must_use]
    pub fn paper_with(model: Model, techniques: Techniques) -> Self {
        MachineConfig {
            model,
            techniques,
            proc: ProcConfig::paper(techniques),
            ..Self::paper()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

/// Wall-clock-side telemetry of one run: how many cycles were actually
/// stepped versus fast-forwarded. Kept out of [`RunReport`] (and never
/// serialized into sweep result artifacts) because it describes *how*
/// the simulation ran, not *what* it computed — the report itself is
/// bit-identical whichever way the cycles were covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Cycles simulated by a full machine step.
    pub stepped_cycles: u64,
    /// Cycles covered by discrete-event jumps.
    pub skipped_cycles: u64,
    /// Number of contiguous jumped spans.
    pub spans: u64,
}

impl RunTelemetry {
    /// Simulated-cycles per stepped-cycle — the fast-forward speedup
    /// expressed machine-independently (1.0 when nothing was skipped).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if self.stepped_cycles == 0 {
            1.0
        } else {
            total as f64 / self.stepped_cycles as f64
        }
    }
}

/// Which scheduler drives [`Machine::run`]. The produced [`RunReport`]
/// (and trace stream) is byte-identical under either engine; only
/// wall-clock time differs — pinned by the engine-differential tests in
/// `tests/fast_forward.rs` and the E6 CI `cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Discrete-event scheduling (the default): components publish every
    /// wake-up cycle into an [`EventQueue`] as they create the event, and
    /// whenever a stepped cycle mutates nothing the machine jumps straight
    /// to the earliest queued wake-up. Cost scales with events, not
    /// cycles.
    #[default]
    Event,
    /// The per-cycle loop (`--legacy-step`): the same step as
    /// [`Engine::Event`], taken at every cycle, never jumping. Kept as the
    /// differential oracle for the jump and its replay (skipped-cycle
    /// accounting, the invariant cadence, watchdog edges).
    LegacyStep,
}

/// A shared-memory multiprocessor: one program per processor.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    procs: Vec<Processor>,
    cycle: u64,
    /// Scheduling engine (event-driven by default). A runtime switch —
    /// deliberately not part of [`MachineConfig`], whose serialized form
    /// is embedded in sweep artifacts that must not change — because it
    /// alters only wall-clock time, never the report.
    engine: Engine,
    /// The wake-up calendar feeding the event engine's jumps.
    events: EventQueue,
}

impl Machine {
    /// Builds a machine with one core per program.
    ///
    /// # Panics
    /// If `programs` is empty or a configuration is invalid.
    #[must_use]
    pub fn new(cfg: MachineConfig, programs: Vec<Program>) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        let mut mem = MemorySystem::new(cfg.mem, programs.len());
        if let Some(kind) = cfg.guard.fault {
            mem.arm_fault(kind);
        }
        if cfg.trace {
            mem.enable_trace(DEFAULT_CAPACITY);
        }
        let mut proc_cfg = cfg.proc;
        proc_cfg.techniques = cfg.techniques;
        let procs = programs
            .into_iter()
            .enumerate()
            .map(|(i, prog)| {
                let mut p = Processor::new(i, proc_cfg, cfg.model, prog);
                if cfg.trace {
                    p.enable_trace(DEFAULT_CAPACITY);
                }
                p
            })
            .collect();
        Machine {
            cfg,
            mem,
            procs,
            cycle: 0,
            engine: Engine::default(),
            events: EventQueue::new(),
        }
    }

    /// Selects the scheduling engine (see [`Engine`]). The produced
    /// [`RunReport`] is bit-identical either way; only wall-clock time
    /// differs.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Test hook (execute-queue regression): core `proc` leaves the next
    /// operand-ready ALU/branch it fetches out of its pending-execute
    /// queue. The `ExecQueueComplete` invariant must catch it.
    #[doc(hidden)]
    pub fn drop_next_enqueue_for_test(&mut self, proc: usize) {
        self.procs[proc].drop_next_enqueue_for_test();
    }

    /// Test hook (stale-horizon regression): publishes a wake-up exactly
    /// as a buggy component reporting an already-elapsed cycle would,
    /// bypassing the queue's past-cycle debug assertion. The engine must
    /// clamp it — never spin on a zero-length jump.
    #[doc(hidden)]
    pub fn inject_wakeup_for_test(&mut self, at: u64) {
        self.events.schedule_lenient(at);
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of processors.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Writes the initial memory image (call before running).
    pub fn write_memory(&mut self, addr: impl Into<Addr>, value: u64) {
        self.mem.write_initial(addr.into(), value);
    }

    /// Pre-warms a processor's cache with a line (the paper's examples
    /// assume, e.g., `read D (hit)`).
    pub fn preload_cache(&mut self, proc: usize, addr: impl Into<Addr>, exclusive: bool) {
        self.mem.preload(proc, addr.into(), exclusive);
    }

    /// The coherent value of an address right now.
    #[must_use]
    pub fn read_memory(&self, addr: impl Into<Addr>) -> u64 {
        self.mem.read_coherent(addr.into())
    }

    /// Access to a core (for inspecting registers/stats mid-run).
    #[must_use]
    pub fn proc(&self, i: usize) -> &Processor {
        &self.procs[i]
    }

    /// The memory system (for inspecting stats mid-run).
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances one cycle and collects every component's progress verdict
    /// and published wake-ups. Under [`Engine::Event`] the wake-ups feed
    /// the calendar queue; under [`Engine::LegacyStep`] they are
    /// discarded, since a queue that is never popped would only grow.
    /// Returns `(all cores halted, anything progressed)`.
    fn step(&mut self) -> (bool, bool) {
        self.mem.tick(self.cycle);
        let mut all_halted = true;
        for p in &mut self.procs {
            p.tick(self.cycle, &mut self.mem);
            all_halted &= p.halted();
        }
        self.cycle += 1;
        let mut progress = self.mem.take_progress();
        let event_engine = self.engine == Engine::Event;
        let events = &mut self.events;
        let mut publish = |at| {
            if event_engine {
                events.schedule(at);
            }
        };
        self.mem.drain_wakeups(&mut publish);
        for p in &mut self.procs {
            progress |= p.take_progress();
            p.drain_wakeups(&mut publish);
        }
        (all_halted, progress)
    }

    /// Takes the first structured fault recorded anywhere in the machine
    /// (memory system first, then cores in index order).
    pub fn poll_fault(&mut self) -> Option<SimError> {
        if let Some(e) = self.mem.take_fault() {
            return Some(e);
        }
        self.procs.iter_mut().find_map(Processor::take_fault)
    }

    /// Runs the full invariant catalog once: coherence/directory/MSHR
    /// agreement in the memory system, then each core's buffer ordering.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        self.mem.check_invariants()?;
        for p in &self.procs {
            p.check_invariants(self.cycle)?;
        }
        Ok(())
    }

    /// Runs to completion (or `max_cycles`) and produces the report.
    ///
    /// Structured failures — a protocol-contract fault, an invariant
    /// violation, or the forward-progress watchdog firing — stop the run
    /// and land in [`RunReport::failure`] instead of unwinding.
    #[must_use]
    pub fn run(self) -> RunReport {
        self.run_telemetry().0
    }

    /// Like [`Self::run`], but also reports how the cycles were covered
    /// (stepped vs. fast-forwarded).
    #[must_use]
    pub fn run_telemetry(mut self) -> (RunReport, RunTelemetry) {
        let every_cycle = cfg!(any(feature = "strict-invariants", debug_assertions));
        let period = self.cfg.guard.effective_period(every_cycle);
        let mut watchdog = Watchdog::new(self.cfg.guard.watchdog_window, &self.procs);
        let mut telemetry = RunTelemetry::default();
        let mut timed_out = true;
        let mut failure = None;
        while self.cycle < self.cfg.max_cycles {
            let (halted, progress) = self.step();
            if halted {
                telemetry.stepped_cycles += 1;
                timed_out = false;
                // Final-state audit: a fault or violation landing on the
                // very cycle the last core halts (e.g. a tainted grant
                // arriving as the writer retires) must not pass as a
                // clean run, whatever the checking cadence.
                failure = self
                    .poll_fault()
                    .or_else(|| period.and_then(|_| self.check_invariants().err()));
                break;
            }
            telemetry.stepped_cycles += 1;
            if let Some(e) = self.poll_fault() {
                failure = Some(e);
                timed_out = false;
                break;
            }
            if period.is_some_and(|n| self.cycle.is_multiple_of(n)) {
                if let Err(e) = self.check_invariants() {
                    failure = Some(e);
                    timed_out = false;
                    break;
                }
            }
            if let Some((edge, report)) = watchdog.observe_up_to(self.cycle, &self.procs, &self.mem)
            {
                failure = Some(SimError::no_progress(edge, report));
                timed_out = false;
                break;
            }
            if self.engine == Engine::Event && !progress {
                if let Err(e) = self.jump(period, &mut watchdog, &mut telemetry) {
                    failure = Some(e);
                    timed_out = false;
                    break;
                }
            }
        }
        (self.into_report(timed_out, failure), telemetry)
    }

    /// Jumps from the current (frozen) cycle to the earliest queued
    /// wake-up, replaying everything the skipped per-cycle iterations
    /// would have done: per-cause breakdown accounting, the
    /// invariant-check cadence, and watchdog window edges — in their
    /// exact per-cycle order, so the resulting report (success or
    /// failure) is bit-identical to stepping.
    ///
    /// The last stepped cycle mutated nothing, and every cycle at which a
    /// component can act on its own is published at event-creation time
    /// (memory deliveries and core wake-ups alike), so the machine's
    /// state is frozen strictly before the jump target. Stale queue
    /// entries (a squashed ALU's finish cycle) only shorten the jump —
    /// stepping a frozen cycle is byte-identical to skipping it. What
    /// makes the replay exact:
    /// - every skipped cycle classifies into the same breakdown bucket as
    ///   the quiescent cycle that opened the span;
    /// - the first in-span invariant check's verdict holds for all later
    ///   multiples, so one check suffices;
    /// - no new fault can be recorded (faults are set only by mutations),
    ///   so per-cycle fault polling needs no replay;
    /// - a watchdog edge samples exactly the values per-cycle sampling
    ///   would have seen.
    ///
    /// Per-cycle check order at an equal cycle is invariants before the
    /// watchdog, which the segmentation below preserves.
    fn jump(
        &mut self,
        period: Option<u64>,
        watchdog: &mut Watchdog,
        telemetry: &mut RunTelemetry,
    ) -> Result<(), SimError> {
        let max = self.cfg.max_cycles;
        let start = self.cycle;
        // The step at the popped cycle consumes the event; steps strictly
        // before it are frozen. Capping at `max_cycles` makes a timeout
        // span land exactly where per-cycle stepping would stop, with the
        // loop-body checks at `cycle == max_cycles` still replayed. An
        // empty queue means nothing is pending anywhere: a silent machine
        // can only deadlock (the watchdog replay below fires) or time out.
        let target = self.events.pop_at_or_after(start).unwrap_or(max).min(max);
        debug_assert!(target >= start, "wake-up queue returned a past cycle");
        if target <= start {
            // A wake-up at the very next unstepped cycle (or a stale
            // entry clamped to it): nothing to skip, step it normally.
            return Ok(());
        }
        telemetry.spans += 1;
        // Checks the skipped iterations would have run happen at cycle
        // values in (start, target]; the check at `start` already ran.
        let inv_at = period.and_then(|n| {
            let m = (start / n + 1).saturating_mul(n);
            (m <= target).then_some(m)
        });
        let mut accounted_to = start;
        let mut advance = |machine: &mut Machine, to: u64| {
            for p in &mut machine.procs {
                p.account_skipped(to - accounted_to);
            }
            telemetry.skipped_cycles += to - accounted_to;
            accounted_to = to;
            machine.cycle = to;
        };
        // Watchdog edges strictly before the invariant check's cycle.
        let pre_limit = inv_at.map_or(target, |m| m - 1);
        if let Some((edge, report)) = watchdog.observe_up_to(pre_limit, &self.procs, &self.mem) {
            advance(self, edge);
            return Err(SimError::no_progress(edge, report));
        }
        if let Some(m) = inv_at {
            advance(self, m);
            // Per-cycle mode reaches the check at cycle `m` with the
            // memory system last ticked at `m - 1`; error cycle stamps
            // must match. Ticking is side-effect-free here: no scheduled
            // event is due before the horizon and the directory queue is
            // drained (quiescent), so only its clock moves.
            let emitted_before = self.mem.trace_emitted();
            self.mem.tick(m - 1);
            // Jumped spans emit no trace events by construction — every
            // recording happens in a tick that also reports progress, so
            // an emitting cycle is stepped — and the in-span tick above
            // must not move the counter either, or traces would diverge
            // between the two engines.
            debug_assert_eq!(
                self.mem.trace_emitted(),
                emitted_before,
                "jumped span emitted trace events"
            );
            self.check_invariants()?;
        }
        if let Some((edge, report)) = watchdog.observe_up_to(target, &self.procs, &self.mem) {
            advance(self, edge);
            return Err(SimError::no_progress(edge, report));
        }
        advance(self, target);
        Ok(())
    }

    fn into_report(mut self, timed_out: bool, failure: Option<SimError>) -> RunReport {
        // A cut-off run has cores that never halted; their `halted_at` is
        // meaningless (zero), so report how far the machine actually got:
        // up to the first violation on failure, the full budget on
        // timeout.
        let cycles = if let Some(f) = &failure {
            f.cycle
        } else if timed_out {
            self.cycle
        } else {
            self.procs
                .iter()
                .map(|p| p.stats().halted_at)
                .max()
                .unwrap_or(0)
        };
        let per_proc: Vec<_> = self.procs.iter().map(|p| *p.stats()).collect();
        let mut total = mcsim_proc::ProcStats::default();
        for s in &per_proc {
            total.merge(s);
        }
        let regfiles = self.procs.iter().map(|p| p.regfile().clone()).collect();
        let trace_dropped =
            self.mem.trace_dropped() + self.procs.iter().map(Processor::trace_dropped).sum::<u64>();
        let trace = merge_traces(
            self.mem.take_trace(),
            self.procs.iter_mut().map(Processor::take_trace).collect(),
        );
        RunReport {
            cycles,
            timed_out,
            failure,
            per_proc,
            total,
            mem: *self.mem.stats(),
            regfiles,
            trace,
            trace_dropped,
            memory: self.mem.snapshot_coherent(),
        }
    }
}

/// The forward-progress watchdog: windowed sampling of retirement and
/// coherence activity. It fires only when a *full* window passes with no
/// instruction retired on any core, no memory-system activity of any
/// kind, and nothing in flight at the window edge — a state the machine
/// can never leave on its own. Long-but-progressing runs (e.g. a spin
/// loop, which retires its polling instructions) never trip it; they are
/// left to the plain `max_cycles` timeout.
#[derive(Debug)]
struct Watchdog {
    window: u64,
    /// The next cycle at which a window closes. Tracked explicitly (rather
    /// than testing `cycle % window == 0`) so that edges falling inside a
    /// fast-forwarded span are still sampled: callers report how far time
    /// has advanced and every edge up to that point is processed in order.
    next_edge: u64,
    committed: u64,
    activity: u64,
    /// Per-core fetch PCs at the last window edge (a moving frontend with
    /// no retirement is the livelock signature).
    pcs: Vec<u32>,
    /// Total speculation churn (rollbacks + reissues) at the last edge.
    churn: u64,
}

impl Watchdog {
    fn new(window: u64, procs: &[Processor]) -> Self {
        Watchdog {
            window,
            next_edge: window,
            committed: 0,
            activity: 0,
            pcs: procs.iter().map(Processor::fetch_pc).collect(),
            churn: 0,
        }
    }

    fn totals(procs: &[Processor]) -> (u64, u64) {
        let committed = procs.iter().map(|p| p.stats().committed).sum();
        let churn = procs
            .iter()
            .map(|p| p.stats().rollbacks + p.stats().reissues)
            .sum();
        (committed, churn)
    }

    /// Processes every window edge at or before `cycle`, in order; returns
    /// the first edge whose just-closed window was completely silent,
    /// along with its stall report. With one edge per call this is the
    /// classic per-cycle sampler; across a fast-forwarded span it replays
    /// each covered edge against the (frozen) machine state, which is
    /// exactly what per-cycle sampling would have observed.
    fn observe_up_to(
        &mut self,
        cycle: u64,
        procs: &[Processor],
        mem: &MemorySystem,
    ) -> Option<(u64, StallReport)> {
        if self.window == 0 {
            return None;
        }
        while self.next_edge <= cycle {
            let edge = self.next_edge;
            let (committed, churn) = Self::totals(procs);
            let activity = mem.activity();
            let pcs: Vec<u32> = procs.iter().map(Processor::fetch_pc).collect();
            let silent =
                committed == self.committed && activity == self.activity && mem.in_flight() == 0;
            let report = silent.then(|| {
                let frontend_moved = pcs != self.pcs;
                let speculation_churned = churn != self.churn;
                StallReport {
                    class: StallReport::classify(frontend_moved, speculation_churned),
                    window: self.window,
                    since_cycle: edge - self.window,
                    stalled: procs
                        .iter()
                        .filter(|p| !p.halted())
                        .map(Processor::stall_snapshot)
                        .collect(),
                }
            });
            self.committed = committed;
            self.activity = activity;
            self.pcs = pcs;
            self.churn = churn;
            self.next_edge += self.window;
            if let Some(report) = report {
                return Some((edge, report));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::reg::{R1, R2};
    use mcsim_isa::ProgramBuilder;

    #[test]
    fn two_processor_message_passing_eventually_delivers() {
        // P0: data = 42; flag = 1 (release).
        // P1: spin flag == 1 (acquire); read data.
        let p0 = ProgramBuilder::new("producer")
            .store(0x1000u64, 42u64)
            .store_release(0x2000u64, 1u64)
            .halt()
            .build()
            .unwrap();
        let p1 = ProgramBuilder::new("consumer")
            .spin_until(0x2000, 1, R1)
            .load(R2, 0x1000u64)
            .halt()
            .build()
            .unwrap();
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                let cfg = MachineConfig::paper_with(model, t);
                let report = Machine::new(cfg, vec![p0.clone(), p1.clone()]).run();
                assert!(!report.timed_out, "{model}/{t} timed out");
                assert_eq!(report.reg(1, R2), 42, "{model}/{t}: data must follow flag");
            }
        }
    }

    #[test]
    fn single_core_report_fields() {
        let prog = ProgramBuilder::new("t")
            .store(0x100u64, 5u64)
            .halt()
            .build()
            .unwrap();
        let report = Machine::new(MachineConfig::paper(), vec![prog]).run();
        assert!(!report.timed_out);
        assert_eq!(report.per_proc.len(), 1);
        assert!(report.cycles >= 100);
        assert_eq!(report.total.stores, 1);
    }

    #[test]
    fn timeout_reported() {
        // A genuine infinite spin: flag never set.
        let prog = ProgramBuilder::new("t")
            .spin_until(0x2000, 1, R1)
            .halt()
            .build()
            .unwrap();
        let mut cfg = MachineConfig::paper_with(Model::Rc, Techniques::BOTH);
        cfg.max_cycles = 5_000;
        let report = Machine::new(cfg, vec![prog]).run();
        assert!(report.timed_out);
        // Regression: a timed-out run used to report `cycles` from the
        // `halted_at` of cores that never halted (i.e. 0); it must report
        // how far the machine actually got.
        assert_eq!(report.cycles, 5_000);
        assert!(
            report.failure.is_none(),
            "a progressing spin is a plain timeout, not a watchdog failure"
        );
    }

    #[test]
    fn preload_makes_first_access_hit() {
        let prog = ProgramBuilder::new("t")
            .load(R1, 0x100u64)
            .halt()
            .build()
            .unwrap();
        let mut m = Machine::new(MachineConfig::paper(), vec![prog]);
        m.write_memory(0x100u64, 9);
        m.preload_cache(0, 0x100u64, false);
        let report = m.run();
        assert_eq!(report.reg(0, R1), 9);
        assert!(report.cycles < 10, "preloaded line hits: {}", report.cycles);
        assert_eq!(report.mem.demand_hits, 1);
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        // Both processors increment a counter under a lock; the final
        // value must be exactly 2 under every model/technique combination
        // (atomicity + mutual exclusion).
        let worker = |name: &str| {
            ProgramBuilder::new(name)
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
            for t in Techniques::ALL {
                let cfg = MachineConfig::paper_with(model, t);
                let mut m = Machine::new(cfg, vec![worker("w0"), worker("w1")]);
                m.write_memory(0x1000u64, 0);
                let report = m.run();
                assert!(!report.timed_out, "{model}/{t}");
                assert_eq!(
                    report.mem_word(0x1000),
                    2,
                    "{model}/{t}: lost update — mutual exclusion broken"
                );
                assert_eq!(report.mem_word(0x40), 0, "{model}/{t}: lock released");
            }
        }
    }
}

//! # mcsim-guard — runtime verification and failure diagnostics
//!
//! The simulator's correctness argument (coherence keeps prefetching
//! safe, the speculative-load buffer makes speculation recoverable) is a
//! set of *runtime-checkable invariants over an operational model*. This
//! crate is the vocabulary for checking them: a typed, serializable
//! [`SimError`] taxonomy that hot paths report instead of panicking, the
//! catalog of invariants the checker enforces ([`InvariantKind`]), the
//! forward-progress watchdog's structured verdict ([`StallReport`]), and
//! the deterministic fault-injection plan ([`FaultKind`]) used to
//! mutation-test the checker itself.
//!
//! The crate is deliberately leaf-level (data types only, no simulator
//! state): `mem`, `proc`, `core`, and `sweep` all depend on it, raise its
//! errors, and surface them unchanged in reports, CLI diagnostics, and
//! crash dumps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A processor index (mirrors `mcsim_mem::ProcId` without the dependency).
pub type ProcId = usize;

/// A power-of-two-bucketed latency histogram: bucket `i` counts samples
/// with `2^i <= latency < 2^(i+1)` (bucket 0 also takes latency 0 and 1,
/// so its reported lower bound is 0). Cheap, `Copy`, and good enough to
/// see the paper's effects — hit/miss bimodality, and how the techniques
/// move mass from the serialized tail into the overlapped head.
///
/// Lives in the guard crate (the leaf data-types layer) so both the
/// processor and the memory system can attribute latencies per cause
/// without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; 20],
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; 20] }
    }

    /// Records one sample.
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.max(1).leading_zeros() - 1) as usize;
        self.buckets[b.min(self.buckets.len() - 1)] += 1;
    }

    /// Total samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Samples at or below `latency` (bucket-granular upper bound).
    #[must_use]
    pub fn count_up_to(&self, latency: u64) -> u64 {
        let b = (64 - latency.max(1).leading_zeros() - 1) as usize;
        self.buckets[..=b.min(self.buckets.len() - 1)].iter().sum()
    }

    /// `(lower_bound, count)` for each non-empty bucket. Bucket 0's lower
    /// bound is 0: `record` routes latency-0 samples (forwarded or merged
    /// accesses) into it alongside latency 1.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// Merges another histogram.
    pub fn merge(&mut self, o: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *a += b;
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// The Fx multiply-rotate hash (rustc's, after Firefox): a few cycles
/// per integer key where the std SipHash costs tens. The simulator's
/// per-cycle maps are keyed by integers from its own deterministic state
/// (tokens, transaction ids, line numbers, PCs), so they need no random
/// seeding. It is not HashDoS-resistant: a program that crafts colliding
/// line addresses can slow its own run, never change its result. Lives
/// here because both `mem` and `proc` depend on this crate.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        // `HashMap` picks buckets from the low bits, which the multiply
        // leaves zero for keys that are multiples of a power of two
        // (strided line addresses); rotate the mixed high bits down.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// One invariant of the machine's operational model. The checker reports
/// the first cycle at which any of these fails to hold.
///
/// All listed invariants hold at every cycle boundary, *including* while
/// coherence transactions are in flight — transient protocol states
/// (e.g. a directory that has promised ownership while the fill is still
/// traveling) are accounted for, so a violation is always a real bug (or
/// an injected fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvariantKind {
    /// SWMR: more than one cache holds the same line exclusively.
    SwmrMultipleExclusive,
    /// SWMR: a cache holds a line exclusively while another cache still
    /// has any copy of it.
    SwmrExclusiveWithCopies,
    /// The directory records an owner, but the owner's cache neither
    /// holds the line exclusively nor has an outstanding transaction that
    /// would make it so.
    DirOwnerDisagrees,
    /// Format soundness: a cache really holds a copy of a shared line,
    /// but the directory format's decoded sharer set does not cover it
    /// (and no invalidation is in flight). Imprecise formats may
    /// over-approximate the sharer set, never under-approximate.
    DirSharerNotCovered,
    /// An MSHR file holds more entries than its configured capacity.
    MshrOverflow,
    /// A fill-type MSHR has no reserved cache way to land in (or an
    /// upgrade MSHR targets a line the cache no longer tracks).
    MshrMissingWay,
    /// Store-buffer entries are out of program order.
    StoreBufferOrder,
    /// Speculative-load-buffer entries are out of program order.
    SpecBufferOrder,
    /// Reorder-buffer entries are out of sequence order.
    RobOrder,
    /// A core's per-cause cycle breakdown does not sum to the cycles it
    /// has been accounted for (one classified bucket per tick).
    CycleBreakdownSum,
    /// A core's pending-execute queue is out of program order, or misses
    /// an ALU/branch that a full reorder-buffer scan would execute.
    ExecQueueComplete,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::SwmrMultipleExclusive => "SWMR: multiple exclusive copies",
            InvariantKind::SwmrExclusiveWithCopies => "SWMR: exclusive copy coexists with others",
            InvariantKind::DirOwnerDisagrees => "directory owner disagrees with owner's cache",
            InvariantKind::DirSharerNotCovered => "directory sharer set does not cover a real copy",
            InvariantKind::MshrOverflow => "MSHR occupancy exceeds capacity",
            InvariantKind::MshrMissingWay => "outstanding MSHR has no cache way",
            InvariantKind::StoreBufferOrder => "store buffer out of program order",
            InvariantKind::SpecBufferOrder => "speculative-load buffer out of program order",
            InvariantKind::RobOrder => "reorder buffer out of sequence order",
            InvariantKind::CycleBreakdownSum => {
                "cycle breakdown components do not sum to total cycles"
            }
            InvariantKind::ExecQueueComplete => "execute queue misses a ready instruction",
        };
        f.write_str(s)
    }
}

/// How a stalled machine is stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallClass {
    /// Every processor is frozen waiting on memory responses that will
    /// never arrive (and the network has nothing in flight).
    Deadlock,
    /// Processors are still actively executing (fetching, squashing,
    /// reissuing) but none retires an instruction.
    Livelock,
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StallClass::Deadlock => "deadlock",
            StallClass::Livelock => "livelock",
        })
    }
}

/// One stalled processor's state at watchdog-fire time: who it is, where
/// it stopped, and which buffer entries it is still holding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StalledProc {
    /// Processor index.
    pub proc: ProcId,
    /// Fetch PC at fire time.
    pub pc: u64,
    /// Instructions committed so far (unchanged over the whole window).
    pub committed: u64,
    /// Occupied reorder-buffer entries.
    pub rob_entries: usize,
    /// Rendered store-buffer entries still held.
    pub store_buffer: Vec<String>,
    /// Rendered speculative-load-buffer entries still held.
    pub spec_buffer: Vec<String>,
    /// Demand tokens the load/store unit is still awaiting.
    pub awaiting: Vec<String>,
}

/// The forward-progress watchdog's verdict: over a whole window of
/// cycles, no processor retired an instruction and the memory system
/// performed no coherence work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallReport {
    /// Deadlock or livelock.
    pub class: StallClass,
    /// Window length in cycles.
    pub window: u64,
    /// First cycle of the silent window.
    pub since_cycle: u64,
    /// Every processor that had not halted, with its held state.
    pub stalled: Vec<StalledProc>,
}

impl StallReport {
    /// Classifies a silent window: if any processor's frontend state
    /// moved (or speculation churned) during the window the machine is
    /// livelocked, otherwise it is frozen — a deadlock.
    #[must_use]
    pub fn classify(frontend_moved: bool, speculation_churned: bool) -> StallClass {
        if frontend_moved || speculation_churned {
            StallClass::Livelock
        } else {
            StallClass::Deadlock
        }
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} detected: no retires and no coherence activity since cycle {} ({}-cycle window); stalled procs:",
            self.class, self.since_cycle, self.window
        )?;
        for p in &self.stalled {
            write!(
                f,
                " [proc {} pc {} rob {} sb {} spec {} awaiting {}]",
                p.proc,
                p.pc,
                p.rob_entries,
                p.store_buffer.len(),
                p.spec_buffer.len(),
                p.awaiting.len()
            )?;
        }
        Ok(())
    }
}

/// Whether a failure is worth retrying.
///
/// The sweep supervisor uses this split to decide what a bounded retry
/// can buy: a **deterministic** failure is a property of the simulated
/// point itself (same spec + same seed ⇒ same failure, every time), so
/// re-running it burns wall-clock to reproduce the same diagnostic. A
/// **transient** failure comes from the *environment* the point ran in —
/// a worker process killed by a signal (OOM killer, operator), a spawn
/// or pipe error, a wall-clock deadline on an overloaded machine — and
/// may well succeed on a clean re-execution of the identical point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureClass {
    /// Reproducible from the point spec alone; retrying re-derives the
    /// same failure, so the supervisor records it immediately.
    Deterministic,
    /// Environmental; a bounded retry of the *same* point (same seed,
    /// same config) is justified.
    Transient,
}

impl FailureClass {
    /// Whether the supervisor's bounded retry applies.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(self, FailureClass::Transient)
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureClass::Deterministic => "deterministic",
            FailureClass::Transient => "transient",
        })
    }
}

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimErrorKind {
    /// A protocol-contract violation detected at the site itself: a
    /// structure was asked for an operation the coherence protocol should
    /// have made impossible (previously a `panic!`/`unreachable!`).
    Protocol {
        /// What the structure was asked to do and why it could not.
        detail: String,
    },
    /// The periodic invariant checker found a violated invariant.
    Invariant {
        /// Which invariant failed.
        invariant: InvariantKind,
        /// The violating state, rendered.
        detail: String,
    },
    /// The forward-progress watchdog declared the machine stalled.
    NoProgress(StallReport),
    /// A committed load, store or RMW computed a word address that is not
    /// 8-byte aligned.
    Misaligned {
        /// The computed byte address.
        addr: u64,
        /// The instruction that computed it.
        pc: u32,
    },
}

/// A structured, serializable simulation failure: what failed, at which
/// cycle, on which processor and cache line, with enough captured state
/// for a postmortem — the replacement for unwinding out of the hot loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimError {
    /// Cycle at which the failure was detected. For invariant violations
    /// this is the first violating cycle at the configured check cadence.
    pub cycle: u64,
    /// Processor involved, when attributable.
    pub proc: Option<ProcId>,
    /// Cache-line address involved, when attributable.
    pub line: Option<u64>,
    /// The failure itself.
    pub kind: SimErrorKind,
}

impl SimError {
    /// A protocol-contract failure.
    #[must_use]
    pub fn protocol(
        cycle: u64,
        proc: Option<ProcId>,
        line: Option<u64>,
        detail: impl Into<String>,
    ) -> Self {
        SimError {
            cycle,
            proc,
            line,
            kind: SimErrorKind::Protocol {
                detail: detail.into(),
            },
        }
    }

    /// An invariant violation.
    #[must_use]
    pub fn invariant(
        cycle: u64,
        proc: Option<ProcId>,
        line: Option<u64>,
        invariant: InvariantKind,
        detail: impl Into<String>,
    ) -> Self {
        SimError {
            cycle,
            proc,
            line,
            kind: SimErrorKind::Invariant {
                invariant,
                detail: detail.into(),
            },
        }
    }

    /// A watchdog no-forward-progress failure.
    #[must_use]
    pub fn no_progress(cycle: u64, report: StallReport) -> Self {
        SimError {
            cycle,
            proc: None,
            line: None,
            kind: SimErrorKind::NoProgress(report),
        }
    }

    /// A misaligned word access by the instruction at `pc`.
    #[must_use]
    pub fn misaligned(cycle: u64, proc: Option<ProcId>, addr: u64, pc: u32) -> Self {
        SimError {
            cycle,
            proc,
            line: None,
            kind: SimErrorKind::Misaligned { addr, pc },
        }
    }

    /// The violated invariant, if this is an invariant failure.
    #[must_use]
    pub fn violated_invariant(&self) -> Option<InvariantKind> {
        match &self.kind {
            SimErrorKind::Invariant { invariant, .. } => Some(*invariant),
            _ => None,
        }
    }

    /// Classifies this failure for the retry policy.
    ///
    /// Every [`SimError`] is [`FailureClass::Deterministic`]: protocol
    /// faults, invariant violations, and watchdog verdicts are all
    /// functions of the simulated machine's state, which is itself a
    /// pure function of the configuration and seed. The transient class
    /// exists for *process-level* failures (a crashed or wedged worker),
    /// which never reach this type — they have no simulated state to
    /// report.
    #[must_use]
    pub fn class(&self) -> FailureClass {
        match &self.kind {
            SimErrorKind::Protocol { .. }
            | SimErrorKind::Invariant { .. }
            | SimErrorKind::NoProgress(_)
            | SimErrorKind::Misaligned { .. } => FailureClass::Deterministic,
        }
    }

    /// The stall report, if this is a watchdog failure.
    #[must_use]
    pub fn stall(&self) -> Option<&StallReport> {
        match &self.kind {
            SimErrorKind::NoProgress(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.cycle)?;
        if let Some(p) = self.proc {
            write!(f, " proc {p}")?;
        }
        if let Some(l) = self.line {
            write!(f, " line {l:#x}")?;
        }
        match &self.kind {
            SimErrorKind::Protocol { detail } => write!(f, ": protocol violation: {detail}"),
            SimErrorKind::Invariant { invariant, detail } => {
                write!(f, ": invariant violated ({invariant}): {detail}")
            }
            SimErrorKind::NoProgress(report) => write!(f, ": {report}"),
            SimErrorKind::Misaligned { addr, pc } => write!(
                f,
                ": misaligned access: pc {pc} computed address {addr:#x}, not 8-byte aligned"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Which protocol perturbation to inject, and on which occurrence.
///
/// Faults are counted per delivery site: `nth` = 1 perturbs the first
/// matching message, `nth` = 2 the second, and so on. Injection is fully
/// deterministic — the same configuration always corrupts the same
/// message at the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Silently drop the `nth` invalidation delivery: the victim cache
    /// keeps a stale copy while the directory believes it was purged.
    /// Caught by the SWMR invariant when the new owner's exclusive fill
    /// lands.
    DropInvalidation {
        /// Which invalidation delivery to drop (1-based).
        nth: u64,
    },
    /// Corrupt the `nth` shared fill into an exclusive one: the cache
    /// believes it owns a line the directory only shared. Caught by the
    /// SWMR / directory-agreement invariants at the fill cycle.
    CorruptLineState {
        /// Which shared fill delivery to corrupt (1-based).
        nth: u64,
    },
    /// Silently drop the `nth` fill delivery: the MSHR never completes
    /// and its processor freezes. Caught by the forward-progress
    /// watchdog as a deadlock.
    StuckMshr {
        /// Which fill delivery to drop (1-based).
        nth: u64,
    },
}

impl FaultKind {
    /// Every fault class, at its first opportunity — the smoke-test set.
    pub const ALL_FIRST: [FaultKind; 3] = [
        FaultKind::DropInvalidation { nth: 1 },
        FaultKind::CorruptLineState { nth: 1 },
        FaultKind::StuckMshr { nth: 1 },
    ];

    /// Derives a fault deterministically from a seed (an LCG step picks
    /// the class and the occurrence), for seeded fault-sweep harnesses.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        // Numerical Recipes LCG: deterministic, platform-independent.
        let x = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let nth = (x >> 33) % 2 + 1;
        match x % 3 {
            0 => FaultKind::DropInvalidation { nth },
            1 => FaultKind::CorruptLineState { nth },
            _ => FaultKind::StuckMshr { nth },
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DropInvalidation { nth } => write!(f, "drop-inv:{nth}"),
            FaultKind::CorruptLineState { nth } => write!(f, "corrupt:{nth}"),
            FaultKind::StuckMshr { nth } => write!(f, "stuck-mshr:{nth}"),
        }
    }
}

impl FromStr for FaultKind {
    type Err = String;

    /// Parses `drop-inv:N`, `corrupt:N`, or `stuck-mshr:N` (N defaults
    /// to 1 when omitted).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, nth) = match s.split_once(':') {
            Some((k, n)) => (
                k,
                n.parse::<u64>()
                    .map_err(|_| format!("bad fault occurrence `{n}`"))?,
            ),
            None => (s, 1),
        };
        if nth == 0 {
            return Err("fault occurrence is 1-based".into());
        }
        match kind {
            "drop-inv" => Ok(FaultKind::DropInvalidation { nth }),
            "corrupt" => Ok(FaultKind::CorruptLineState { nth }),
            "stuck-mshr" => Ok(FaultKind::StuckMshr { nth }),
            other => Err(format!(
                "unknown fault `{other}` (want drop-inv | corrupt | stuck-mshr)"
            )),
        }
    }
}

/// Guard-layer knobs, carried inside the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Run the invariant checker every this-many cycles. `0` = automatic:
    /// every cycle in debug builds (or under the `strict-invariants`
    /// feature), every [`GuardConfig::RELEASE_PERIOD`] cycles otherwise.
    /// `u64::MAX` disables checking.
    ///
    /// The cadence is defined over *simulated* cycles, not loop
    /// iterations: when the machine loop fast-forwards over a quiescent
    /// span, a check still runs for the first in-span multiple of the
    /// period (state is frozen across the span, so that one verdict is
    /// exactly what checking at every covered multiple would produce).
    pub invariant_period: u64,
    /// Watchdog window: declare a stall after this many consecutive
    /// cycles with no retires and no coherence activity. `0` disables the
    /// watchdog (leaving only the `max_cycles` bound). Window edges are
    /// likewise simulated-cycle positions — edges crossed by a
    /// fast-forwarded span are sampled, in order, against the frozen
    /// state, so a deadlock fires at the same edge cycle either way.
    pub watchdog_window: u64,
    /// Protocol fault to inject (mutation-testing the checker).
    pub fault: Option<FaultKind>,
}

impl GuardConfig {
    /// Automatic invariant cadence for release builds.
    pub const RELEASE_PERIOD: u64 = 1024;

    /// Resolves the configured cadence; `every_cycle` is the build-mode
    /// hint (debug build or `strict-invariants` feature). `None` means
    /// checking is disabled.
    #[must_use]
    pub fn effective_period(&self, every_cycle: bool) -> Option<u64> {
        match self.invariant_period {
            u64::MAX => None,
            0 if every_cycle => Some(1),
            0 => Some(Self::RELEASE_PERIOD),
            n => Some(n),
        }
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            invariant_period: 0,
            watchdog_window: 10_000,
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_cycle_proc_and_line() {
        let e = SimError::protocol(42, Some(3), Some(0x40), "fill without an MSHR");
        let s = e.to_string();
        assert!(s.contains("cycle 42"), "{s}");
        assert!(s.contains("proc 3"), "{s}");
        assert!(s.contains("line 0x40"), "{s}");
        assert!(s.contains("fill without an MSHR"), "{s}");
    }

    #[test]
    fn invariant_error_names_the_invariant() {
        let e = SimError::invariant(
            7,
            None,
            Some(2),
            InvariantKind::SwmrMultipleExclusive,
            "procs 0 and 1",
        );
        assert_eq!(
            e.violated_invariant(),
            Some(InvariantKind::SwmrMultipleExclusive)
        );
        assert!(e.to_string().contains("SWMR"));
    }

    #[test]
    fn stall_report_renders_stalled_procs() {
        let r = StallReport {
            class: StallClass::Deadlock,
            window: 100,
            since_cycle: 900,
            stalled: vec![StalledProc {
                proc: 1,
                pc: 5,
                committed: 12,
                rob_entries: 3,
                store_buffer: vec!["seq 9 -> 0x100".into()],
                spec_buffer: vec![],
                awaiting: vec!["op7".into()],
            }],
        };
        let e = SimError::no_progress(1000, r);
        let s = e.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("proc 1"), "{s}");
        assert!(s.contains("since cycle 900"), "{s}");
        assert_eq!(e.stall().unwrap().stalled.len(), 1);
    }

    #[test]
    fn classify_requires_total_silence_for_deadlock() {
        assert_eq!(StallReport::classify(false, false), StallClass::Deadlock);
        assert_eq!(StallReport::classify(true, false), StallClass::Livelock);
        assert_eq!(StallReport::classify(false, true), StallClass::Livelock);
    }

    #[test]
    fn fault_round_trips_through_strings() {
        for f in [
            FaultKind::DropInvalidation { nth: 2 },
            FaultKind::CorruptLineState { nth: 1 },
            FaultKind::StuckMshr { nth: 3 },
        ] {
            assert_eq!(f.to_string().parse::<FaultKind>(), Ok(f));
        }
        assert_eq!(
            "drop-inv".parse::<FaultKind>(),
            Ok(FaultKind::DropInvalidation { nth: 1 })
        );
        assert!("nonsense".parse::<FaultKind>().is_err());
        assert!("drop-inv:0".parse::<FaultKind>().is_err());
    }

    #[test]
    fn seeded_faults_are_deterministic_and_varied() {
        let a: Vec<FaultKind> = (0..32).map(FaultKind::from_seed).collect();
        let b: Vec<FaultKind> = (0..32).map(FaultKind::from_seed).collect();
        assert_eq!(a, b, "same seeds, same faults");
        let classes: std::collections::BTreeSet<u8> = a
            .iter()
            .map(|f| match f {
                FaultKind::DropInvalidation { .. } => 0,
                FaultKind::CorruptLineState { .. } => 1,
                FaultKind::StuckMshr { .. } => 2,
            })
            .collect();
        assert_eq!(classes.len(), 3, "all classes reachable: {a:?}");
    }

    #[test]
    fn histogram_bucket_zero_lower_bound_is_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0); // forwarded/merged accesses land here
        h.record(1);
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 2)], "latency 0 and 1 share bucket 0: {nz:?}");
    }

    #[test]
    fn histogram_count_up_to_boundaries() {
        let mut h = LatencyHistogram::new();
        for l in [0, 1, 2, 3, 4, 7, 8] {
            h.record(l);
        }
        // Bucket-granular: an upper bound anywhere inside a bucket
        // includes the whole bucket.
        assert_eq!(h.count_up_to(0), 2, "latency 0 counts bucket 0 (0..=1)");
        assert_eq!(h.count_up_to(1), 2);
        assert_eq!(h.count_up_to(2), 4, "bucket 1 is 2..=3");
        assert_eq!(h.count_up_to(3), 4);
        assert_eq!(h.count_up_to(4), 6, "bucket 2 is 4..=7");
        assert_eq!(h.count_up_to(7), 6);
        assert_eq!(h.count_up_to(8), 7);
        assert_eq!(h.count_up_to(u64::MAX), h.count());
    }

    #[test]
    fn every_sim_error_is_deterministic_and_not_retryable() {
        let errors = [
            SimError::protocol(1, None, None, "x"),
            SimError::invariant(2, None, None, InvariantKind::RobOrder, "y"),
            SimError::no_progress(
                3,
                StallReport {
                    class: StallClass::Deadlock,
                    window: 10,
                    since_cycle: 0,
                    stalled: vec![],
                },
            ),
        ];
        for e in errors {
            assert_eq!(e.class(), FailureClass::Deterministic, "{e}");
            assert!(!e.class().retryable());
        }
        assert!(FailureClass::Transient.retryable());
        assert_eq!(FailureClass::Transient.to_string(), "transient");
        assert_eq!(FailureClass::Deterministic.to_string(), "deterministic");
    }

    #[test]
    fn effective_period_resolves_auto_mode() {
        let g = GuardConfig::default();
        assert_eq!(g.effective_period(true), Some(1));
        assert_eq!(g.effective_period(false), Some(GuardConfig::RELEASE_PERIOD));
        let explicit = GuardConfig {
            invariant_period: 7,
            ..GuardConfig::default()
        };
        assert_eq!(explicit.effective_period(false), Some(7));
        let off = GuardConfig {
            invariant_period: u64::MAX,
            ..GuardConfig::default()
        };
        assert_eq!(off.effective_period(true), None);
    }

    #[test]
    fn fx_hash_is_seedless_and_width_consistent() {
        use std::hash::{BuildHasher, Hasher};
        let build = std::hash::BuildHasherDefault::<FxHasher>::default();
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
        assert_ne!(build.hash_one(1u64), build.hash_one(2u64));
        // Strided keys still spread over the low (bucket-index) bits.
        let buckets: std::collections::BTreeSet<u64> =
            (0..64u64).map(|k| build.hash_one(k << 20) & 63).collect();
        assert!(buckets.len() > 16, "{} of 64 buckets", buckets.len());
        let mut bytes = FxHasher::default();
        bytes.write(&7u64.to_le_bytes());
        let mut word = FxHasher::default();
        word.write_u64(7);
        assert_eq!(bytes.finish(), word.finish());
    }
}

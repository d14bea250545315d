//! The consistency models and their delay-arc relations (Figure 1),
//! plus the TSO/PSO store-buffer models between SC and WC.

use crate::access::AccessClass;
use mcsim_isa::Addr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A memory consistency model supported by the simulator.
///
/// Ordered from strictest to most relaxed; `Model::Sc < Model::Rc` holds
/// under the derived `Ord`, which experiments use to sort result rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Model {
    /// Sequential consistency (Lamport 1979).
    Sc,
    /// Total store ordering (SPARC V8): exactly one relaxation of SC —
    /// an ordinary load may bypass an earlier ordinary store (the FIFO
    /// store buffer). Synchronization accesses stay fully ordered.
    Tso,
    /// Processor consistency (Goodman 1989).
    Pc,
    /// Partial store ordering (SPARC V8): TSO minus the ordinary
    /// store → ordinary store arc — stores to different lines drain from
    /// the buffer out of order. Sync accesses stay fully ordered.
    Pso,
    /// Weak consistency, `WCsc` variant (Dubois, Scheurich & Briggs 1986).
    Wc,
    /// Release consistency, `RCsc` variant: like [`Model::Rc`] but the
    /// special (synchronization) accesses obey *sequential consistency*
    /// among themselves, so a later acquire also waits for an earlier
    /// release. The paper presents RCpc (footnote 1) and notes extensions
    /// to other models are straightforward (§2) — this is that extension.
    RcSc,
    /// Release consistency, `RCpc` variant (Gharachorloo et al. 1990) —
    /// the model the paper uses.
    Rc,
}

impl Model {
    /// The four models the paper discusses, strictest first.
    pub const ALL: [Model; 4] = [Model::Sc, Model::Pc, Model::Wc, Model::Rc];

    /// All implemented models including the TSO/PSO store-buffer models
    /// and the RCsc extension, strictest first.
    pub const ALL_EXTENDED: [Model; 7] = [
        Model::Sc,
        Model::Tso,
        Model::Pc,
        Model::Pso,
        Model::Wc,
        Model::RcSc,
        Model::Rc,
    ];

    /// Short uppercase name as used in the paper (`SC`, `PC`, `WC`, `RC`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Sc => "SC",
            Model::Tso => "TSO",
            Model::Pc => "PC",
            Model::Pso => "PSO",
            Model::Wc => "WC",
            Model::RcSc => "RCsc",
            Model::Rc => "RC",
        }
    }

    /// One-line description for reports.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Model::Sc => "sequential consistency: program order among all shared accesses",
            Model::Tso => "total store ordering: a FIFO store buffer; loads bypass earlier stores",
            Model::Pc => "processor consistency: reads may bypass earlier writes",
            Model::Pso => "partial store ordering: TSO with stores draining out of order",
            Model::Wc => "weak consistency (WCsc): sync accesses are full barriers",
            Model::RcSc => {
                "release consistency (RCsc): RC with sequentially consistent special accesses"
            }
            Model::Rc => "release consistency (RCpc): acquire blocks later, release waits earlier",
        }
    }

    /// The delay-arc relation of Figure 1: must the completion of `later`
    /// be delayed until `earlier` (which precedes it in program order) has
    /// performed?
    ///
    /// Only *consistency* constraints between access classes are captured
    /// here. Same-address order is the uniprocessor half of the rule and
    /// lives in [`Model::must_order`], which every caller that knows both
    /// addresses asks instead.
    #[must_use]
    pub fn must_delay(self, earlier: AccessClass, later: AccessClass) -> bool {
        // An ordinary *pure* store / load (not an RMW, not sync) — the only
        // accesses the store-buffer models relax.
        let buffered_store = |c: AccessClass| c.writes && !c.reads && !c.is_sync();
        let ordinary_load = |c: AccessClass| c.reads && !c.writes && !c.is_sync();
        match self {
            // SC: shared accesses perform in program order — every pair.
            Model::Sc => true,

            // TSO: SC minus exactly one arc — an ordinary load may bypass
            // an earlier ordinary store sitting in the FIFO store buffer.
            // RMWs and sync accesses stay fully ordered (atomics drain the
            // buffer), so TSO is strictly between SC and PC.
            Model::Tso => !(buffered_store(earlier) && ordinary_load(later)),

            // PSO: TSO minus the ordinary store -> ordinary store arc —
            // buffered stores drain out of order. Everything into or out of
            // a sync access (and anything involving an RMW) stays ordered,
            // so PSO is strictly between TSO and WC.
            Model::Pso => {
                !(buffered_store(earlier) && (ordinary_load(later) || buffered_store(later)))
            }

            // PC: LOAD->LOAD, LOAD->STORE, STORE->STORE arcs; the STORE->LOAD
            // arc is absent (reads bypass earlier writes). An access that
            // reads (including RMW) behaves as a load on the earlier end and
            // orders everything after it; a pure store only orders later
            // writes. On the later end, an access that writes (including
            // RMW) is ordered behind earlier stores.
            Model::Pc => {
                if earlier.reads {
                    true
                } else {
                    later.writes
                }
            }

            // WC (WCsc): a synchronization access on either end is a full
            // barrier; ordinary accesses between sync points are free.
            Model::Wc => earlier.is_sync() || later.is_sync(),

            // RCsc: as RC below, but special accesses obey SC among
            // themselves — a later acquire also waits for an earlier
            // release.
            Model::RcSc => {
                earlier.is_acquire() || later.is_release() || (earlier.is_sync() && later.is_sync())
            }

            // RC (RCpc): acquire blocks everything after it; release waits
            // for everything before it; special accesses obey PC among
            // themselves (which the first two arms already imply except for
            // the release->release case covered by `later.is_release()`;
            // release->acquire is free — the pc-variant of RC).
            Model::Rc => {
                earlier.is_acquire()
                    || later.is_release()
                    || (earlier.is_sync() && later.is_sync() && {
                        // PC among specials.
                        if earlier.reads {
                            true
                        } else {
                            later.writes
                        }
                    })
            }
        }
    }

    /// The one ordering rule: must `later` stay behind `earlier` (which
    /// precedes it in program order on the same processor)? Either a
    /// delay arc orders the pair, or both name the same word —
    /// per-location program order, which no model relaxes.
    ///
    /// How the order is kept is the caller's business: the oracle performs
    /// `later` only after `earlier`; the store buffer issues a same-word
    /// store only after the earlier one has issued, because the memory
    /// system keeps one processor's same-line requests in issue order.
    #[must_use]
    pub fn must_order(self, earlier: (AccessClass, Addr), later: (AccessClass, Addr)) -> bool {
        earlier.1 == later.1 || self.must_delay(earlier.0, later.0)
    }

    /// Strictness rank: lower = stricter (SC is 0).
    #[must_use]
    pub fn strictness(self) -> u8 {
        match self {
            Model::Sc => 0,
            Model::Tso => 1,
            Model::Pc => 2,
            Model::Pso => 3,
            Model::Wc => 4,
            Model::RcSc => 5,
            Model::Rc => 6,
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "SC" => Ok(Model::Sc),
            "TSO" => Ok(Model::Tso),
            "PC" => Ok(Model::Pc),
            "PSO" => Ok(Model::Pso),
            "WC" => Ok(Model::Wc),
            "RCSC" => Ok(Model::RcSc),
            "RC" | "RCPC" => Ok(Model::Rc),
            other => Err(format!("unknown consistency model `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LD: AccessClass = AccessClass::LOAD;
    const ST: AccessClass = AccessClass::STORE;
    const ACQ: AccessClass = AccessClass::ACQUIRE_RMW;
    const ACQ_LD: AccessClass = AccessClass::ACQUIRE_LOAD;
    const REL: AccessClass = AccessClass::RELEASE_STORE;

    #[test]
    fn sc_orders_everything() {
        for e in [LD, ST, ACQ, REL] {
            for l in [LD, ST, ACQ, REL] {
                assert!(Model::Sc.must_delay(e, l), "{e} -> {l} must delay under SC");
            }
        }
    }

    #[test]
    fn pc_lets_reads_bypass_writes() {
        assert!(!Model::Pc.must_delay(ST, LD), "store->load free under PC");
        assert!(Model::Pc.must_delay(LD, LD));
        assert!(Model::Pc.must_delay(LD, ST));
        assert!(Model::Pc.must_delay(ST, ST));
        // RMW reads, so a later load is ordered behind it...
        assert!(Model::Pc.must_delay(ACQ, LD));
        // ...and an RMW writes, so it is ordered behind earlier stores.
        assert!(Model::Pc.must_delay(ST, ACQ));
    }

    #[test]
    fn wc_sync_is_full_barrier() {
        assert!(!Model::Wc.must_delay(LD, ST));
        assert!(!Model::Wc.must_delay(ST, LD));
        assert!(!Model::Wc.must_delay(LD, LD));
        for sync in [ACQ, ACQ_LD, REL] {
            assert!(Model::Wc.must_delay(sync, LD), "{sync} -> load");
            assert!(Model::Wc.must_delay(ST, sync), "store -> {sync}");
            assert!(Model::Wc.must_delay(sync, sync));
        }
    }

    #[test]
    fn rc_acquire_blocks_later_release_waits_earlier() {
        // Figure 1 RC block: acquire -> everything after.
        for l in [LD, ST, ACQ, REL] {
            assert!(Model::Rc.must_delay(ACQ, l), "acquire -> {l}");
            assert!(Model::Rc.must_delay(ACQ_LD, l), "acquire-load -> {l}");
        }
        // Everything before -> release.
        for e in [LD, ST, ACQ, REL] {
            assert!(Model::Rc.must_delay(e, REL), "{e} -> release");
        }
        // Ordinary accesses are otherwise free.
        assert!(!Model::Rc.must_delay(LD, ST));
        assert!(!Model::Rc.must_delay(ST, LD));
        assert!(!Model::Rc.must_delay(ST, ST));
        // Ordinary before acquire: acquire need not wait (RC's key relax).
        assert!(!Model::Rc.must_delay(LD, ACQ));
        assert!(!Model::Rc.must_delay(ST, ACQ));
        // Ordinary after release: need not wait for the release.
        assert!(!Model::Rc.must_delay(REL, LD));
        assert!(!Model::Rc.must_delay(REL, ST));
        // RCpc: a later acquire *read* bypasses an earlier release (the pc
        // part)...
        assert!(!Model::Rc.must_delay(REL, ACQ_LD));
        // ...but an acquire RMW also writes, and PC among specials orders
        // its write half behind the earlier release store.
        assert!(Model::Rc.must_delay(REL, ACQ));
    }

    #[test]
    fn relaxation_is_monotone() {
        // Every arc required by a more relaxed model is also required by
        // every stricter model — the spectrum of §2. (PC and WC are
        // incomparable in general, but both are subsets of SC and supersets
        // of... nothing; we check each against SC and RC against WC/PC only
        // where the paper orders them: SC ⊇ PC ⊇ RCpc and SC ⊇ WCsc ⊇ RCpc
        // does NOT hold for WC->RC on ordinary/sync pairs, so we check the
        // documented chains.)
        let classes = [LD, ST, ACQ, ACQ_LD, REL];
        for e in classes {
            for l in classes {
                if Model::Pc.must_delay(e, l) {
                    assert!(Model::Sc.must_delay(e, l));
                }
                if Model::Wc.must_delay(e, l) {
                    assert!(Model::Sc.must_delay(e, l));
                }
                if Model::Rc.must_delay(e, l) {
                    assert!(Model::Wc.must_delay(e, l), "{e}->{l}: RC arc missing in WC");
                }
            }
        }
    }

    #[test]
    fn must_order_adds_same_address_to_the_arcs() {
        let (x, y) = (Addr(0x40), Addr(0x80));
        for m in Model::ALL_EXTENDED {
            for e in [LD, ST, ACQ, ACQ_LD, REL] {
                for l in [LD, ST, ACQ, ACQ_LD, REL] {
                    assert!(m.must_order((e, x), (l, x)), "{m}: {e} -> {l} same word");
                    assert_eq!(m.must_order((e, x), (l, y)), m.must_delay(e, l), "{m}");
                }
            }
        }
        // Shape E: under RC a store after a release has no arc, but the
        // same word still orders it.
        assert!(!Model::Rc.must_delay(REL, ST));
        assert!(Model::Rc.must_order((REL, x), (ST, x)));
    }

    #[test]
    fn model_parse_and_display() {
        for m in Model::ALL {
            let parsed: Model = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("XC".parse::<Model>().is_err());
        assert_eq!(Model::Rc.to_string(), "RC");
    }

    #[test]
    fn strictness_ranks() {
        // ALL_EXTENDED is strictest-first and agrees with the derived Ord.
        for pair in Model::ALL_EXTENDED.windows(2) {
            assert!(pair[0].strictness() < pair[1].strictness());
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn tso_relaxes_exactly_store_load() {
        // The single missing arc.
        assert!(!Model::Tso.must_delay(ST, LD));
        // Everything else is SC-ordered, including all sync pairs and RMWs.
        for e in [LD, ST, ACQ, ACQ_LD, REL] {
            for l in [LD, ST, ACQ, ACQ_LD, REL] {
                if !(e == ST && l == LD) {
                    assert!(Model::Tso.must_delay(e, l), "{e} -> {l} ordered under TSO");
                }
            }
        }
    }

    #[test]
    fn pso_additionally_relaxes_store_store() {
        assert!(!Model::Pso.must_delay(ST, LD));
        assert!(!Model::Pso.must_delay(ST, ST));
        // A release is a sync store: buffered stores still order into it,
        // and it orders into everything.
        assert!(Model::Pso.must_delay(ST, REL));
        assert!(Model::Pso.must_delay(REL, ST));
        // RMWs drain the buffer on both ends.
        assert!(Model::Pso.must_delay(ST, ACQ));
        assert!(Model::Pso.must_delay(ACQ, LD));
        // Loads stay fully ordered (PSO relaxes only the store buffer).
        assert!(Model::Pso.must_delay(LD, LD));
        assert!(Model::Pso.must_delay(LD, ST));
    }

    #[test]
    fn store_buffer_models_nest_between_sc_and_wc() {
        // Arc-set containment along the chains SC ⊇ TSO ⊇ PC and
        // SC ⊇ TSO ⊇ PSO ⊇ WC (PC and PSO are incomparable, like PC/WC).
        let classes = [LD, ST, ACQ, ACQ_LD, REL];
        for e in classes {
            for l in classes {
                if Model::Tso.must_delay(e, l) {
                    assert!(Model::Sc.must_delay(e, l));
                }
                if Model::Pc.must_delay(e, l) {
                    assert!(Model::Tso.must_delay(e, l), "{e}->{l}: PC arc not in TSO");
                }
                if Model::Pso.must_delay(e, l) {
                    assert!(Model::Tso.must_delay(e, l), "{e}->{l}: PSO arc not in TSO");
                }
                if Model::Wc.must_delay(e, l) {
                    assert!(Model::Pso.must_delay(e, l), "{e}->{l}: WC arc not in PSO");
                }
            }
        }
        // Strictness is strict: each step drops at least one arc.
        assert!(!Model::Tso.must_delay(ST, LD) && Model::Sc.must_delay(ST, LD));
        assert!(!Model::Pc.must_delay(REL, ACQ_LD) && Model::Tso.must_delay(REL, ACQ_LD));
        assert!(!Model::Pso.must_delay(ST, ST) && Model::Tso.must_delay(ST, ST));
        assert!(!Model::Wc.must_delay(LD, LD) && Model::Pso.must_delay(LD, LD));
    }

    #[test]
    fn rcsc_orders_release_before_acquire() {
        // The single arc distinguishing RCsc from RCpc.
        assert!(Model::RcSc.must_delay(REL, ACQ_LD));
        assert!(!Model::Rc.must_delay(REL, ACQ_LD));
        // Otherwise RCsc's arcs contain RCpc's.
        for e in [LD, ST, ACQ, ACQ_LD, REL] {
            for l in [LD, ST, ACQ, ACQ_LD, REL] {
                if Model::Rc.must_delay(e, l) {
                    assert!(Model::RcSc.must_delay(e, l), "{e}->{l}");
                }
                if Model::RcSc.must_delay(e, l) {
                    assert!(Model::Wc.must_delay(e, l), "{e}->{l}: RCsc arc not in WC");
                }
            }
        }
    }

    #[test]
    fn extended_parse() {
        assert_eq!("RCsc".parse::<Model>().unwrap(), Model::RcSc);
        assert_eq!("rcpc".parse::<Model>().unwrap(), Model::Rc);
        assert_eq!("tso".parse::<Model>().unwrap(), Model::Tso);
        assert_eq!("PSO".parse::<Model>().unwrap(), Model::Pso);
        assert_eq!(Model::ALL_EXTENDED.len(), 7);
        for m in Model::ALL_EXTENDED {
            let parsed: Model = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
    }
}

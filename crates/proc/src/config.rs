//! Processor configuration and the technique switches.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's two techniques are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Techniques {
    /// §3: hardware-controlled non-binding prefetch for consistency-
    /// delayed accesses (read prefetch for loads, read-exclusive for
    /// stores and RMWs).
    pub prefetch: bool,
    /// §4: speculative execution for load accesses, with the
    /// speculative-load buffer providing detection and correction.
    pub speculative_loads: bool,
}

impl Techniques {
    /// Conventional implementation: both techniques off.
    pub const NONE: Techniques = Techniques {
        prefetch: false,
        speculative_loads: false,
    };
    /// Prefetch only.
    pub const PREFETCH: Techniques = Techniques {
        prefetch: true,
        speculative_loads: false,
    };
    /// Speculative loads only.
    pub const SPECULATION: Techniques = Techniques {
        prefetch: false,
        speculative_loads: true,
    };
    /// Both techniques — the paper's full proposal (§4.3 combines
    /// speculative loads with prefetch for stores).
    pub const BOTH: Techniques = Techniques {
        prefetch: true,
        speculative_loads: true,
    };

    /// All four design points, in ablation order.
    pub const ALL: [Techniques; 4] = [
        Techniques::NONE,
        Techniques::PREFETCH,
        Techniques::SPECULATION,
        Techniques::BOTH,
    ];

    /// Short label for report rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match (self.prefetch, self.speculative_loads) {
            (false, false) => "base",
            (true, false) => "prefetch",
            (false, true) => "spec",
            (true, true) => "pf+spec",
        }
    }
}

impl fmt::Display for Techniques {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Microarchitectural parameters of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcConfig {
    /// Technique switches.
    pub techniques: Techniques,
    /// Reorder-buffer capacity (the instruction lookahead window; §3.2
    /// notes prefetching is limited by it).
    pub rob_size: usize,
    /// Instructions fetched/decoded per cycle. `None` = ideal frontend
    /// (the paper's walk-throughs assume instructions are already decoded
    /// and buffered: "the instructions are assumed to be decoded and
    /// placed in the reorder buffer", §4.3).
    pub fetch_width: Option<usize>,
    /// Footnote 2 ablation: under the *update* protocol, update hazards
    /// carry the written word and value, so the two provably-safe cases —
    /// false sharing (a different word of the line) and a same-value
    /// write — can be discriminated instead of conservatively rolling
    /// back. `false` (default) keeps the paper's conservative behavior.
    pub exact_update_check: bool,
}

impl ProcConfig {
    /// The paper-calibrated configuration: ideal frontend, 64-entry ROB.
    /// Like the paper (§3.3), the core charges no address-calculation
    /// delay.
    #[must_use]
    pub fn paper(techniques: Techniques) -> Self {
        ProcConfig {
            techniques,
            rob_size: 64,
            fetch_width: None,
            exact_update_check: false,
        }
    }

    /// A finite-width frontend variant (for lookahead sensitivity
    /// experiments, E13).
    #[must_use]
    pub fn with_window(techniques: Techniques, rob_size: usize, width: usize) -> Self {
        ProcConfig {
            rob_size,
            fetch_width: Some(width),
            ..Self::paper(techniques)
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    /// If the ROB is empty or the fetch width is zero.
    pub fn validate(&self) {
        assert!(
            self.rob_size >= 2,
            "reorder buffer needs at least 2 entries"
        );
        if let Some(w) = self.fetch_width {
            assert!(w > 0, "fetch width must be positive");
        }
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig::paper(Techniques::BOTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Techniques::NONE.label(), "base");
        assert_eq!(Techniques::PREFETCH.label(), "prefetch");
        assert_eq!(Techniques::SPECULATION.label(), "spec");
        assert_eq!(Techniques::BOTH.label(), "pf+spec");
        assert_eq!(Techniques::ALL.len(), 4);
    }

    #[test]
    fn paper_config_is_ideal() {
        let c = ProcConfig::paper(Techniques::BOTH);
        c.validate();
        assert_eq!(c.fetch_width, None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_rob_rejected() {
        ProcConfig {
            rob_size: 1,
            ..ProcConfig::default()
        }
        .validate();
    }
}

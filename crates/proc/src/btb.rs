//! Branch prediction: static hints plus a 2-bit-counter branch target
//! buffer (Lee & Smith [16] in the paper's bibliography).
//!
//! The paper's examples assume the predictor follows the path on which a
//! lock acquisition succeeds (§3.3); spin-loop branches therefore carry a
//! static `NotTaken` hint from the program builder. Branches without a
//! hint use a per-PC 2-bit saturating counter, primed by the static
//! backward-taken / forward-not-taken heuristic.

use mcsim_guard::FxHashMap;
use mcsim_isa::BranchHint;

/// 2-bit saturating counter states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Counter {
    StrongNot,
    WeakNot,
    WeakTaken,
    StrongTaken,
}

impl Counter {
    fn predict(self) -> bool {
        matches!(self, Counter::WeakTaken | Counter::StrongTaken)
    }

    fn update(self, taken: bool) -> Self {
        use Counter::*;
        match (self, taken) {
            (StrongNot, true) => WeakNot,
            (WeakNot, true) => WeakTaken,
            (WeakTaken, true) | (StrongTaken, true) => StrongTaken,
            (StrongTaken, false) => WeakTaken,
            (WeakTaken, false) => WeakNot,
            (WeakNot, false) | (StrongNot, false) => StrongNot,
        }
    }
}

/// The branch predictor attached to one core's instruction fetch.
#[derive(Debug, Default)]
pub struct Predictor {
    table: FxHashMap<u32, Counter>,
    predictions: u64,
    mispredictions: u64,
}

impl Predictor {
    /// A predictor with an empty BTB.
    #[must_use]
    pub fn new() -> Self {
        Predictor::default()
    }

    /// Predicts whether the branch at `pc` (with `hint`, targeting
    /// `target`) will be taken.
    pub fn predict(&mut self, pc: u32, hint: BranchHint, target: u32) -> bool {
        self.predictions += 1;
        match hint {
            BranchHint::Taken => true,
            BranchHint::NotTaken => false,
            BranchHint::Dynamic => match self.table.get(&pc) {
                Some(c) => c.predict(),
                // BTB miss: backward-taken / forward-not-taken heuristic.
                None => target <= pc,
            },
        }
    }

    /// Feeds back a resolved branch. Statically hinted branches still
    /// train the table (harmless; they never consult it) and count toward
    /// the misprediction stats.
    pub fn resolve(&mut self, pc: u32, predicted: bool, actual: bool, target: u32) {
        if predicted != actual {
            self.mispredictions += 1;
        }
        let init = if target <= pc {
            Counter::WeakTaken
        } else {
            Counter::WeakNot
        };
        let c = self.table.entry(pc).or_insert(init);
        *c = c.update(actual);
    }

    /// `(predictions, mispredictions)` so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_hints_override() {
        let mut p = Predictor::new();
        assert!(p.predict(10, BranchHint::Taken, 0));
        assert!(!p.predict(10, BranchHint::NotTaken, 0));
    }

    #[test]
    fn btfnt_heuristic_on_cold_btb() {
        let mut p = Predictor::new();
        assert!(
            p.predict(10, BranchHint::Dynamic, 5),
            "backward predicted taken"
        );
        assert!(
            !p.predict(10, BranchHint::Dynamic, 20),
            "forward predicted not taken"
        );
    }

    #[test]
    fn counters_learn_direction() {
        let mut p = Predictor::new();
        // Forward branch that's actually always taken: initially WeakNot.
        for _ in 0..3 {
            p.resolve(10, false, true, 20);
        }
        assert!(p.predict(10, BranchHint::Dynamic, 20), "learned taken");
        // One not-taken outcome shouldn't flip a strong counter.
        p.resolve(10, true, false, 20);
        assert!(p.predict(10, BranchHint::Dynamic, 20));
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut p = Predictor::new();
        // Backward branch primed WeakTaken.
        p.resolve(10, true, false, 5); // -> WeakNot
        assert!(!p.predict(10, BranchHint::Dynamic, 5));
        p.resolve(10, false, true, 5); // -> WeakTaken
        assert!(p.predict(10, BranchHint::Dynamic, 5));
    }

    #[test]
    fn stats_count_mispredictions() {
        let mut p = Predictor::new();
        let _ = p.predict(1, BranchHint::Dynamic, 9);
        p.resolve(1, false, true, 9);
        p.resolve(1, true, true, 9);
        assert_eq!(p.stats(), (1, 1));
    }
}

//! The machine's wake-up calendar: a bucket queue of absolute cycles at
//! which *something* is scheduled to happen.
//!
//! Components publish the cycles they will act at — a hit completing, an
//! ALU result finishing, a refetch stall expiring, a memory transaction
//! hop landing — and the discrete-event engine jumps straight to the
//! earliest published cycle whenever a stepped cycle mutates nothing.
//!
//! ## Structure
//!
//! A classic calendar/bucket design, specialized for this simulator's
//! event distribution (almost every wake-up lands within a few hundred
//! cycles — a cache-hit latency, an ALU latency, or a memory-transaction
//! hop):
//!
//! * a **near window** of `NEAR` one-cycle buckets, stored as a bitmap
//!   (`u64` words) relative to a moving `base`. Insert and membership are
//!   O(1); finding the next set bucket is a word scan with
//!   `trailing_zeros`, and duplicate insertions are free (the bit is
//!   already set);
//! * a **far heap** (`BinaryHeap<Reverse<u64>>`) for the rare wake-up
//!   beyond the window (long fault-injection delays, pathological
//!   latencies). Far entries migrate into the bitmap as `base` advances.
//!
//! ## Contract with the engine
//!
//! Wake-ups are *hints*, kept deliberately one-sided: every cycle at
//! which a component could change state on its own **must** be published
//! (at creation time — when the completion is scheduled, not when it is
//! discovered), but stale entries — a squashed ALU's finish cycle, a
//! dropped hit completion — may remain queued. The engine steps the
//! machine at every popped cycle; stepping a cycle where nothing happens
//! is byte-identical to the per-cycle loop doing the same, so spurious
//! wake-ups cost only time, never correctness. Publishing into the past
//! is a contract violation (`debug_assert`ed); release builds clamp such
//! entries forward so a stale horizon can never produce a zero-length
//! jump (see `Machine`'s engine loop).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles covered by the near-window bitmap. Must be a multiple of 64.
const NEAR: u64 = 4096;
const WORDS: usize = (NEAR / 64) as usize;

/// A calendar/bucket queue of absolute wake-up cycles (see module docs).
#[derive(Debug)]
pub struct EventQueue {
    /// First cycle the bitmap covers. Only ever moves forward.
    base: u64,
    /// Bit `c - base` set ⇔ a wake-up is queued for cycle `c`
    /// (`base <= c < base + NEAR`).
    near: [u64; WORDS],
    /// Wake-ups at `base + NEAR` or later (unsorted duplicates fine).
    far: BinaryHeap<Reverse<u64>>,
}

impl EventQueue {
    /// An empty queue whose near window starts at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            base: 0,
            near: [0; WORDS],
            far: BinaryHeap::new(),
        }
    }

    /// Publishes a wake-up at absolute cycle `at`. Duplicates are
    /// deduplicated within the near window and tolerated beyond it.
    /// Publishing before `base` (a cycle the queue has already advanced
    /// past) is a component contract violation; release builds clamp it
    /// to `base` so it is observed — early, never late.
    pub fn schedule(&mut self, at: u64) {
        debug_assert!(at >= self.base, "wake-up scheduled into the past");
        self.schedule_lenient(at);
    }

    /// [`Self::schedule`] without the past-cycle debug assertion, for
    /// tests that deliberately inject a stale wake-up to pin the
    /// clamping behavior release builds rely on.
    #[doc(hidden)]
    pub fn schedule_lenient(&mut self, at: u64) {
        let at = at.max(self.base);
        if at < self.base + NEAR {
            let idx = (at - self.base) as usize;
            let (word, bit) = (idx / 64, idx % 64);
            self.near[word] |= 1 << bit;
        } else {
            self.far.push(Reverse(at));
        }
    }

    /// Removes and returns the earliest queued wake-up at or after
    /// `after`, discarding everything earlier (those cycles have been
    /// stepped or jumped past). Advances the near window to `after`.
    pub fn pop_at_or_after(&mut self, after: u64) -> Option<u64> {
        self.advance_to(after);
        // Near window first: scan words for the lowest set bit.
        for w in 0..WORDS {
            if self.near[w] != 0 {
                let bit = self.near[w].trailing_zeros() as u64;
                self.near[w] &= self.near[w] - 1;
                return Some(self.base + (w as u64) * 64 + bit);
            }
        }
        // Then the far heap (its minimum is ≥ base + NEAR ≥ after).
        let Reverse(at) = self.far.pop()?;
        Some(at)
    }

    /// Moves the window start to `to`, dropping near entries before it
    /// and migrating far entries that now fall inside the window.
    fn advance_to(&mut self, to: u64) {
        if to <= self.base {
            return;
        }
        let delta = to - self.base;
        if delta >= NEAR {
            self.near = [0; WORDS];
        } else {
            // Shift the bitmap down by `delta` bits.
            let (words, bits) = ((delta / 64) as usize, delta % 64);
            for w in 0..WORDS {
                let src = w + words;
                let mut v = if src < WORDS { self.near[src] } else { 0 };
                if bits != 0 {
                    v >>= bits;
                    if src + 1 < WORDS {
                        v |= self.near[src + 1] << (64 - bits);
                    }
                }
                self.near[w] = v;
            }
        }
        self.base = to;
        // Pull far entries that the window now covers; entries the window
        // advanced *past* (possible when the cursor jumps beyond a queued
        // far cycle) are discarded exactly like dropped near bits.
        while let Some(&Reverse(at)) = self.far.peek() {
            if at >= self.base + NEAR {
                break;
            }
            self.far.pop();
            if at >= self.base {
                self.schedule(at);
            }
        }
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_order_with_dedup() {
        let mut q = EventQueue::new();
        for at in [5, 3, 9, 3, 3, 7] {
            q.schedule(at);
        }
        assert_eq!(q.pop_at_or_after(0), Some(3));
        assert_eq!(q.pop_at_or_after(0), Some(5));
        assert_eq!(q.pop_at_or_after(0), Some(7));
        assert_eq!(q.pop_at_or_after(0), Some(9));
        assert_eq!(q.pop_at_or_after(0), None);
    }

    #[test]
    fn discards_entries_before_after() {
        let mut q = EventQueue::new();
        for at in [1, 2, 50, 1000] {
            q.schedule(at);
        }
        assert_eq!(q.pop_at_or_after(10), Some(50));
        assert_eq!(q.pop_at_or_after(10), Some(1000));
        assert_eq!(q.pop_at_or_after(10), None);
    }

    #[test]
    fn far_entries_migrate_into_the_window() {
        let mut q = EventQueue::new();
        q.schedule(NEAR + 100); // lands in the far heap
        q.schedule(NEAR + 70);
        q.schedule(3);
        assert_eq!(q.pop_at_or_after(0), Some(3));
        assert_eq!(q.pop_at_or_after(4), Some(NEAR + 70));
        assert_eq!(q.pop_at_or_after(NEAR + 71), Some(NEAR + 100));
        assert_eq!(q.pop_at_or_after(NEAR + 101), None);
    }

    #[test]
    fn window_shift_preserves_pending_entries() {
        let mut q = EventQueue::new();
        // Entries scattered across several words of the bitmap.
        let ats: Vec<u64> = (0..20).map(|i| 37 + i * 97).collect();
        for &at in &ats {
            q.schedule(at);
        }
        // Jump forward in odd strides; entries must come out in order,
        // never early, and match an independently computed reference.
        let mut got = Vec::new();
        let mut cursor = 0;
        while let Some(at) = q.pop_at_or_after(cursor) {
            assert!(at >= cursor);
            got.push(at);
            cursor = at + 13; // skip some queued cycles on purpose
        }
        let mut want = Vec::new();
        let mut cur = 0u64;
        for &at in &ats {
            if at >= cur {
                want.push(at);
                cur = at + 13;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn whole_window_jump_clears_near_entries() {
        let mut q = EventQueue::new();
        q.schedule(10);
        q.schedule(NEAR - 1);
        q.schedule(3 * NEAR + 5);
        assert_eq!(q.pop_at_or_after(2 * NEAR), Some(3 * NEAR + 5));
        assert_eq!(q.pop_at_or_after(0), None);
    }

    #[test]
    fn stale_schedule_clamps_forward() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_at_or_after(100), None); // window now starts at 100
        q.schedule_lenient(7); // stale: clamped to 100, not lost
        assert_eq!(q.pop_at_or_after(100), Some(100));
    }

    #[test]
    fn duplicate_far_entries_pop_once_each() {
        let mut q = EventQueue::new();
        q.schedule(NEAR + 9);
        q.schedule(NEAR + 9);
        assert_eq!(q.pop_at_or_after(0), Some(NEAR + 9));
        // The duplicate migrated/popped as its own entry; popping again at
        // a later cursor must not resurface the same cycle... it may pop
        // the duplicate (same value), but never anything earlier.
        let again = q.pop_at_or_after(NEAR + 10);
        assert_eq!(again, None);
    }
}

//! A busy core tick does not allocate (DESIGN.md, "Hot-path rules").
//!
//! A counting global allocator wraps the system one, so this file holds
//! exactly one test: nothing else in its binary allocates while the run
//! is measured. The budget is one allocation per stepped cycle for a
//! whole 16-core ticket-lock run, which leaves room for what legitimately
//! allocates per event (a miss's MSHR wait list, a fill's line data) but
//! not for any per-tick buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mcsim_consistency::Model;
use mcsim_core::{Machine, MachineConfig};
use mcsim_guard::GuardConfig;
use mcsim_proc::Techniques;
use mcsim_workloads::contended;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn ticket_lock_run_allocates_less_than_once_per_stepped_cycle() {
    let mut cfg = MachineConfig::paper_with(Model::Sc, Techniques::BOTH);
    // The release build's checking cadence, so a debug test counts what
    // a release run does (per-cycle checks build diagnostic snapshots).
    cfg.guard.invariant_period = GuardConfig::RELEASE_PERIOD;
    let machine = Machine::new(cfg, contended::ticket_lock(16, 1));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (report, telemetry) = machine.run_telemetry();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        allocations < telemetry.stepped_cycles,
        "{allocations} heap allocations over {} stepped cycles",
        telemetry.stepped_cycles
    );
}

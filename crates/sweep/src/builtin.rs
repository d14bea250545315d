//! Named built-in sweep specs — the experiment grids of EXPERIMENTS.md
//! expressed declaratively, shared by `mcsim sweep`, `mcsim serve` and
//! the pinned EXPERIMENTS.md blocks.

use mcsim_consistency::Model;
use mcsim_mem::{DirFormat, OverflowPolicy};
use mcsim_proc::Techniques;

use crate::spec::{SweepSpec, Window, WorkloadSpec};

/// A critical-section workload axis value with the repo's default region
/// geometry.
#[allow(clippy::too_many_arguments)]
fn cs(
    label: &str,
    procs: usize,
    sections: usize,
    reads: usize,
    writes: usize,
    locks: usize,
    think: u32,
    private_regions: bool,
) -> WorkloadSpec {
    WorkloadSpec::CriticalSections {
        label: label.to_string(),
        procs,
        sections,
        reads,
        writes,
        locks,
        lines_per_region: 8,
        think,
        private_regions,
    }
}

/// E6 — §5 model equalization on synthetic critical-section workloads:
/// the full extended model matrix × all four technique settings on
/// three contention regimes.
#[must_use]
pub fn e6_equalization() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e6-equalization",
        "§5 equalization: model spread collapses once both techniques are on",
    );
    spec.models = Model::ALL_EXTENDED.to_vec();
    spec.techniques = Techniques::ALL.to_vec();
    spec.workloads = vec![
        cs(
            "uncontended (2 procs, private locks)",
            2,
            4,
            3,
            3,
            2,
            0,
            false,
        ),
        cs("contended (4 procs, one lock)", 4, 3, 2, 2, 1, 0, false),
        cs(
            "mixed (4 procs, 2 locks, think time)",
            4,
            3,
            3,
            2,
            2,
            40,
            false,
        ),
    ];
    spec
}

/// E7 — §5 rollback/reissue rates of the speculative-load buffer as
/// contention and think time vary (SC with both techniques).
#[must_use]
pub fn e7_speculation() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e7-speculation",
        "§5 invalidations of speculated values are infrequent: rollback rates vs contention",
    );
    spec.models = vec![Model::Sc];
    spec.techniques = vec![Techniques::BOTH];
    for procs in [2usize, 4, 8] {
        for locks in [procs, 1] {
            for think in [0u32, 100] {
                let lock_desc = if locks == 1 {
                    "1 lock (contended)".to_string()
                } else {
                    format!("{locks} locks (private)")
                };
                spec.workloads.push(cs(
                    &format!("{procs} procs / {lock_desc} / think {think}"),
                    procs,
                    4,
                    3,
                    3,
                    locks,
                    think,
                    false,
                ));
            }
        }
    }
    spec
}

/// E12 — miss-latency sensitivity on the paper's Example 2 consumer:
/// the techniques' benefit grows with the latency they hide.
#[must_use]
pub fn e12_latency() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e12-latency",
        "miss-latency sensitivity of Example 2: technique benefit grows with latency",
    );
    spec.models = vec![Model::Sc, Model::Rc];
    spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
    spec.machine.miss_latency = vec![20, 50, 100, 200, 400];
    spec.workloads = vec![WorkloadSpec::PaperExample2];
    spec
}

/// E13 — §3.2 lookahead sensitivity: a 16-line store sweep under SC with
/// both techniques, across instruction-window sizes.
#[must_use]
pub fn e13_window() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e13-window",
        "§3.2 lookahead: shrinking the instruction window caps hidden latency",
    );
    spec.models = vec![Model::Sc];
    spec.techniques = vec![Techniques::BOTH];
    spec.machine.window = vec![
        Window::Finite { rob: 4, fetch: 1 },
        Window::Finite { rob: 8, fetch: 2 },
        Window::Finite { rob: 16, fetch: 4 },
        Window::Finite { rob: 32, fetch: 4 },
        Window::Finite { rob: 64, fetch: 8 },
        Window::Ideal,
    ];
    spec.workloads = vec![WorkloadSpec::ArraySweep {
        n: 16,
        stores: true,
    }];
    spec
}

/// E17 — processor-count scaling on private-region critical sections:
/// with disjoint data the directory pipelines all cores until its
/// single-ported bandwidth saturates.
#[must_use]
pub fn e17_scaling() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e17-scaling",
        "processor-count scaling of private critical sections (directory saturation)",
    );
    spec.models = vec![Model::Sc, Model::Rc];
    spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
    for procs in [1usize, 2, 4, 8, 12] {
        spec.workloads.push(cs(
            &format!("{procs} procs"),
            procs,
            4,
            3,
            3,
            procs,
            0,
            true,
        ));
    }
    spec
}

/// The E20 directory-format axis: full-map as ground truth, a coarse
/// vector (8 processors per bit — DASH cluster granularity), and 4-entry
/// limited pointers with both overflow policies.
fn e20_dir_formats() -> Vec<DirFormat> {
    vec![
        DirFormat::FullMap,
        DirFormat::CoarseVector { procs_per_bit: 8 },
        DirFormat::LimitedPointer {
            ptrs: 4,
            overflow: OverflowPolicy::Broadcast,
        },
        DirFormat::LimitedPointer {
            ptrs: 4,
            overflow: OverflowPolicy::Invalidate,
        },
    ]
}

/// E20 — scale-out: does the techniques' model equalization survive
/// core-count growth and imprecise (scalable) directory formats? A
/// ticket lock — the worst case for invalidation fan-out — at 4, 16,
/// and 64 processors, SC vs RC, base vs both techniques, across all
/// four directory formats.
#[must_use]
pub fn e20_scaleout() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e20-scaleout",
        "scale-out: equalization vs core count under scalable directory formats",
    );
    spec.models = vec![Model::Sc, Model::Rc];
    spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
    spec.machine.dir_format = e20_dir_formats();
    spec.workloads = vec![
        WorkloadSpec::TicketLock {
            procs: 4,
            increments: 2,
        },
        WorkloadSpec::TicketLock {
            procs: 16,
            increments: 2,
        },
        WorkloadSpec::TicketLock {
            procs: 64,
            increments: 1,
        },
    ];
    // 64 spinners under Dir4NB re-miss constantly; give the worst cell
    // headroom over the default 2M-cycle budget.
    spec.max_cycles = 8_000_000;
    spec
}

/// E20 (smoke) — one representative slice of [`e20_scaleout`] for CI:
/// the 16-processor ticket lock, RC × both techniques, every format.
#[must_use]
pub fn e20_smoke() -> SweepSpec {
    let mut spec = SweepSpec::new(
        "e20-smoke",
        "E20 single-slice smoke: 16-proc ticket lock across directory formats",
    );
    spec.models = vec![Model::Rc];
    spec.techniques = vec![Techniques::BOTH];
    spec.machine.dir_format = e20_dir_formats();
    spec.workloads = vec![WorkloadSpec::TicketLock {
        procs: 16,
        increments: 2,
    }];
    spec
}

/// Names accepted by [`builtin`], in documentation order.
pub const BUILTIN_NAMES: [&str; 7] = [
    "e6-equalization",
    "e7-speculation",
    "e12-latency",
    "e13-window",
    "e17-scaling",
    "e20-scaleout",
    "e20-smoke",
];

/// Looks up a built-in spec by name.
#[must_use]
pub fn builtin(name: &str) -> Option<SweepSpec> {
    match name {
        "e6-equalization" => Some(e6_equalization()),
        "e7-speculation" => Some(e7_speculation()),
        "e12-latency" => Some(e12_latency()),
        "e13-window" => Some(e13_window()),
        "e17-scaling" => Some(e17_scaling()),
        "e20-scaleout" => Some(e20_scaleout()),
        "e20-smoke" => Some(e20_smoke()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in BUILTIN_NAMES {
            let spec = builtin(name).unwrap_or_else(|| panic!("missing builtin {name}"));
            assert_eq!(spec.name, name);
            spec.validate().expect("builtin specs validate");
            assert!(!spec.is_empty());
        }
        assert!(builtin("no-such-sweep").is_none());
    }

    #[test]
    fn grid_sizes_match_experiment_definitions() {
        assert_eq!(e6_equalization().len(), 3 * 7 * 4);
        assert_eq!(e7_speculation().len(), 12);
        assert_eq!(e12_latency().len(), 5 * 2 * 2);
        assert_eq!(e13_window().len(), 6);
        assert_eq!(e17_scaling().len(), 5 * 2 * 2);
        // 3 core counts x 4 directory formats x 2 models x 2 techniques.
        assert_eq!(e20_scaleout().len(), 3 * 4 * 2 * 2);
        assert_eq!(e20_smoke().len(), 4);
    }

    #[test]
    fn builtin_specs_round_trip_through_json() {
        for name in BUILTIN_NAMES {
            let spec = builtin(name).expect("exists");
            let json = serde_json::to_string_pretty(&spec).expect("serializes");
            let back: SweepSpec = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, spec, "round trip of {name}");
            // Points (and therefore seeds) are identical after the trip.
            assert_eq!(back.points(), spec.points());
        }
    }
}

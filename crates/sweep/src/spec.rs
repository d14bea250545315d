//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a cartesian grid over the design space the paper
//! explores — consistency models × technique combinations × machine
//! parameters × workloads — plus a seed. Expanding the spec yields a flat,
//! deterministically ordered list of [`SweepPoint`]s, each carrying its
//! own derived seed, so execution order (and thread scheduling) can never
//! influence what any point computes.

use mcsim_consistency::Model;
use mcsim_core::{Machine, MachineConfig};
use mcsim_isa::Program;
use mcsim_mem::{DirFormat, MemTimings, Protocol};
use mcsim_proc::{ProcConfig, Techniques};
use mcsim_workloads::contended;
use mcsim_workloads::generators::{
    array_sweep, critical_sections, pipeline_handoff, CriticalSections,
};
use mcsim_workloads::paper;
use serde::{Deserialize, Serialize};

/// Instruction-window axis value: the paper-calibrated ideal frontend or
/// a finite ROB/fetch-width pair (E13's lookahead sensitivity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Window {
    /// Unbounded fetch, 64-entry ROB (the paper's walk-through setting).
    Ideal,
    /// Finite reorder buffer and fetch width.
    Finite {
        /// Reorder-buffer capacity.
        rob: usize,
        /// Instructions fetched per cycle.
        fetch: usize,
    },
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Window::Ideal => write!(f, "ideal"),
            Window::Finite { rob, fetch } => write!(f, "rob{rob}/w{fetch}"),
        }
    }
}

/// Machine-parameter axes. Every listed value of every axis is crossed
/// with every other; a single-element axis pins that parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineAxes {
    /// Clean-miss latencies in cycles (each must be even and ≥ 4; the
    /// paper's calibration is 100).
    pub miss_latency: Vec<u64>,
    /// Instruction-window settings.
    pub window: Vec<Window>,
    /// Coherence protocols.
    pub protocol: Vec<Protocol>,
    /// Directory sharer-set formats (the scale-out axis: full-map,
    /// coarse vector, limited pointers).
    pub dir_format: Vec<DirFormat>,
}

impl Default for MachineAxes {
    fn default() -> Self {
        MachineAxes {
            miss_latency: vec![100],
            window: vec![Window::Ideal],
            protocol: vec![Protocol::Invalidate],
            dir_format: vec![DirFormat::FullMap],
        }
    }
}

/// A workload axis value: which programs run on the machine, with any
/// generator parameters. Workload-generator randomness (address
/// selection) draws from the *point* seed, never from global state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Lock-protected read/write sections (the paper's central motif).
    CriticalSections {
        /// Display label for result rows.
        label: String,
        /// Number of processors.
        procs: usize,
        /// Critical sections per processor.
        sections: usize,
        /// Loads per section.
        reads: usize,
        /// Stores per section.
        writes: usize,
        /// Distinct locks (1 = full contention).
        locks: usize,
        /// Shared data lines per lock region.
        lines_per_region: usize,
        /// Local ALU cycles between sections.
        think: u32,
        /// Pin each processor to its own lock/region.
        private_regions: bool,
    },
    /// The paper's Example 1 producer (§3.3).
    PaperExample1,
    /// The paper's Example 2 consumer (§3.3/§4.1), with its memory setup.
    PaperExample2,
    /// Figure 5's two-processor segment with the canonical antagonist
    /// timing (delay 50, new D = 5) and primed caches.
    Figure5,
    /// A strided walk over `n` lines, loads or stores.
    ArraySweep {
        /// Lines touched.
        n: usize,
        /// `true` = stores, `false` = loads.
        stores: bool,
    },
    /// Flag-passing pipeline across processors.
    PipelineHandoff {
        /// Pipeline stages (processors).
        stages: usize,
        /// Values pushed through the pipeline.
        values: usize,
    },
    /// Ticket lock: global spinning on one hot line (the E20 workload).
    TicketLock {
        /// Number of processors.
        procs: usize,
        /// Counter increments per processor.
        increments: usize,
    },
    /// Anderson-style array queue lock: local spinning.
    QueueLock {
        /// Number of processors.
        procs: usize,
        /// Counter increments per processor.
        increments: usize,
    },
    /// Seqlock: one writer, optimistic readers.
    Seqlock {
        /// Reader processors (writer is an extra processor).
        readers: usize,
        /// Versions the writer publishes.
        updates: usize,
        /// Data words per version (1..=7).
        words: usize,
    },
    /// RCU-style pointer publication with dependent reads.
    Rcu {
        /// Reader processors (writer is an extra processor).
        readers: usize,
        /// Objects the writer publishes.
        versions: usize,
    },
    /// Stride-controlled false-sharing sweep.
    FalseSharing {
        /// Number of processors.
        procs: usize,
        /// Increments per processor.
        iters: usize,
        /// Words between adjacent processors' data (8 = line-private).
        stride_words: usize,
    },
}

impl WorkloadSpec {
    /// Short label for result rows and tables.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::CriticalSections { label, .. } => label.clone(),
            WorkloadSpec::PaperExample1 => "example1".to_string(),
            WorkloadSpec::PaperExample2 => "example2".to_string(),
            WorkloadSpec::Figure5 => "figure5".to_string(),
            WorkloadSpec::ArraySweep { n, stores } => {
                format!(
                    "array_sweep({n},{})",
                    if *stores { "stores" } else { "loads" }
                )
            }
            WorkloadSpec::PipelineHandoff { stages, values } => {
                format!("pipeline({stages}x{values})")
            }
            WorkloadSpec::TicketLock { procs, increments } => {
                format!("ticket_lock({procs}x{increments})")
            }
            WorkloadSpec::QueueLock { procs, increments } => {
                format!("queue_lock({procs}x{increments})")
            }
            WorkloadSpec::Seqlock {
                readers,
                updates,
                words,
            } => format!("seqlock({readers}r,{updates}u,{words}w)"),
            WorkloadSpec::Rcu { readers, versions } => format!("rcu({readers}r,{versions}v)"),
            WorkloadSpec::FalseSharing {
                procs,
                iters,
                stride_words,
            } => format!("false_sharing({procs}x{iters},stride{stride_words})"),
        }
    }

    /// Builds the per-processor programs for this workload.
    #[must_use]
    pub fn programs(&self, seed: u64) -> Vec<Program> {
        match self {
            WorkloadSpec::CriticalSections {
                procs,
                sections,
                reads,
                writes,
                locks,
                lines_per_region,
                think,
                private_regions,
                ..
            } => critical_sections(&CriticalSections {
                procs: *procs,
                sections: *sections,
                reads: *reads,
                writes: *writes,
                locks: *locks,
                lines_per_region: *lines_per_region,
                think: *think,
                private_regions: *private_regions,
                seed,
            }),
            WorkloadSpec::PaperExample1 => vec![paper::example1()],
            WorkloadSpec::PaperExample2 => vec![paper::example2()],
            WorkloadSpec::Figure5 => vec![
                paper::figure5_main(),
                paper::figure5_antagonist(FIG5_DELAY, FIG5_NEW_D),
            ],
            WorkloadSpec::ArraySweep { n, stores } => vec![array_sweep(*n, *stores)],
            WorkloadSpec::PipelineHandoff { stages, values } => pipeline_handoff(*stages, *values),
            WorkloadSpec::TicketLock { procs, increments } => {
                contended::ticket_lock(*procs, *increments)
            }
            WorkloadSpec::QueueLock { procs, increments } => {
                contended::queue_lock(*procs, *increments).0
            }
            WorkloadSpec::Seqlock {
                readers,
                updates,
                words,
            } => contended::seqlock(*readers, *updates, *words),
            WorkloadSpec::Rcu { readers, versions } => contended::rcu(*readers, *versions),
            WorkloadSpec::FalseSharing {
                procs,
                iters,
                stride_words,
            } => contended::false_sharing(*procs, *iters, *stride_words),
        }
    }

    /// Primes machine state (memory contents, cache warm-up) the workload
    /// assumes, mirroring what the hand-written experiment binaries did.
    pub fn setup(&self, m: &mut Machine) {
        match self {
            WorkloadSpec::PaperExample2 => paper::setup_example2(m),
            WorkloadSpec::Figure5 => paper::setup_figure5(m, FIG5_NEW_D),
            WorkloadSpec::QueueLock { procs, increments } => {
                for (a, v) in contended::queue_lock(*procs, *increments).1 {
                    m.write_memory(a, v);
                }
            }
            _ => {}
        }
    }
}

/// The antagonist parameters behind [`WorkloadSpec::Figure5`]: the same
/// pair the Figure 5 integration test pins.
const FIG5_DELAY: u32 = 50;
const FIG5_NEW_D: u64 = 5;

/// Parses the `mcsim --workload` syntax: a name or alias, then the
/// contended workloads' optional `:`-separated parameters, each ≥ 1
/// (`ticket-lock:64:2` = 64 processors, 2 increments each). Omitted
/// parameters take the defaults below.
impl std::str::FromStr for WorkloadSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let params = parts
            .map(|p| match p.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad workload parameter `{p}` in `{spec}`")),
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let p = |i: usize, default: usize| params.get(i).copied().unwrap_or(default);
        let fixed = |w: WorkloadSpec| {
            if params.is_empty() {
                Ok(w)
            } else {
                Err(format!("workload `{name}` takes no parameters"))
            }
        };
        match name {
            "figure5" | "fig5" => fixed(WorkloadSpec::Figure5),
            "example1" | "ex1" => fixed(WorkloadSpec::PaperExample1),
            "example2" | "ex2" => fixed(WorkloadSpec::PaperExample2),
            "ticket-lock" | "ticket" => Ok(WorkloadSpec::TicketLock {
                procs: p(0, 4),
                increments: p(1, 4),
            }),
            "queue-lock" | "queue" => Ok(WorkloadSpec::QueueLock {
                procs: p(0, 4),
                increments: p(1, 4),
            }),
            "seqlock" => {
                let words = p(2, 4);
                if !(1..=7).contains(&words) {
                    return Err(format!("seqlock words must be 1..=7, got {words}"));
                }
                Ok(WorkloadSpec::Seqlock {
                    readers: p(0, 2),
                    updates: p(1, 4),
                    words,
                })
            }
            "rcu" => Ok(WorkloadSpec::Rcu {
                readers: p(0, 2),
                versions: p(1, 4),
            }),
            "false-sharing" | "fs" => Ok(WorkloadSpec::FalseSharing {
                procs: p(0, 4),
                iters: p(1, 8),
                stride_words: p(2, 1),
            }),
            other => Err(format!(
                "unknown workload `{other}` (try figure5, example1, example2, \
                 ticket-lock, queue-lock, seqlock, rcu, false-sharing)"
            )),
        }
    }
}

/// A declarative, serializable description of one experiment sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name (used in artifacts and progress output).
    pub name: String,
    /// One-line description of what the sweep shows.
    pub description: String,
    /// Root seed; every point derives its own seed from this and its
    /// index, so adding points never perturbs existing ones' programs.
    pub seed: u64,
    /// Consistency models to cross.
    pub models: Vec<Model>,
    /// Technique combinations to cross.
    pub techniques: Vec<Techniques>,
    /// Machine-parameter axes.
    pub machine: MachineAxes,
    /// Workloads to cross.
    pub workloads: Vec<WorkloadSpec>,
    /// Cycle budget per point; a point reaching it is recorded as a
    /// failed cell, not an abort.
    pub max_cycles: u64,
}

impl SweepSpec {
    /// A spec with the paper-calibrated machine and a 2M-cycle budget,
    /// ready for axes to be filled in.
    #[must_use]
    pub fn new(name: &str, description: &str) -> Self {
        SweepSpec {
            name: name.to_string(),
            description: description.to_string(),
            seed: 1,
            models: vec![Model::Sc],
            techniques: vec![Techniques::BOTH],
            machine: MachineAxes::default(),
            workloads: Vec::new(),
            max_cycles: MachineConfig::paper().max_cycles,
        }
    }

    /// Checks the spec describes a non-empty, well-formed grid.
    ///
    /// Parameter values that only fail *inside* a run (e.g. a workload
    /// with zero locks) are deliberately not rejected here: the executor
    /// records such points as failed cells, keeping the rest of the grid
    /// alive.
    ///
    /// # Errors
    /// A human-readable message naming the empty axis.
    pub fn validate(&self) -> Result<(), String> {
        for (axis, empty) in [
            ("models", self.models.is_empty()),
            ("techniques", self.techniques.is_empty()),
            ("machine.miss_latency", self.machine.miss_latency.is_empty()),
            ("machine.window", self.machine.window.is_empty()),
            ("machine.protocol", self.machine.protocol.is_empty()),
            ("machine.dir_format", self.machine.dir_format.is_empty()),
            ("workloads", self.workloads.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep '{}': axis '{axis}' is empty", self.name));
            }
        }
        if self.max_cycles == 0 {
            return Err(format!("sweep '{}': max_cycles is zero", self.name));
        }
        Ok(())
    }

    /// Total number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.machine.protocol.len()
            * self.machine.dir_format.len()
            * self.machine.miss_latency.len()
            * self.machine.window.len()
            * self.models.len()
            * self.techniques.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its flat, deterministic point list.
    ///
    /// Axis nesting order (outermost first): workload, protocol,
    /// directory format, miss latency, window, model, techniques. The
    /// order is part of the spec's contract: point indices — and
    /// therefore per-point seeds — are stable for a given spec.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &protocol in &self.machine.protocol {
                for &dir_format in &self.machine.dir_format {
                    for &miss_latency in &self.machine.miss_latency {
                        for &window in &self.machine.window {
                            for &model in &self.models {
                                for &techniques in &self.techniques {
                                    let index = out.len();
                                    out.push(SweepPoint {
                                        index,
                                        seed: derive_seed(self.seed, index as u64),
                                        workload: workload.clone(),
                                        protocol,
                                        dir_format,
                                        miss_latency,
                                        window,
                                        model,
                                        techniques,
                                        max_cycles: self.max_cycles,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One fully instantiated grid point, self-contained: everything needed
/// to run it (and nothing about when or where it runs).
///
/// Serializable so the point has a *canonical form*: the journal layer
/// content-addresses each point by hashing its canonical JSON (see
/// [`crate::journal::point_hash`]), which is what lets a resumed or
/// process-isolated sweep prove it is completing the same computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Position in the spec's expansion order.
    pub index: usize,
    /// Seed for this point's workload generation.
    pub seed: u64,
    /// Workload to run.
    pub workload: WorkloadSpec,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Directory sharer-set format.
    pub dir_format: DirFormat,
    /// Clean-miss latency in cycles.
    pub miss_latency: u64,
    /// Instruction-window setting.
    pub window: Window,
    /// Consistency model.
    pub model: Model,
    /// Technique combination.
    pub techniques: Techniques,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl SweepPoint {
    /// The machine configuration this point describes.
    ///
    /// # Panics
    /// If `miss_latency` is odd or below 4 (surfaces as a failed cell
    /// when run through the executor).
    #[must_use]
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::paper_with(self.model, self.techniques);
        cfg.mem.timings = MemTimings::with_miss_latency(self.miss_latency);
        cfg.mem.protocol = self.protocol;
        cfg.mem.dir_format = self.dir_format;
        cfg.proc = match self.window {
            Window::Ideal => ProcConfig::paper(self.techniques),
            Window::Finite { rob, fetch } => ProcConfig::with_window(self.techniques, rob, fetch),
        };
        cfg.max_cycles = self.max_cycles;
        cfg
    }
}

/// Derives a point seed from the spec seed and point index (splitmix64
/// finalizer over their combination — decorrelated even for adjacent
/// indices).
#[must_use]
pub fn derive_seed(spec_seed: u64, index: u64) -> u64 {
    let mut z = spec_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("tiny", "unit-test spec");
        spec.models = vec![Model::Sc, Model::Rc];
        spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
        spec.machine.miss_latency = vec![20, 100];
        spec.workloads = vec![
            WorkloadSpec::PaperExample1,
            WorkloadSpec::ArraySweep { n: 4, stores: true },
        ];
        spec
    }

    #[test]
    fn point_count_is_cartesian_product() {
        let spec = tiny_spec();
        assert_eq!(spec.len(), 2 * 2 * 2 * 2);
        assert_eq!(spec.points().len(), spec.len());
    }

    #[test]
    fn expansion_order_is_stable_and_indexed() {
        let points = tiny_spec().points();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Innermost axis is techniques, then models.
        assert_eq!(points[0].techniques, Techniques::NONE);
        assert_eq!(points[1].techniques, Techniques::BOTH);
        assert_eq!(points[0].model, Model::Sc);
        assert_eq!(points[2].model, Model::Rc);
        // Outermost axis is the workload.
        assert_eq!(points[0].workload.label(), "example1");
        assert_eq!(
            points.last().unwrap().workload.label(),
            "array_sweep(4,stores)"
        );
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let points = tiny_spec().points();
        assert_eq!(points[0].seed, derive_seed(1, 0));
        let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            points.len(),
            "per-point seeds must be distinct"
        );
        // Changing the spec seed changes every point seed.
        let mut other = tiny_spec();
        other.seed = 2;
        assert_ne!(other.points()[0].seed, points[0].seed);
    }

    #[test]
    fn validate_rejects_empty_axes() {
        let mut spec = tiny_spec();
        spec.models.clear();
        assert!(spec.validate().unwrap_err().contains("models"));
        let mut spec = tiny_spec();
        spec.workloads.clear();
        assert!(spec.validate().unwrap_err().contains("workloads"));
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn dir_format_axis_crosses_and_reaches_the_config() {
        use mcsim_mem::OverflowPolicy;
        let mut spec = tiny_spec();
        spec.machine.dir_format = vec![
            DirFormat::FullMap,
            DirFormat::LimitedPointer {
                ptrs: 4,
                overflow: OverflowPolicy::Broadcast,
            },
        ];
        assert_eq!(spec.len(), 2 * 2 * 2 * 2 * 2);
        let points = spec.points();
        assert_eq!(points.len(), spec.len());
        assert_eq!(points[0].dir_format, DirFormat::FullMap);
        let p = points
            .iter()
            .find(|p| p.dir_format != DirFormat::FullMap)
            .expect("limited-pointer points exist");
        assert!(matches!(
            p.machine_config().mem.dir_format,
            DirFormat::LimitedPointer { ptrs: 4, .. }
        ));
    }

    #[test]
    fn contended_workload_specs_build_their_processor_counts() {
        let cases: Vec<(WorkloadSpec, usize)> = vec![
            (
                WorkloadSpec::TicketLock {
                    procs: 3,
                    increments: 1,
                },
                3,
            ),
            (
                WorkloadSpec::QueueLock {
                    procs: 3,
                    increments: 1,
                },
                3,
            ),
            (
                WorkloadSpec::Seqlock {
                    readers: 2,
                    updates: 1,
                    words: 2,
                },
                3,
            ),
            (
                WorkloadSpec::Rcu {
                    readers: 2,
                    versions: 1,
                },
                3,
            ),
            (
                WorkloadSpec::FalseSharing {
                    procs: 4,
                    iters: 1,
                    stride_words: 1,
                },
                4,
            ),
        ];
        for (spec, procs) in cases {
            assert_eq!(spec.programs(1).len(), procs, "{}", spec.label());
            // Labels are distinct and parameter-revealing.
            assert!(spec.label().contains('('), "{}", spec.label());
        }
    }

    #[test]
    fn workload_names_parse_to_their_variants_and_defaults() {
        use WorkloadSpec as W;
        let tl = W::TicketLock {
            procs: 4,
            increments: 4,
        };
        let ql = W::QueueLock {
            procs: 4,
            increments: 4,
        };
        let fs = W::FalseSharing {
            procs: 4,
            iters: 8,
            stride_words: 1,
        };
        let cases = [
            ("figure5", W::Figure5),
            ("fig5", W::Figure5),
            ("example1", W::PaperExample1),
            ("ex1", W::PaperExample1),
            ("example2", W::PaperExample2),
            ("ex2", W::PaperExample2),
            ("ticket-lock", tl.clone()),
            ("ticket", tl),
            ("queue-lock", ql.clone()),
            ("queue", ql),
            (
                "seqlock",
                W::Seqlock {
                    readers: 2,
                    updates: 4,
                    words: 4,
                },
            ),
            (
                "rcu",
                W::Rcu {
                    readers: 2,
                    versions: 4,
                },
            ),
            ("false-sharing", fs.clone()),
            ("fs", fs),
            (
                "ticket-lock:64:2",
                W::TicketLock {
                    procs: 64,
                    increments: 2,
                },
            ),
        ];
        for (name, want) in cases {
            assert_eq!(name.parse::<W>(), Ok(want), "{name}");
        }
        for (name, err) in [
            ("fig5:3", "workload `fig5` takes no parameters"),
            (
                "ticket-lock:0",
                "bad workload parameter `0` in `ticket-lock:0`",
            ),
            ("seqlock:1:1:9", "seqlock words must be 1..=7, got 9"),
            (
                "bogus",
                "unknown workload `bogus` (try figure5, example1, example2, \
                 ticket-lock, queue-lock, seqlock, rcu, false-sharing)",
            ),
        ] {
            assert_eq!(name.parse::<W>(), Err(err.to_string()), "{name}");
        }
    }

    #[test]
    fn machine_config_applies_all_axes() {
        let mut spec = tiny_spec();
        spec.machine.window = vec![Window::Finite { rob: 8, fetch: 2 }];
        spec.machine.protocol = vec![Protocol::Update];
        let p = &spec.points()[0];
        let cfg = p.machine_config();
        assert_eq!(cfg.model, Model::Sc);
        assert_eq!(cfg.mem.protocol, Protocol::Update);
        assert_eq!(cfg.mem.timings.clean_miss(), 20);
        assert_eq!(cfg.proc.rob_size, 8);
        assert_eq!(cfg.proc.fetch_width, Some(2));
    }
}

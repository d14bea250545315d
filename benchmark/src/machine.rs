//! The machine-loop workloads (`contended`, `sparse`) and the probe that
//! measures the core, proc, mem, guard and trace layers on any
//! workload's machine inputs.

use std::time::{Duration, Instant};

use mcsim_consistency::Model;
use mcsim_core::{Engine, Machine, MachineConfig, RunReport, RunTelemetry};
use mcsim_isa::reg::{R1, R2, R3};
use mcsim_isa::Program;
use mcsim_mem::MemTimings;
use mcsim_proc::Techniques;
use mcsim_sweep::{derive_seed, SweepPoint, WorkloadSpec};
use mcsim_workloads::contended::{self, QUEUE_BASE};
use mcsim_workloads::generators::{self, DATA_BASE, LINE, LOCK_BASE};

use crate::stats::{quantile, sum};
use crate::tracer::{SpanId, Tracer};
use crate::{Layers, Plan, Setup, Tally, Workload};

/// Checks a finished run's architectural result.
type Expect = Box<dyn Fn(&RunReport) -> Result<(), String>>;

/// One simulator input: configuration, programs and initial state.
pub struct MachineInput {
    pub label: String,
    pub cfg: MachineConfig,
    pub programs: Vec<Program>,
    pub mem: Vec<(u64, u64)>,
    /// Lines preloaded shared into processor 0's cache.
    pub preload: Vec<u64>,
    /// Sweep workload whose own `setup` primes the machine.
    pub workload: Option<WorkloadSpec>,
}

impl MachineInput {
    /// The input a sweep grid point describes.
    pub fn from_point(p: &SweepPoint) -> Self {
        MachineInput {
            label: format!("point {} ({})", p.index, p.workload.label()),
            cfg: p.machine_config(),
            programs: p.workload.programs(p.seed),
            mem: Vec::new(),
            preload: Vec::new(),
            workload: Some(p.workload.clone()),
        }
    }

    pub fn build(&self, cfg: MachineConfig, engine: Engine) -> Machine {
        let mut m = Machine::new(cfg, self.programs.clone());
        m.set_engine(engine);
        for &(a, v) in &self.mem {
            m.write_memory(a, v);
        }
        for &a in &self.preload {
            m.preload_cache(0, a, false);
        }
        if let Some(w) = &self.workload {
            w.setup(&mut m);
        }
        m
    }
}

/// FNV-1a over a report's JSON: equal digests mean equal reports.
pub fn digest(report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("RunReport serializes");
    fnv(json.as_bytes())
}

/// FNV-1a 64.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn clean(report: &RunReport) -> Result<(), String> {
    if let Some(f) = &report.failure {
        return Err(format!("run failed: {f:?}"));
    }
    if report.timed_out {
        return Err("run timed out".to_string());
    }
    Ok(())
}

/// Builds and runs one input under the default configuration, with
/// `core.build` and `core.run` spans. Returns the report and the build +
/// run wall time.
pub fn timed_run(
    input: &MachineInput,
    tr: &Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> (RunReport, f64) {
    let started = Instant::now();
    let span = tr.begin("core.build", op, parent);
    let m = input.build(input.cfg, Engine::Event);
    tr.end(span);
    let span = tr.begin("core.run", op, parent);
    let report = m.run();
    tr.end(span);
    (report, started.elapsed().as_secs_f64())
}

/// Which machine-loop workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Dense events: lock and sharing kernels on 16 processors.
    Contended,
    /// Sparse events: a remote-miss pointer chase and a cached
    /// hit-compute chain on one processor.
    Sparse,
}

struct MachineWorkload {
    inputs: Vec<MachineInput>,
    /// Report digest of every input, agreed by both engines in setup.
    refs: Vec<u64>,
}

/// Generates the inputs, records every input's reference digest under
/// both engines (they must agree, and the run must pass its result
/// check), and runs one warm-up round.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let started = Instant::now();
    let cases = match kind {
        Kind::Contended => contended_inputs(seed),
        Kind::Sparse => sparse_inputs(seed),
    };
    let generate_us = started.elapsed().as_secs_f64() * 1e6;
    let mut problems = Vec::new();
    let mut inputs = Vec::new();
    let mut refs = Vec::new();
    for (input, expect) in cases {
        let event = input.build(input.cfg, Engine::Event).run();
        let legacy = input.build(input.cfg, Engine::LegacyStep).run();
        let d = digest(&event);
        if d != digest(&legacy) {
            problems.push(format!(
                "{}: event and per-cycle engines disagree",
                input.label
            ));
        }
        if let Err(e) = clean(&event).and_then(|()| expect(&event)) {
            problems.push(format!("{}: {e}", input.label));
        }
        inputs.push(input);
        refs.push(d);
    }
    let mut w = MachineWorkload { inputs, refs };
    let warm = w.measure(&Plan::Ops(1), &Tracer::off());
    problems.extend(warm.problems);
    Setup {
        workload: Box::new(w),
        generate_us,
        problems,
    }
}

impl Workload for MachineWorkload {
    /// One op is a round: every input once, in order.
    fn measure(&mut self, plan: &Plan, tr: &Tracer) -> Tally {
        let mut t = Tally::default();
        let started = Instant::now();
        while plan.more(started, t.attempted) {
            let op = t.attempted as u64;
            let root = tr.begin("round", op, None);
            let (mut op_s, mut cycles) = (0.0, 0);
            let mut bad = None;
            for (input, &want) in self.inputs.iter().zip(&self.refs) {
                let (report, s) = timed_run(input, tr, op, root);
                op_s += s;
                cycles += report.cycles;
                let span = tr.begin("bench.check", op, root);
                if digest(&report) != want {
                    bad.get_or_insert_with(|| format!("round {op}: {} differs", input.label));
                }
                tr.end(span);
            }
            tr.end(root);
            t.attempted += 1;
            match bad {
                Some(msg) => t.fail(msg),
                None => t.done(op_s * 1e3, cycles),
            }
        }
        t.wall_s = started.elapsed().as_secs_f64();
        t
    }

    fn layers(&mut self, _replay: &Tally, tr: &Tracer, budget: Duration) -> (Layers, Vec<String>) {
        probe(&self.inputs, tr, budget)
    }
}

/// Small seeded start values: they change what the kernels compute, not
/// how much work they do.
fn start_value(seed: u64, slot: u64) -> u64 {
    derive_seed(seed, slot) % 1000
}

fn contended_inputs(seed: u64) -> Vec<(MachineInput, Expect)> {
    const PROCS: usize = 16;
    let counter = DATA_BASE;
    let ticket = start_value(seed, 1);
    let tail = start_value(seed, 2);
    let base = start_value(seed, 3);
    let mask = contended::queue_lock_slots(PROCS) - 1;
    let fs_words: Vec<(u64, u64)> = (0..PROCS as u64)
        .map(|p| (DATA_BASE + p * 8, start_value(seed, 10 + p)))
        .collect();

    let mut out: Vec<(MachineInput, Expect)> = Vec::new();
    for model in [Model::Sc, Model::Rc] {
        let input = |label: &str, programs: Vec<Program>, mem: Vec<(u64, u64)>| MachineInput {
            label: format!("{label} {model}"),
            cfg: MachineConfig::paper_with(model, Techniques::BOTH),
            programs,
            mem,
            preload: Vec::new(),
            workload: None,
        };
        let counter_is = move |want: u64| -> Expect {
            Box::new(move |r: &RunReport| {
                let got = r.mem_word(counter);
                (got == want)
                    .then_some(())
                    .ok_or(format!("counter {got}, want {want}"))
            })
        };
        out.push((
            input(
                "ticket-lock 16x1",
                contended::ticket_lock(PROCS, 1),
                vec![
                    (LOCK_BASE, ticket),
                    (LOCK_BASE + LINE, ticket),
                    (counter, base),
                ],
            ),
            counter_is(base + PROCS as u64),
        ));
        // The generator opens slot 0; a seeded tail opens its own slot.
        out.push((
            input(
                "queue-lock 16x1",
                contended::queue_lock(PROCS, 1).0,
                vec![
                    (LOCK_BASE, tail),
                    (QUEUE_BASE, 0),
                    (QUEUE_BASE + (tail & mask) * LINE, 1),
                    (counter, base),
                ],
            ),
            counter_is(base + PROCS as u64),
        ));
        out.push((
            input("seqlock 15x2x4", contended::seqlock(15, 2, 4), Vec::new()),
            readers_hold(R3, 2 * 4 * 5 / 2),
        ));
        out.push((
            input("rcu 15x4", contended::rcu(15, 4), Vec::new()),
            readers_hold(R2, 100 + 4),
        ));
        let words = fs_words.clone();
        out.push((
            input(
                "false-sharing 16x8x1",
                contended::false_sharing(PROCS, 8, 1),
                fs_words.clone(),
            ),
            Box::new(move |r: &RunReport| {
                for &(a, v) in &words {
                    if r.mem_word(a) != v + 8 {
                        return Err(format!("word {a:#x} is {}, want {}", r.mem_word(a), v + 8));
                    }
                }
                Ok(())
            }),
        ));
    }
    out
}

/// Every processor but the writer (processor 0) ends with `want` in `reg`.
fn readers_hold(reg: mcsim_isa::RegId, want: u64) -> Expect {
    Box::new(move |r: &RunReport| {
        for p in 1..r.regfiles.len() {
            if r.reg(p, reg) != want {
                return Err(format!("reader {p} holds {}, want {want}", r.reg(p, reg)));
            }
        }
        Ok(())
    })
}

/// Where a chain of `hops` dependent loads from index 0 ends.
fn walk(mem: &[(u64, u64)], hops: usize) -> u64 {
    let map: std::collections::BTreeMap<u64, u64> = mem.iter().copied().collect();
    (0..hops).fold(0, |i, _| map[&(DATA_BASE + i * LINE)])
}

fn sparse_inputs(seed: u64) -> Vec<(MachineInput, Expect)> {
    let base = MachineConfig::paper_with(Model::Sc, Techniques::NONE);

    let (chase, chase_mem) = generators::pointer_chase(128, derive_seed(seed, 1));
    let chase_mem: Vec<(u64, u64)> = chase_mem.into_iter().collect();
    let chase_end = walk(&chase_mem, 128);
    let mut chase_cfg = base;
    chase_cfg.mem.timings = MemTimings::with_miss_latency(400);

    // The generator's program with a seeded cyclic order over its lines.
    const LINES: u64 = 64;
    const HOPS: usize = 2048;
    let (chain, _, preload) = generators::hit_compute_chain(HOPS, LINES as usize, 18);
    let mut order: Vec<u64> = (1..LINES).collect();
    for i in (1..order.len()).rev() {
        order.swap(
            i,
            (derive_seed(seed, 100 + i as u64) % (i as u64 + 1)) as usize,
        );
    }
    order.insert(0, 0);
    let chain_mem: Vec<(u64, u64)> = (0..order.len())
        .map(|i| (DATA_BASE + order[i] * LINE, order[(i + 1) % order.len()]))
        .collect();
    let chain_end = walk(&chain_mem, HOPS);

    let r1_is = |want: u64| -> Expect {
        Box::new(move |r: &RunReport| {
            (r.reg(0, R1) == want)
                .then_some(())
                .ok_or(format!("R1 is {}, want {want}", r.reg(0, R1)))
        })
    };
    vec![
        (
            MachineInput {
                label: "pointer-chase 128 @400".to_string(),
                cfg: chase_cfg,
                programs: vec![chase],
                mem: chase_mem,
                preload: Vec::new(),
                workload: None,
            },
            r1_is(chase_end),
        ),
        (
            MachineInput {
                label: "hit-compute-chain 2048x64".to_string(),
                cfg: base,
                programs: vec![chain],
                mem: chain_mem,
                preload,
                workload: None,
            },
            r1_is(chain_end),
        ),
    ]
}

/// First op id of probe runs, far above any workload's own op ids.
const PROBE_OP: u64 = 1 << 40;

/// Runs every input under the default configuration, with the invariant
/// checker every cycle, and with trace capture plus the Chrome exporter,
/// repeating the pass until `budget` is spent (at least once). Timings
/// cover every pass; simulated counts come from the first.
pub fn probe(inputs: &[MachineInput], tr: &Tracer, budget: Duration) -> (Layers, Vec<String>) {
    let started = Instant::now();
    let mut problems = Vec::new();
    let (mut build_us, mut run_us) = (Vec::new(), Vec::new());
    let (mut guard_s, mut capture_s, mut export_s) = (0.0, 0.0, 0.0);
    let mut first: Option<Counts> = None;
    let mut passes = 0u64;
    let mut op = PROBE_OP;
    while passes == 0 || started.elapsed() < budget {
        let mut counts = Counts::default();
        for input in inputs {
            let root = tr.begin("probe.input", op, None);
            let t = Instant::now();
            let m = input.build(input.cfg, Engine::Event);
            build_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let span = tr.begin("core.run", op, root);
            let (report, telemetry) = m.run_telemetry();
            tr.end(span);
            run_us.push(t.elapsed().as_secs_f64() * 1e6);

            let mut cfg = input.cfg;
            cfg.guard.invariant_period = 1;
            let m = input.build(cfg, Engine::Event);
            let t = Instant::now();
            let span = tr.begin("guard.run", op, root);
            let checked = m.run();
            tr.end(span);
            guard_s += t.elapsed().as_secs_f64();
            if passes == 0 && digest(&checked) != digest(&report) {
                problems.push(format!(
                    "{}: every-cycle invariants changed the report",
                    input.label
                ));
            }

            let mut cfg = input.cfg;
            cfg.trace = true;
            let m = input.build(cfg, Engine::Event);
            let t = Instant::now();
            let span = tr.begin("trace.run", op, root);
            let traced = m.run();
            tr.end(span);
            capture_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let span = tr.begin("trace.chrome_export", op, root);
            let chrome = mcsim_trace::chrome_post_mortem(&traced.trace);
            tr.end(span);
            export_s += t.elapsed().as_secs_f64();
            std::hint::black_box(chrome);
            tr.end(root);

            counts.add(&report, &telemetry, &traced);
            op += 1;
        }
        first.get_or_insert(counts);
        passes += 1;
    }
    let c = first.unwrap_or_default();
    let run_s = sum(&run_us) / 1e6;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let layers = vec![
        ("core.build_us_p50", quantile(&build_us, 0.5)),
        ("core.run_us_p50", quantile(&run_us, 0.5)),
        (
            "core.ns_per_stepped_cycle",
            run_s * 1e9 / (c.stepped * passes).max(1) as f64,
        ),
        ("core.stepped_cycles", c.stepped as f64),
        ("core.skipped_cycles", c.skipped as f64),
        ("core.jump_spans", c.spans as f64),
        ("core.skip_share", ratio(c.skipped, c.stepped + c.skipped)),
        ("proc.committed", c.committed as f64),
        (
            "proc.ns_per_committed",
            run_s * 1e9 / (c.committed * passes).max(1) as f64,
        ),
        ("proc.speculative_loads", c.spec_loads as f64),
        ("proc.rollback_ratio", ratio(c.rollbacks, c.spec_loads)),
        ("proc.prefetches_issued", c.prefetches as f64),
        ("proc.prefetch_useful_ratio", ratio(c.useful, c.prefetches)),
        ("mem.demand_misses", c.misses as f64),
        ("mem.invalidations_sent", c.invalidations as f64),
        ("mem.spurious_invalidations", c.spurious as f64),
        ("mem.dir_queue_cycles", c.dir_queue as f64),
        ("guard.every_cycle_ratio", guard_s / run_s),
        ("trace.capture_ratio", capture_s / run_s),
        ("trace.events", c.events as f64),
        ("trace.chrome_export_ms", export_s * 1e3 / passes as f64),
    ];
    (layers, problems)
}

/// Simulated counts of one probe pass.
#[derive(Default, Clone, Copy)]
struct Counts {
    stepped: u64,
    skipped: u64,
    spans: u64,
    committed: u64,
    spec_loads: u64,
    rollbacks: u64,
    prefetches: u64,
    useful: u64,
    misses: u64,
    invalidations: u64,
    spurious: u64,
    dir_queue: u64,
    events: u64,
}

impl Counts {
    fn add(&mut self, r: &RunReport, t: &RunTelemetry, traced: &RunReport) {
        self.stepped += t.stepped_cycles;
        self.skipped += t.skipped_cycles;
        self.spans += t.spans;
        self.committed += r.total.committed;
        self.spec_loads += r.total.speculative_loads;
        self.rollbacks += r.total.rollbacks;
        self.prefetches += r.mem.prefetches_issued;
        self.useful += r.mem.prefetches_useful;
        self.misses += r.mem.demand_misses;
        self.invalidations += r.mem.invalidations_sent;
        self.spurious += r.mem.spurious_invalidations;
        self.dir_queue += r.mem.dir_queue_cycles;
        self.events += traced.trace.len() as u64 + traced.trace_dropped;
    }
}

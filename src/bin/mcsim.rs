//! The `mcsim` command-line runner: assemble one or more `.s` files (one
//! per processor) and simulate them under a chosen consistency model and
//! technique combination.
//!
//! ```sh
//! mcsim run examples/asm/producer.s examples/asm/consumer.s \
//!     --model SC --techniques both --trace out.json
//! mcsim run --workload figure5 --trace fig5.txt --trace-format fig5
//! mcsim matrix examples/asm/producer.s     # full model x technique table
//! mcsim asm examples/asm/producer.s        # assemble + disassemble check
//! ```
//!
//! Argument parsing is hand-rolled (the project's dependency policy keeps
//! the tree to the sanctioned crates); see `mcsim --help`.

use mcsim::sim::{
    conformance_config, format_table, run_matrix, Engine, Machine, MachineConfig, RunReport,
    SimError,
};
use mcsim::trace::{chrome, csv, fig5, TraceEvent, TraceFilter};
use mcsim::workloads::{contended, litmus, paper};
use mcsim_consistency::Model;
use mcsim_isa::asm;
use mcsim_isa::Program;
use mcsim_proc::Techniques;
use serde::Serialize;
use std::process::ExitCode;

const HELP: &str = "\
mcsim — cycle-accurate simulator for 'Two Techniques to Enhance the
Performance of Memory Consistency Models' (ICPP 1991)

USAGE:
    mcsim run <program.s>... [OPTIONS]     simulate (one program per processor)
    mcsim run --workload <name> [OPTIONS]  simulate a built-in paper workload
    mcsim matrix <program.s>...            run the full model x technique matrix
    mcsim asm <program.s>                  assemble and echo the program
    mcsim check-json <file>                validate that a file parses as JSON
    mcsim models                           list supported consistency models
    mcsim oracle print                     allowed-outcome sets of the litmus
                                           corpus under every model (golden text)
    mcsim oracle enumerate <program.s>... [--model M] [--mem addr=value]
                                           enumerate the allowed final states
    mcsim oracle check [--seeds <n>]       simulate the corpus across every
                                           model x technique combination and
                                           assert outcomes are oracle-allowed
    mcsim oracle check-report <file.json> --litmus <name> [--model M]
                                           check a saved RunReport against the
                                           allowed set of a corpus litmus
    mcsim serve [OPTIONS]                  long-running HTTP sweep service:
                                           POST SweepSpecs, poll progress,
                                           fetch byte-identical results
                                           (see `mcsim serve --help`)

OPTIONS (run):
    --model <SC|TSO|PC|PSO|WC|RCsc|RC>  consistency model  [default: SC]
    --techniques <base|prefetch|spec|both>                 [default: both]
    --protocol <invalidate|update>                         [default: invalidate]
    --dir-format <fmt>            directory sharer-set format: full,
                                  coarse:<procs_per_bit>, ptr:<n>:bcast,
                                  ptr:<n>:inv               [default: full]
    --miss <cycles>               clean-miss latency (even) [default: 100]
    --rob <n>                     reorder-buffer entries    [default: 64]
    --max-cycles <n>              cycle budget              [default: 2000000]
    --mem <addr>=<value>          initial memory word (repeatable, hex ok)
    --workload <name>             built-in workload instead of .s files:
                                  figure5 (main + antagonist, primed caches),
                                  example1, example2, and the contended
                                  scale-out library (params after `:`):
                                  ticket-lock[:procs[:increments]],
                                  queue-lock[:procs[:increments]],
                                  seqlock[:readers[:updates[:words]]],
                                  rcu[:readers[:versions]],
                                  false-sharing[:procs[:iters[:stride]]]
    --litmus <name>               run a conformance-corpus litmus instead of
                                  .s files (store-buffering, message-passing,
                                  load-buffering, iriw, coherence-rr, 2+2w)
    --invariants <n|off>          invariant-check period in cycles; 0 = auto
                                  (every cycle in debug / strict builds,
                                  every 1024 in release)    [default: 0]
    --inject <fault>              inject a deterministic protocol fault:
                                  drop-inv[:n], corrupt[:n], stuck-mshr[:n]
    --dump-on-failure <path>      write a JSON crash snapshot (failure,
                                  summary, trace tail) if the run fails;
                                  implies tracing
    --legacy-step                 drive the run with the per-cycle loop
                                  instead of the discrete-event engine
                                  (slower; the report is bit-identical
                                  either way)
    --trace <path>                write the event trace to <path> ('-' for
                                  stdout); enables tracing
    --trace-format <fmt>          trace export format: chrome (Perfetto-
                                  loadable JSON), fig5 (plaintext buffer
                                  timeline), csv        [default: chrome]
    --trace-cycles <A..B>         keep only events with A <= cycle <= B
    --trace-proc <n>              keep only events of processor n
    --timeline                    print a Gantt timeline of memory ops
    --breakdown                   print the per-cause execution-time
                                  breakdown (stacked bars, paper Section 5)
    --json                        print the full report as JSON
";

/// Merged trace events kept in a `--dump-on-failure` snapshot.
const DUMP_TRACE_TAIL: usize = 256;

/// The `--dump-on-failure` crash snapshot: the structured failure plus
/// enough context (summary, the tail of the merged event trace) to
/// diagnose it without re-running. Owned because the offline serde
/// stand-in cannot derive for generic (borrowing) types.
#[derive(Serialize)]
struct CrashDump {
    summary: String,
    cycles: u64,
    timed_out: bool,
    failure: Option<SimError>,
    /// Events evicted from the bounded rings before the run stopped.
    trace_dropped: u64,
    /// Last [`DUMP_TRACE_TAIL`] events of the merged machine trace.
    trace_tail: Vec<TraceEvent>,
}

fn write_crash_dump(path: &str, report: &RunReport) -> Result<(), String> {
    let tail = &report.trace[report.trace.len().saturating_sub(DUMP_TRACE_TAIL)..];
    let dump = CrashDump {
        summary: report.summary(),
        cycles: report.cycles,
        timed_out: report.timed_out,
        failure: report.failure.clone(),
        trace_dropped: report.trace_dropped,
        trace_tail: tail.to_vec(),
    };
    let json = serde_json::to_string_pretty(&dump).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("mcsim: crash snapshot written to {path}");
    Ok(())
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("mcsim: {msg}");
    eprintln!("run `mcsim --help` for usage");
    ExitCode::FAILURE
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn load_programs(paths: &[String]) -> Result<Vec<Program>, String> {
    if paths.is_empty() {
        return Err("no program files given".into());
    }
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let name = p.rsplit('/').next().unwrap_or(p).trim_end_matches(".s");
            asm::assemble(name, &src).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Built-in workloads (`--workload`): the canonical paper figures plus
/// the contended scale-out library, so big-N runs need no assembly
/// files. Contended workloads take `:`-separated parameters
/// (`ticket-lock:64:2` = 64 processors, 2 increments each).
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// Figure 5's two-processor segment with the canonical antagonist
    /// timing (delay 50, new D = 5) and primed caches.
    Figure5,
    /// Figure 2 example 1 (the producer), single processor.
    Example1,
    /// Figure 2 example 2 (the consumer), `D` pre-cached.
    Example2,
    /// Ticket lock: `procs` processors, `increments` each on one counter.
    TicketLock { procs: usize, increments: usize },
    /// Anderson-style array queue lock (local spinning).
    QueueLock { procs: usize, increments: usize },
    /// Seqlock: one writer, `readers` optimistic snapshotters.
    Seqlock {
        readers: usize,
        updates: usize,
        words: usize,
    },
    /// RCU-style pointer publication with dependent reads.
    Rcu { readers: usize, versions: usize },
    /// Stride-controlled false-sharing sweep.
    FalseSharing {
        procs: usize,
        iters: usize,
        stride: usize,
    },
}

/// The antagonist parameters behind `--workload figure5` — the same pair
/// the Figure 5 integration test pins.
const FIG5_DELAY: u32 = 50;
const FIG5_NEW_D: u64 = 5;

impl Workload {
    fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let params = parts
            .map(|p| match p.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("bad workload parameter `{p}` in `{spec}`")),
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let p = |i: usize, default: usize| params.get(i).copied().unwrap_or(default);
        let fixed = |w: Workload| {
            if params.is_empty() {
                Ok(w)
            } else {
                Err(format!("workload `{name}` takes no parameters"))
            }
        };
        match name {
            "figure5" | "fig5" => fixed(Workload::Figure5),
            "example1" | "ex1" => fixed(Workload::Example1),
            "example2" | "ex2" => fixed(Workload::Example2),
            "ticket-lock" | "ticket" => Ok(Workload::TicketLock {
                procs: p(0, 4),
                increments: p(1, 4),
            }),
            "queue-lock" | "queue" => Ok(Workload::QueueLock {
                procs: p(0, 4),
                increments: p(1, 4),
            }),
            "seqlock" => {
                let words = p(2, 4);
                if !(1..=7).contains(&words) {
                    return Err(format!("seqlock words must be 1..=7, got {words}"));
                }
                Ok(Workload::Seqlock {
                    readers: p(0, 2),
                    updates: p(1, 4),
                    words,
                })
            }
            "rcu" => Ok(Workload::Rcu {
                readers: p(0, 2),
                versions: p(1, 4),
            }),
            "false-sharing" | "fs" => Ok(Workload::FalseSharing {
                procs: p(0, 4),
                iters: p(1, 8),
                stride: p(2, 1),
            }),
            other => Err(format!(
                "unknown workload `{other}` (try figure5, example1, example2, \
                 ticket-lock, queue-lock, seqlock, rcu, false-sharing)"
            )),
        }
    }

    fn programs(self) -> Vec<Program> {
        match self {
            Workload::Figure5 => vec![
                paper::figure5_main(),
                paper::figure5_antagonist(FIG5_DELAY, FIG5_NEW_D),
            ],
            Workload::Example1 => vec![paper::example1()],
            Workload::Example2 => vec![paper::example2()],
            Workload::TicketLock { procs, increments } => contended::ticket_lock(procs, increments),
            Workload::QueueLock { procs, increments } => contended::queue_lock(procs, increments).0,
            Workload::Seqlock {
                readers,
                updates,
                words,
            } => contended::seqlock(readers, updates, words),
            Workload::Rcu { readers, versions } => contended::rcu(readers, versions),
            Workload::FalseSharing {
                procs,
                iters,
                stride,
            } => contended::false_sharing(procs, iters, stride),
        }
    }

    fn setup(self, m: &mut Machine) {
        match self {
            Workload::Figure5 => paper::setup_figure5(m, FIG5_NEW_D),
            Workload::Example2 => paper::setup_example2(m),
            Workload::QueueLock { procs, increments } => {
                for (a, v) in contended::queue_lock(procs, increments).1 {
                    m.write_memory(a, v);
                }
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
enum TraceFormat {
    #[default]
    Chrome,
    Fig5,
    Csv,
}

impl TraceFormat {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "chrome" => Ok(TraceFormat::Chrome),
            "fig5" => Ok(TraceFormat::Fig5),
            "csv" => Ok(TraceFormat::Csv),
            other => Err(format!(
                "unknown trace format `{other}` (try chrome, fig5, csv)"
            )),
        }
    }

    fn render(self, events: &[TraceEvent], filter: &TraceFilter) -> String {
        match self {
            TraceFormat::Chrome => chrome::render(events, filter),
            TraceFormat::Fig5 => fig5::render(events, filter),
            TraceFormat::Csv => csv::render(events, filter),
        }
    }
}

struct RunOpts {
    files: Vec<String>,
    workload: Option<Workload>,
    litmus: Option<litmus::Litmus>,
    cfg: MachineConfig,
    mem_init: Vec<(u64, u64)>,
    trace_path: Option<String>,
    trace_format: TraceFormat,
    trace_filter: TraceFilter,
    timeline: bool,
    breakdown: bool,
    json: bool,
    /// Drive the run with the per-cycle loop (`--legacy-step`) instead
    /// of the discrete-event engine.
    legacy_step: bool,
    dump_on_failure: Option<String>,
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        files: Vec::new(),
        workload: None,
        litmus: None,
        cfg: MachineConfig::paper_with(Model::Sc, Techniques::BOTH),
        mem_init: Vec::new(),
        trace_path: None,
        trace_format: TraceFormat::default(),
        trace_filter: TraceFilter::default(),
        timeline: false,
        breakdown: false,
        json: false,
        legacy_step: false,
        dump_on_failure: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--model" => o.cfg.model = value("--model")?.parse::<Model>()?,
            "--techniques" => {
                o.cfg.techniques = match value("--techniques")?.as_str() {
                    "base" | "none" => Techniques::NONE,
                    "prefetch" | "pf" => Techniques::PREFETCH,
                    "spec" | "speculation" => Techniques::SPECULATION,
                    "both" | "pf+spec" => Techniques::BOTH,
                    other => return Err(format!("unknown techniques `{other}`")),
                }
            }
            "--protocol" => {
                o.cfg.mem.protocol = match value("--protocol")?.as_str() {
                    "invalidate" | "inv" => mcsim_mem::Protocol::Invalidate,
                    "update" => mcsim_mem::Protocol::Update,
                    other => return Err(format!("unknown protocol `{other}`")),
                }
            }
            "--dir-format" => {
                o.cfg.mem.dir_format = mcsim_mem::DirFormat::parse(&value("--dir-format")?)?;
            }
            "--miss" => {
                let m = parse_u64(&value("--miss")?).ok_or("bad --miss value")?;
                o.cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(m);
            }
            "--rob" => {
                o.cfg.proc.rob_size =
                    parse_u64(&value("--rob")?).ok_or("bad --rob value")? as usize;
            }
            "--max-cycles" => {
                o.cfg.max_cycles = parse_u64(&value("--max-cycles")?).ok_or("bad --max-cycles")?;
            }
            "--mem" => {
                let v = value("--mem")?;
                let (a, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--mem expects addr=value, got `{v}`"))?;
                o.mem_init.push((
                    parse_u64(a).ok_or("bad --mem address")?,
                    parse_u64(val).ok_or("bad --mem value")?,
                ));
            }
            "--workload" => o.workload = Some(Workload::parse(&value("--workload")?)?),
            "--litmus" => {
                let name = value("--litmus")?;
                let corpus = litmus::conformance_corpus();
                o.litmus = Some(corpus.iter().find(|l| l.name == name).cloned().ok_or_else(
                    || {
                        let names: Vec<&str> = corpus.iter().map(|l| l.name).collect();
                        format!("unknown litmus `{name}` (corpus: {})", names.join(", "))
                    },
                )?);
            }
            "--invariants" => {
                let v = value("--invariants")?;
                o.cfg.guard.invariant_period = if v == "off" {
                    u64::MAX
                } else {
                    parse_u64(&v).ok_or("bad --invariants value")?
                };
            }
            "--inject" => {
                o.cfg.guard.fault = Some(value("--inject")?.parse()?);
            }
            "--dump-on-failure" => {
                o.cfg.trace = true; // the snapshot wants the trace tail
                o.dump_on_failure = Some(value("--dump-on-failure")?);
            }
            "--trace" => {
                o.cfg.trace = true;
                o.trace_path = Some(value("--trace")?);
            }
            "--trace-format" => o.trace_format = TraceFormat::parse(&value("--trace-format")?)?,
            "--trace-cycles" => {
                let v = value("--trace-cycles")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--trace-cycles expects A..B, got `{v}`"))?;
                o.trace_filter.cycles = Some((
                    parse_u64(a).ok_or("bad --trace-cycles start")?,
                    parse_u64(b).ok_or("bad --trace-cycles end")?,
                ));
            }
            "--trace-proc" => {
                o.trace_filter.proc =
                    Some(parse_u64(&value("--trace-proc")?).ok_or("bad --trace-proc")? as usize);
            }
            "--timeline" => {
                o.cfg.trace = true;
                o.timeline = true;
            }
            "--breakdown" => o.breakdown = true,
            "--json" => o.json = true,
            "--legacy-step" => o.legacy_step = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => o.files.push(file.to_string()),
        }
    }
    o.cfg.proc.techniques = o.cfg.techniques;
    let sources = usize::from(o.workload.is_some())
        + usize::from(o.litmus.is_some())
        + usize::from(!o.files.is_empty());
    if sources > 1 {
        return Err("give one of --workload, --litmus, or program files".into());
    }
    Ok(o)
}

impl RunOpts {
    fn programs(&self) -> Result<Vec<Program>, String> {
        if let Some(l) = &self.litmus {
            return Ok(l.programs.clone());
        }
        match self.workload {
            Some(w) => Ok(w.programs()),
            None => load_programs(&self.files),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_run_opts(args)?;
    let programs = o.programs()?;
    let mut m = Machine::new(o.cfg, programs);
    m.set_engine(if o.legacy_step {
        Engine::LegacyStep
    } else {
        Engine::Event
    });
    if let Some(w) = o.workload {
        w.setup(&mut m);
    }
    if let Some(l) = &o.litmus {
        for (a, v) in &l.init {
            m.write_memory(*a, *v);
        }
    }
    for (a, v) in &o.mem_init {
        m.write_memory(*a, *v);
    }
    let report = m.run();
    if report.failure.is_some() || report.timed_out {
        if let Some(path) = &o.dump_on_failure {
            write_crash_dump(path, &report)?;
        }
    }
    if let Some(path) = &o.trace_path {
        let rendered = o.trace_format.render(&report.trace, &o.trace_filter);
        if path == "-" {
            print!("{rendered}");
        } else {
            std::fs::write(path, rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("mcsim: trace written to {path}");
        }
    }
    if o.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if o.timeline {
        print!("{}", mcsim::sim::render_timeline(&report.trace, 72));
    }
    if o.breakdown {
        print!("{}", mcsim::sim::render_breakdown(&report, 72));
    }
    println!(
        "{} / {}: {}",
        o.cfg.model,
        o.cfg.techniques.label(),
        report.summary()
    );
    for (p, rf) in report.regfiles.iter().enumerate() {
        let regs: Vec<String> = rf
            .iter()
            .filter(|(_, v)| *v != 0)
            .map(|(r, v)| format!("{r}={v:#x}"))
            .collect();
        println!("proc {p} registers: {}", regs.join(" "));
    }
    if let Some(failure) = &report.failure {
        return Err(failure.to_string());
    }
    if report.timed_out {
        return Err(format!("timed out after {} cycles", report.cycles));
    }
    Ok(())
}

fn cmd_matrix(args: &[String]) -> Result<(), String> {
    let o = parse_run_opts(args)?;
    let programs = o.programs()?;
    let mem_init = o.mem_init.clone();
    let workload = o.workload;
    let rows = run_matrix(
        &o.cfg,
        &Model::ALL_EXTENDED,
        &Techniques::ALL,
        || programs.clone(),
        |m| {
            if let Some(w) = workload {
                w.setup(m);
            }
            for (a, v) in &mem_init {
                m.write_memory(*a, *v);
            }
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{}",
        format_table("model x technique matrix (cycles)", &rows)
    );
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let programs = load_programs(args)?;
    for p in &programs {
        println!("{p}");
        println!("round-trip:\n{}", asm::disassemble(p));
    }
    Ok(())
}

/// `mcsim check-json <file>` — the CI helper that asserts an exported
/// trace (or any artifact) is a well-formed JSON document.
fn cmd_check_json(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("check-json expects exactly one file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    println!("{path}: valid JSON ({} bytes)", text.len());
    Ok(())
}

/// `mcsim oracle ...` — front-end for the execution-enumeration oracle.
fn cmd_oracle(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("print") => {
            print!(
                "{}",
                litmus::render_allowed_sets(&litmus::conformance_corpus())
            );
            Ok(())
        }
        Some("enumerate") => cmd_oracle_enumerate(&args[1..]),
        Some("check") => cmd_oracle_check(&args[1..]),
        Some("check-report") => cmd_oracle_check_report(&args[1..]),
        _ => Err("oracle expects a mode: print, enumerate, check, check-report".into()),
    }
}

fn cmd_oracle_enumerate(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut model = Model::Sc;
    let mut mem_init: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--model" => model = value("--model")?.parse::<Model>()?,
            "--mem" => {
                let v = value("--mem")?;
                let (addr, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--mem expects addr=value, got `{v}`"))?;
                mem_init.insert(
                    parse_u64(addr).ok_or("bad --mem address")?,
                    parse_u64(val).ok_or("bad --mem value")?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => files.push(file.to_string()),
        }
    }
    let programs = load_programs(&files)?;
    let r = mcsim::oracle::outcomes(
        model,
        &programs,
        &mem_init,
        mcsim::oracle::OracleConfig::default(),
    );
    if !r.complete {
        return Err("state budget exceeded; outcome set would be incomplete".into());
    }
    println!("{} allowed final states under {}:", r.outcomes.len(), model);
    print!("{}", mcsim::oracle::format_outcomes(&r.outcomes));
    Ok(())
}

fn cmd_oracle_check(args: &[String]) -> Result<(), String> {
    let mut seeds = 4u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                seeds = parse_u64(v).ok_or("bad --seeds value")?.max(1);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let corpus = litmus::conformance_corpus();
    let mut cells = 0u64;
    for l in &corpus {
        for model in Model::ALL_EXTENDED {
            for t in Techniques::ALL {
                for seed in 0..seeds {
                    let report = l.run(conformance_config(model, t, seed));
                    if let Some(failure) = &report.failure {
                        return Err(format!(
                            "{} @ {model}/{} seed {seed}: {failure}",
                            l.name,
                            t.label()
                        ));
                    }
                    if !l.is_allowed_under(model, &report) {
                        return Err(format!(
                            "{} @ {model}/{} seed {seed}: final state not in the allowed set",
                            l.name,
                            t.label()
                        ));
                    }
                    cells += 1;
                }
            }
        }
    }
    println!(
        "oracle check: {cells} runs ({} litmus x {} models x {} techniques x {seeds} seeds) all conformant",
        corpus.len(),
        Model::ALL_EXTENDED.len(),
        Techniques::ALL.len()
    );
    Ok(())
}

fn cmd_oracle_check_report(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut name = None;
    let mut model = Model::Sc;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--litmus" => name = Some(value("--litmus")?),
            "--model" => model = value("--model")?.parse::<Model>()?,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => path = Some(file.to_string()),
        }
    }
    let path = path.ok_or("check-report expects a RunReport JSON file")?;
    let name = name.ok_or("check-report needs --litmus <name>")?;
    let corpus = litmus::conformance_corpus();
    let l = corpus.iter().find(|l| l.name == name).ok_or_else(|| {
        let names: Vec<&str> = corpus.iter().map(|l| l.name).collect();
        format!("unknown litmus `{name}` (corpus: {})", names.join(", "))
    })?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let report: RunReport =
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid RunReport: {e}"))?;
    if l.is_allowed_under(model, &report) {
        println!("{path}: final state allowed for `{name}` under {model}");
        Ok(())
    } else {
        Err(format!(
            "{path}: final state NOT allowed for `{name}` under {model}"
        ))
    }
}

fn cmd_models() {
    for m in Model::ALL_EXTENDED {
        println!("{:<5} {}", m.name(), m.description());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some("models") => {
            cmd_models();
            ExitCode::SUCCESS
        }
        Some("run") => match cmd_run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("matrix") => match cmd_matrix(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("asm") => match cmd_asm(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("check-json") => match cmd_check_json(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("oracle") => match cmd_oracle(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some("serve") => match mcsim_serve::run_cli(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        Some(other) => fail(&format!("unknown command `{other}`")),
    }
}

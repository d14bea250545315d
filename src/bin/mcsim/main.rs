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
//! mcsim sweep --builtin e6-equalization --jobs 4 --json e6.json
//! mcsim serve --addr 127.0.0.1:7077        # HTTP sweep service
//! ```
//!
//! Argument parsing is hand-rolled (the project's dependency policy keeps
//! the tree to the sanctioned crates): every subcommand reads its flags
//! through [`args::Args`]. See `mcsim --help`.

mod args;
mod sweep;

use args::Args;

use mcsim::sim::{
    conformance_config, format_table, run_matrix, Engine, Machine, MachineConfig, RunReport,
    SimError,
};
use mcsim::trace::{chrome, csv, fig5, TraceEvent, TraceFilter};
use mcsim::workloads::litmus;
use mcsim_consistency::Model;
use mcsim_isa::asm;
use mcsim_isa::Program;
use mcsim_proc::Techniques;
use mcsim_serve::ServerConfig;
use mcsim_sweep::WorkloadSpec;
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
    mcsim sweep [OPTIONS]                  run a declarative experiment sweep
    mcsim serve [OPTIONS]                  long-running HTTP sweep service:
                                           POST SweepSpecs, poll progress,
                                           fetch byte-identical results
    mcsim <command> --help                 print this text

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
                                  load-buffering, iriw, coherence-rr, 2+2w,
                                  release-overtake)
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

OPTIONS (sweep):
    --builtin <name>              run a named built-in sweep (see --list)
    --spec <file>                 run a SweepSpec from a JSON file
    --list                        list built-in sweeps and exit
    --print-spec                  print the selected spec as JSON and exit
    --jobs <n>                    worker threads            [default: 1]
    --json <file>                 write the result (spec + rows) as JSON;
                                  bit-identical at any --jobs value
    --timing-json <file>          write wall-clock timing telemetry as JSON
                                  (not deterministic: varies run to run)
    --csv <file>                  write the result rows as CSV
    --journal <file>              stream each completed point to <file> as
                                  a JSON line (crash-safe partial results)
    --resume <file>               replay <file>, skip its completed points,
                                  run the rest and keep journaling to it;
                                  the merged result is byte-identical to an
                                  uninterrupted run (a missing file just
                                  starts fresh)
    --isolate <thread|process>    run each point in a supervised child
                                  process, so an abort, OOM kill or wedge
                                  costs one cell, not the sweep
                                                            [default: thread]
    --retries <n>                 process mode: total attempts per point for
                                  transient worker losses (deterministic
                                  failures never retry)     [default: 3]
    --deadline <secs>             process mode: wall-clock budget per point
                                  attempt; a wedged worker is killed and
                                  recorded                  [default: 300]
    --inject <fault>              inject a protocol fault into every point
    --legacy-step                 per-cycle loop instead of the event engine
    --trace <dir>                 leave a Chrome trace post-mortem
                                  (point-NNNN.trace.json) in <dir> for every
                                  point that fails or times out
    --quiet                       suppress tables and progress telemetry
    --point <hash> [--attempt <n>]
                                  worker mode, spawned by --isolate process:
                                  read a spec from stdin, run the one point
                                  whose content hash is <hash>, write its
                                  journal line to stdout

OPTIONS (serve):
    --addr <host:port>            bind address (port 0 picks a free port)
                                                   [default: 127.0.0.1:7077]
    --state-dir <dir>             durable job state: spec, journal and result
                                  per job; unfinished jobs resume from their
                                  journals on restart
                                                   [default: mcsim-serve-state]
    --workers <n>                 concurrent jobs           [default: 2]
    --jobs <n>                    worker threads per sweep (0 = one)
                                                            [default: 1]
    --max-pending <n>             admission bound; exceeding it answers 429
                                                            [default: 8]
    --legacy-step                 per-cycle loop instead of the event engine
    --addr-file <file>            write the actual bound address to <file>
                                  (for scripts binding port 0)
    --quiet                       suppress startup/drain log lines

ENDPOINTS (serve):
    POST /sweeps                    submit a SweepSpec JSON body, or
                                    {\"builtin\":\"<name>\"} -> 202 {id}
    GET  /sweeps                    all jobs
    GET  /sweeps/<id>               status: state, completed/total,
                                    failure classes, rate, ETA
    GET  /sweeps/<id>/results       final artifact (byte-identical to
                                    mcsim sweep --json)
    GET  /sweeps/<id>/journal       journal lines so far; ?follow=1
                                    streams until the job finishes
    GET  /sweeps/<id>/trace/<hash>  Chrome-trace post-mortem of a
                                    failed point
    POST /shutdown                  drain and exit
    GET  /healthz                   liveness probe
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

/// The conformance-corpus litmus test called `name`.
fn find_litmus(name: &str) -> Result<litmus::Litmus, String> {
    let corpus = litmus::conformance_corpus();
    corpus
        .iter()
        .find(|l| l.name == name)
        .cloned()
        .ok_or_else(|| {
            let names: Vec<&str> = corpus.iter().map(|l| l.name).collect();
            format!("unknown litmus `{name}` (corpus: {})", names.join(", "))
        })
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
    workload: Option<WorkloadSpec>,
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

fn parse_run_opts(argv: &[String]) -> Result<RunOpts, String> {
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
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--model" => o.cfg.model = args.value(a)?.parse::<Model>()?,
            "--techniques" => {
                o.cfg.proc.techniques = match args.value(a)?.as_str() {
                    "base" | "none" => Techniques::NONE,
                    "prefetch" | "pf" => Techniques::PREFETCH,
                    "spec" | "speculation" => Techniques::SPECULATION,
                    "both" | "pf+spec" => Techniques::BOTH,
                    other => return Err(format!("unknown techniques `{other}`")),
                }
            }
            "--protocol" => {
                o.cfg.mem.protocol = match args.value(a)?.as_str() {
                    "invalidate" | "inv" => mcsim_mem::Protocol::Invalidate,
                    "update" => mcsim_mem::Protocol::Update,
                    other => return Err(format!("unknown protocol `{other}`")),
                }
            }
            "--dir-format" => o.cfg.mem.dir_format = mcsim_mem::DirFormat::parse(&args.value(a)?)?,
            "--miss" => {
                let m: u64 = args.number(a)?;
                if m < 4 || m % 2 == 1 {
                    return Err(format!("--miss must be even and at least 4, got {m}"));
                }
                o.cfg.mem.timings = mcsim_mem::MemTimings::with_miss_latency(m);
            }
            "--rob" => {
                let n: usize = args.number(a)?;
                if n < 2 {
                    return Err(format!("--rob must be at least 2, got {n}"));
                }
                o.cfg.proc.rob_size = n;
            }
            "--max-cycles" => o.cfg.max_cycles = args.number(a)?,
            "--mem" => o.mem_init.push(args.pair(a, "=")?),
            "--workload" => o.workload = Some(args.value(a)?.parse()?),
            "--litmus" => o.litmus = Some(find_litmus(&args.value(a)?)?),
            "--invariants" => {
                let v = args.value(a)?;
                o.cfg.guard.invariant_period = if v == "off" {
                    u64::MAX
                } else {
                    args::number(a, &v)?
                };
            }
            "--inject" => o.cfg.guard.fault = Some(args.value(a)?.parse()?),
            "--dump-on-failure" => {
                o.cfg.trace = true; // the snapshot wants the trace tail
                o.dump_on_failure = Some(args.value(a)?);
            }
            "--trace" => {
                o.cfg.trace = true;
                o.trace_path = Some(args.value(a)?);
            }
            "--trace-format" => o.trace_format = TraceFormat::parse(&args.value(a)?)?,
            "--trace-cycles" => o.trace_filter.cycles = Some(args.pair(a, "..")?),
            "--trace-proc" => o.trace_filter.proc = Some(args.number(a)?),
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
        match &self.workload {
            Some(w) => Ok(w.programs(0)),
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
    if let Some(w) = &o.workload {
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
        o.cfg.proc.techniques.label(),
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
    let workload = &o.workload;
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

fn cmd_oracle_enumerate(argv: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut model = Model::Sc;
    let mut mem_init: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--model" => model = args.value(a)?.parse::<Model>()?,
            "--mem" => {
                let (addr, val) = args.pair(a, "=")?;
                mem_init.insert(addr, val);
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
        return Err(r.error.map_or_else(
            || "state budget exceeded; outcome set would be incomplete".into(),
            |e| e.to_string(),
        ));
    }
    println!("{} allowed final states under {}:", r.outcomes.len(), model);
    print!("{}", mcsim::oracle::format_outcomes(&r.outcomes));
    Ok(())
}

fn cmd_oracle_check(argv: &[String]) -> Result<(), String> {
    let mut seeds = 4u64;
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--seeds" => seeds = args.number::<u64>(a)?.max(1),
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

fn cmd_oracle_check_report(argv: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut name = None;
    let mut model = Model::Sc;
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--litmus" => name = Some(args.value(a)?),
            "--model" => model = args.value(a)?.parse::<Model>()?,
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => path = Some(file.to_string()),
        }
    }
    let path = path.ok_or("check-report expects a RunReport JSON file")?;
    let name = name.ok_or("check-report needs --litmus <name>")?;
    let l = find_litmus(&name)?;
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

/// `mcsim serve` — run the HTTP sweep service until drained.
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7077".to_string(),
        ..ServerConfig::default()
    };
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--addr" => cfg.addr = args.value(a)?,
            "--state-dir" => cfg.state_dir = args.value(a)?.into(),
            "--workers" => cfg.workers = args.number::<usize>(a)?.max(1),
            "--jobs" => cfg.exec.jobs = args.number(a)?,
            "--max-pending" => cfg.max_pending = args.number::<usize>(a)?.max(1),
            "--legacy-step" => cfg.exec.fast_forward = false,
            "--addr-file" => cfg.addr_file = Some(args.value(a)?.into()),
            "--quiet" => cfg.quiet = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    mcsim_serve::serve(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "--help" || a == "-h");
    let (command, rest) = match args.split_first() {
        Some((command, rest)) if !wants_help => (command.as_str(), rest),
        _ => ("help", &[][..]),
    };
    let result = match command {
        "help" => {
            print!("{HELP}");
            Ok(())
        }
        "models" => {
            cmd_models();
            Ok(())
        }
        "run" => cmd_run(rest),
        "matrix" => cmd_matrix(rest),
        "asm" => cmd_asm(rest),
        "check-json" => cmd_check_json(rest),
        "oracle" => cmd_oracle(rest),
        "sweep" => sweep::cmd_sweep(rest),
        "serve" => cmd_serve(rest),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

//! `mcsim-sweep` — run a declarative experiment sweep.
//!
//! ```text
//! mcsim-sweep --builtin e6-equalization --jobs 4 --json out.json
//! mcsim-sweep --spec my-sweep.json --csv out.csv --quiet
//! mcsim-sweep --builtin e6-equalization --journal run.jsonl  # crash-safe
//! mcsim-sweep --builtin e6-equalization --resume run.jsonl   # continue
//! mcsim-sweep --builtin e6-equalization --isolate process    # crash-proof
//! mcsim-sweep --list
//! mcsim-sweep --builtin e12-latency --print-spec   # emit the spec JSON
//! ```
//!
//! Exit status is non-zero on usage errors, unreadable/invalid specs, or
//! I/O failures; individual failed grid points are *reported*, not fatal.
//!
//! The binary doubles as its own isolation worker: `--point <hash>` reads
//! a spec from stdin, executes exactly the one point whose content hash
//! matches, and writes the completed journal line to stdout. The
//! supervisor in `--isolate process` mode spawns these per point.

use std::process::ExitCode;
use std::time::Duration;

use mcsim_guard::FaultKind;
use mcsim_sweep::{
    builtin, execute_point, journal, render_groups, run_sweep, ExecOptions, Isolation, RetryPolicy,
    SweepSpec, BUILTIN_NAMES,
};

const USAGE: &str = "usage: mcsim-sweep [options]
  --builtin NAME     run a named built-in sweep (see --list)
  --spec FILE        run a SweepSpec from a JSON file
  --list             list built-in sweeps and exit
  --print-spec       print the selected spec as JSON and exit (no run)
  --jobs N           worker threads (default 1)
  --json FILE        write the result (spec + rows) as JSON; deterministic,
                     bit-identical at any --jobs value
  --timing-json FILE write wall-clock timing telemetry as JSON (not
                     deterministic: varies run to run)
  --csv FILE         write the result rows as CSV
  --journal FILE     stream each completed point to FILE as a JSON line the
                     moment it finishes (crash-safe partial results)
  --resume FILE      replay FILE, skip its completed points, run the rest,
                     and keep journaling to it; the merged result is
                     byte-identical to an uninterrupted run (a missing FILE
                     just starts fresh)
  --isolate MODE     thread (default) or process: run each point in a
                     supervised child process so an abort, OOM kill, or
                     wedge costs one cell, not the sweep
  --retries N        process mode: total attempts per point for transient
                     worker losses (default 3; deterministic failures
                     never retry)
  --deadline SECS    process mode: wall-clock budget per point attempt
                     (default 300); a wedged worker is killed and recorded
  --inject FAULT     inject a deterministic protocol fault into every
                     point (drop-inv[:N] | corrupt[:N] | stuck-mshr[:N])
  --legacy-step      run the per-cycle reference loop instead of the
                     discrete-event engine (much slower; results are
                     bit-identical either way)
  --trace DIR        run with event tracing and leave a Chrome trace-event
                     JSON post-mortem (point-NNNN.trace.json) in DIR for
                     every point that fails or times out
  --quiet            suppress tables and progress telemetry
worker mode (spawned by --isolate process; not for interactive use):
  --point HASH       read a spec from stdin, run the one point whose
                     content hash is HASH, write its journal line to stdout
  --attempt N        which attempt this execution is (bookkeeping)";

struct Args {
    spec: Option<SweepSpec>,
    list: bool,
    print_spec: bool,
    jobs: usize,
    json: Option<String>,
    timing_json: Option<String>,
    csv: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    isolate: Isolation,
    retries: u32,
    deadline_secs: u64,
    inject: Option<FaultKind>,
    legacy_step: bool,
    trace_dir: Option<String>,
    quiet: bool,
    point: Option<String>,
    attempt: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: None,
        list: false,
        print_spec: false,
        jobs: 1,
        json: None,
        timing_json: None,
        csv: None,
        journal: None,
        resume: None,
        isolate: Isolation::Thread,
        retries: RetryPolicy::default().max_attempts,
        deadline_secs: 300,
        inject: None,
        legacy_step: false,
        trace_dir: None,
        quiet: false,
        point: None,
        attempt: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--builtin" => {
                let name = value("--builtin")?;
                args.spec = Some(builtin(&name).ok_or_else(|| {
                    format!(
                        "unknown built-in '{name}'; try: {}",
                        BUILTIN_NAMES.join(", ")
                    )
                })?);
            }
            "--spec" => {
                let path = value("--spec")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                args.spec = Some(
                    serde_json::from_str(&text).map_err(|e| format!("invalid spec {path}: {e}"))?,
                );
            }
            "--list" => args.list = true,
            "--print-spec" => args.print_spec = true,
            "--jobs" => {
                let n = value("--jobs")?;
                args.jobs = n
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got '{n}'"))?;
            }
            "--json" => args.json = Some(value("--json")?),
            "--timing-json" => args.timing_json = Some(value("--timing-json")?),
            "--csv" => args.csv = Some(value("--csv")?),
            "--journal" => args.journal = Some(value("--journal")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--isolate" => args.isolate = value("--isolate")?.parse()?,
            "--retries" => {
                let n = value("--retries")?;
                args.retries = n
                    .parse()
                    .map_err(|_| format!("--retries expects a number, got '{n}'"))?;
            }
            "--deadline" => {
                let n = value("--deadline")?;
                args.deadline_secs = n
                    .parse()
                    .map_err(|_| format!("--deadline expects seconds, got '{n}'"))?;
            }
            "--inject" => args.inject = Some(value("--inject")?.parse()?),
            "--legacy-step" => args.legacy_step = true,
            "--trace" => args.trace_dir = Some(value("--trace")?),
            "--quiet" => args.quiet = true,
            "--point" => args.point = Some(value("--point")?),
            "--attempt" => {
                let n = value("--attempt")?;
                args.attempt = n
                    .parse()
                    .map_err(|_| format!("--attempt expects a number, got '{n}'"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Worker mode: execute exactly one point of the spec arriving on stdin
/// and emit its journal line on stdout. Process-level faults here —
/// abort, OOM, wedging — are the supervisor's problem, by design.
fn run_worker(args: &Args) -> Result<(), String> {
    let hash = args.point.as_deref().expect("checked by caller");
    let mut input = String::new();
    use std::io::Read as _;
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read spec from stdin: {e}"))?;
    let spec: SweepSpec =
        serde_json::from_str(input.trim()).map_err(|e| format!("invalid spec on stdin: {e}"))?;
    spec.validate()?;
    let point = spec
        .points()
        .into_iter()
        .find(|p| journal::point_hash(p) == hash)
        .ok_or_else(|| format!("no point with hash {hash} in this spec"))?;

    // Deterministic process-fault hooks for tests and CI. They simulate
    // environmental failures (a crash, a wedge) that cannot be produced
    // from a spec alone.
    if let Ok(k) = std::env::var("MCSIM_SWEEP_TEST_ABORT") {
        if let Ok(until) = k.parse::<u32>() {
            if args.attempt < until {
                std::process::abort();
            }
        }
    }
    if let Ok(which) = std::env::var("MCSIM_SWEEP_TEST_HANG") {
        if which == "all" || which == hash {
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }

    let trace_dir = args.trace_dir.as_ref().map(std::path::PathBuf::from);
    let (mut record, telemetry) =
        execute_point(&point, !args.legacy_step, args.inject, trace_dir.as_deref());
    record.attempts = args.attempt;
    let line = journal::JournalLine::Point(journal::JournalEntry {
        hash: hash.to_string(),
        record,
        telemetry,
    });
    println!("{}", line.render());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.point.is_some() {
        return run_worker(&args);
    }
    if args.list {
        for name in BUILTIN_NAMES {
            let spec = builtin(name).expect("listed builtins exist");
            println!("{name:<18} {:>4} points  {}", spec.len(), spec.description);
        }
        return Ok(());
    }
    let spec = args
        .spec
        .ok_or_else(|| format!("pick a sweep with --builtin or --spec\n{USAGE}"))?;
    if args.print_spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    let trace_dir = match &args.trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            Some(std::path::PathBuf::from(dir))
        }
        None => None,
    };
    let (journal_path, resume) = match (&args.journal, &args.resume) {
        (Some(j), Some(r)) if j != r => {
            return Err(format!(
                "--journal {j} conflicts with --resume {r}: resume continues journaling to the \
                 file it replays"
            ));
        }
        (_, Some(r)) => (Some(std::path::PathBuf::from(r)), true),
        (Some(j), None) => (Some(std::path::PathBuf::from(j)), false),
        (None, None) => (None, false),
    };
    let opts = ExecOptions {
        jobs: args.jobs,
        progress: !args.quiet,
        fast_forward: !args.legacy_step,
        trace_dir,
        journal: journal_path,
        resume,
        isolation: args.isolate,
        retry: RetryPolicy {
            max_attempts: args.retries.max(1),
            ..RetryPolicy::default()
        },
        deadline: Duration::from_secs(args.deadline_secs),
        inject: args.inject,
        worker_exe: None,
        worker_env: Vec::new(),
    };
    let run = run_sweep(&spec, &opts)?;

    if !args.quiet {
        print!("{}", render_groups(&run.result));
        let failures = run.result.failures();
        if !failures.is_empty() {
            println!("failed cells ({}):", failures.len());
            for f in failures {
                println!(
                    "  #{} {} {} {} [{} attempt(s)]: {:?}",
                    f.index,
                    f.workload,
                    f.model.name(),
                    f.techniques.label(),
                    f.attempts,
                    f.outcome
                );
            }
        }
        println!(
            "{} points ({} resumed), {} jobs, {:.2}s wall ({:.1} pts/s, {:.2}M sim-cycles/s, {:.1}x fast-forward)",
            run.result.rows.len(),
            run.timing.resumed_points,
            run.timing.jobs,
            run.timing.wall_seconds,
            run.timing.points_per_second,
            run.timing.sim_cycles_per_second / 1e6,
            run.timing.fast_forward_speedup,
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, run.result.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &args.timing_json {
        let text = serde_json::to_string_pretty(&run.timing).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, run.result.to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

//! `mcsim sweep` — run a declarative experiment sweep.
//!
//! ```text
//! mcsim sweep --builtin e6-equalization --jobs 4 --json out.json
//! mcsim sweep --spec my-sweep.json --csv out.csv --quiet
//! mcsim sweep --builtin e6-equalization --journal run.jsonl  # crash-safe
//! mcsim sweep --builtin e6-equalization --resume run.jsonl   # continue
//! mcsim sweep --builtin e6-equalization --isolate process    # crash-proof
//! mcsim sweep --list
//! mcsim sweep --builtin e12-latency --print-spec   # emit the spec JSON
//! ```
//!
//! Usage errors, unreadable or invalid specs and I/O failures fail the
//! command; individual failed grid points are *reported*, not fatal.
//!
//! The command doubles as its own isolation worker: `--point <hash>`
//! reads a spec from stdin, executes exactly the one point whose content
//! hash matches, and writes the completed journal line to stdout. The
//! supervisor in `--isolate process` mode spawns these per point.

use std::path::PathBuf;
use std::time::Duration;

use mcsim_sweep::{
    builtin, execute_point, journal, render_groups, run_sweep, ExecOptions, SweepSpec,
    BUILTIN_NAMES,
};

use crate::args::Args;

pub fn cmd_sweep(argv: &[String]) -> Result<(), String> {
    let mut spec: Option<SweepSpec> = None;
    let (mut list, mut print_spec, mut quiet) = (false, false, false);
    let (mut json, mut timing_json, mut csv) = (None, None, None);
    let (mut journal_file, mut resume_file) = (None, None);
    let (mut point, mut attempt) = (None, 1u32);
    let mut opts = ExecOptions::default();
    let mut args = Args::new(argv);
    while let Some(a) = args.next() {
        match a {
            "--builtin" => {
                let name = args.value(a)?;
                spec = Some(builtin(&name).ok_or_else(|| {
                    format!(
                        "unknown built-in '{name}'; try: {}",
                        BUILTIN_NAMES.join(", ")
                    )
                })?);
            }
            "--spec" => {
                let path = args.value(a)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                spec = Some(
                    serde_json::from_str(&text).map_err(|e| format!("invalid spec {path}: {e}"))?,
                );
            }
            "--list" => list = true,
            "--print-spec" => print_spec = true,
            "--jobs" => opts.jobs = args.number(a)?,
            "--json" => json = Some(args.value(a)?),
            "--timing-json" => timing_json = Some(args.value(a)?),
            "--csv" => csv = Some(args.value(a)?),
            "--journal" => journal_file = Some(args.value(a)?),
            "--resume" => resume_file = Some(args.value(a)?),
            "--isolate" => opts.isolation = args.value(a)?.parse()?,
            "--retries" => opts.retry.max_attempts = args.number::<u32>(a)?.max(1),
            "--deadline" => opts.deadline = Duration::from_secs(args.number(a)?),
            "--inject" => opts.inject = Some(args.value(a)?.parse()?),
            "--legacy-step" => opts.fast_forward = false,
            "--trace" => opts.trace_dir = Some(PathBuf::from(args.value(a)?)),
            "--quiet" => quiet = true,
            "--point" => point = Some(args.value(a)?),
            "--attempt" => attempt = args.number(a)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if let Some(hash) = point {
        return run_worker(&hash, attempt, &opts);
    }
    if list {
        for name in BUILTIN_NAMES {
            let spec = builtin(name).expect("listed builtins exist");
            println!("{name:<18} {:>4} points  {}", spec.len(), spec.description);
        }
        return Ok(());
    }
    let spec = spec.ok_or("pick a sweep with --builtin or --spec")?;
    if print_spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    if let Some(dir) = &opts.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    (opts.journal, opts.resume) = match (journal_file, resume_file) {
        (Some(j), Some(r)) if j != r => {
            return Err(format!(
                "--journal {j} conflicts with --resume {r}: resume continues journaling to the \
                 file it replays"
            ));
        }
        (_, Some(r)) => (Some(PathBuf::from(r)), true),
        (j, None) => (j.map(PathBuf::from), false),
    };
    opts.progress = !quiet;
    let run = run_sweep(&spec, &opts)?;

    if !quiet {
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
    let write = |path: Option<String>, render: &dyn Fn() -> Result<String, String>| {
        if let Some(path) = path {
            std::fs::write(&path, render()?).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
        Ok::<(), String>(())
    };
    write(json, &|| Ok(run.result.to_json()))?;
    write(timing_json, &|| {
        serde_json::to_string_pretty(&run.timing).map_err(|e| e.to_string())
    })?;
    write(csv, &|| Ok(run.result.to_csv()))?;
    Ok(())
}

/// Worker mode: execute exactly one point of the spec arriving on stdin
/// and emit its journal line on stdout. Process-level faults here —
/// abort, OOM, wedging — are the supervisor's problem, by design.
fn run_worker(hash: &str, attempt: u32, opts: &ExecOptions) -> Result<(), String> {
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
            if attempt < until {
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

    let (record, telemetry) = execute_point(
        &point,
        opts.fast_forward,
        opts.inject,
        opts.trace_dir.as_deref(),
    );
    let line = journal::JournalLine::Point(journal::JournalEntry {
        hash: hash.to_string(),
        record,
        telemetry,
    });
    println!("{}", line.render());
    Ok(())
}

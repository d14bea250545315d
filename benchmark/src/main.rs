//! The mcsim benchmark: five workloads from the machine loop to the HTTP
//! service, each measured from outside through the simulator's public
//! API, plus a traced run that splits wall time by layer.
//!
//! ```text
//! mcsim-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json OUT]
//! mcsim-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run` without `--workload` runs every workload in BENCHMARK.json, each
//! in its own child process. The last line of a workload's output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones).

mod compare;
mod conformance;
mod machine;
mod serve;
mod spec;
mod stats;
mod sweep;
mod tracer;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use crate::spec::BenchSpec;
use crate::stats::{median, quantile, sum};
use crate::tracer::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Windows a closed-loop run is split into (see [`Tally::rates`]).
const WINDOWS: usize = 5;

/// Share of `--seconds` a traced run spends on its untraced pass; the
/// traced replay of the same ops takes about as long again.
const TRACE_UNTRACED_SHARE: f64 = 0.4;

/// Share of `--seconds` a traced run spends probing layers.
const TRACE_PROBE_SHARE: f64 = 0.2;

/// Where runs leave spans, journals, server state and findings.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// How long a measurement runs.
pub enum Plan {
    /// Until this much time has passed (whole ops only).
    For(Duration),
    /// Exactly this many ops.
    Ops(usize),
}

impl Plan {
    /// Whether another op should start.
    #[must_use]
    pub fn more(&self, started: Instant, done: usize) -> bool {
        match *self {
            Plan::For(d) => started.elapsed() < d,
            Plan::Ops(n) => done < n,
        }
    }
}

/// What one measurement saw.
#[derive(Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: usize,
    /// Ops that errored or whose output failed its check.
    pub failed: usize,
    /// Latency of every completed op, in completion order.
    pub op_ms: Vec<f64>,
    /// Simulated cycles of every completed op, in the same order.
    pub op_cycles: Vec<u64>,
    /// Ops arrive on a schedule rather than one after another.
    pub open_loop: bool,
    /// Wall time of the measurement.
    pub wall_s: f64,
    /// How late the open-loop generator sent its latest request.
    pub lag_ms_max: f64,
    /// First failures, for the log.
    pub problems: Vec<String>,
    /// Findings worth printing that are not failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts a failed op.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(msg);
        }
    }

    /// Records a completed op.
    pub fn done(&mut self, ms: f64, cycles: u64) {
        self.op_ms.push(ms);
        self.op_cycles.push(cycles);
    }

    /// `ops_per_s`, `op_ms_p50`, `op_ms_p90` and `sim_cycles_per_s`.
    ///
    /// A closed loop's ops are split into [`WINDOWS`] consecutive windows
    /// of equal op count, and each metric reports its best window. Other
    /// tenants of a shared host slow whole seconds of a run by up to 2x;
    /// the best window measures the code, the worst ones the neighbours
    /// (the same reason the repo's step-throughput gate takes minima).
    /// Rates there are per second of op time. An open loop's latency
    /// includes queueing behind earlier jobs, so it is judged whole, and
    /// its rates are per second of wall time.
    fn rates(&self) -> [(&'static str, f64); 4] {
        if self.open_loop {
            let cycles: u64 = self.op_cycles.iter().sum();
            return [
                ("ops_per_s", self.op_ms.len() as f64 / self.wall_s),
                ("op_ms_p50", quantile(&self.op_ms, 0.5)),
                ("op_ms_p90", quantile(&self.op_ms, 0.9)),
                ("sim_cycles_per_s", cycles as f64 / self.wall_s),
            ];
        }
        let n = self.op_ms.len();
        let k = WINDOWS.min(n).max(1);
        let mut best = [0.0, f64::INFINITY, f64::INFINITY, 0.0];
        for w in 0..k {
            let range = w * n / k..(w + 1) * n / k;
            let ms = &self.op_ms[range.clone()];
            let op_s = sum(ms) / 1e3;
            let cycles: u64 = self.op_cycles[range].iter().sum();
            best[0] = f64::max(best[0], ms.len() as f64 / op_s);
            best[1] = best[1].min(quantile(ms, 0.5));
            best[2] = best[2].min(quantile(ms, 0.9));
            best[3] = f64::max(best[3], cycles as f64 / op_s);
        }
        [
            ("ops_per_s", best[0]),
            ("op_ms_p50", best[1]),
            ("op_ms_p90", best[2]),
            ("sim_cycles_per_s", best[3]),
        ]
    }
}

/// Per-layer metric values by name.
pub type Layers = Vec<(&'static str, f64)>;

/// A set-up workload, ready to measure.
pub trait Workload {
    /// Runs ops from the first one until `plan` is spent. Ops are a
    /// function of the seed and their index, so a second call replays
    /// the same inputs.
    fn measure(&mut self, plan: &Plan, tr: &Tracer) -> Tally;

    /// Per-layer metrics after a traced `replay`, plus problems found.
    /// May run probe passes for up to `budget`.
    fn layers(&mut self, replay: &Tally, tr: &Tracer, budget: Duration) -> (Layers, Vec<String>);

    /// Stops whatever the set-up started.
    fn teardown(&mut self) {}
}

/// A workload after set-up.
pub struct Setup {
    pub workload: Box<dyn Workload>,
    /// Time spent generating inputs.
    pub generate_us: f64,
    /// Reference or self-check failures found during set-up.
    pub problems: Vec<String>,
}

fn setup(name: &str, seed: u64) -> Result<Setup, String> {
    match name {
        "contended" => Ok(machine::setup(machine::Kind::Contended, seed)),
        "sparse" => Ok(machine::setup(machine::Kind::Sparse, seed)),
        "sweep" => sweep::setup(seed),
        "serve" => serve::setup(seed),
        "conformance" => Ok(conformance::setup(seed)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--json" => r.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(r)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn run_workload(spec: &BenchSpec, name: &str, args: &RunArgs) -> Result<Value, String> {
    let mut setup_s = Vec::new();
    let mut generate_us = Vec::new();
    let mut problems = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(mut w) = current.take() {
            w.teardown();
        }
        let started = Instant::now();
        let s = setup(name, args.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        generate_us.push(s.generate_us);
        problems = s.problems;
        current = Some(s.workload);
    }
    let mut w = current.expect("at least one set-up");
    let seconds = Duration::from_secs_f64(args.seconds);

    let mut values: Vec<(String, f64)> = Vec::new();
    let (attempted, failed, notes);
    if args.trace {
        let untraced = w.measure(
            &Plan::For(seconds.mul_f64(TRACE_UNTRACED_SHARE)),
            &Tracer::off(),
        );
        let tr = Tracer::on();
        let replay = w.measure(&Plan::Ops(untraced.attempted), &tr);
        let (layers, probe_problems) = w.layers(&replay, &tr, seconds.mul_f64(TRACE_PROBE_SHARE));
        problems.extend(probe_problems);
        values.extend(layers.into_iter().map(|(k, v)| (k.to_string(), v)));
        values.push((
            "bench.trace_overhead_ratio".to_string(),
            replay.wall_s / untraced.wall_s,
        ));
        values.push((
            "bench.generator_lag_ms_max".to_string(),
            untraced.lag_ms_max.max(replay.lag_ms_max),
        ));
        values.push(("workloads.generate_us".to_string(), median(&generate_us)));
        let path = out_dir().join(format!("spans-{name}-{}.json", args.seed));
        tr.write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        print_self_times(&tr);
        println!("spans: {}", path.display());
        attempted = untraced.attempted + replay.attempted;
        failed = untraced.failed + replay.failed;
        problems.extend(untraced.problems);
        problems.extend(replay.problems);
        notes = replay.notes;
    } else {
        let t = w.measure(&Plan::For(seconds), &Tracer::off());
        values.push(("setup_s".to_string(), median(&setup_s)));
        values.extend(t.rates().map(|(k, v)| (k.to_string(), v)));
        values.push(("peak_rss_mib".to_string(), peak_rss_mib()?));
        println!(
            "{name}: {} ops in {:.2} s ({} failed), {} latency samples",
            t.attempted,
            t.wall_s,
            t.failed,
            t.op_ms.len()
        );
        attempted = t.attempted;
        failed = t.failed;
        problems.extend(t.problems);
        notes = t.notes;
    }
    w.teardown();

    for note in &notes {
        println!("{name}: {note}");
    }
    for p in &problems {
        eprintln!("{name}: FAILED CHECK: {p}");
    }
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in wanted {
        // A layer this workload never enters reads 0.
        let value = match values.iter().find(|(k, _)| *k == m.name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload {name} does not measure `{}`", m.name)),
        };
        println!("{name}: {:<32} {value:>16.6} {}", m.name, m.unit);
        metrics.push((
            m.name.clone(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Value::Map(vec![
        (
            "correct".to_string(),
            Value::Bool(problems.is_empty() && failed == 0),
        ),
        ("attempted".to_string(), Value::U64(attempted.max(1) as u64)),
        ("failed".to_string(), Value::U64(failed as u64)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]))
}

fn print_self_times(tr: &Tracer) {
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in tr.self_times() {
        println!(
            "{name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Runs every workload, one child process each, one after another.
fn run_all(spec: &BenchSpec, raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &spec.workloads {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", w])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn run(raw: &[String]) -> Result<bool, String> {
    let args = parse_run(raw)?;
    let spec = BenchSpec::load()?;
    let Some(name) = &args.workload else {
        return run_all(&spec, raw);
    };
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "unknown workload `{name}` (known: {})",
            spec.workloads.join(", ")
        ));
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out dir: {e}"))?;
    let result = run_workload(&spec, name, &args)?;
    let line = serde_json::to_string(&result).expect("result serializes");
    if let Some(path) = &args.json {
        let record = Value::Map(vec![
            ("workload".to_string(), Value::Str(name.clone())),
            ("seed".to_string(), Value::U64(args.seed)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("result".to_string(), result),
        ]);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(
            f,
            "{}",
            serde_json::to_string(&record).expect("record serializes")
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mcsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! `serve`: an open loop of sweep jobs against an in-process `mcsim
//! serve` over localhost TCP.
//!
//! Jobs fall due on a fixed schedule whatever the server is doing, as
//! independent users would submit them. One client thread POSTs each job
//! when due and, between submissions, polls the oldest open job's status
//! and fetches its results once done. A job's latency runs from when it
//! was due to when its results arrived, so a stall also charges the jobs
//! queued behind it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcsim_consistency::Model;
use mcsim_proc::Techniques;
use mcsim_serve::{ExecTemplate, Registry, ServerConfig};
use mcsim_sweep::builtin::e6_equalization;
use mcsim_sweep::{derive_seed, run_sweep, ExecOptions, SweepResult, SweepSpec};
use serde::Value;

use crate::machine::{probe, MachineInput};
use crate::stats::quantile;
use crate::tracer::{SpanId, Tracer};
use crate::{out_dir, Layers, Plan, Setup, Tally, Workload};

/// Jobs submitted per second.
const RATE: f64 = 4.0;

/// No status poll starts when the next job is due sooner than this: a
/// request can wait out the server's 25 ms accept sleep, and the POST
/// must not be late.
const POLL_GUARD: Duration = Duration::from_millis(40);

/// A job still unfinished after its due time plus this is failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Job `j`: the e6 grid with both techniques on, all 7 models and its 3
/// workloads (21 points), under its own seed.
fn job_spec(seed: u64, j: usize) -> SweepSpec {
    let mut spec = e6_equalization();
    spec.name = format!("bench-job-{j}");
    spec.seed = derive_seed(seed, j as u64);
    spec.models = Model::ALL_EXTENDED.to_vec();
    spec.techniques = vec![Techniques::BOTH];
    spec
}

/// When each job falls due, from the start of a measurement: job `j` at
/// a seeded random point of its own `1 / RATE` slot, shifted so job 0 is
/// due at once. The load is fixed per second, yet submissions never lock
/// step with the server's own 25 ms poll period.
fn arrivals(seed: u64, plan: &Plan) -> Vec<Duration> {
    let n = match *plan {
        Plan::For(d) => (d.as_secs_f64() * RATE) as usize,
        Plan::Ops(n) => n,
    };
    let slot =
        |j: usize| j as f64 + (derive_seed(!seed, j as u64) >> 11) as f64 / (1u64 << 53) as f64;
    (0..n)
        .map(|j| Duration::from_secs_f64((slot(j) - slot(0)) / RATE))
        .collect()
}

struct Server {
    registry: Arc<Registry>,
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
    state_dir: PathBuf,
}

struct Serve {
    seed: u64,
    /// Job 0's artifact from a batch `run_sweep`.
    reference: Vec<u8>,
    server: Option<Server>,
    post_ms: Vec<f64>,
    status_ms: Vec<f64>,
    results_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    non2xx: usize,
}

fn start_server() -> Result<Server, String> {
    let state_dir = out_dir().join(format!("serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = mcsim_serve::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        workers: 1,
        max_pending: 100_000,
        exec: ExecTemplate {
            jobs: 1,
            fast_forward: true,
        },
        addr_file: None,
        quiet: true,
    })?;
    let addr = server.local_addr()?;
    let registry = server.registry();
    let thread = std::thread::spawn(move || server.run());
    Ok(Server {
        registry,
        addr,
        thread,
        state_dir,
    })
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let spec0 = job_spec(seed, 0);
    let generate_us = started.elapsed().as_secs_f64() * 1e6;
    let reference = run_sweep(&spec0, &ExecOptions::default())?
        .result
        .to_json()
        .into_bytes();
    let server = start_server()?;
    let mut problems = Vec::new();
    match request(server.addr, "GET", "/healthz", b"") {
        Ok((200, _)) => {}
        Ok((status, _)) => problems.push(format!("healthz answered {status}")),
        Err(e) => problems.push(format!("healthz: {e}")),
    }
    let mut w = Serve {
        seed,
        reference,
        server: Some(server),
        post_ms: Vec::new(),
        status_ms: Vec::new(),
        results_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        exec_ms: Vec::new(),
        non2xx: 0,
    };
    let warm = w.measure(&Plan::Ops(1), &Tracer::off());
    problems.extend(warm.problems);
    Ok(Setup {
        workload: Box::new(w),
        generate_us,
        problems,
    })
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). Returns the status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let exchange = || -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes())?;
        s.write_all(body)?;
        let mut buf = Vec::new();
        s.read_to_end(&mut buf)?;
        Ok(buf)
    };
    let buf = exchange().map_err(|e| format!("{method} {path}: {e}"))?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(format!("{method} {path}: no header end"))?;
    let status = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or(format!("{method} {path}: bad status line"))?;
    Ok((status, buf[split + 4..].to_vec()))
}

/// A string field of a JSON object body.
fn field(body: &[u8], key: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    match serde_json::parse_value(text).ok()? {
        Value::Map(fields) => fields.into_iter().find_map(|(k, v)| match v {
            Value::Str(s) if k == key => Some(s),
            _ => None,
        }),
        _ => None,
    }
}

/// A submitted, unfinished job.
struct Open {
    j: usize,
    id: String,
    root: Option<SpanId>,
    accepted: Instant,
    running: Option<Instant>,
    /// Set once a status poll saw `done`; the results fetch is next.
    done: bool,
}

impl Serve {
    /// Times one request, counting non-2xx answers.
    fn call(
        &mut self,
        tr: &Tracer,
        span: &'static str,
        job: &Open,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let addr = self.server.as_ref().expect("server runs").addr;
        let started = Instant::now();
        let id = tr.begin(span, job.j as u64, job.root);
        let r = request(addr, method, path, body);
        tr.end(id);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match span {
            "serve.post" => self.post_ms.push(ms),
            "serve.status" => self.status_ms.push(ms),
            _ => self.results_ms.push(ms),
        }
        if let Ok((status, _)) = &r {
            if !(200..300).contains(status) {
                self.non2xx += 1;
            }
        }
        r
    }
}

impl Workload for Serve {
    fn measure(&mut self, plan: &Plan, tr: &Tracer) -> Tally {
        let offsets = arrivals(self.seed, plan);
        let n = offsets.len();
        self.post_ms.clear();
        self.status_ms.clear();
        self.results_ms.clear();
        self.queue_wait_ms.clear();
        self.exec_ms.clear();
        self.non2xx = 0;
        let bodies: Vec<String> = (0..n)
            .map(|j| serde_json::to_string(&job_spec(self.seed, j)).expect("spec serializes"))
            .collect();
        let mut t = Tally {
            attempted: n,
            open_loop: true,
            ..Tally::default()
        };
        let t0 = Instant::now();
        let due = |j: usize| t0 + offsets[j];
        let mut open: VecDeque<Open> = VecDeque::new();
        let mut results: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut next = 0;
        let mut last = t0;
        loop {
            let now = Instant::now();
            if next < n && now >= due(next) {
                t.lag_ms_max = t.lag_ms_max.max((now - due(next)).as_secs_f64() * 1e3);
                let mut job = Open {
                    j: next,
                    id: String::new(),
                    root: tr.begin("job", next as u64, None),
                    accepted: now,
                    running: None,
                    done: false,
                };
                next += 1;
                let path = "/sweeps";
                match self.call(
                    tr,
                    "serve.post",
                    &job,
                    "POST",
                    path,
                    bodies[job.j].as_bytes(),
                ) {
                    Ok((202, body)) => match field(&body, "id") {
                        Some(id) => {
                            job.id = id;
                            job.accepted = Instant::now();
                            open.push_back(job);
                        }
                        None => {
                            tr.end(job.root);
                            t.fail(format!("job {}: 202 without an id", job.j));
                        }
                    },
                    Ok((status, _)) => {
                        tr.end(job.root);
                        t.fail(format!("job {}: POST answered {status}", job.j));
                    }
                    Err(e) => {
                        tr.end(job.root);
                        t.fail(format!("job {}: {e}", job.j));
                    }
                }
                continue;
            }
            let Some(job) = open.pop_front() else {
                if next == n {
                    break;
                }
                std::thread::sleep(due(next).saturating_duration_since(now));
                continue;
            };
            if next < n && due(next).saturating_duration_since(now) < POLL_GUARD {
                open.push_front(job);
                std::thread::sleep(due(next).saturating_duration_since(now));
                continue;
            }
            if now > due(job.j) + JOB_TIMEOUT {
                tr.end(job.root);
                t.fail(format!(
                    "job {} ({}) unfinished after {JOB_TIMEOUT:?}",
                    job.j, job.id
                ));
                continue;
            }
            if job.done {
                let path = format!("/sweeps/{}/results", job.id);
                let fetched = self.call(tr, "serve.results", &job, "GET", &path, b"");
                tr.end(job.root);
                last = Instant::now();
                match fetched {
                    Ok((200, body)) => {
                        t.op_ms.push((last - due(job.j)).as_secs_f64() * 1e3);
                        results.push((job.j, body));
                    }
                    Ok((status, _)) => t.fail(format!("job {}: results answered {status}", job.j)),
                    Err(e) => t.fail(format!("job {}: {e}", job.j)),
                }
                continue;
            }
            let path = format!("/sweeps/{}", job.id);
            let state = match self.call(tr, "serve.status", &job, "GET", &path, b"") {
                Ok((200, body)) => field(&body, "state").unwrap_or_default(),
                Ok((status, _)) => format!("status {status}"),
                Err(e) => e,
            };
            let seen = Instant::now();
            match state.as_str() {
                "queued" => open.push_front(job),
                "running" => open.push_front(Open {
                    running: job.running.or(Some(seen)),
                    ..job
                }),
                "done" => {
                    if let Some(running) = job.running {
                        self.queue_wait_ms
                            .push((running - job.accepted).as_secs_f64() * 1e3);
                        self.exec_ms.push((seen - running).as_secs_f64() * 1e3);
                    }
                    open.push_front(Open { done: true, ..job });
                }
                other => {
                    tr.end(job.root);
                    t.fail(format!("job {} ({}): {other}", job.j, job.id));
                }
            }
        }
        t.wall_s = (last - t0).as_secs_f64();

        // Checks run after the loop so they never delay a submission.
        for (j, body) in results {
            if j == 0 && body != self.reference {
                t.fail("job 0 results differ from the batch artifact".to_string());
            }
            let parsed = std::str::from_utf8(&body)
                .map_err(|e| e.to_string())
                .and_then(|s| SweepResult::from_json(s).map_err(|e| e.to_string()));
            let mut cycles = 0;
            match parsed {
                Ok(result) => {
                    cycles = result.rows.iter().filter_map(|r| r.outcome.cycles()).sum();
                    if let Some(row) = result.rows.iter().find(|r| !r.outcome.is_done()) {
                        t.fail(format!(
                            "job {j} point {}: {}",
                            row.index,
                            row.outcome.tag()
                        ));
                    }
                }
                Err(e) => t.fail(format!("job {j}: unparseable results: {e}")),
            }
            t.op_cycles.push(cycles);
        }
        t
    }

    fn layers(&mut self, _replay: &Tally, tr: &Tracer, budget: Duration) -> (Layers, Vec<String>) {
        let mut layers = vec![
            ("serve.post_ms_p50", quantile(&self.post_ms, 0.5)),
            ("serve.status_ms_p50", quantile(&self.status_ms, 0.5)),
            ("serve.results_ms_p50", quantile(&self.results_ms, 0.5)),
            (
                "serve.queue_wait_ms_p50",
                quantile(&self.queue_wait_ms, 0.5),
            ),
            ("serve.exec_ms_p50", quantile(&self.exec_ms, 0.5)),
            ("serve.non2xx", self.non2xx as f64),
        ];
        let inputs: Vec<MachineInput> = job_spec(self.seed, 0)
            .points()
            .iter()
            .map(MachineInput::from_point)
            .collect();
        let (more, problems) = probe(&inputs, tr, budget);
        layers.extend(more);
        (layers, problems)
    }

    fn teardown(&mut self) {
        if let Some(s) = self.server.take() {
            s.registry.drain();
            let _ = s.thread.join();
            let _ = std::fs::remove_dir_all(&s.state_dir);
        }
    }
}

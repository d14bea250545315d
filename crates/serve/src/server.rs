//! The accept loop and request router.
//!
//! One thread per connection on top of a non-blocking accept loop that
//! polls the drain flags ([`crate::signal`] for SIGTERM/SIGINT, the
//! registry for `POST /shutdown`) between accepts. Request handling is
//! synchronous; the only long-lived connection is the chunked
//! `?follow=1` journal feed, which polls the journal file until its job
//! finishes.
//!
//! ## Endpoints
//!
//! | Method + path                     | Answer |
//! |-----------------------------------|--------|
//! | `GET /healthz`                    | `{"ok":true}` |
//! | `GET /sweeps`                     | array of job status objects |
//! | `POST /sweeps`                    | `202` + `{"id","points"}`; body is a `SweepSpec` or `{"builtin":"<name>"}` |
//! | `GET /sweeps/<id>`                | status: state, completed/total, failure classes, rate, ETA |
//! | `GET /sweeps/<id>/results`        | the final artifact, byte-identical to `mcsim sweep --json` |
//! | `GET /sweeps/<id>/journal`        | complete journal lines so far (`?follow=1` streams until done) |
//! | `GET /sweeps/<id>/trace/<hash>`   | Chrome-trace post-mortem of a failed point (deterministic re-run) |
//! | `POST /shutdown`                  | drain: finish running jobs, refuse new ones, exit |

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mcsim_sweep::{builtin, execute_point, point_hash, SweepSpec, BUILTIN_NAMES};
use serde::{Deserialize, Serialize};

use crate::http::{self, Request, Response};
use crate::job::{ExecTemplate, JobState, Registry, SubmitError};
use crate::signal;
use crate::tail::JournalTail;

/// How often drain flags and followed journals are polled.
const POLL: Duration = Duration::from_millis(25);

/// Server configuration (the parsed CLI).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, `host:port` (port `0` picks a free one).
    pub addr: String,
    /// Durable job state: one `job-NNNN/` directory per sweep.
    pub state_dir: PathBuf,
    /// Concurrent job workers (`0` = no execution, admission only —
    /// used by tests; the CLI enforces at least 1).
    pub workers: usize,
    /// Admission bound: `queued + running >= max_pending` → `429`.
    pub max_pending: usize,
    /// Execution knobs shared by every served job.
    pub exec: ExecTemplate,
    /// When set, the actual bound address is written here (CI and tests
    /// bind port `0` and read it back).
    pub addr_file: Option<PathBuf>,
    /// Suppress startup/shutdown log lines.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("mcsim-serve-state"),
            workers: 2,
            max_pending: 8,
            exec: ExecTemplate::default(),
            addr_file: None,
            quiet: false,
        }
    }
}

/// A bound, not-yet-running server — split from [`Server::run`] so
/// embedders (tests) can learn the address before serving.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    cfg: ServerConfig,
}

/// Binds the listener, opens the registry (resuming any unfinished
/// jobs from a previous process), and writes the addr file.
///
/// # Errors
/// Bind or state-directory failures, as human-readable messages.
pub fn bind(cfg: ServerConfig) -> Result<Server, String> {
    let registry = Registry::open(&cfg.state_dir, cfg.max_pending, cfg.exec)?;
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    if let Some(path) = &cfg.addr_file {
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Server {
        listener,
        registry,
        cfg,
    })
}

impl Server {
    /// The actual bound address.
    ///
    /// # Errors
    /// If the OS cannot report the socket's address.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// The shared job registry (embedders can drain it directly).
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Serves until drained (SIGTERM/SIGINT or `POST /shutdown`):
    /// spawns the job workers, accepts connections, then joins
    /// everything. Running jobs finish; queued jobs stay journaled on
    /// disk and resume on the next start.
    ///
    /// # Errors
    /// Fatal listener failures; per-connection errors are logged and
    /// dropped.
    pub fn run(self) -> Result<(), String> {
        let Server {
            listener,
            registry,
            cfg,
        } = self;
        let mut workers = Vec::new();
        for _ in 0..cfg.workers {
            let reg = Arc::clone(&registry);
            workers.push(std::thread::spawn(move || reg.worker_loop()));
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set non-blocking accept: {e}"))?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if signal::requested() {
                registry.drain();
            }
            if registry.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let reg = Arc::clone(&registry);
                    conns.push(std::thread::spawn(move || handle_connection(stream, &reg)));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        if !cfg.quiet {
            eprintln!(
                "mcsim serve: draining (running jobs finish, queued jobs keep their journals)"
            );
        }
        for handle in conns {
            let _ = handle.join();
        }
        for handle in workers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Binds and serves in one call — the CLI entry point.
///
/// # Errors
/// See [`bind`] and [`Server::run`].
pub fn serve(cfg: ServerConfig) -> Result<(), String> {
    signal::install();
    let quiet = cfg.quiet;
    let server = bind(cfg)?;
    if !quiet {
        let addr = server.local_addr()?;
        eprintln!("mcsim serve: listening on http://{addr} (POST /sweeps, GET /sweeps/<id>)");
    }
    server.run()
}

fn handle_connection(stream: TcpStream, registry: &Arc<Registry>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    match http::read_request(&mut reader) {
        Ok(req) => {
            if let Err(e) = route(&req, registry, &mut writer) {
                // The client went away mid-response; nothing to answer.
                let _ = e;
            }
        }
        Err(msg) => {
            let _ = http::write_response(&mut writer, &Response::error(400, &msg));
        }
    }
}

/// `POST /sweeps` alternative body: run a named built-in grid.
#[derive(Deserialize)]
struct BuiltinReq {
    builtin: String,
}

#[derive(Serialize)]
struct SubmitBody {
    id: String,
    points: usize,
    state: String,
}

fn json_ok<W: Write>(w: &mut W, status: u16, body: String) -> std::io::Result<()> {
    http::write_response(w, &Response::json(status, body))
}

fn json_err<W: Write>(w: &mut W, status: u16, msg: &str) -> std::io::Result<()> {
    http::write_response(w, &Response::error(status, msg))
}

fn route<W: Write>(req: &Request, registry: &Arc<Registry>, w: &mut W) -> std::io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => json_ok(w, 200, "{\"ok\":true}".to_string()),
        ("GET", ["sweeps"]) => {
            let body = serde_json::to_string_pretty(&registry.list())
                .unwrap_or_else(|e| format!("\"unserializable: {e}\""));
            json_ok(w, 200, body)
        }
        ("POST", ["sweeps"]) => submit(req, registry, w),
        ("GET", ["sweeps", id]) => match registry.status(id) {
            Some(status) => {
                let body = serde_json::to_string_pretty(&status)
                    .unwrap_or_else(|e| format!("\"unserializable: {e}\""));
                json_ok(w, 200, body)
            }
            None => json_err(w, 404, &format!("no such job `{id}`")),
        },
        ("GET", ["sweeps", id, "results"]) => results(id, registry, w),
        ("GET", ["sweeps", id, "journal"]) => journal(req, id, registry, w),
        ("GET", ["sweeps", id, "trace", hash]) => trace(id, hash, registry, w),
        ("POST", ["shutdown"]) => {
            registry.drain();
            json_ok(w, 200, "{\"draining\":true}".to_string())
        }
        ("GET" | "POST", _) => json_err(w, 404, &format!("no route for {}", req.path)),
        _ => json_err(w, 405, &format!("method {} not allowed", req.method)),
    }
}

fn submit<W: Write>(req: &Request, registry: &Arc<Registry>, w: &mut W) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return json_err(w, 400, "body is not UTF-8");
    };
    // A full SweepSpec first; `{"builtin": "<name>"}` as the fallback.
    let spec: SweepSpec = match serde_json::from_str::<SweepSpec>(text) {
        Ok(spec) => spec,
        Err(spec_err) => match serde_json::from_str::<BuiltinReq>(text) {
            Ok(req) => match builtin(&req.builtin) {
                Some(spec) => spec,
                None => {
                    return json_err(
                        w,
                        400,
                        &format!(
                            "unknown builtin `{}` (known: {})",
                            req.builtin,
                            BUILTIN_NAMES.join(", ")
                        ),
                    )
                }
            },
            Err(_) => {
                return json_err(
                    w,
                    400,
                    &format!(
                        "body is neither a SweepSpec ({spec_err}) nor {{\"builtin\":\"<name>\"}}"
                    ),
                )
            }
        },
    };
    match registry.submit(spec) {
        Ok((id, points)) => {
            let body = SubmitBody {
                id,
                points,
                state: JobState::Queued.tag().to_string(),
            };
            let text = serde_json::to_string_pretty(&body)
                .unwrap_or_else(|e| format!("\"unserializable: {e}\""));
            json_ok(w, 202, text)
        }
        Err(SubmitError::Overloaded { pending }) => json_err(
            w,
            429,
            &format!("{pending} jobs pending; retry when one finishes"),
        ),
        Err(SubmitError::Invalid(msg)) => json_err(w, 400, &format!("invalid spec: {msg}")),
        Err(SubmitError::Draining) => json_err(w, 503, "server is draining"),
        Err(SubmitError::Io(msg)) => json_err(w, 500, &msg),
    }
}

fn results<W: Write>(id: &str, registry: &Arc<Registry>, w: &mut W) -> std::io::Result<()> {
    match registry.job_state(id) {
        None => json_err(w, 404, &format!("no such job `{id}`")),
        Some(JobState::Done) => {
            let path = registry.result_path(id).expect("done job has a dir");
            match std::fs::read(&path) {
                // Raw bytes of the artifact: the byte-identity contract
                // with `mcsim sweep --json` is the whole point.
                Ok(bytes) => http::write_response(
                    w,
                    &Response {
                        status: 200,
                        content_type: "application/json",
                        body: bytes,
                    },
                ),
                Err(e) => json_err(w, 500, &format!("artifact unreadable: {e}")),
            }
        }
        Some(JobState::Failed) => {
            let why = registry
                .job_error(id)
                .unwrap_or_else(|| "unknown executor error".to_string());
            json_err(w, 409, &format!("job failed: {why}"))
        }
        Some(state) => json_err(
            w,
            409,
            &format!("job is {}; results exist once it is done", state.tag()),
        ),
    }
}

fn journal<W: Write>(
    req: &Request,
    id: &str,
    registry: &Arc<Registry>,
    w: &mut W,
) -> std::io::Result<()> {
    let Some(path) = registry.journal_path(id) else {
        return json_err(w, 404, &format!("no such job `{id}`"));
    };
    let mut tail = JournalTail::new(path);
    if !req.flag("follow") {
        let lines = tail.poll().unwrap_or_default();
        let mut body = lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        return http::write_response(
            w,
            &Response {
                status: 200,
                content_type: "application/x-ndjson",
                body: body.into_bytes(),
            },
        );
    }
    http::write_chunked_head(w, "application/x-ndjson")?;
    loop {
        // Order matters: observe "finished" *before* the poll, so the
        // final poll is guaranteed to run after the last journal write.
        let finished = registry.job_state(id).is_none_or(JobState::finished) || registry.draining();
        let lines = tail.poll().unwrap_or_default();
        for line in &lines {
            http::write_chunk(w, format!("{line}\n").as_bytes())?;
        }
        if finished {
            break;
        }
        std::thread::sleep(POLL);
    }
    http::finish_chunked(w)
}

fn trace<W: Write>(
    id: &str,
    hash: &str,
    registry: &Arc<Registry>,
    w: &mut W,
) -> std::io::Result<()> {
    let Some((spec, dir)) = registry.spec_and_dir(id) else {
        return json_err(w, 404, &format!("no such job `{id}`"));
    };
    let Some(point) = spec.points().into_iter().find(|p| point_hash(p) == hash) else {
        return json_err(w, 404, &format!("job has no point with hash `{hash}`"));
    };
    let trace_dir = dir.join("trace");
    if let Err(e) = std::fs::create_dir_all(&trace_dir) {
        return json_err(w, 500, &format!("cannot create trace dir: {e}"));
    }
    // Deterministic re-run through the executor's single execution
    // path: the point derives everything from the spec, so the
    // post-mortem reflects exactly what the sweep simulated. A trace
    // file only appears for points that did not finish cleanly.
    let index = point.index;
    let fast_forward = registry.exec().fast_forward;
    let (record, _telemetry) = execute_point(&point, fast_forward, None, Some(&trace_dir));
    let path = trace_dir.join(format!("point-{index:04}.trace.json"));
    match std::fs::read(&path) {
        Ok(bytes) => http::write_response(
            w,
            &Response {
                status: 200,
                content_type: "application/json",
                body: bytes,
            },
        ),
        Err(_) => json_err(
            w,
            404,
            &format!(
                "point finished cleanly (outcome `{}`); post-mortem traces exist only for failures",
                record.outcome.tag()
            ),
        ),
    }
}

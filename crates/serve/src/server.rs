//! The accept loop and request router.
//!
//! Nothing here waits on a timer. The accept loop blocks in `accept`
//! and queues each connection for a fixed set of [`HANDLERS`] reused
//! threads. A drain — `POST /shutdown`, SIGTERM/SIGINT (through
//! [`crate::signal`]), or an embedder calling [`Registry::drain`] —
//! wakes it by connecting to the server's own address, which the
//! registry learns at [`bind`]. Request handling is synchronous; the
//! only long-lived connection is the chunked `?follow=1` journal feed,
//! which moves to a thread of its own and sleeps on the registry's
//! condvar until a journal append, the job's finish, or a drain.
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
use std::sync::{mpsc, Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

use mcsim_sweep::{builtin, execute_point, point_hash, SweepSpec, BUILTIN_NAMES};
use serde::{Deserialize, Serialize};

use crate::http::{self, Request, Response};
use crate::job::{ExecTemplate, JobState, Registry, SubmitError};
use crate::signal;
use crate::tail::JournalTail;

/// Connection handler threads. A fixed, reused set: a client polling
/// back to back never starts a thread (or, under glibc, a malloc arena)
/// per request. Two keep one slow or silent client from stalling the
/// rest; `?follow=1` streams run on threads of their own.
const HANDLERS: usize = 2;

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
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    registry.wake_on_drain(addr);
    if let Some(path) = &cfg.addr_file {
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

    /// Serves until drained (SIGTERM/SIGINT, `POST /shutdown`, or
    /// [`Registry::drain`]): spawns the job workers and connection
    /// handlers, accepts connections, then joins everything. Running
    /// jobs finish; queued jobs stay journaled on disk and resume on
    /// the next start.
    ///
    /// # Errors
    /// Fatal listener failures (after a drain); per-connection errors
    /// are dropped.
    pub fn run(self) -> Result<(), String> {
        let Server {
            listener,
            registry,
            cfg,
        } = self;
        let (listener, registry) = (&listener, &registry);
        let (conns, queue) = mpsc::channel::<TcpStream>();
        let queue = &Mutex::new(queue);
        // The scope joins everything it spawned — workers, handlers and
        // journal followers — before `run` returns.
        std::thread::scope(|s| {
            for _ in 0..cfg.workers {
                s.spawn(|| registry.worker_loop());
            }
            for _ in 0..HANDLERS {
                s.spawn(move || loop {
                    let next = queue.lock().expect("connection queue poisoned").recv();
                    let Ok(stream) = next else {
                        return; // the accept loop is gone
                    };
                    handle_connection(s, stream, registry);
                });
            }
            let failure = accept_loop(listener, registry, &conns);
            if !cfg.quiet {
                eprintln!(
                    "mcsim serve: draining (running jobs finish, queued jobs keep their journals)"
                );
            }
            // Handlers finish the connections already accepted, then
            // see the closed queue.
            drop(conns);
            failure
        })
    }
}

/// Blocks in `accept` and queues each connection for the handlers,
/// until the registry drains.
///
/// # Errors
/// A fatal `accept` failure, after draining the registry.
fn accept_loop(
    listener: &TcpListener,
    registry: &Registry,
    conns: &mpsc::Sender<TcpStream>,
) -> Result<(), String> {
    while !registry.draining() {
        match listener.accept() {
            // After a drain this is its wake-up connection (or a client
            // racing it): dropped unanswered.
            Ok((stream, _)) => {
                if !registry.draining() {
                    let _ = conns.send(stream);
                }
            }
            // The client reset before we accepted it.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
            Err(e) => {
                registry.drain();
                return Err(format!("accept failed: {e}"));
            }
        }
    }
    Ok(())
}

/// Binds and serves in one call — the CLI entry point.
///
/// # Errors
/// See [`bind`] and [`Server::run`].
pub fn serve(cfg: ServerConfig) -> Result<(), String> {
    // Installed before `bind` writes the addr file: a signal sent the
    // moment that file appears must drain, not kill.
    let termination =
        signal::install().map_err(|e| format!("cannot install signal handlers: {e}"))?;
    let quiet = cfg.quiet;
    let server = bind(cfg)?;
    let registry = server.registry();
    // Left detached: without a signal it blocks until the process exits.
    std::thread::spawn(move || {
        if termination.wait() {
            registry.drain();
        }
    });
    if !quiet {
        let addr = server.local_addr()?;
        eprintln!("mcsim serve: listening on http://{addr} (POST /sweeps, GET /sweeps/<id>)");
    }
    server.run()
}

fn handle_connection<'scope>(
    s: &'scope Scope<'scope, '_>,
    stream: TcpStream,
    registry: &'scope Arc<Registry>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = http::read_request(&mut BufReader::new(&stream));
    let mut writer = stream;
    // A route error means the client went away mid-response; there is
    // nothing left to answer.
    match request {
        Ok(req) if streams(&req) => {
            s.spawn(move || {
                let _ = route(&req, registry, &mut writer);
            });
        }
        Ok(req) => {
            let _ = route(&req, registry, &mut writer);
        }
        Err(msg) => {
            let _ = http::write_response(&mut writer, &Response::error(400, &msg));
        }
    }
}

fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// Whether the request is a `?follow=1` journal stream, which outlives
/// its job's progress and so must not hold a handler thread.
fn streams(req: &Request) -> bool {
    req.method == "GET"
        && req.flag("follow")
        && matches!(segments(&req.path).as_slice(), ["sweeps", _, "journal"])
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
    match (req.method.as_str(), segments(&req.path).as_slice()) {
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
        // Order matters: take the mark *before* reading, so the final
        // read runs after the last journal write, and any append after
        // the mark ends the wait at once.
        let (seen, settled) = registry.follow_mark(id);
        let lines = tail.poll().unwrap_or_default();
        for line in &lines {
            http::write_chunk(w, format!("{line}\n").as_bytes())?;
        }
        if settled {
            break;
        }
        registry.wait_for_event(seen);
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

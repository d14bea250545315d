//! End-to-end tests over a real TCP socket: an in-process `mcsim serve`
//! instance driven by a hand-rolled HTTP client, pinning the full
//! protocol — submit, poll, stream, fetch — and the serving-determinism
//! contract (the HTTP artifact is byte-identical to the batch CLI's),
//! including across a simulated crash + restart with a partial journal.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use std::sync::mpsc;

use mcsim_consistency::Model;
use mcsim_mem::Protocol;
use mcsim_proc::Techniques;
use mcsim_serve::{bind, ExecTemplate, Server, ServerConfig};
use mcsim_sweep::{run_sweep, ExecOptions, SweepSpec, Window, WorkloadSpec};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcsim-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four fast points: 2 workloads x 2 miss latencies under SC x BOTH.
fn grid_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("serve-e2e", "serve end-to-end tests");
    spec.workloads = vec![WorkloadSpec::PaperExample1, WorkloadSpec::PaperExample2];
    spec.machine.miss_latency = vec![100, 50];
    spec
}

/// One point that can never finish inside its budget -> TimedOut cell.
fn timeout_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("serve-e2e-timeout", "trace endpoint test");
    spec.workloads = vec![WorkloadSpec::PaperExample1];
    spec.max_cycles = 1;
    spec
}

/// Six 5,000-entry axes: ~400 KB of JSON whose grid size overflows.
fn oversized_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("serve-e2e-oversized", "admission size limit");
    spec.models = vec![Model::Sc; 5000];
    spec.techniques = vec![Techniques::NONE; 5000];
    spec.machine.miss_latency = vec![100; 5000];
    spec.machine.window = vec![Window::Ideal; 5000];
    spec.machine.protocol = vec![Protocol::Invalidate; 5000];
    spec.workloads = vec![WorkloadSpec::PaperExample1; 5000];
    spec
}

fn start(name: &str, workers: usize, max_pending: usize) -> (Server, SocketAddr, PathBuf) {
    let dir = tmp_dir(name);
    let server = bind(ServerConfig {
        state_dir: dir.clone(),
        workers,
        max_pending,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("binds 127.0.0.1:0");
    let addr = server.local_addr().expect("bound address");
    (server, addr, dir)
}

/// Sends one request, reads to EOF (`Connection: close`), returns
/// `(status, body)` with chunked transfer decoded.
fn http(addr: SocketAddr, request: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response is UTF-8");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status, body)
}

fn dechunk(mut body: &str) -> String {
    let mut out = String::new();
    loop {
        let Some((size_line, rest)) = body.split_once("\r\n") else {
            panic!("chunked body missing size line: {body:?}");
        };
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        body = rest[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn submit_spec(addr: SocketAddr, spec: &SweepSpec) -> String {
    let body = serde_json::to_string(spec).expect("spec serializes");
    let (status, reply) = post(addr, "/sweeps", &body);
    assert_eq!(status, 202, "submit reply: {reply}");
    extract(&reply, "id")
}

/// Pulls a string field out of a flat JSON object.
fn extract(json: &str, key: &str) -> String {
    let serde::Value::Map(fields) = serde_json::parse_value(json).expect("valid JSON") else {
        panic!("not a JSON object: {json}");
    };
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, serde::Value::Str(s))) => s.clone(),
        other => panic!("no string `{key}` in {json} (got {other:?})"),
    }
}

fn wait_done(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(addr, &format!("/sweeps/{id}"));
        assert_eq!(status, 200, "status reply: {body}");
        match extract(&body, "state").as_str() {
            "done" => return body,
            "failed" => panic!("job failed: {body}"),
            _ if Instant::now() > deadline => panic!("job wedged: {body}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn shutdown_and_join(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), String>>) {
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "shutdown reply: {body}");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn submit_poll_fetch_is_byte_identical_to_batch() {
    let (server, addr, dir) = start("roundtrip", 1, 8);
    let handle = std::thread::spawn(move || server.run());

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    let id = submit_spec(addr, &grid_spec());
    let status_body = wait_done(addr, &id);
    assert!(status_body.contains("\"total\": 4"), "{status_body}");
    assert!(status_body.contains("\"completed\": 4"), "{status_body}");

    let (status, served) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(status, 200);
    let batch = run_sweep(&grid_spec(), &ExecOptions::default())
        .expect("batch run")
        .result
        .to_json();
    assert_eq!(served, batch, "HTTP artifact != batch CLI artifact");

    // The job list includes the finished job.
    let (status, list) = get(addr, "/sweeps");
    assert_eq!(status, 200);
    assert!(list.contains(&id), "{list}");

    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_and_error_paths() {
    // workers = 0: nothing executes, so queue occupancy is deterministic.
    let (server, addr, dir) = start("errors", 0, 1);
    let handle = std::thread::spawn(move || server.run());

    let id = submit_spec(addr, &grid_spec());
    let (status, body) = post(
        addr,
        "/sweeps",
        &serde_json::to_string(&grid_spec()).expect("serializes"),
    );
    assert_eq!(status, 429, "second submit must overload: {body}");

    let (status, _) = get(addr, "/sweeps/job-9999");
    assert_eq!(status, 404);
    let (status, body) = post(addr, "/sweeps", "{\"nonsense\": true}");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/sweeps", "not json at all");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(addr, "/sweeps", "{\"builtin\": \"no-such-grid\"}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown builtin"), "{body}");
    // A machine value no point could be built with is refused up front,
    // not run as a grid of panicking cells.
    let mut odd_miss = grid_spec();
    odd_miss.machine.miss_latency = vec![5];
    let body = serde_json::to_string(&odd_miss).expect("serializes");
    let (status, body) = post(addr, "/sweeps", &body);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("machine.miss_latency"), "{body}");
    // A grid whose size overflows is refused before anything expands it.
    let (status, body) = post(
        addr,
        "/sweeps",
        &serde_json::to_string(&oversized_spec()).unwrap(),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("points; the limit is"), "{body}");
    let (status, _) = get(addr, "/nowhere");
    assert_eq!(status, 404);
    let (status, body) = get(addr, &format!("/sweeps/{id}/results"));
    assert_eq!(status, 409, "queued job has no results yet: {body}");

    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_endpoint_yields_only_complete_lines() {
    let (server, addr, dir) = start("journal", 1, 8);
    let handle = std::thread::spawn(move || server.run());

    let id = submit_spec(addr, &grid_spec());
    // Follow the journal *while the job runs*: the stream must contain
    // the header plus one parseable line per point, nothing torn.
    let (status, follow) = get(addr, &format!("/sweeps/{id}/journal?follow=1"));
    assert_eq!(status, 200);
    let lines: Vec<&str> = follow.lines().collect();
    assert_eq!(lines.len(), 1 + 4, "header + 4 points: {follow}");
    for line in &lines {
        serde_json::parse_value(line).expect("every streamed line parses");
    }
    assert!(lines[0].contains("spec_hash"), "{}", lines[0]);

    // The non-follow variant returns the same bytes once the job is done.
    wait_done(addr, &id);
    let (status, whole) = get(addr, &format!("/sweeps/{id}/journal"));
    assert_eq!(status, 200);
    assert_eq!(whole, follow);

    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_endpoint_serves_failure_post_mortems_only() {
    let (server, addr, dir) = start("trace", 1, 8);
    let handle = std::thread::spawn(move || server.run());

    let id = submit_spec(addr, &timeout_spec());
    let status_body = wait_done(addr, &id);
    // A timed-out point is a deterministic failure, visible in status.
    assert!(
        status_body.contains("\"deterministic\": 1"),
        "{status_body}"
    );

    let hash = mcsim_sweep::point_hash(&timeout_spec().points()[0]);
    let (status, trace) = get(addr, &format!("/sweeps/{id}/trace/{hash}"));
    assert_eq!(status, 200, "{trace}");
    serde_json::parse_value(&trace).expect("post-mortem is valid JSON");
    assert!(trace.contains("traceEvents"), "{trace:.120}");

    let (status, body) = get(addr, &format!("/sweeps/{id}/trace/not-a-hash"));
    assert_eq!(status, 404, "{body}");

    // A cleanly finished point has no post-mortem.
    let clean_id = submit_spec(addr, &grid_spec());
    wait_done(addr, &clean_id);
    let clean_hash = mcsim_sweep::point_hash(&grid_spec().points()[0]);
    let (status, body) = get(addr, &format!("/sweeps/{clean_id}/trace/{clean_hash}"));
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("finished cleanly"), "{body}");

    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_resumes_a_partial_journal_to_an_identical_artifact() {
    // Simulate a server SIGKILLed mid-job: a job directory holding the
    // spec and a journal with only some of the points (plus a torn
    // trailing line), no result.json. A fresh server over the same
    // state dir must resume, finish, and serve the byte-identical
    // artifact.
    let spec = grid_spec();
    let scratch = tmp_dir("restart-scratch");
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let full = run_sweep(
        &spec,
        &ExecOptions {
            journal: Some(scratch.join("full.jsonl")),
            ..ExecOptions::default()
        },
    )
    .expect("reference run");
    let journal_text = std::fs::read_to_string(scratch.join("full.jsonl")).expect("journal");
    let mut partial: String = journal_text
        .lines()
        .take(3) // header + 2 of 4 points
        .map(|l| format!("{l}\n"))
        .collect();
    partial.push_str("{\"point\":{\"hash\":\"torn-mid-wr"); // the kill landed here

    let state = tmp_dir("restart-state");
    let job_dir = state.join("job-0042");
    std::fs::create_dir_all(&job_dir).expect("job dir");
    std::fs::write(
        job_dir.join("spec.json"),
        serde_json::to_string_pretty(&spec).expect("spec serializes"),
    )
    .expect("spec.json");
    std::fs::write(job_dir.join("journal.jsonl"), partial).expect("journal.jsonl");

    let server = bind(ServerConfig {
        state_dir: state.clone(),
        workers: 1,
        max_pending: 8,
        quiet: true,
        exec: ExecTemplate::default(),
        ..ServerConfig::default()
    })
    .expect("binds");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let status_body = wait_done(addr, "job-0042");
    assert!(
        status_body.contains("\"resumed\": 2"),
        "resume must replay the 2 journaled points: {status_body}"
    );
    let (status, served) = get(addr, "/sweeps/job-0042/results");
    assert_eq!(status, 200);
    assert_eq!(
        served,
        full.result.to_json(),
        "resumed HTTP artifact != uninterrupted batch artifact"
    );

    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&state);
}

/// Runs the server on a thread that reports when `Server::run` returns.
fn run_reporting(server: Server) -> mpsc::Receiver<Result<(), String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    rx
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[test]
fn requests_are_answered_without_waiting_out_a_poll() {
    let (server, addr, dir) = start("latency", 0, 8);
    let handle = std::thread::spawn(move || server.run());
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let (status, _) = get(addr, "/healthz");
            assert_eq!(status, 200);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let median = median_ms(samples);
    assert!(median < 5.0, "median GET /healthz took {median:.2} ms");
    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_and_a_direct_drain_both_stop_run_within_a_second() {
    let (server, addr, dir) = start("stop-post", 1, 8);
    let stopped = run_reporting(server);
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    let result = stopped.recv_timeout(Duration::from_secs(1));
    assert_eq!(
        result,
        Ok(Ok(())),
        "POST /shutdown left Server::run running"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let (server, addr, dir) = start("stop-drain", 1, 8);
    let registry = server.registry();
    let stopped = run_reporting(server);
    assert_eq!(get(addr, "/healthz").0, 200, "serving before the drain");
    registry.drain();
    let result = stopped.recv_timeout(Duration::from_secs(1));
    assert_eq!(
        result,
        Ok(Ok(())),
        "Registry::drain left Server::run running"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_followed_journal_closes_promptly_when_its_job_is_done() {
    let (server, addr, dir) = start("follow-close", 1, 8);
    let handle = std::thread::spawn(move || server.run());
    // Long enough that the stream opens while the job runs.
    let mut spec = grid_spec();
    spec.machine.miss_latency = vec![100, 200, 300, 400];
    spec.models = Model::ALL_EXTENDED.to_vec();
    let points = spec.len();
    let id = submit_spec(addr, &spec);
    let follower = {
        let path = format!("/sweeps/{id}/journal?follow=1");
        std::thread::spawn(move || {
            let (status, body) = get(addr, &path);
            (status, body, Instant::now())
        })
    };
    wait_done(addr, &id);
    let done_seen = Instant::now();
    let (status, body, closed) = follower.join().expect("follower thread");
    assert_eq!(status, 200);
    assert_eq!(body.lines().count(), 1 + points, "header + every point");
    assert!(
        closed < done_seen + Duration::from_secs(1),
        "stream closed {:?} after the job was seen done",
        closed - done_seen
    );
    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_connection_does_not_delay_other_requests() {
    let (server, addr, dir) = start("silent", 0, 8);
    let handle = std::thread::spawn(move || server.run());
    // `connect` returns once the connection sits in the accept queue,
    // which is first in, first out: the server takes the silent one
    // first and hands it to a handler before it sees the request below.
    let silent = TcpStream::connect(addr).expect("connect");
    let started = Instant::now();
    let (status, _) = get(addr, "/healthz");
    let took = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        took < Duration::from_secs(1),
        "GET /healthz waited {took:?} behind a silent connection"
    );
    drop(silent);
    shutdown_and_join(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

//! The job registry: admission, queueing, execution, persistence.
//!
//! Every submitted sweep becomes a *job directory* under the state
//! dir — `job-NNNN/` holding `spec.json` (written at admission),
//! `journal.jsonl` (streamed by the executor as points complete) and
//! `result.json` (written atomically at completion, byte-identical to
//! the batch CLI's `--json` artifact). The directory name is the job
//! id, so the on-disk layout *is* the durable job table: a restarted
//! server rebuilds the registry by scanning it, re-registers finished
//! jobs from their `result.json`, and re-enqueues unfinished ones,
//! whose journals make the re-run a `--resume` — executing only the
//! points the previous process didn't finish, with a byte-identical
//! final artifact. Killing the server never loses more than the
//! in-flight points.
//!
//! Worker threads pull job ids from a condvar-guarded queue; each job
//! runs through [`mcsim_sweep::run_sweep_with`] with an observer that
//! mirrors live progress (and per-[`FailureClass`] failure counts) into
//! the registry for the status endpoint. Every journal append, job
//! finish and drain also bumps an event count and wakes a second
//! condvar, which `?follow=1` journal streams block on instead of
//! re-reading the file on a timer.

use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use mcsim_guard::FailureClass;
use mcsim_sweep::{
    point_hash, run_sweep_with, ExecOptions, JournalEntry, PreparedJournal, ProgressSnapshot,
    SweepObserver, SweepResult, SweepSpec,
};
use serde::Serialize;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing (or resuming) it.
    Running,
    /// Finished; `result.json` holds the artifact.
    Done,
    /// The executor returned an error (bad journal, I/O failure).
    /// Individual failed *points* do not fail a job — they are failed
    /// cells in a `Done` result.
    Failed,
}

impl JobState {
    /// The lowercase tag used in status JSON.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will make no further progress.
    #[must_use]
    pub fn finished(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// Failure counts by [`FailureClass`], surfaced in status JSON so a
/// client can tell reproducible simulation failures from environmental
/// ones without fetching the full result.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FailureClasses {
    /// Reproducible from the point spec alone (timeout, guard check,
    /// panic, deterministic protocol fault).
    pub deterministic: usize,
    /// Environmental (lost or wedged worker process).
    pub transient: usize,
}

/// Live counters mirrored from the executor's observer callbacks.
#[derive(Debug, Clone, Copy, Default)]
struct LiveProgress {
    completed: usize,
    failed: usize,
    resumed: usize,
    classes: FailureClasses,
    points_per_sec: f64,
    eta_secs: f64,
}

/// One registered job.
#[derive(Debug, Clone)]
struct Job {
    spec: SweepSpec,
    dir: PathBuf,
    total: usize,
    state: JobState,
    error: Option<String>,
    progress: LiveProgress,
}

/// One job's status, rendered for `GET /sweeps/<id>`.
#[derive(Debug, Clone, Serialize)]
pub struct StatusBody {
    /// Job id (`job-NNNN`, also the directory name).
    pub id: String,
    /// Lifecycle tag: `queued`, `running`, `done`, `failed`.
    pub state: String,
    /// Sweep name from the spec.
    pub sweep: String,
    /// Grid size.
    pub total: usize,
    /// Points finished (any outcome), including resumed ones.
    pub completed: usize,
    /// Points whose outcome is a failure of any kind.
    pub failed: usize,
    /// Points replayed from the journal instead of executed.
    pub resumed: usize,
    /// Failure counts by class.
    pub failure_classes: FailureClasses,
    /// Executed points per wall second.
    pub points_per_sec: f64,
    /// Estimated seconds to completion (`null` until the first executed
    /// point lands, and for finished jobs).
    pub eta_secs: Option<f64>,
    /// Executor error for `failed` jobs.
    pub error: Option<String>,
}

/// Execution knobs every served job shares (per-job overrides are
/// deliberately absent: determinism knobs must not vary across jobs a
/// CI gate compares).
#[derive(Debug, Clone, Copy)]
pub struct ExecTemplate {
    /// Worker threads per sweep (`0` is treated as `1`).
    pub jobs: usize,
    /// Discrete-event engine (`true`) or the per-cycle reference loop.
    pub fast_forward: bool,
}

impl Default for ExecTemplate {
    fn default() -> Self {
        ExecTemplate {
            jobs: 1,
            fast_forward: true,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// Admission bound hit: `queued + running >= max_pending` → `429`.
    Overloaded {
        /// Jobs currently admitted and unfinished.
        pending: usize,
    },
    /// The spec failed validation → `400`.
    Invalid(String),
    /// The job directory could not be created → `500`.
    Io(String),
    /// The server is draining; nothing new is admitted → `503`.
    Draining,
}

struct RegistryState {
    jobs: BTreeMap<String, Job>,
    queue: VecDeque<String>,
    next_seq: u32,
    draining: bool,
    running: usize,
    /// Journal appends, job finishes and drains so far; journal
    /// followers wait for it to move.
    events: u64,
}

/// The shared job table: admission, the worker queue, live progress,
/// and the durable on-disk layout.
pub struct Registry {
    state: Mutex<RegistryState>,
    /// Wakes workers: a job was queued, or the registry is draining.
    wake: Condvar,
    /// Wakes journal followers: `RegistryState::events` moved.
    progress: Condvar,
    /// The listener [`Registry::drain`] connects to, so a server
    /// blocked in `accept` wakes and sees the drain.
    listener: OnceLock<SocketAddr>,
    state_dir: PathBuf,
    max_pending: usize,
    exec: ExecTemplate,
}

impl Registry {
    /// Opens (or creates) a state directory and rebuilds the job table
    /// from it: jobs with a `result.json` are registered as done, jobs
    /// without one are re-enqueued and will resume from their journals.
    ///
    /// # Errors
    /// If the state directory cannot be created or scanned.
    pub fn open(
        state_dir: impl Into<PathBuf>,
        max_pending: usize,
        exec: ExecTemplate,
    ) -> Result<Arc<Self>, String> {
        let state_dir = state_dir.into();
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_seq = 1u32;
        let mut ids: Vec<String> = Vec::new();
        let entries = std::fs::read_dir(&state_dir)
            .map_err(|e| format!("cannot scan state dir {}: {e}", state_dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("job-") && entry.path().join("spec.json").exists() {
                ids.push(name);
            }
        }
        ids.sort();
        for id in ids {
            let dir = state_dir.join(&id);
            let spec_text = std::fs::read_to_string(dir.join("spec.json"))
                .map_err(|e| format!("{id}: cannot read spec.json: {e}"))?;
            let spec: SweepSpec = serde_json::from_str(&spec_text)
                .map_err(|e| format!("{id}: corrupt spec.json: {e}"))?;
            if let Some(seq) = id.strip_prefix("job-").and_then(|s| s.parse::<u32>().ok()) {
                next_seq = next_seq.max(seq + 1);
            }
            let total = spec.len();
            let invalid = spec.validate().err();
            let mut job = Job {
                spec,
                dir: dir.clone(),
                total,
                state: JobState::Queued,
                error: None,
                progress: LiveProgress::default(),
            };
            if let Some(e) = invalid {
                // Admitted by an older build with looser limits: running
                // it could abort the process, and every restart would
                // re-enqueue it. Fail it once, here.
                job.state = JobState::Failed;
                job.error = Some(format!("spec.json fails validation: {e}"));
                jobs.insert(id, job);
                continue;
            }
            match std::fs::read_to_string(dir.join("result.json")) {
                Ok(text) => match SweepResult::from_json(&text) {
                    Ok(result) => {
                        job.state = JobState::Done;
                        job.progress = finished_progress(&result);
                    }
                    Err(e) => {
                        // An unparseable artifact means the previous
                        // process died mid-write *without* the atomic
                        // rename — never trust it, re-run from journal.
                        let _ = std::fs::remove_file(dir.join("result.json"));
                        eprintln!("mcsim serve: {id}: discarding corrupt result.json ({e})");
                        queue.push_back(id.clone());
                    }
                },
                Err(_) => queue.push_back(id.clone()),
            }
            jobs.insert(id, job);
        }
        Ok(Arc::new(Registry {
            state: Mutex::new(RegistryState {
                jobs,
                queue,
                next_seq,
                draining: false,
                running: 0,
                events: 0,
            }),
            wake: Condvar::new(),
            progress: Condvar::new(),
            listener: OnceLock::new(),
            state_dir,
            max_pending: max_pending.max(1),
            exec,
        }))
    }

    /// The execution knobs served jobs run with.
    #[must_use]
    pub fn exec(&self) -> ExecTemplate {
        self.exec
    }

    /// Admits a validated spec: persists it, registers the job, wakes a
    /// worker. Returns the new job id and the grid size.
    ///
    /// # Errors
    /// [`SubmitError`] — overload, invalid spec, draining, or I/O.
    pub fn submit(&self, spec: SweepSpec) -> Result<(String, usize), SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        let total = spec.len();
        let mut st = self.state.lock().expect("registry poisoned");
        if st.draining {
            return Err(SubmitError::Draining);
        }
        let pending = st.queue.len() + st.running;
        if pending >= self.max_pending {
            return Err(SubmitError::Overloaded { pending });
        }
        let id = format!("job-{:04}", st.next_seq);
        let dir = self.state_dir.join(&id);
        std::fs::create_dir_all(&dir).map_err(|e| SubmitError::Io(e.to_string()))?;
        let spec_json =
            serde_json::to_string_pretty(&spec).map_err(|e| SubmitError::Io(e.to_string()))?;
        std::fs::write(dir.join("spec.json"), spec_json)
            .map_err(|e| SubmitError::Io(e.to_string()))?;
        st.next_seq += 1;
        st.jobs.insert(
            id.clone(),
            Job {
                spec,
                dir,
                total,
                state: JobState::Queued,
                error: None,
                progress: LiveProgress::default(),
            },
        );
        st.queue.push_back(id.clone());
        drop(st);
        self.wake.notify_one();
        Ok((id, total))
    }

    /// Status of one job, if it exists.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<StatusBody> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).map(|job| render_status(id, job))
    }

    /// Status of every job, in id order.
    #[must_use]
    pub fn list(&self) -> Vec<StatusBody> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs
            .iter()
            .map(|(id, job)| render_status(id, job))
            .collect()
    }

    /// The job's lifecycle state, if it exists.
    #[must_use]
    pub fn job_state(&self, id: &str) -> Option<JobState> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).map(|j| j.state)
    }

    /// The job's executor error, if any.
    #[must_use]
    pub fn job_error(&self, id: &str) -> Option<String> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).and_then(|j| j.error.clone())
    }

    /// Path of the job's `result.json` artifact.
    #[must_use]
    pub fn result_path(&self, id: &str) -> Option<PathBuf> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).map(|j| j.dir.join("result.json"))
    }

    /// Path of the job's live journal.
    #[must_use]
    pub fn journal_path(&self, id: &str) -> Option<PathBuf> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).map(|j| j.dir.join("journal.jsonl"))
    }

    /// The job's spec and directory (for the trace endpoint).
    #[must_use]
    pub fn spec_and_dir(&self, id: &str) -> Option<(SweepSpec, PathBuf)> {
        let st = self.state.lock().expect("registry poisoned");
        st.jobs.get(id).map(|j| (j.spec.clone(), j.dir.clone()))
    }

    /// Records the address the server accepts on, so [`Registry::drain`]
    /// can wake it. An unspecified IP (`0.0.0.0`, `::`) is reached over
    /// loopback.
    pub(crate) fn wake_on_drain(&self, mut addr: SocketAddr) {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = self.listener.set(addr);
    }

    /// Stops admission and wakes every worker so they exit once running
    /// jobs finish; queued jobs stay on disk and resume on restart. Also
    /// ends every journal stream and, the first time, connects to the
    /// server's listener so its blocking `accept` returns and sees the
    /// drain.
    pub fn drain(&self) {
        let first = {
            let mut st = self.state.lock().expect("registry poisoned");
            st.events += 1;
            !std::mem::replace(&mut st.draining, true)
        };
        self.wake.notify_all();
        self.progress.notify_all();
        if let (true, Some(addr)) = (first, self.listener.get()) {
            // Refused once the server has stopped listening: nothing to
            // wake then.
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Whether [`Registry::drain`] has been called.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.state.lock().expect("registry poisoned").draining
    }

    /// Where a journal follower stands: the current event count, and
    /// whether the job will append nothing more (finished, unknown, or
    /// the registry is draining). Read this *before* reading the
    /// journal, then [`Registry::wait_for_event`] on the count: the
    /// executor appends each line before it reports the entry, so no
    /// line can slip between the read and the wait.
    #[must_use]
    pub(crate) fn follow_mark(&self, id: &str) -> (u64, bool) {
        let st = self.state.lock().expect("registry poisoned");
        let settled = st.draining || st.jobs.get(id).is_none_or(|j| j.state.finished());
        (st.events, settled)
    }

    /// Blocks until the event count moves past `seen`: a journal
    /// append, a job finish, or a drain.
    pub(crate) fn wait_for_event(&self, seen: u64) {
        let st = self.state.lock().expect("registry poisoned");
        let _guard = self
            .progress
            .wait_while(st, |st| st.events == seen)
            .expect("registry poisoned");
    }

    /// Bumps the event count and wakes journal followers.
    fn notify_followers(&self, st: &mut RegistryState) {
        st.events += 1;
        self.progress.notify_all();
    }

    /// Whether any admitted job is still queued or running.
    #[must_use]
    pub fn busy(&self) -> bool {
        let st = self.state.lock().expect("registry poisoned");
        st.running > 0 || !st.queue.is_empty()
    }

    /// A worker thread's main loop: pull job ids until drained.
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let id = {
                let mut st = self.state.lock().expect("registry poisoned");
                loop {
                    if st.draining {
                        return;
                    }
                    if let Some(id) = st.queue.pop_front() {
                        st.running += 1;
                        if let Some(job) = st.jobs.get_mut(&id) {
                            job.state = JobState::Running;
                        }
                        break id;
                    }
                    st = self.wake.wait(st).expect("registry poisoned");
                }
            };
            self.run_job(&id);
            self.state.lock().expect("registry poisoned").running -= 1;
        }
    }

    /// Executes (or resumes) one job end to end.
    fn run_job(&self, id: &str) {
        let (spec, dir) = {
            let st = self.state.lock().expect("registry poisoned");
            let job = st.jobs.get(id).expect("queued job exists");
            (job.spec.clone(), job.dir.clone())
        };
        let hashes: Vec<String> = spec.points().iter().map(point_hash).collect();
        // `resume: true` unconditionally: a fresh job has no journal
        // (which resume treats as a fresh start), a restarted one
        // replays what the previous process completed. Either way the
        // final artifact is byte-identical to an uninterrupted run.
        let prepared = match PreparedJournal::at_path(
            &dir.join("journal.jsonl"),
            &spec,
            None,
            &hashes,
            true,
        ) {
            Ok(p) => p,
            Err(e) => return self.finish(id, JobState::Failed, Some(e.to_string())),
        };
        let opts = ExecOptions {
            jobs: self.exec.jobs,
            fast_forward: self.exec.fast_forward,
            ..ExecOptions::default()
        };
        let observer = LiveObserver { registry: self, id };
        match run_sweep_with(&spec, &opts, prepared, Some(&observer)) {
            Ok(run) => {
                // Atomic publish: write-then-rename, so a kill between
                // the two leaves no half artifact for the restart scan
                // (or a results GET) to mistake for a finished job.
                let json = run.result.to_json();
                let tmp = dir.join("result.json.tmp");
                let publish = std::fs::write(&tmp, &json)
                    .and_then(|()| std::fs::rename(&tmp, dir.join("result.json")));
                match publish {
                    Ok(()) => self.finish(id, JobState::Done, None),
                    Err(e) => self.finish(
                        id,
                        JobState::Failed,
                        Some(format!("cannot publish result.json: {e}")),
                    ),
                }
            }
            Err(e) => self.finish(id, JobState::Failed, Some(e)),
        }
    }

    fn finish(&self, id: &str, state: JobState, error: Option<String>) {
        let mut st = self.state.lock().expect("registry poisoned");
        if let Some(job) = st.jobs.get_mut(id) {
            job.state = state;
            job.error = error;
            job.progress.eta_secs = 0.0;
        }
        self.notify_followers(&mut st);
    }
}

/// Mirrors executor callbacks into the registry's live counters.
struct LiveObserver<'a> {
    registry: &'a Registry,
    id: &'a str,
}

impl SweepObserver for LiveObserver<'_> {
    fn on_entry(&self, entry: &JournalEntry, _resumed: bool, snapshot: &ProgressSnapshot) {
        let mut st = self.registry.state.lock().expect("registry poisoned");
        if let Some(job) = st.jobs.get_mut(self.id) {
            job.progress.completed = snapshot.completed;
            job.progress.failed = snapshot.failed;
            job.progress.resumed = snapshot.resumed;
            job.progress.points_per_sec = snapshot.points_per_sec;
            job.progress.eta_secs = snapshot.eta_secs;
            match entry.record.outcome.failure_class() {
                Some(FailureClass::Deterministic) => job.progress.classes.deterministic += 1,
                Some(FailureClass::Transient) => job.progress.classes.transient += 1,
                None => {}
            }
        }
        self.registry.notify_followers(&mut st);
    }
}

/// Progress counters reconstructed from a finished artifact (restart
/// scan of `Done` jobs).
fn finished_progress(result: &SweepResult) -> LiveProgress {
    let mut progress = LiveProgress {
        completed: result.rows.len(),
        ..LiveProgress::default()
    };
    for row in &result.rows {
        match row.outcome.failure_class() {
            Some(FailureClass::Deterministic) => {
                progress.failed += 1;
                progress.classes.deterministic += 1;
            }
            Some(FailureClass::Transient) => {
                progress.failed += 1;
                progress.classes.transient += 1;
            }
            None => {}
        }
    }
    progress
}

fn render_status(id: &str, job: &Job) -> StatusBody {
    let eta = job.progress.eta_secs;
    StatusBody {
        id: id.to_string(),
        state: job.state.tag().to_string(),
        sweep: job.spec.name.clone(),
        total: job.total,
        completed: job.progress.completed,
        failed: job.progress.failed,
        resumed: job.progress.resumed,
        failure_classes: job.progress.classes,
        points_per_sec: job.progress.points_per_sec,
        eta_secs: (eta.is_finite() && job.state == JobState::Running).then_some(eta),
        error: job.error.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_sweep::WorkloadSpec;

    fn tiny_spec() -> SweepSpec {
        // `SweepSpec::new` defaults to SC x BOTH; one workload makes a
        // one-point grid that executes in milliseconds.
        let mut spec = SweepSpec::new("serve-unit", "registry unit tests");
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        spec
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcsim-serve-job-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_run_and_restart_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let registry = Registry::open(&dir, 4, ExecTemplate::default()).expect("opens");
        let (id, total) = registry.submit(tiny_spec()).expect("admits");
        assert_eq!(total, 1);
        assert_eq!(registry.job_state(&id), Some(JobState::Queued));
        // Run synchronously (no worker thread needed for the unit test).
        registry.run_job(&id);
        assert_eq!(registry.job_state(&id), Some(JobState::Done));
        let status = registry.status(&id).expect("exists");
        assert_eq!(status.completed, 1);
        assert_eq!(status.failed, 0);
        let artifact =
            std::fs::read_to_string(registry.result_path(&id).expect("path")).expect("artifact");

        // A fresh registry over the same state dir sees the job as done
        // with the same counters, and keeps allocating *after* it.
        let reopened = Registry::open(&dir, 4, ExecTemplate::default()).expect("reopens");
        assert_eq!(reopened.job_state(&id), Some(JobState::Done));
        let (id2, _) = reopened.submit(tiny_spec()).expect("admits");
        assert_ne!(id, id2);
        let batch = mcsim_sweep::run_sweep(&tiny_spec(), &ExecOptions::default())
            .expect("batch run")
            .result
            .to_json();
        assert_eq!(artifact, batch, "served artifact == batch CLI artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_scan_fails_a_spec_that_no_longer_validates() {
        // A job directory left by a build with looser limits: a grid far
        // over MAX_POINTS. Re-queueing it would expand it on every start.
        let dir = tmp_dir("oversized");
        let job_dir = dir.join("job-0007");
        std::fs::create_dir_all(&job_dir).expect("job dir");
        let mut spec = tiny_spec();
        spec.machine.miss_latency = vec![100; mcsim_sweep::MAX_POINTS + 1];
        std::fs::write(
            job_dir.join("spec.json"),
            serde_json::to_string(&spec).expect("serializes"),
        )
        .expect("spec.json");
        let registry = Registry::open(&dir, 4, ExecTemplate::default()).expect("opens");
        assert_eq!(registry.job_state("job-0007"), Some(JobState::Failed));
        let error = registry
            .job_error("job-0007")
            .expect("failed job has an error");
        assert!(error.contains("fails validation"), "{error}");
        assert!(!registry.busy(), "nothing was queued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_bound_yields_overloaded() {
        let dir = tmp_dir("overload");
        let registry = Registry::open(&dir, 1, ExecTemplate::default()).expect("opens");
        registry.submit(tiny_spec()).expect("first admitted");
        match registry.submit(tiny_spec()) {
            Err(SubmitError::Overloaded { pending }) => assert_eq!(pending, 1),
            other => panic!("expected overload, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_refuses_new_work() {
        let dir = tmp_dir("drain");
        let registry = Registry::open(&dir, 4, ExecTemplate::default()).expect("opens");
        registry.drain();
        assert!(matches!(
            registry.submit(tiny_spec()),
            Err(SubmitError::Draining)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_spec_is_rejected_at_admission() {
        let dir = tmp_dir("invalid");
        let registry = Registry::open(&dir, 4, ExecTemplate::default()).expect("opens");
        let mut spec = tiny_spec();
        spec.workloads.clear();
        assert!(matches!(
            registry.submit(spec),
            Err(SubmitError::Invalid(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

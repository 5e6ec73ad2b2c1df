//! Job lifecycle: bounded intake queue, runner threads, per-job run
//! directories, crash isolation, registry recording, and graceful
//! drain.
//!
//! A job moves `queued → running → done | failed | crashed`; a drain
//! rewrites still-queued jobs to `pending` (persisted, resubmittable)
//! and lets running jobs finish. Submission past the queue bound is
//! *shed* with an explicit error rather than silently delayed — the
//! daemon is multi-tenant, and a full queue is the tenant's signal to
//! back off.
//!
//! Every job gets its own run directory `<data>/jobs/<id>/`, written by
//! the same `mixedprec::rundir` code as `craft analyze --trace=DIR`
//! (`live.jsonl` / `events.jsonl` / `decisions.jsonl` / `manifest.json`)
//! plus the daemon's `job.json` and `status.json`, so the whole `craft
//! report` / `watch` / `explain` / `compare` toolchain works on daemon
//! runs unchanged. Whole documents (`status.json`,
//! `job.json` and the rundir artifacts) are replaced atomically, so a
//! concurrent `GET /jobs/<id>` or `craft top` never reads a partial one.
//! Completed jobs are appended to the daemon's registry (`craft runs`,
//! `craft explain latest --registry=<data>/registry`); nothing a job
//! does at finish reads earlier jobs, so its cost does not grow with
//! the data directory's history.

use crate::cache::SharedEvalCache;
use crate::gate::Gate;
use crate::obs::{DaemonLog, Level, LogRecord, LOG_FILE};
use mixedprec::rundir::RunDir;
use mixedprec::{AnalysisSystem, JobSpec};
use mpsearch::SearchHooks;
use mptrace::registry::{self, Registry, RunManifest, RunSummary};
use mptrace::{json, numprof, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Daemon-wide knobs, fixed at startup.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the daemon's on-disk state: `jobs/<id>/` run directories
    /// plus the `registry/` index.
    pub data_dir: PathBuf,
    /// Evaluation threads the daemon runs at once, across all jobs. A
    /// job's `threads` request is clamped to it, and a running job waits
    /// at a FIFO gate until that many of the `workers` are free.
    pub workers: usize,
    /// Jobs allowed to run concurrently (runner threads).
    pub max_running: usize,
    /// Bound on the intake queue; submissions past it are shed.
    pub queue_cap: usize,
    /// Per-evaluation fuel quota applied to jobs that do not set their
    /// own (multi-tenant default).
    pub default_fuel_limit: Option<u64>,
    /// Per-evaluation wall quota (ms) applied to jobs that do not set
    /// their own.
    pub default_wall_limit_ms: Option<u64>,
    /// Size cap on `daemon.log.jsonl` before it is rotated to
    /// `daemon.log.jsonl.1` (one archive generation is kept).
    pub log_max_bytes: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            data_dir: PathBuf::from("craftd-data"),
            workers: mpsearch::SearchOptions::default_threads(),
            max_running: 2,
            queue_cap: 16,
            default_fuel_limit: None,
            default_wall_limit_ms: None,
            log_max_bytes: 4 << 20,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a runner.
    Queued,
    /// A runner is executing the analysis.
    Running,
    /// Finished; summary fields are populated.
    Done,
    /// The analysis returned an error (bad spec deep in the pipeline,
    /// unwritable artifacts).
    Failed,
    /// The runner panicked; the daemon caught it and kept serving.
    Crashed,
    /// Was still queued when the daemon drained; persisted for
    /// resubmission.
    Pending,
}

impl JobState {
    /// Lower-case wire name (`status.json` / the HTTP API).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Crashed => "crashed",
            JobState::Pending => "pending",
        }
    }

    /// No further transitions happen from this state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job's record, as the API reports it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Registry-style id (`{bench}-{unix}-{pid}-{n}`).
    pub id: String,
    /// Cross-process trace id (`x-craft-trace`): the client's id when it
    /// sent one, otherwise minted by the daemon at intake. Stitches the
    /// client call, the daemon log, the job manifest, and the run-dir
    /// spans together.
    pub trace: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Failure/crash message, if any.
    pub error: Option<String>,
    /// Unix seconds at submission.
    pub created_unix: u64,
    /// Wall time of the analysis, microseconds (0 until done).
    pub wall_us: u64,
    /// Final search summary (populated on `done`).
    pub summary: Option<RunSummary>,
    /// Trials whose configuration an earlier trial of the job settled
    /// or another job's search stored (`SearchReport::cache_hits`).
    pub cache_hits: usize,
    /// The run's Fig. 10 row (populated on `done`).
    pub fig10: String,
    /// Modelled speedup of the recommendation.
    pub modelled_speedup: f64,
    /// FNV-1a hash of the recommended configuration text.
    pub config_hash: String,
    /// Abnormal FP events of a finished `num_health` job
    /// ([`numprof::anomalies`]); `None` for an unarmed or unfinished job.
    pub fp_anomalies: Option<u64>,
}

impl JobRecord {
    /// Serialize for `status.json` and `GET /jobs/<id>`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"id\":");
        json::esc(&mut s, &self.id);
        s.push_str(",\"trace\":");
        json::esc(&mut s, &self.trace);
        s.push_str(",\"state\":");
        json::esc(&mut s, self.state.as_str());
        s.push_str(",\"bench\":");
        json::esc(&mut s, &self.spec.bench);
        s.push_str(",\"class\":");
        json::esc(&mut s, &self.spec.class);
        match &self.error {
            None => s.push_str(",\"error\":null"),
            Some(e) => {
                s.push_str(",\"error\":");
                json::esc(&mut s, e);
            }
        }
        s.push_str(&format!(
            ",\"created_unix\":{},\"wall_us\":{},\"cache_hits\":{},\"modelled_speedup\":{:?}",
            self.created_unix, self.wall_us, self.cache_hits, self.modelled_speedup
        ));
        s.push_str(",\"fig10\":");
        json::esc(&mut s, &self.fig10);
        s.push_str(",\"config_hash\":");
        json::esc(&mut s, &self.config_hash);
        match self.fp_anomalies {
            None => s.push_str(",\"fp_anomalies\":null"),
            Some(n) => s.push_str(&format!(",\"fp_anomalies\":{n}")),
        }
        match &self.summary {
            None => s.push_str(",\"summary\":null"),
            Some(r) => s.push_str(&format!(
                ",\"summary\":{{\"candidates\":{},\"tested\":{},\"static_pct\":{:?},\
                 \"dynamic_pct\":{:?},\"final_pass\":{}}}",
                r.candidates, r.tested, r.static_pct, r.dynamic_pct, r.final_pass
            )),
        }
        s.push_str(",\"spec\":");
        s.push_str(&self.spec.to_json());
        s.push('}');
        s
    }
}

/// Why a submission was rejected (mapped to an HTTP status by the
/// server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec did not validate (HTTP 400).
    Invalid(String),
    /// The bounded queue is full — shed, back off (HTTP 429).
    QueueFull,
    /// The daemon is draining and accepts no new work (HTTP 503).
    Draining,
}

struct MgrState {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    running: usize,
    runners_alive: usize,
    draining: bool,
}

/// The daemon's job engine: intake queue, runner threads, thread
/// gate, shared verdict cache, registry.
pub struct JobManager {
    cfg: DaemonConfig,
    gate: Gate,
    cache: Arc<SharedEvalCache>,
    tracer: Tracer,
    state: Mutex<MgrState>,
    cond: Condvar,
    registry: Option<Registry>,
    log: Option<DaemonLog>,
    open_connections: AtomicI64,
    in_flight: AtomicI64,
}

impl JobManager {
    /// Create the on-disk layout and start `max_running` runner
    /// threads.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Arc<JobManager>> {
        std::fs::create_dir_all(cfg.data_dir.join("jobs"))?;
        let registry = Registry::open(cfg.data_dir.join("registry")).ok();
        let log = DaemonLog::open(cfg.data_dir.join(LOG_FILE), cfg.log_max_bytes)
            .map_err(|e| {
                eprintln!("craftd: cannot open daemon log: {e}");
                e
            })
            .ok();
        let mgr = Arc::new(JobManager {
            gate: Gate::new(cfg.workers),
            cache: Arc::new(SharedEvalCache::new()),
            tracer: Tracer::new(),
            state: Mutex::new(MgrState {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running: 0,
                runners_alive: cfg.max_running,
                draining: false,
            }),
            cond: Condvar::new(),
            registry,
            log,
            open_connections: AtomicI64::new(0),
            in_flight: AtomicI64::new(0),
            cfg,
        });
        mgr.log_event(
            LogRecord::now(Level::Info, "daemon_start")
                .u("workers", mgr.cfg.workers as u64)
                .u("max_running", mgr.cfg.max_running as u64)
                .u("queue_cap", mgr.cfg.queue_cap as u64),
        );
        for _ in 0..mgr.cfg.max_running {
            let m = Arc::clone(&mgr);
            std::thread::spawn(move || m.runner_loop());
        }
        Ok(mgr)
    }

    /// The daemon-level metrics tracer (jobs submitted/completed/shed,
    /// queue and cache gauges, request telemetry).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The structured daemon log (`daemon.log.jsonl`), if it opened.
    pub fn log(&self) -> Option<&DaemonLog> {
        self.log.as_ref()
    }

    /// Append one record to the daemon log (no-op when the log failed
    /// to open — logging must never take the daemon down).
    pub fn log_event(&self, rec: LogRecord) {
        if let Some(log) = &self.log {
            log.log(&rec);
        }
    }

    /// Count one handled HTTP request: aggregate + per-route/status
    /// counters and aggregate + per-route log2 latency histograms.
    pub fn observe_request(&self, route: &str, status: u16, latency_us: u64) {
        self.tracer.incr("http.requests", 1);
        self.tracer.incr(&format!("http.requests.{route}.{status}"), 1);
        self.tracer.observe("http.latency_us", latency_us);
        self.tracer.observe(&format!("http.latency_us.{route}"), latency_us);
    }

    /// Count a connection accept and raise the open-connection gauge.
    pub fn connection_opened(&self) {
        self.tracer.incr("http.connections", 1);
        let n = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.tracer.gauge("http.open_connections", n as f64);
    }

    /// Lower the open-connection gauge when a connection ends.
    pub fn connection_closed(&self) {
        let n = self.open_connections.fetch_sub(1, Ordering::Relaxed) - 1;
        self.tracer.gauge("http.open_connections", n.max(0) as f64);
    }

    /// Count a second-or-later request on a kept-alive connection.
    pub fn keepalive_reused(&self) {
        self.tracer.incr("http.keepalive_reuse", 1);
    }

    /// Raise the in-flight gauge as a request starts being handled.
    pub fn request_begin(&self) {
        let n = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.tracer.gauge("http.in_flight", n as f64);
    }

    /// Lower the in-flight gauge once the response is written.
    pub fn request_end(&self) {
        let n = self.in_flight.fetch_sub(1, Ordering::Relaxed) - 1;
        self.tracer.gauge("http.in_flight", n.max(0) as f64);
    }

    /// Count (by stable reason token) and warn-log one malformed or
    /// oversized request that the HTTP parser rejected.
    pub fn count_parse_error(&self, err: &str) {
        let reason = crate::http::parse_error_reason(err);
        self.tracer.incr("http.parse_errors", 1);
        self.tracer.incr(&format!("http.parse_errors.{reason}"), 1);
        self.log_event(
            LogRecord::now(Level::Warn, "http_parse_error").s("reason", reason).s("err", err),
        );
    }

    /// The shared cross-job verdict cache.
    pub fn cache(&self) -> &SharedEvalCache {
        &self.cache
    }

    /// The daemon configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// This job's run directory (`<data>/jobs/<id>`).
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.cfg.data_dir.join("jobs").join(id)
    }

    fn lock(&self) -> MutexGuard<'_, MgrState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accept a job: validate, allocate an id and run directory, queue
    /// it. Sheds with [`SubmitError::QueueFull`] once the bounded queue
    /// is at capacity.
    ///
    /// `trace` is the client's `x-craft-trace` id; when the client sent
    /// none the daemon mints one (`tr-{unix}-{pid}-{n}`) so every job
    /// is traceable. The intake decision — queued, shed, or rejected —
    /// is logged with that id.
    pub fn submit(&self, spec: JobSpec, trace: Option<String>) -> Result<String, SubmitError> {
        let created = registry::unix_now();
        let trace =
            trace.filter(|t| !t.is_empty()).unwrap_or_else(|| registry::new_run_id("tr", created));
        if let Err(e) = spec.validate() {
            self.log_event(
                LogRecord::now(Level::Warn, "job_rejected").s("trace", &trace).s("err", &e),
            );
            return Err(SubmitError::Invalid(e));
        }
        let id = registry::new_run_id(&spec.bench, created);
        let record = JobRecord {
            id: id.clone(),
            trace: trace.clone(),
            spec,
            state: JobState::Queued,
            error: None,
            created_unix: created,
            wall_us: 0,
            summary: None,
            cache_hits: 0,
            fig10: String::new(),
            modelled_speedup: 0.0,
            config_hash: String::new(),
            fp_anomalies: None,
        };
        {
            let mut st = self.lock();
            if st.draining {
                self.log_event(
                    LogRecord::now(Level::Warn, "job_refused_draining").s("trace", &trace),
                );
                return Err(SubmitError::Draining);
            }
            if st.queue.len() >= self.cfg.queue_cap {
                self.tracer.incr("daemon.jobs_shed", 1);
                self.log_event(
                    LogRecord::now(Level::Warn, "job_shed")
                        .s("trace", &trace)
                        .s("bench", &record.spec.bench)
                        .u("queue_depth", st.queue.len() as u64),
                );
                return Err(SubmitError::QueueFull);
            }
            st.queue.push_back(id.clone());
            st.jobs.insert(id.clone(), record.clone());
            self.tracer.incr("daemon.jobs_submitted", 1);
            self.tracer.gauge("daemon.queue_depth", st.queue.len() as f64);
        }
        self.log_event(
            LogRecord::now(Level::Info, "job_queued")
                .s("job", &id)
                .s("trace", &trace)
                .s("bench", &record.spec.bench)
                .s("class", &record.spec.class),
        );
        let dir = self.job_dir(&id);
        let _ = std::fs::create_dir_all(&dir);
        let _ = mptrace::replace_file(dir.join("job.json"), record.spec.to_json() + "\n");
        self.persist(&record);
        self.cond.notify_all();
        Ok(id)
    }

    /// A snapshot of one job's record.
    pub fn job(&self, id: &str) -> Option<JobRecord> {
        self.lock().jobs.get(id).cloned()
    }

    /// Snapshots of every known job, in id order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock().jobs.values().cloned().collect()
    }

    /// Begin a graceful drain: stop accepting submissions, rewrite
    /// queued jobs to `pending` (persisted), and let running jobs
    /// finish. Idempotent.
    pub fn drain(&self) {
        let mut pending = Vec::new();
        {
            let mut st = self.lock();
            if st.draining {
                return;
            }
            st.draining = true;
            while let Some(id) = st.queue.pop_front() {
                if let Some(j) = st.jobs.get_mut(&id) {
                    j.state = JobState::Pending;
                    pending.push(j.clone());
                }
            }
            self.tracer.gauge("daemon.queue_depth", 0.0);
        }
        self.log_event(LogRecord::now(Level::Info, "drain").u("pending", pending.len() as u64));
        for j in &pending {
            self.log_event(
                LogRecord::now(Level::Info, "job_state")
                    .s("job", &j.id)
                    .s("trace", &j.trace)
                    .s("state", j.state.as_str()),
            );
            self.persist(j);
        }
        self.cond.notify_all();
    }

    /// True once [`JobManager::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// True once a drain has been requested *and* completed: nothing
    /// running, all runner threads exited.
    pub fn is_drained(&self) -> bool {
        let st = self.lock();
        st.draining && st.running == 0 && st.runners_alive == 0
    }

    /// Block until the drain is complete: no job running, all runner
    /// threads exited.
    pub fn wait_drained(&self) {
        let mut st = self.lock();
        while st.running > 0 || st.runners_alive > 0 {
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refresh scrape-time gauges (queue, running, cache occupancy) on
    /// the daemon tracer. Called by `GET /metrics`.
    pub fn publish_gauges(&self) {
        let (queued, running) = {
            let st = self.lock();
            (st.queue.len(), st.running)
        };
        self.tracer.gauge("daemon.queue_depth", queued as f64);
        self.tracer.gauge("daemon.jobs_running", running as f64);
        self.tracer.gauge("daemon.cache_entries", self.cache.entries() as f64);
        self.tracer.gauge("daemon.cache_hits", self.cache.hits() as f64);
        self.tracer.gauge("daemon.cache_misses", self.cache.misses() as f64);
    }

    /// Write `status.json` into the job's run directory (best-effort;
    /// the in-memory record is authoritative while the daemon lives).
    fn persist(&self, job: &JobRecord) {
        let dir = self.job_dir(&job.id);
        let _ = std::fs::create_dir_all(&dir);
        let _ = mptrace::replace_file(dir.join("status.json"), job.to_json() + "\n");
    }

    fn set_state(&self, id: &str, state: JobState, error: Option<String>) {
        let snapshot = {
            let mut st = self.lock();
            if let Some(j) = st.jobs.get_mut(id) {
                j.state = state;
                j.error = error;
                Some(j.clone())
            } else {
                None
            }
        };
        if let Some(j) = snapshot {
            let level = match j.state {
                JobState::Failed | JobState::Crashed => Level::Error,
                _ => Level::Info,
            };
            let mut rec = LogRecord::now(level, "job_state")
                .s("job", &j.id)
                .s("trace", &j.trace)
                .s("state", j.state.as_str());
            if let Some(e) = &j.error {
                rec = rec.s("err", e);
            }
            if j.wall_us > 0 {
                rec = rec.u("wall_us", j.wall_us);
            }
            self.log_event(rec);
            self.persist(&j);
        }
        self.cond.notify_all();
    }

    fn runner_loop(&self) {
        loop {
            let id = {
                let mut st = self.lock();
                loop {
                    if let Some(id) = st.queue.pop_front() {
                        st.running += 1;
                        self.tracer.gauge("daemon.queue_depth", st.queue.len() as f64);
                        self.tracer.gauge("daemon.jobs_running", st.running as f64);
                        break id;
                    }
                    if st.draining {
                        st.runners_alive -= 1;
                        drop(st);
                        self.cond.notify_all();
                        return;
                    }
                    st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.set_state(&id, JobState::Running, None);
            // The panic boundary: a crashing job must not take the
            // daemon down. `AssertUnwindSafe` is fine — the only state
            // crossing the boundary is the job's own run directory and
            // the shared cache, which is only ever appended to under
            // its own lock.
            let result = catch_unwind(AssertUnwindSafe(|| self.run_job(&id)));
            match result {
                Ok(Ok(())) => {
                    self.tracer.incr("daemon.jobs_completed", 1);
                    self.set_state(&id, JobState::Done, None);
                }
                Ok(Err(e)) => {
                    self.tracer.incr("daemon.jobs_failed", 1);
                    self.set_state(&id, JobState::Failed, Some(e));
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job runner panicked".into());
                    self.tracer.incr("daemon.jobs_crashed", 1);
                    self.set_state(&id, JobState::Crashed, Some(msg));
                }
            }
            {
                let mut st = self.lock();
                st.running -= 1;
                self.tracer.gauge("daemon.jobs_running", st.running as f64);
            }
            self.cond.notify_all();
        }
    }

    /// Execute one job end-to-end. Runs on a runner thread inside the
    /// panic boundary; the search's worker threads run only while the
    /// job holds that many permits of the daemon's thread gate.
    fn run_job(&self, id: &str) -> Result<(), String> {
        let job = self.job(id).ok_or_else(|| format!("job {id} vanished"))?;
        let spec = &job.spec;
        let mut opts = spec.options()?;
        // Multi-tenant quotas: daemon defaults apply when the job did
        // not bring its own; thread requests clamp to the daemon's workers.
        if opts.search.exec.fuel_limit.is_none() {
            opts.search.exec.fuel_limit = self.cfg.default_fuel_limit;
        }
        if opts.search.exec.wall_limit.is_none() {
            opts.search.exec.wall_limit =
                self.cfg.default_wall_limit_ms.map(std::time::Duration::from_millis);
        }
        opts.search.threads = opts.search.threads.clamp(1, self.cfg.workers.max(1));
        let threads = opts.search.threads;

        let mut sys = AnalysisSystem::with_options(spec.workload()?, opts);
        let bench = format!("{}.{}", spec.bench, spec.class);
        let dir = self.job_dir(id);
        let run = RunDir::create(&dir, &mut sys)?;
        let verdicts = self.cache.store(&spec.cache_namespace());
        let hooks = SearchHooks { verdicts: Some(&verdicts), ..run.hooks(bench.clone()) };

        // Dropped when the search returns or unwinds, so a crashed job
        // frees its threads too.
        let permits = self.gate.acquire(threads);

        if spec.inject_runner_panic {
            panic!("injected runner panic (crashed-job isolation drill)");
        }

        // The trace-propagation span: its name carries the cross-process
        // id, so `x-craft-trace` shows up verbatim among the spans of the
        // run's trace.
        let trace_span = run.tracer().span(format!("trace:{}", job.trace));
        let t0 = Instant::now();
        let rec = sys.recommend_with(&hooks);
        let wall_us = t0.elapsed().as_micros() as u64;
        drop(trace_span);
        drop(permits);

        let stamp = RunManifest {
            id: id.to_string(),
            trace_id: job.trace.clone(),
            created_unix: job.created_unix,
            wall_us,
            ..Default::default()
        };
        let done = run.finish(spec, &sys, &rec, stamp);
        // Decision provenance is served verbatim by `GET /jobs/<id>/decisions`;
        // a failed write never fails a finished job.
        if let Some(e) = &done.decisions_error {
            self.tracer.incr("daemon.decisions_write_errors", 1);
            eprintln!("craftd: warning: {e}");
        }
        let manifest = done.manifest;
        if let Some(reg) = &self.registry {
            let _ = reg.record(&manifest, &dir);
        }

        // `status.json` is written once, by the `done` transition.
        let report = &rec.report;
        let mut st = self.lock();
        let j = st.jobs.get_mut(id).ok_or_else(|| format!("job {id} vanished"))?;
        j.wall_us = wall_us;
        j.summary = manifest.summary;
        j.cache_hits = report.cache_hits;
        j.fig10 = report.figure10_row(&bench);
        j.modelled_speedup = rec.modelled_speedup;
        j.config_hash = manifest.config_hash;
        j.fp_anomalies = numprof::anomalies(&done.snapshot);
        Ok(())
    }
}

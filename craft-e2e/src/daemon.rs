//! The `daemon` workload: an in-process `craftd::Server` on loopback,
//! driven by one client thread over one keep-alive connection.
//!
//! Jobs run in epochs of a fixed size, each on a fresh server and data
//! directory, so the state that grows with the job count (the registry,
//! the `/metrics` exposition) has the same size at the same point of
//! every epoch however fast the machine is. The traced pass splits each
//! finished job into intake, queue wait, runner time and the client's lag
//! by the transition records the daemon writes to its own structured log.

use crate::expected::Expected;
use crate::metrics::{PassResult, Spans};
use crate::search::{BENCHES, SEARCH_S, THREADS};
use crate::stats::{geomean_of_medians, median, tail, Calibrator, Rng};
use craftd::obs::{self, LogField};
use craftd::{http, DaemonConfig, JobManager, Server};
use mixedprec::JobSpec;
use mptrace::json::{self, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Jobs per epoch (one fresh server each).
pub const EPOCH_JOBS: usize = 20;
/// Jobs the client keeps outstanding (a closed loop).
const OUTSTANDING: usize = 2;
/// Every this many completions the client scrapes `GET /metrics`.
const METRICS_EVERY: usize = 10;
/// Share of hot jobs, in tenths: repeats of a bench at its default
/// tolerance, served from the shared cache once the bench has run.
const HOT_TENTHS: usize = 4;
/// Sleep between status-poll sweeps.
const POLL_SLEEP: Duration = Duration::from_millis(1);
/// Calibration samples taken between epochs, while the daemon is idle.
const CALIB_PER_EPOCH: usize = 5;
/// Give up on a job that is not terminal after this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One planned job: which bench, and for a cold job its unique
/// tolerance perturbation `k` (`tol × (1 + k·2⁻⁴⁰)`, a fresh cache
/// namespace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPlan {
    pub bench: usize,
    pub cold: Option<u64>,
}

/// The seeded job mix of one epoch: benches dealt evenly in shuffled
/// order, exactly `HOT_TENTHS`/10 of the jobs hot (rounded), and each
/// cold job a fresh `k` drawn from `next_k`.
pub fn job_mix(rng: &mut Rng, n: usize, next_k: &mut u64) -> Vec<JobPlan> {
    let mut benches: Vec<usize> = (0..n).map(|i| i % BENCHES.len()).collect();
    rng.shuffle(&mut benches);
    let hot = (n * HOT_TENTHS + 5) / 10;
    let mut is_hot: Vec<bool> = (0..n).map(|i| i < hot).collect();
    rng.shuffle(&mut is_hot);
    benches
        .into_iter()
        .zip(is_hot)
        .map(|(bench, hot)| JobPlan {
            bench,
            cold: (!hot).then(|| {
                *next_k += 1;
                *next_k
            }),
        })
        .collect()
}

/// The job spec for a plan: a classic class-S search, as `search-s`
/// runs it, at the bench's default tolerance or a perturbed one.
fn spec_of(plan: &JobPlan, default_tol: &[f64]) -> JobSpec {
    let mut spec = SEARCH_S.spec(BENCHES[plan.bench]);
    spec.tol = plan.cold.map(|k| default_tol[plan.bench] * (1.0 + k as f64 * (-40f64).exp2()));
    spec
}

/// A running server with a fresh data directory.
struct Daemon {
    addr: String,
    mgr: Arc<JobManager>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
    data_dir: PathBuf,
}

impl Daemon {
    fn start(data_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&data_dir);
        let cfg = DaemonConfig {
            data_dir: data_dir.clone(),
            workers: THREADS,
            max_running: 1,
            queue_cap: 16,
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
        let mgr = Arc::clone(server.manager());
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, mgr, stop, thread, data_dir })
    }

    /// Drain, wait for the server thread, and delete the data directory.
    /// The client must have closed its connection first.
    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        let run = self.thread.join().map_err(|_| "server thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.data_dir);
        run.map_err(|e| format!("server: {e}"))
    }
}

/// What the client saw of one finished job.
struct JobObs {
    plan: JobPlan,
    id: String,
    post_sent: Instant,
    done_seen: Instant,
    /// `post_sent` and `done_seen` on the wall clock, the daemon log's.
    sent_unix_us: u64,
    seen_unix_us: u64,
    ok: bool,
    wall_ms: f64,
    tested: usize,
    cache_hits: usize,
    /// Traced epochs only: the job's transitions, from the daemon log.
    stages: Option<Stages>,
}

impl JobObs {
    fn latency_ms(&self) -> f64 {
        ms(self.done_seen - self.post_sent)
    }
}

/// A job's `queued → running → done` transitions, as wall-clock
/// microseconds from the `job_queued` and `job_state` records of the
/// daemon's structured log.
#[derive(Debug, Clone, Copy)]
struct Stages {
    queued_us: u64,
    running_us: u64,
    done_us: u64,
}

/// The transitions of every job in the daemon log at `path`.
fn transitions(path: &Path) -> HashMap<String, Stages> {
    let Ok((records, _)) = obs::read_log(path) else { return HashMap::new() };
    let mut seen: HashMap<String, [Option<u64>; 3]> = HashMap::new();
    for r in &records {
        let field = |key: &str| {
            r.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
                LogField::S(s) => Some(s.as_str()),
                LogField::U(_) => None,
            })
        };
        let slot = match (r.event.as_str(), field("state")) {
            ("job_queued", _) => 0,
            ("job_state", Some("running")) => 1,
            ("job_state", Some("done")) => 2,
            _ => continue,
        };
        if let Some(job) = field("job") {
            seen.entry(job.to_string()).or_default()[slot] = Some(r.t_us);
        }
    }
    seen.into_iter()
        .filter_map(|(id, [q, r, d])| {
            Some((id, Stages { queued_us: q?, running_us: r?, done_us: d? }))
        })
        .collect()
}

fn unix_us(t: SystemTime) -> u64 {
    t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one epoch measured.
#[derive(Default)]
struct EpochObs {
    jobs: Vec<JobObs>,
    attempted: u64,
    failed: u64,
    post_ms: Vec<f64>,
    status_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    metrics_bytes: Vec<f64>,
    /// First `POST` sent to last job seen terminal.
    active: Duration,
    cache_hits: u64,
    cache_misses: u64,
}

/// Per-epoch context shared by every pass.
pub struct Ctx {
    default_tol: Vec<f64>,
    expected: Expected,
    scratch: PathBuf,
    epochs: u64,
}

impl Ctx {
    /// Look up each bench's default tolerance; daemon data directories
    /// go under `scratch`.
    pub fn new(scratch: &Path) -> Result<Ctx, String> {
        let default_tol = BENCHES
            .iter()
            .map(|b| SEARCH_S.spec(b).workload().map(|w| w.tol))
            .collect::<Result<_, _>>()?;
        Ok(Ctx {
            default_tol,
            expected: Expected::of(SEARCH_S.name)?,
            scratch: scratch.to_path_buf(),
            epochs: 0,
        })
    }

    /// Run `plans` on a fresh server; with `traced`, read each finished
    /// job's [`Stages`] from the daemon log before the server goes.
    fn epoch(&mut self, plans: &[JobPlan], traced: bool) -> Result<EpochObs, String> {
        self.epochs += 1;
        let daemon = Daemon::start(self.scratch.join(format!("epoch-{}", self.epochs)))?;
        let mut obs = drive(&daemon, plans, &self.default_tol, &self.expected);
        obs.cache_hits = daemon.mgr.cache().hits();
        obs.cache_misses = daemon.mgr.cache().misses();
        if traced {
            let stages = transitions(&daemon.data_dir.join(obs::LOG_FILE));
            for j in &mut obs.jobs {
                j.stages = stages.get(&j.id).copied();
            }
        }
        daemon.stop()?;
        Ok(obs)
    }
}

/// The client: a closed loop keeping `OUTSTANDING` jobs in flight over
/// one keep-alive connection, polling each job's status between 1 ms
/// sleeps and scraping `/metrics` every `METRICS_EVERY` completions.
fn drive(daemon: &Daemon, plans: &[JobPlan], default_tol: &[f64], expected: &Expected) -> EpochObs {
    let mut obs = EpochObs::default();
    let mut client = http::Client::new(daemon.addr.clone());
    let mut next = plans.iter();
    // (plan, id, POST sent, POST sent on the wall clock)
    let mut pending: Vec<(JobPlan, String, Instant, u64)> = Vec::new();
    let t0 = Instant::now();
    loop {
        while pending.len() < OUTSTANDING {
            let Some(plan) = next.next() else { break };
            obs.attempted += 1;
            let body = spec_of(plan, default_tol).to_json();
            let (sent, sent_wall) = (Instant::now(), unix_us(SystemTime::now()));
            let reply = client.request("POST", "/jobs", Some(&body));
            let done = Instant::now();
            obs.post_ms.push(ms(done - sent));
            let id = match reply {
                Ok((202, body)) => json::parse(&body)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string)),
                Ok((status, body)) => {
                    eprintln!("craft-e2e: daemon: POST /jobs → {status}: {body}");
                    None
                }
                Err(e) => {
                    eprintln!("craft-e2e: daemon: POST /jobs: {e}");
                    None
                }
            };
            match id {
                Some(id) => pending.push((*plan, id, sent, sent_wall)),
                None => obs.failed += 1,
            }
        }
        if pending.is_empty() {
            break;
        }
        std::thread::sleep(POLL_SLEEP);
        let mut i = 0;
        while i < pending.len() {
            let (plan, id, sent, sent_wall) = pending[i].clone();
            let t = Instant::now();
            let reply = client.request("GET", &format!("/jobs/{id}"), None);
            let (seen, seen_wall) = (Instant::now(), unix_us(SystemTime::now()));
            obs.status_ms.push(ms(seen - t));
            let record = match reply {
                Ok((200, body)) => json::parse(&body).ok(),
                _ => None,
            };
            let state = record.as_ref().and_then(|v| v.get("state")?.as_str().map(str::to_string));
            let terminal =
                matches!(state.as_deref(), Some("done" | "failed" | "crashed" | "pending"));
            if !terminal && seen - sent < JOB_TIMEOUT && record.is_some() {
                i += 1;
                continue;
            }
            pending.remove(i);
            let fig10 = record.as_ref().and_then(|v| v.get("fig10")?.as_str().map(str::to_string));
            let ok = match (state.as_deref(), fig10) {
                (Some("done"), Some(row)) => match expected.check(&row) {
                    Ok(()) => true,
                    Err(e) => {
                        eprintln!("craft-e2e: daemon job {id}: {e}");
                        false
                    }
                },
                (s, _) => {
                    eprintln!("craft-e2e: daemon job {id} ended {s:?}");
                    false
                }
            };
            obs.failed += u64::from(!ok);
            let job = daemon.mgr.job(&id);
            obs.jobs.push(JobObs {
                plan,
                id,
                post_sent: sent,
                done_seen: seen,
                sent_unix_us: sent_wall,
                seen_unix_us: seen_wall,
                ok,
                wall_ms: job.as_ref().map_or(0.0, |j| j.wall_us as f64 / 1e3),
                tested: job.as_ref().and_then(|j| j.summary.as_ref()).map_or(0, |s| s.tested),
                cache_hits: job.as_ref().map_or(0, |j| j.cache_hits),
                stages: None,
            });
            if obs.jobs.len() % METRICS_EVERY == 0 {
                let t = Instant::now();
                if let Ok((200, text)) = client.request("GET", "/metrics", None) {
                    obs.metrics_ms.push(ms(t.elapsed()));
                    obs.metrics_bytes.push(text.len() as f64);
                }
            }
        }
    }
    obs.active = t0.elapsed();
    obs
}

/// One epoch of one job per bench at its default tolerance: the warm-up
/// before a measured window, and the work a set-up probe times. Returns
/// the failures.
pub fn warm_up(ctx: &mut Ctx) -> u64 {
    let plans: Vec<JobPlan> =
        (0..BENCHES.len()).map(|bench| JobPlan { bench, cold: None }).collect();
    match ctx.epoch(&plans, false) {
        Ok(obs) => obs.failed,
        Err(e) => {
            eprintln!("craft-e2e: daemon warm-up: {e}");
            plans.len() as u64
        }
    }
}

/// Calibration samples between epochs: the daemon is idle then, so the
/// kernel measures the machine, not contention with the searches.
fn calibrate(calib: &mut Calibrator, out: &mut Vec<f64>) {
    out.extend((0..CALIB_PER_EPOCH).map(|_| calib.sample_ms()));
}

/// Run epochs until `seconds` have passed (at least one); with
/// `alternate`, odd epochs are traced and even ones are not.
fn epochs(
    ctx: &mut Ctx,
    seed: u64,
    seconds: f64,
    epoch_jobs: usize,
    alternate: bool,
    res: &mut PassResult,
) -> (Vec<EpochObs>, Vec<EpochObs>, Vec<f64>) {
    let mut rng = Rng::new(seed);
    let mut next_k = 0;
    let mut calib = Calibrator::default();
    let mut calibs = Vec::new();
    let (mut plain, mut traced_eps) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for n in 0.. {
        calibrate(&mut calib, &mut calibs);
        let plans = job_mix(&mut rng, epoch_jobs, &mut next_k);
        let traced = alternate && n % 2 == 1;
        match ctx.epoch(&plans, traced) {
            Ok(obs) => {
                res.attempted += obs.attempted;
                res.failed += obs.failed;
                if traced {
                    traced_eps.push(obs)
                } else {
                    plain.push(obs)
                }
            }
            Err(e) => {
                eprintln!("craft-e2e: daemon epoch: {e}");
                res.attempted += plans.len() as u64;
                res.failed += plans.len() as u64;
            }
        }
        let enough = t0.elapsed().as_secs_f64() >= seconds;
        if enough && (!alternate || !traced_eps.is_empty()) {
            break;
        }
    }
    (plain, traced_eps, calibs)
}

fn done_jobs(epochs: &[EpochObs]) -> impl Iterator<Item = &JobObs> {
    epochs.iter().flat_map(|e| &e.jobs).filter(|j| j.ok)
}

fn collect<'a>(epochs: &'a [EpochObs], f: impl Fn(&'a JobObs) -> f64) -> Vec<f64> {
    done_jobs(epochs).map(f).collect()
}

/// Client-side and job-record metrics of a set of epochs.
fn push_common(res: &mut PassResult, eps: &[EpochObs], calibs: &[f64]) {
    let wall = collect(eps, |j| j.wall_ms);
    let lat = collect(eps, JobObs::latency_ms);
    let by_bench = done_jobs(eps).map(|j| (j.plan.bench, j.latency_ms()));
    res.push("latency_ms_geomean", geomean_of_medians(by_bench), "ms");
    res.push("latency_ms_p50", median(&lat), "ms");
    let t = tail(&lat, 90);
    res.push("latency_ms_p90", t.value, "ms").note = t.note(90);
    let active: f64 = eps.iter().map(|e| e.active.as_secs_f64()).sum();
    res.push("throughput_per_s", lat.len() as f64 / active, "1/s");

    res.push("calib_ms_p50", median(calibs), "ms");
    let by_bench = done_jobs(eps).map(|j| (j.plan.bench, j.wall_ms));
    res.push("raw.search_ms_geomean", geomean_of_medians(by_bench), "ms");
    res.push("core.recommend_ms_p50", median(&wall), "ms");
    let n = done_jobs(eps).count().max(1) as f64;
    let tested: usize = done_jobs(eps).map(|j| j.tested).sum();
    let hits: usize = done_jobs(eps).map(|j| j.cache_hits).sum();
    res.push("mpsearch.evals_per_search", tested as f64 / n, "count");
    res.push("mpsearch.cache_hit_ratio", hits as f64 / tested.max(1) as f64, "ratio");
    for (b, name) in BENCHES.iter().enumerate() {
        let v: Vec<f64> = done_jobs(eps).filter(|j| j.plan.bench == b).map(|j| j.wall_ms).collect();
        res.push(format!("bench.{name}.search_ms_p50"), median(&v), "ms").note =
            Some(format!("{} jobs", v.len()));
    }

    let all = |f: fn(&EpochObs) -> &Vec<f64>| eps.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let post = all(|e| &e.post_ms);
    res.push("craftd.post_ms_p50", median(&post), "ms");
    let t = tail(&post, 90);
    res.push("craftd.post_ms_p90", t.value, "ms").note = t.note(90);
    res.push("craftd.status_get_ms_p50", median(&all(|e| &e.status_ms)), "ms");
    res.push("craftd.metrics_get_ms_p50", median(&all(|e| &e.metrics_ms)), "ms");
    res.push("craftd.metrics_bytes", median(&all(|e| &e.metrics_bytes)), "bytes");
    let (hits, misses) =
        eps.iter().fold((0, 0), |(h, m), e| (h + e.cache_hits, m + e.cache_misses));
    res.push("craftd.shared_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    for (name, hot) in
        [("craftd.job_latency_hot_ms_p50", true), ("craftd.job_latency_cold_ms_p50", false)]
    {
        let v: Vec<f64> = done_jobs(eps)
            .filter(|j| j.plan.cold.is_none() == hot)
            .map(JobObs::latency_ms)
            .collect();
        res.push(name, median(&v), "ms");
    }
    res.push("fail_frac", res.failed as f64 / res.attempted.max(1) as f64, "ratio");
}

/// The untraced pass: end-to-end metrics.
pub fn untraced(ctx: &mut Ctx, seed: u64, seconds: f64, epoch_jobs: usize) -> PassResult {
    let mut res = PassResult::new("daemon", false);
    let (plain, _, calibs) = epochs(ctx, seed, seconds, epoch_jobs, false, &mut res);
    push_common(&mut res, &plain, &calibs);
    res
}

/// The traced pass: epochs alternate between untraced and traced; layer
/// metrics come from the traced ones, and the latency ratio of the two is
/// the tracing's overhead.
pub fn traced(
    ctx: &mut Ctx,
    seed: u64,
    seconds: f64,
    epoch_jobs: usize,
    spans: &mut Spans,
) -> PassResult {
    let mut res = PassResult::new("daemon", true);
    let (plain, traced, calibs) = epochs(ctx, seed, seconds, epoch_jobs, true, &mut res);
    push_common(&mut res, &traced, &calibs);
    let p50 = |eps: &[EpochObs]| median(&collect(eps, JobObs::latency_ms));
    res.push("trace_overhead_pct", (p50(&traced) / p50(&plain) - 1.0) * 100.0, "%").note =
        Some(format!("{} traced vs {} untraced epochs", traced.len(), plain.len()));

    // Signed milliseconds between two log/client wall-clock stamps.
    let between = |a: u64, b: u64| (b as f64 - a as f64) / 1e3;
    let (mut intake, mut queue, mut persist, mut lag) = (vec![], vec![], vec![], vec![]);
    for (sample, j) in done_jobs(&traced).enumerate() {
        let Some(st) = j.stages else { continue };
        intake.push(between(j.sent_unix_us, st.queued_us));
        queue.push(between(st.queued_us, st.running_us));
        persist.push(between(st.running_us, st.done_us) - j.wall_ms);
        lag.push(between(st.done_us, j.seen_unix_us));
        // Log stamps placed on the span clock through the poll that saw
        // the job done, which both clocks timed.
        let seen = spans.us(j.done_seen);
        let at = |t: u64| seen.saturating_sub(j.seen_unix_us.saturating_sub(t));
        let sample = sample as u64;
        let root = spans.record_us("job", spans.us(j.post_sent), seen, None, sample);
        spans.record_us("intake", spans.us(j.post_sent), at(st.queued_us), Some(root), sample);
        spans.record_us("queued", at(st.queued_us), at(st.running_us), Some(root), sample);
        spans.record_us("running", at(st.running_us), at(st.done_us), Some(root), sample);
        spans.record_us("observe_lag", at(st.done_us), seen, Some(root), sample);
    }
    let split =
        format!("{} of {} jobs found in the daemon log", persist.len(), done_jobs(&traced).count());
    res.push("craftd.intake_ms_p50", median(&intake), "ms").note = Some(split);
    res.push("craftd.queue_wait_ms_p50", median(&queue), "ms");
    res.push("craftd.search_ms_p50", median(&collect(&traced, |j| j.wall_ms)), "ms");
    res.push("craftd.persist_ms_p50", median(&persist), "ms");
    res.push("craftd.observe_lag_ms_p50", median(&lag), "ms");
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_deterministic_per_seed() {
        let mix = |seed| {
            let mut k = 0;
            let mut rng = Rng::new(seed);
            let a = job_mix(&mut rng, 40, &mut k);
            let b = job_mix(&mut rng, 40, &mut k);
            (a, b, k)
        };
        assert_eq!(mix(3), mix(3));
        assert_ne!(mix(3), mix(4));

        let (a, b, k) = mix(3);
        // 40% hot, the rest cold with unique perturbations across epochs.
        assert_eq!(a.iter().filter(|p| p.cold.is_none()).count(), 16);
        let ks: Vec<u64> = a.iter().chain(&b).filter_map(|p| p.cold).collect();
        assert_eq!(ks.len() as u64, k);
        let mut uniq = ks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ks.len());
        // Benches are dealt evenly.
        for bench in 0..BENCHES.len() {
            let n = a.iter().filter(|p| p.bench == bench).count();
            assert!((5..=6).contains(&n), "bench {bench}: {n}");
        }
    }

    #[test]
    fn cold_jobs_get_distinct_cache_namespaces() {
        let tol = vec![1e-6; BENCHES.len()];
        let hot = spec_of(&JobPlan { bench: 2, cold: None }, &tol);
        let c1 = spec_of(&JobPlan { bench: 2, cold: Some(1) }, &tol);
        let c2 = spec_of(&JobPlan { bench: 2, cold: Some(2) }, &tol);
        assert_eq!(hot.tol, None);
        assert_ne!(c1.cache_namespace(), hot.cache_namespace());
        assert_ne!(c1.cache_namespace(), c2.cache_namespace());
        // The perturbation survives the wire format.
        assert_eq!(JobSpec::parse(&c1.to_json()).unwrap().tol, c1.tol);
    }
}

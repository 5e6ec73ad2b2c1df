//! # craftd — the multi-tenant tuning-search daemon
//!
//! A long-running service wrapping the mixed-precision analysis
//! system: tenants `POST` tuning jobs over HTTP, the daemon runs each
//! job's search on its own worker threads behind one FIFO thread gate
//! sized by `workers`, streams each job's live telemetry to followers,
//! and persists completed jobs into the same run-registry format the
//! `craft` CLI writes — so `craft report` / `watch` / `compare` work on
//! daemon runs unchanged.
//!
//! The protocol (all bodies JSON; connections are HTTP/1.1 keep-alive —
//! a client can issue its whole request sequence over one connection,
//! except that a live follow ends its connection when the job does):
//!
//! | Method & path          | Meaning                                     |
//! |------------------------|---------------------------------------------|
//! | `POST /jobs`           | Submit a [`JobSpec`] body → `202 {"id":…}`, `400` invalid, `429` queue full (shed), `503` draining |
//! | `GET /jobs`            | All job records                             |
//! | `GET /jobs/<id>`       | One job's status record                     |
//! | `GET /jobs/<id>/live`  | Chunked follow of the job's `live.jsonl` until it finishes |
//! | `GET /jobs/<id>/metrics` | The job's trace as Prometheus text, labelled `job`/`bench`/`backend`/`lattice`; running jobs fold `live.jsonl` into a partial snapshot, `503 + Retry-After` until the first delta exists |
//! | `GET /jobs/<id>/decisions` | The job's `decisions.jsonl` verbatim — per-instruction precision decision provenance; `503 + Retry-After` while the job is still running, `404` if it finished without recording any |
//! | `GET /metrics`         | Unified exposition: daemon series (jobs, queue, cache, request telemetry) + every job's series, labelled — including the `craft_fp_*` numerical-health family for `num_health` jobs |
//! | `GET /healthz`         | Liveness probe                              |
//! | `POST /admin/drain`    | Begin graceful drain                        |
//!
//! Multi-tenancy is enforced by bounded intake (submissions past
//! `queue_cap` are shed with `429`), a fixed runner count
//! (`max_running`), a FIFO thread gate that caps evaluation threads
//! across all running jobs at `workers`, daemon-default fuel/wall
//! quotas for jobs that bring none, and a cross-job evaluation cache
//! namespaced by each job's verdict-determining options (see
//! [`cache::SharedEvalCache`]).
//!
//! ## Observability
//!
//! Every request is counted (aggregate + per-route/status) and timed
//! into log2 latency histograms on the daemon-lifetime tracer;
//! connection, in-flight, keep-alive-reuse, and parse-error series ride
//! along (see DESIGN.md §16 for the naming scheme). Requests carrying an
//! `x-craft-trace` header have the id stamped through the job record,
//! manifest, run-dir spans, and the structured daemon log
//! (`daemon.log.jsonl`, see [`obs`]), so one id stitches a client call
//! to everything it caused.

#![warn(missing_docs)]

pub mod cache;
mod gate;
pub mod http;
pub mod jobs;
pub mod obs;

pub use cache::SharedEvalCache;
pub use jobs::{DaemonConfig, JobManager, JobRecord, JobState, SubmitError};

use mixedprec::{rundir, JobSpec};
use mptrace::sinks;
use mptrace::stream::LiveTail;
use obs::{Level, LogRecord};
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the server's watcher polls the stop flag and the drain, and
/// how often a live stream polls its file for new bytes.
const POLL: Duration = Duration::from_millis(50);

/// The daemon: a bound listener plus the job engine behind it.
pub struct Server {
    mgr: Arc<JobManager>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the job engine with `cfg`.
    pub fn bind(addr: &str, cfg: DaemonConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            mgr: JobManager::start(cfg)?,
            listener,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The job engine.
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.mgr
    }

    /// A handle that makes [`Server::run`] begin a graceful drain when
    /// set (wired to SIGTERM by the binary, or set directly by tests).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serve until the stop handle is raised (or `POST /admin/drain`
    /// arrives) *and* the drain completes. Read endpoints keep working
    /// while in-flight jobs finish; queued jobs are persisted as
    /// `pending`; then this returns.
    pub fn run(self) -> std::io::Result<()> {
        // The accept blocks, so a connection is served the moment it
        // arrives rather than at the next tick of a polling loop. A
        // watcher thread polls the stop flag and the drain instead, and
        // once the drain completes it wakes the accept with a connection
        // of its own.
        let wake = wake_addr(self.listener.local_addr()?);
        let done = Arc::new(AtomicBool::new(false));
        let watcher = {
            let (mgr, stop, done) =
                (Arc::clone(&self.mgr), Arc::clone(&self.stop), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(POLL);
                    if stop.load(Ordering::SeqCst) {
                        mgr.drain();
                    }
                    if mgr.is_drained() {
                        done.store(true, Ordering::SeqCst);
                        let _ = TcpStream::connect(wake);
                    }
                }
            })
        };
        let outcome = loop {
            match self.listener.accept() {
                Ok(_) if done.load(Ordering::SeqCst) => break Ok(()),
                Ok((conn, _peer)) => {
                    let mgr = Arc::clone(&self.mgr);
                    std::thread::spawn(move || handle_connection(conn, &mgr));
                }
                Err(e) => break Err(e),
            }
        };
        done.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        outcome
    }
}

/// Where the watcher connects to wake the accept: the listener's own
/// address, with a wildcard IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Serve one connection: parse requests and respond until the client
/// goes away, asks `Connection: close`, a live follow consumes the
/// connection, or a request is malformed (framing can no longer be
/// trusted after one).
fn handle_connection(conn: TcpStream, mgr: &Arc<JobManager>) {
    mgr.connection_opened();
    serve_connection(&conn, mgr);
    mgr.connection_closed();
}

fn serve_connection(conn: &TcpStream, mgr: &Arc<JobManager>) {
    // Requests are read through one buffer that lives as long as the
    // connection: a request costs a read call or two instead of one per
    // byte, and a pipelined successor's bytes stay in the buffer.
    let mut reader = BufReader::new(conn);
    let mut conn = conn;
    let mut served = 0u64;
    loop {
        let request = match http::read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                // A garbage request must not take the connection loop
                // (let alone the daemon) down: count it, warn-log it,
                // answer 400, and drop only this connection — framing
                // can no longer be trusted after a parse failure.
                mgr.count_parse_error(&e);
                let body = error_json(&e);
                let _ = http::respond_json(&mut conn, 400, &body);
                return;
            }
        };
        if served > 0 {
            mgr.keepalive_reused();
        }
        served += 1;
        mgr.request_begin();
        let t0 = Instant::now();
        let outcome = route(&mut conn, mgr, &request);
        let latency_us = t0.elapsed().as_micros() as u64;
        mgr.request_end();
        match outcome {
            Ok((status, keep)) => {
                mgr.observe_request(route_key(&request), status, latency_us);
                let mut rec = LogRecord::now(Level::Info, "request")
                    .s("method", &request.method)
                    .s("path", &request.path)
                    .u("status", status as u64)
                    .u("us", latency_us);
                if let Some(trace) = &request.trace {
                    rec = rec.s("trace", trace);
                }
                mgr.log_event(rec);
                if !keep || request.close {
                    return;
                }
            }
            // `Err` = the client went away mid-response; nothing to
            // clean up either way.
            Err(_) => return,
        }
    }
}

/// Stable per-route key used in metric names (`http.requests.<key>.<status>`,
/// `http.latency_us.<key>`).
fn route_key(req: &http::Request) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => "post_jobs",
        ("GET", ["jobs"]) => "get_jobs",
        ("GET", ["jobs", _]) => "get_job",
        ("GET", ["jobs", _, "live"]) => "get_job_live",
        ("GET", ["jobs", _, "metrics"]) => "get_job_metrics",
        ("GET", ["jobs", _, "decisions"]) => "get_job_decisions",
        ("GET", ["metrics"]) => "get_metrics",
        ("GET", ["healthz"]) => "healthz",
        ("POST", ["admin", "drain"]) => "drain",
        _ => "other",
    }
}

fn error_json(msg: &str) -> String {
    let mut s = String::from("{\"error\":");
    mptrace::json::esc(&mut s, msg);
    s.push('}');
    s
}

/// Route one request. Returns `(status, connection still usable)` —
/// usable is `false` after a live follow, whose chunked response
/// declares `Connection: close`.
fn route(
    conn: &mut impl Write,
    mgr: &Arc<JobManager>,
    req: &http::Request,
) -> std::io::Result<(u16, bool)> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    if let ("GET", ["jobs", id, "live"]) = (req.method.as_str(), segments.as_slice()) {
        return stream_live(conn, mgr, id).map(|status| (status, false));
    }
    let done = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(conn, 200, "text/plain", b"ok\n").map(|()| 200),
        ("GET", ["metrics"]) => {
            let text = unified_metrics(mgr);
            http::respond(conn, 200, "text/plain; version=0.0.4", text.as_bytes()).map(|()| 200)
        }
        ("POST", ["jobs"]) => {
            let body = String::from_utf8_lossy(&req.body);
            let spec = match JobSpec::parse(&body) {
                Ok(s) => s,
                Err(e) => {
                    return http::respond_json(conn, 400, &error_json(&e)).map(|()| (400, true))
                }
            };
            match mgr.submit(spec, req.trace.clone()) {
                Ok(id) => {
                    let mut s = String::from("{\"id\":");
                    mptrace::json::esc(&mut s, &id);
                    s.push('}');
                    http::respond_json(conn, 202, &s).map(|()| 202)
                }
                Err(SubmitError::Invalid(e)) => {
                    http::respond_json(conn, 400, &error_json(&e)).map(|()| 400)
                }
                Err(SubmitError::QueueFull) => http::respond_json(
                    conn,
                    429,
                    &error_json("job queue is full — daemon is shedding load, retry later"),
                )
                .map(|()| 429),
                Err(SubmitError::Draining) => {
                    http::respond_json(conn, 503, &error_json("daemon is draining")).map(|()| 503)
                }
            }
        }
        ("GET", ["jobs"]) => {
            let jobs = mgr.jobs();
            let mut s = String::from("[");
            for (i, j) in jobs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&j.to_json());
            }
            s.push(']');
            http::respond_json(conn, 200, &s).map(|()| 200)
        }
        ("GET", ["jobs", id]) => match mgr.job(id) {
            Some(j) => http::respond_json(conn, 200, &j.to_json()).map(|()| 200),
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("GET", ["jobs", id, "metrics"]) => match mgr.job(id) {
            Some(j) => {
                let dir = mgr.job_dir(id);
                match rundir::load_snapshot(&dir) {
                    Ok(run) => {
                        let labels = job_labels(&j);
                        let pairs: Vec<(&str, &str)> =
                            labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                        let text = sinks::prometheus_labeled(&run.snap, &pairs);
                        http::respond(conn, 200, "text/plain; version=0.0.4", text.as_bytes())
                            .map(|()| 200)
                    }
                    // Running (or still-queued) job with no deltas yet:
                    // tell the scraper to come back, not that the job is
                    // unknown.
                    Err(_) if !j.state.is_terminal() => http::respond_with(
                        conn,
                        503,
                        "application/json",
                        &[("Retry-After", "1")],
                        error_json("job has produced no telemetry yet — retry").as_bytes(),
                    )
                    .map(|()| 503),
                    Err(_) => http::respond_json(conn, 404, &error_json("job produced no trace"))
                        .map(|()| 404),
                }
            }
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("GET", ["jobs", id, "decisions"]) => match mgr.job(id) {
            Some(j) => {
                let path = mgr.job_dir(id).join("decisions.jsonl");
                match std::fs::read(&path) {
                    // Verbatim JSONL: one decision record per line, the
                    // same bytes `craft explain` reads from a run dir.
                    Ok(body) => http::respond(conn, 200, "application/jsonl", &body).map(|()| 200),
                    // The file is written at job completion: a job that
                    // is still queued/running has no decisions yet.
                    Err(_) if !j.state.is_terminal() => http::respond_with(
                        conn,
                        503,
                        "application/json",
                        &[("Retry-After", "1")],
                        error_json("job has not decided yet — retry").as_bytes(),
                    )
                    .map(|()| 503),
                    Err(_) => {
                        http::respond_json(conn, 404, &error_json("job recorded no decisions"))
                            .map(|()| 404)
                    }
                }
            }
            None => http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404),
        },
        ("POST", ["admin", "drain"]) => {
            mgr.drain();
            http::respond_json(conn, 200, "{\"draining\":true}").map(|()| 200)
        }
        (m, _) if m != "GET" && m != "POST" => {
            http::respond_json(conn, 405, &error_json("method not allowed")).map(|()| 405)
        }
        _ => http::respond_json(conn, 404, &error_json("no such endpoint")).map(|()| 404),
    };
    done.map(|status| (status, true))
}

/// The job's constant label set for Prometheus expositions.
fn job_labels(j: &JobRecord) -> Vec<(&'static str, String)> {
    let (lattice, backend) = j.spec.labels();
    vec![
        ("job", j.id.clone()),
        ("bench", j.spec.bench.clone()),
        ("backend", backend.to_string()),
        ("lattice", if lattice.is_empty() { "classic".into() } else { lattice }),
    ]
}

/// The unified `GET /metrics` body: the daemon-lifetime series first
/// (with `# TYPE` headers), then every known job's series labelled
/// `job`/`bench`/`backend`/`lattice`, comment lines stripped so each
/// metric family is declared at most once.
fn unified_metrics(mgr: &Arc<JobManager>) -> String {
    mgr.publish_gauges();
    let mut text = sinks::prometheus(&mgr.tracer().snapshot());
    for j in mgr.jobs() {
        let Ok(run) = rundir::load_snapshot(&mgr.job_dir(&j.id)) else { continue };
        let labels = job_labels(&j);
        let pairs: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let labeled = sinks::prometheus_labeled(&run.snap, &pairs);
        for line in labeled.lines().filter(|l| !l.starts_with('#')) {
            text.push_str(line);
            text.push('\n');
        }
    }
    text
}

/// `GET /jobs/<id>/live`: follow the job's `live.jsonl` with a
/// byte-offset [`LiveTail`] and forward complete lines as chunks until
/// the job reaches a terminal state (plus one final poll, so the last
/// delta is never lost). Torn trailing lines stay in the tail's carry
/// buffer, so followers only ever see whole records.
fn stream_live(conn: &mut impl Write, mgr: &Arc<JobManager>, id: &str) -> std::io::Result<u16> {
    if mgr.job(id).is_none() {
        return http::respond_json(conn, 404, &error_json("no such job")).map(|()| 404);
    }
    let live_path = mgr.job_dir(id).join("live.jsonl");
    let mut tail = LiveTail::new(&live_path);
    let mut ch = http::Chunked::start(conn, 200, "application/jsonl")?;
    loop {
        let terminal = mgr.job(id).map(|j| j.state.is_terminal()).unwrap_or(true);
        if tail.poll().is_err() {
            // A corrupt stream is terminal for the follower; what was
            // already forwarded remains valid.
            break;
        }
        let raw = tail.take_raw();
        ch.chunk(raw.as_bytes())?;
        if terminal {
            break;
        }
        std::thread::sleep(POLL);
    }
    ch.finish().map(|()| 200)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bind a server with a fresh data directory under the temp dir and
    /// run it on its own thread.
    fn spawn_server(
        bind: &str,
        tag: &str,
    ) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<std::io::Result<()>>) {
        let data_dir = std::env::temp_dir().join(format!("craftd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let cfg = DaemonConfig { data_dir, workers: 1, max_running: 1, ..Default::default() };
        let server = Server::bind(bind, cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        (addr, stop, std::thread::spawn(move || server.run()))
    }

    #[test]
    fn a_fresh_server_answers_its_first_request_at_once() {
        // The accept used to poll a nonblocking listener every 50 ms, so
        // a client that connected while it slept waited ~50 ms for its
        // first response (one fresh server in three).
        let mut first_ms = Vec::new();
        for i in 0..10 {
            let (addr, stop, thread) = spawn_server("127.0.0.1:0", &format!("accept-{i}"));
            let t = Instant::now();
            let (status, _) = http::request(&addr.to_string(), "GET", "/healthz", None).unwrap();
            first_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(status, 200);
            stop.store(true, Ordering::SeqCst);
            thread.join().unwrap().unwrap();
        }
        let slowest = first_ms.iter().copied().fold(0.0, f64::max);
        assert!(slowest < 40.0, "first-request times (ms): {first_ms:?}");
    }

    #[test]
    fn a_wildcard_bound_server_wakes_its_accept_and_stops() {
        let (addr, stop, thread) = spawn_server("0.0.0.0:0", "wildcard");
        assert!(addr.ip().is_unspecified());
        stop.store(true, Ordering::SeqCst);
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn wake_addr_replaces_only_a_wildcard_ip() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7077"), "127.0.0.1:7077");
        assert_eq!(wake("[::]:7077"), "[::1]:7077");
        assert_eq!(wake("10.1.2.3:7077"), "10.1.2.3:7077");
    }
}

//! End-to-end daemon tests over real TCP: submit jobs, follow live
//! streams, and check that daemon runs are byte-comparable with
//! in-process analyses, that the cross-job cache pays off, and that the
//! daemon survives crashing jobs, sheds load, and drains gracefully.

use craftd::{http, DaemonConfig, JobManager, Server};
use mixedprec::{AnalysisSystem, JobSpec};
use mptrace::json::{self, Value};
use mptrace::stream::LiveLog;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spin up a daemon on an ephemeral port with a fresh data dir.
struct Daemon {
    addr: String,
    mgr: Arc<JobManager>,
    stop: Arc<AtomicBool>,
    data_dir: PathBuf,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(tag: &str, tweak: impl FnOnce(&mut DaemonConfig)) -> Daemon {
        let data_dir =
            std::env::temp_dir().join(format!("craftd-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let mut cfg = DaemonConfig {
            data_dir: data_dir.clone(),
            workers: 4,
            max_running: 2,
            queue_cap: 8,
            ..Default::default()
        };
        tweak(&mut cfg);
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let mgr = Arc::clone(server.manager());
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        Daemon { addr, mgr, stop, data_dir, thread: Some(thread) }
    }

    fn submit(&self, spec: &JobSpec) -> (u16, Value) {
        let (status, body) =
            http::request(&self.addr, "POST", "/jobs", Some(&spec.to_json())).expect("submit");
        (status, json::parse(&body).expect("submit response json"))
    }

    fn status(&self, id: &str) -> Value {
        let (status, body) =
            http::request(&self.addr, "GET", &format!("/jobs/{id}"), None).expect("status");
        assert_eq!(status, 200, "status for {id}: {body}");
        json::parse(&body).expect("status json")
    }

    /// Poll until the job reaches a terminal state; panic on timeout.
    fn wait_terminal(&self, id: &str) -> Value {
        let t0 = Instant::now();
        loop {
            let v = self.status(id);
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "crashed" | "pending") {
                return v;
            }
            assert!(t0.elapsed() < Duration::from_secs(120), "job {id} stuck in {state:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

fn ep_spec() -> JobSpec {
    JobSpec { bench: "ep".into(), class: "s".into(), threads: Some(2), ..Default::default() }
}

fn vecops_spec() -> JobSpec {
    JobSpec { bench: "vecops".into(), class: "s".into(), threads: Some(2), ..Default::default() }
}

#[test]
fn daemon_run_matches_in_process_and_second_job_hits_shared_cache() {
    let d = Daemon::start("identity", |_| {});

    // Submit and follow the live stream to completion.
    let (status, resp) = d.submit(&ep_spec());
    assert_eq!(status, 202, "{resp:?}");
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let mut streamed = String::new();
    let code = http::stream(&d.addr, "GET", &format!("/jobs/{id}/live"), None, |piece| {
        streamed.push_str(piece)
    })
    .expect("live stream");
    assert_eq!(code, 200);
    // The follower saw the whole stream: meta line first, whole records
    // only, ending in the forced "done" progress record.
    assert!(streamed.starts_with('{') && streamed.contains("mptrace-live"), "{streamed:?}");
    let log = LiveLog::parse_tolerant(&streamed).expect("streamed live log folds");
    assert!(log.warning.is_none(), "torn line reached a follower: {:?}", log.warning);
    assert_eq!(log.latest_progress().expect("progress").progress.phase, "done");

    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");

    // The daemon's answer must be identical to the same options run
    // in-process (elapsed and cache hits are the only run-dependent
    // figures, and neither is compared).
    let spec = ep_spec();
    let sys = AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
    let rec = sys.recommend();
    let summary = job.get("summary").expect("summary");
    assert_eq!(
        summary.get("candidates").and_then(Value::as_u64),
        Some(rec.report.candidates as u64)
    );
    assert_eq!(
        summary.get("tested").and_then(Value::as_u64),
        Some(rec.report.configs_tested as u64)
    );
    assert_eq!(summary.get("static_pct").and_then(Value::as_f64), Some(rec.report.static_pct));
    assert_eq!(summary.get("dynamic_pct").and_then(Value::as_f64), Some(rec.report.dynamic_pct));
    assert_eq!(summary.get("final_pass").and_then(Value::as_bool), Some(rec.report.final_pass));
    assert_eq!(
        job.get("fig10").and_then(Value::as_str),
        Some(rec.report.figure10_row("ep.s").as_str())
    );
    assert_eq!(job.get("modelled_speedup").and_then(Value::as_f64), Some(rec.modelled_speedup));
    assert_eq!(
        job.get("config_hash").and_then(Value::as_str),
        Some(mptrace::registry::fnv1a64(&rec.config_text).as_str())
    );

    // An identical second job is answered from the shared cross-job
    // cache: same report, and every evaluation a cache hit.
    let (status, resp) = d.submit(&ep_spec());
    assert_eq!(status, 202);
    let id2 = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job2 = d.wait_terminal(&id2);
    assert_eq!(job2.get("state").and_then(Value::as_str), Some("done"), "{job2:?}");
    let hits2 = job2.get("cache_hits").and_then(Value::as_u64).unwrap();
    assert!(hits2 > 0, "second identical job should hit the shared cache: {job2:?}");
    assert!(d.mgr.cache().hits() > 0, "shared cache saw no hits");
    assert_eq!(job2.get("fig10"), job.get("fig10"));

    // Daemon metrics expose the lifecycle and cache counters.
    let (code, metrics) = http::request(&d.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("craft_daemon_jobs_submitted_total 2"), "{metrics}");
    assert!(metrics.contains("craft_daemon_jobs_completed_total 2"), "{metrics}");
    assert!(metrics.contains("craft_daemon_cache_hits"), "{metrics}");

    // Per-job metrics come back labelled with the job id.
    let (code, jm) = http::request(&d.addr, "GET", &format!("/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(code, 200);
    assert!(jm.contains(&format!("job=\"{id}\"")), "{jm}");
    assert!(jm.contains("bench=\"ep\""), "{jm}");

    // The run directory is a full craft-compatible artifact set.
    let dir = d.mgr.job_dir(&id);
    for f in [
        "job.json",
        "status.json",
        "live.jsonl",
        "events.jsonl",
        "decisions.jsonl",
        "manifest.json",
    ] {
        assert!(dir.join(f).is_file(), "missing {f} in {}", dir.display());
    }
    assert!(!dir.join("trace.jsonl").exists(), "the trace is live.jsonl's fold alone");
    // The second run of the same bench got a compare-on-completion diff.
    assert!(
        d.mgr.job_dir(&id2).join("compare.txt").is_file(),
        "second run should have been compared against the first"
    );
    assert!(job2.get("regressions").and_then(Value::as_u64).is_some(), "{job2:?}");
}

#[test]
fn one_connection_serves_a_whole_request_sequence() {
    // Keep-alive against the real daemon: a client's submit → poll →
    // metrics sequence rides one TCP connection instead of one per
    // request.
    let d = Daemon::start("keepalive", |cfg| cfg.max_running = 0);
    let mut client = http::Client::new(&d.addr);
    let (code, body) = client.request("POST", "/jobs", Some(&vecops_spec().to_json())).unwrap();
    assert_eq!(code, 202, "{body}");
    let id = json::parse(&body)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .expect("job id");
    let (code, _) = client.request("GET", &format!("/jobs/{id}"), None).unwrap();
    assert_eq!(code, 200);
    let (code, _) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    // The regression this guards: the second and third request reused
    // the first request's connection.
    assert_eq!(client.reused(), 2);
}

#[test]
fn lattice_jobs_round_trip_through_the_daemon() {
    let d = Daemon::start("lattice", |_| {});
    let spec = JobSpec { lattice: "s,b".into(), ..ep_spec() };
    let (status, resp) = d.submit(&spec);
    assert_eq!(status, 202, "{resp:?}");
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");
    // The lattice travels into the spec echo and the run manifest.
    assert_eq!(job.get("spec").and_then(|s| s.get("lattice")).and_then(Value::as_str), Some("s,b"));
    let manifest = mptrace::registry::RunManifest::load(d.mgr.job_dir(&id))
        .expect("manifest parses")
        .expect("manifest written");
    assert_eq!(manifest.lattice, "s,b");
    // A malformed lattice is rejected at the door.
    let (status, resp) = d.submit(&JobSpec { lattice: "s,x".into(), ..ep_spec() });
    assert_eq!(status, 400, "{resp:?}");
}

#[test]
fn manifest_and_metrics_record_the_canonical_lattice() {
    let d = Daemon::start("lattice-canon", |_| {});
    let (status, resp) = d.submit(&JobSpec { lattice: "s, m10e5".into(), ..vecops_spec() });
    assert_eq!(status, 202, "{resp:?}");
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");
    // `m10e5` is half precision: both records spell it `h`, as a CLI
    // run with `--lattice=s,m10e5` does.
    let text = std::fs::read_to_string(d.mgr.job_dir(&id).join("manifest.json")).unwrap();
    assert!(text.contains("\"lattice\":\"s,h\""), "{text}");
    let (code, jm) = http::request(&d.addr, "GET", &format!("/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(code, 200, "{jm}");
    assert!(jm.contains("lattice=\"s,h\""), "{jm}");
}

#[test]
fn crashing_job_is_isolated_and_daemon_keeps_serving() {
    // The crashing job holds both of the gate's permits when it panics;
    // the next job runs only if they come back.
    let d = Daemon::start("crash", |cfg| {
        cfg.max_running = 1;
        cfg.workers = 2;
    });

    let (status, resp) = d.submit(&JobSpec { inject_runner_panic: true, ..vecops_spec() });
    assert_eq!(status, 202);
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("crashed"), "{job:?}");
    let err = job.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(err.contains("injected runner panic"), "{err:?}");

    // The daemon is still alive and still runs jobs to completion.
    let (code, body) = http::request(&d.addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 202);
    let id2 = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job2 = d.wait_terminal(&id2);
    assert_eq!(job2.get("state").and_then(Value::as_str), Some("done"), "{job2:?}");

    let (_, metrics) = http::request(&d.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("craft_daemon_jobs_crashed_total 1"), "{metrics}");
}

#[test]
fn jobs_waiting_at_the_thread_gate_match_a_lone_run() {
    // Two runners but one worker thread: both jobs start, and the gate
    // lets one search run at a time.
    let d = Daemon::start("gate", |cfg| {
        cfg.workers = 1;
        cfg.max_running = 2;
    });
    let specs = [ep_spec(), vecops_spec()];
    let ids: Vec<String> = specs
        .iter()
        .map(|spec| {
            let (status, resp) = d.submit(spec);
            assert_eq!(status, 202, "{resp:?}");
            resp.get("id").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    for (spec, id) in specs.iter().zip(&ids) {
        let job = d.wait_terminal(id);
        assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");
        let lone = AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap())
            .recommend();
        let row = lone.report.figure10_row(&format!("{}.{}", spec.bench, spec.class));
        assert_eq!(job.get("fig10").and_then(Value::as_str), Some(row.as_str()));
    }
}

#[test]
fn full_queue_sheds_and_drain_persists_queued_jobs_as_pending() {
    // No runners at all: everything stays queued, making shedding and
    // drain deterministic.
    let d = Daemon::start("shed", |cfg| {
        cfg.max_running = 0;
        cfg.queue_cap = 1;
    });

    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 202);
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();

    // The queue is bounded at 1: the next submission is shed with an
    // explicit 429, not silently delayed.
    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 429, "{resp:?}");
    assert!(
        resp.get("error").and_then(Value::as_str).unwrap_or("").contains("shedding"),
        "{resp:?}"
    );
    let (_, metrics) = http::request(&d.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("craft_daemon_jobs_shed_total 1"), "{metrics}");

    // Drain: the queued job is persisted as `pending` and the daemon
    // shuts down; the record survives on disk for resubmission.
    let (code, _) = http::request(&d.addr, "POST", "/admin/drain", None).unwrap();
    assert_eq!(code, 200);
    // Drain rewrote the queued job to `pending` synchronously, on disk.
    let status_file = d.mgr.job_dir(&id).join("status.json");
    let text = std::fs::read_to_string(&status_file).expect("persisted status.json");
    let v = json::parse(text.trim()).unwrap();
    assert_eq!(v.get("state").and_then(Value::as_str), Some("pending"), "{text}");
    assert_eq!(
        d.mgr.submit(vecops_spec(), None),
        Err(craftd::SubmitError::Draining),
        "a draining daemon accepts no new work"
    );
    let mgr = Arc::clone(&d.mgr);
    drop(d); // joins the server thread — drain must complete, not hang
    assert!(mgr.is_drained());
}

#[test]
fn garbage_request_is_counted_logged_and_does_not_kill_the_daemon() {
    use std::io::{Read, Write};
    let d = Daemon::start("garbage", |cfg| cfg.max_running = 0);

    let mut conn = std::net::TcpStream::connect(&d.addr).expect("connect");
    conn.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // The connection loop survived: the daemon still answers, and the
    // failure is visible in both the metrics and the structured log.
    let (code, body) = http::request(&d.addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (_, metrics) = http::request(&d.addr, "GET", "/metrics", None).unwrap();
    assert!(metrics.contains("craft_http_parse_errors_total 1"), "{metrics}");
    assert!(metrics.contains("craft_http_parse_errors_bad_request_line_total 1"), "{metrics}");

    let (records, warn) =
        craftd::obs::read_log(&d.data_dir.join(craftd::obs::LOG_FILE)).expect("daemon log reads");
    assert!(warn.is_none(), "{warn:?}");
    let parse_err = records
        .iter()
        .find(|r| r.event == "http_parse_error")
        .expect("parse error reached the daemon log");
    assert_eq!(parse_err.level, craftd::obs::Level::Warn);
    assert!(
        parse_err.fields.iter().any(
            |(k, v)| k == "reason" && *v == craftd::obs::LogField::S("bad_request_line".into())
        ),
        "{parse_err:?}"
    );
}

#[test]
fn deeply_nested_job_body_is_rejected_without_killing_the_daemon() {
    let d = Daemon::start("nested", |cfg| cfg.max_running = 0);
    // 100 KB of `[` once recursed once per byte in the JSON parser and
    // overflowed the connection thread's stack, aborting the process.
    let body = "[".repeat(100_000);
    let (code, resp) = http::request(&d.addr, "POST", "/jobs", Some(&body)).expect("post");
    assert_eq!(code, 400, "{resp}");
    assert!(resp.contains("nesting"), "{resp}");
    let (code, body) = http::request(&d.addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
}

#[test]
fn a_four_mib_job_body_is_rejected_promptly() {
    let d = Daemon::start("long-string", |cfg| cfg.max_running = 0);
    // One string filling the whole body limit: a string scan quadratic
    // in its length would hold the connection thread for minutes.
    let filler = 4 * 1024 * 1024 - 16;
    let body = format!("{{\"bench\":\"{}\"}}", "x".repeat(filler));
    let t0 = Instant::now();
    let (code, resp) = http::request(&d.addr, "POST", "/jobs", Some(&body)).expect("post");
    assert_eq!(code, 400, "{}", &resp[..resp.len().min(200)]);
    assert!(t0.elapsed() < Duration::from_secs(10), "took {:?}", t0.elapsed());
    let (code, body) = http::request(&d.addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));
}

#[test]
fn job_metrics_wait_with_retry_after_then_fold_partial_live_deltas() {
    use std::io::{Read, Write};
    // No runners: the job stays queued, so it has produced no telemetry.
    let d = Daemon::start("partial", |cfg| cfg.max_running = 0);
    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 202);
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();

    // A scraper gets "come back soon", not "no such job".
    let mut conn = std::net::TcpStream::connect(&d.addr).expect("connect");
    write!(conn, "GET /jobs/{id}/metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("Retry-After: 1"), "{raw}");
    drop(d);

    // Once deltas exist the job's metrics are the fold of its
    // live.jsonl.
    let d = Daemon::start("partial2", |cfg| cfg.max_running = 1);
    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 202);
    let id = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");
    let (code, jm) = http::request(&d.addr, "GET", &format!("/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(code, 200, "{jm}");
    assert!(jm.contains(&format!("job=\"{id}\"")), "{jm}");
    // A terminal job with no artifacts at all is a 404, not a retry.
    std::fs::remove_file(d.mgr.job_dir(&id).join("live.jsonl")).unwrap();
    let (code, _) = http::request(&d.addr, "GET", &format!("/jobs/{id}/metrics"), None).unwrap();
    assert_eq!(code, 404);
}

#[test]
fn trace_id_flows_from_client_to_log_record_manifest_and_spans() {
    let d = Daemon::start("trace", |_| {});
    let mut client = http::Client::new(&d.addr);
    client.set_trace("tr-e2e-42-0");
    let (code, body) = client.request("POST", "/jobs", Some(&vecops_spec().to_json())).unwrap();
    assert_eq!(code, 202, "{body}");
    let id = json::parse(&body)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .expect("job id");
    let job = d.wait_terminal(&id);
    assert_eq!(job.get("state").and_then(Value::as_str), Some("done"), "{job:?}");

    // 1. The job record carries the client's id.
    assert_eq!(job.get("trace").and_then(Value::as_str), Some("tr-e2e-42-0"), "{job:?}");

    // 2. So does the run manifest…
    let manifest = mptrace::registry::RunManifest::load(d.mgr.job_dir(&id))
        .expect("manifest parses")
        .expect("manifest written");
    assert_eq!(manifest.trace_id, "tr-e2e-42-0");

    // 3. …the run-dir spans (the `trace:<id>` span name)…
    let spans = mixedprec::rundir::load_snapshot(&d.mgr.job_dir(&id)).unwrap().snap.spans;
    assert!(spans.iter().any(|s| s.name == "trace:tr-e2e-42-0"), "{spans:?}");

    // 4. …and the structured daemon log, on both the request record and
    // the job lifecycle records.
    let (records, _) =
        craftd::obs::read_log(&d.data_dir.join(craftd::obs::LOG_FILE)).expect("daemon log reads");
    let has = |event: &str| {
        records.iter().any(|r| {
            r.event == event
                && r.fields.iter().any(|(k, v)| {
                    k == "trace" && *v == craftd::obs::LogField::S("tr-e2e-42-0".into())
                })
        })
    };
    assert!(has("request"), "no request record with the trace id: {records:?}");
    assert!(has("job_queued"), "no intake record with the trace id");
    assert!(has("job_state"), "no lifecycle record with the trace id");

    // A client that sends no id still gets a traceable job: the daemon
    // mints one at intake.
    let (status, resp) = d.submit(&vecops_spec());
    assert_eq!(status, 202);
    let id2 = resp.get("id").and_then(Value::as_str).unwrap().to_string();
    let minted = d.status(&id2).get("trace").and_then(Value::as_str).unwrap_or("").to_string();
    assert!(minted.starts_with("tr-"), "daemon should mint a trace id, got {minted:?}");

    // The unified /metrics exposition holds daemon request telemetry and
    // the per-job series side by side. Reuse the keep-alive client so
    // the reuse counter has something to show.
    let (code, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(code, 200);
    let (code, metrics) = http::request(&d.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("craft_http_requests_total"), "{metrics}");
    assert!(metrics.contains("craft_http_latency_us_bucket"), "{metrics}");
    assert!(metrics.contains("craft_http_keepalive_reuse_total"), "{metrics}");
    assert!(metrics.contains(&format!("job=\"{id}\"")), "{metrics}");
    assert!(metrics.contains("bench=\"vecops\""), "{metrics}");
    assert!(metrics.contains("lattice=\"classic\""), "{metrics}");
}

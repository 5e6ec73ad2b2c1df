//! A job's cost must not grow with what the daemon's data directory has
//! seen. The same run of `vecops s` jobs goes once through a daemon with
//! an empty registry and once through one whose registry index already
//! holds 50,000 entries: the median persist time (from the daemon log:
//! `running` → `done` minus the search's `wall_us`) must stay within
//! twice the empty registry's, and `GET /metrics` must read the same,
//! digits aside, after the 2nd and after the 20th finished job.

use craftd::obs::{self, LogField};
use craftd::{http, DaemonConfig, Server};
use mixedprec::JobSpec;
use mptrace::json::{self, Value};
use mptrace::registry::IndexEntry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const JOBS: usize = 20;
const SEEDED_ENTRIES: usize = 50_000;
/// Jobs after which `/metrics` is scraped.
const SCRAPE_AFTER: [usize; 2] = [2, JOBS];

struct History {
    persist_ms: Vec<f64>,
    scrapes: Vec<String>,
}

/// Write `n` `ep` entries into `data/registry/index.jsonl`, as that many
/// earlier runs would have.
fn seed_registry(data: &Path, n: usize) {
    let dir = data.join("registry");
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    for i in 0..n {
        let entry = IndexEntry {
            id: format!("ep-1700000000-1-{i}"),
            path: data.join("jobs").join(format!("ep-1700000000-1-{i}")),
            bench: "ep".into(),
            created_unix: 1_700_000_000 + i as u64,
            wall_us: 3_000,
            final_pass: true,
        };
        text.push_str(&entry.to_json());
        text.push('\n');
    }
    std::fs::write(dir.join("index.jsonl"), text).unwrap();
}

/// Run `JOBS` `vecops s` jobs one after another through a daemon on
/// `data`, scraping `/metrics` after the jobs in `SCRAPE_AFTER`.
fn run_jobs(data: &Path) -> History {
    let cfg = DaemonConfig {
        data_dir: data.to_path_buf(),
        workers: 1,
        max_running: 1,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    let spec = JobSpec {
        bench: "vecops".into(),
        class: "s".into(),
        threads: Some(1),
        ..Default::default()
    };
    let mut client = http::Client::new(&addr);
    // Every route the loop uses is counted once before the first scrape
    // that is compared.
    let (code, _) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(code, 200);
    let mut ids = Vec::new();
    let mut scrapes = Vec::new();
    for n in 1..=JOBS {
        let (code, body) = client.request("POST", "/jobs", Some(&spec.to_json())).unwrap();
        assert_eq!(code, 202, "{body}");
        let id = json::parse(&body).unwrap().get("id").and_then(Value::as_str).unwrap().to_string();
        let t0 = Instant::now();
        loop {
            let (code, body) = client.request("GET", &format!("/jobs/{id}"), None).unwrap();
            assert_eq!(code, 200, "{body}");
            let state = json::parse(&body)
                .unwrap()
                .get("state")
                .and_then(Value::as_str)
                .map(str::to_string);
            match state.as_deref() {
                Some("done") => break,
                Some("queued" | "running") => {}
                other => panic!("job {id} ended {other:?}: {body}"),
            }
            assert!(t0.elapsed() < Duration::from_secs(120), "job {id} stuck");
            std::thread::sleep(Duration::from_millis(5));
        }
        ids.push(id);
        if SCRAPE_AFTER.contains(&n) {
            let (code, text) = client.request("GET", "/metrics", None).unwrap();
            assert_eq!(code, 200);
            scrapes.push(text);
        }
    }
    drop(client);
    stop.store(true, Ordering::SeqCst);
    thread.join().unwrap();

    let (records, warn) = obs::read_log(&data.join(obs::LOG_FILE)).expect("daemon log reads");
    assert!(warn.is_none(), "{warn:?}");
    let field = |r: &obs::LogRecord, key: &str| {
        r.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    // job id → (running t_us, done t_us, wall_us)
    let mut stages: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.event == "job_state") {
        let Some(LogField::S(job)) = field(r, "job") else { continue };
        let e = stages.entry(job).or_default();
        match field(r, "state") {
            Some(LogField::S(s)) if s == "running" => e.0 = r.t_us,
            Some(LogField::S(s)) if s == "done" => {
                e.1 = r.t_us;
                if let Some(LogField::U(w)) = field(r, "wall_us") {
                    e.2 = w;
                }
            }
            _ => {}
        }
    }
    let persist_ms = ids
        .iter()
        .map(|id| {
            let &(running, done, wall) = stages.get(id).expect("job in the daemon log");
            assert!(running > 0 && done >= running, "{id}: {:?}", stages[id]);
            (done - running) as f64 / 1e3 - wall as f64 / 1e3
        })
        .collect();
    History { persist_ms, scrapes }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The scrape's lines with every run of digits masked, deduplicated: two
/// scrapes that differ only in their numbers (counter values, histogram
/// bucket bounds) have the same mask.
fn masked(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|line| {
            let mut out = String::with_capacity(line.len());
            for c in line.chars() {
                if !c.is_ascii_digit() {
                    out.push(c);
                } else if !out.ends_with('#') {
                    out.push('#');
                }
            }
            out
        })
        .collect()
}

#[test]
fn per_job_cost_and_metrics_do_not_grow_with_history() {
    let base = std::env::temp_dir().join(format!("craftd-history-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let empty = run_jobs(&base.join("empty"));
    seed_registry(&base.join("seeded"), SEEDED_ENTRIES);
    let seeded = run_jobs(&base.join("seeded"));
    let _ = std::fs::remove_dir_all(&base);

    let (p_empty, p_seeded) = (median(&empty.persist_ms), median(&seeded.persist_ms));
    assert!(
        p_seeded <= 2.0 * p_empty,
        "persist p50 {p_seeded:.2} ms with {SEEDED_ENTRIES} registry entries vs \
         {p_empty:.2} ms on an empty registry\nseeded: {:?}\nempty: {:?}",
        seeded.persist_ms,
        empty.persist_ms
    );

    for h in [&empty, &seeded] {
        let [early, late] = [&h.scrapes[0], &h.scrapes[1]];
        for text in [early, late] {
            assert!(!text.contains("job=\""), "per-job series in /metrics:\n{text}");
        }
        assert_eq!(masked(early), masked(late), "/metrics after 2 vs {JOBS} jobs");
        assert!(
            late.len() < early.len() * 3 / 2,
            "/metrics grew from {} to {} bytes",
            early.len(),
            late.len()
        );
    }
}

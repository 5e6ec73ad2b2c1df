//! `craft-e2e --smoke`: one round per search workload and three daemon
//! jobs, both passes. Every declared metric must be printed for every
//! workload, every printed name must be well formed, and no search, job
//! or replayed evaluation may fail.

use mptrace::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["search-s", "search-w", "lattice-s", "daemon"];

fn declared(key: &str) -> Vec<String> {
    let v = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    v.get(key)
        .and_then(Value::as_arr)
        .expect(key)
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn smoke_prints_every_metric_and_nothing_fails() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_craft-e2e"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run craft-e2e --smoke");
    let elapsed = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    // `name workload value unit`, from both passes of every workload.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut lines = stdout.lines().collect::<Vec<_>>();
    let last = lines.pop().expect("a result line");
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(fields.len() >= 4, "malformed metric line {line:?}");
        assert!(well_formed(fields[0]), "malformed metric name in {line:?}");
        assert!(WORKLOADS.contains(&fields[1]), "unknown workload in {line:?}");
        let value: f64 = fields[2].parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        if matches!(fields[0], "fail_frac" | "fpvm.replay_mismatch") {
            assert_eq!(value, 0.0, "{line}");
        }
        seen.insert((fields[0].to_string(), fields[1].to_string()));
    }
    for w in WORKLOADS {
        for name in declared("end_to_end").iter().chain(&declared("per_layer")) {
            assert!(seen.contains(&(name.clone(), w.to_string())), "{name} not printed for {w}");
        }
        assert!(seen.contains(&("fail_frac".to_string(), w.to_string())), "no fail_frac for {w}");
    }
    for w in ["search-s", "search-w", "lattice-s"] {
        let key = ("fpvm.replay_mismatch".to_string(), w.to_string());
        assert!(seen.contains(&key), "no replay check for {w}");
    }
    let result = json::parse(last).expect("result line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{last}");
    assert!(elapsed < Duration::from_secs(30), "smoke run took {elapsed:?}");
}

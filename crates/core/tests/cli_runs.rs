//! End-to-end tests of the run-registry workflow through the real
//! `craft` binary: a traced analysis must leave a complete run
//! directory behind, `compare` must be deterministic and clean against
//! itself, and an injected per-instruction cycle regression must be
//! attributed to the right function and fail the gate.

use mptrace::delta::TraceDelta;
use mptrace::snapshot::TraceSnapshot;
use mptrace::stream::{LiveLine, LiveLog, LIVE_META};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn craft(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_craft")).args(args).output().expect("craft binary should run")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// A scratch directory under the target tmpdir, wiped on entry so
/// repeated test runs start clean.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a traced class-S analysis into `<root>/run` with the registry at
/// `<root>/registry`, returning the run directory.
fn traced_run(root: &Path) -> PathBuf {
    let run = root.join("run");
    let reg = root.join("registry");
    let out = craft(&[
        "analyze",
        "vecops",
        "s",
        &format!("--trace={}", run.display()),
        &format!("--registry={}", reg.display()),
    ]);
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    run
}

#[test]
fn traced_run_streams_and_registers() {
    let root = scratch("cli-traced-run");
    let run = traced_run(&root);

    for f in ["events.jsonl", "live.jsonl", "decisions.jsonl", "manifest.json"] {
        assert!(run.join(f).is_file(), "run directory missing {f}");
    }
    assert!(!run.join("trace.jsonl").exists(), "the trace is live.jsonl's fold alone");

    // The live stream must parse cleanly and end in a drained `done`
    // progress record consistent with the manifest's summary.
    let log = LiveLog::from_file(run.join("live.jsonl")).unwrap();
    assert!(log.warning.is_none(), "unexpected warning: {:?}", log.warning);
    let last = log.latest_progress().expect("live stream has progress records");
    assert_eq!(last.progress.phase, "done");
    assert_eq!(last.progress.queue_depth, 0);
    assert_eq!(last.progress.in_flight, 0);

    let manifest = mptrace::registry::RunManifest::load(&run).unwrap().expect("manifest exists");
    assert_eq!(manifest.bench, "vecops");
    assert_eq!(manifest.class, "s");
    assert_eq!(manifest.config_hash.len(), 16);
    let summary = manifest.summary.expect("manifest carries a search summary");
    assert!(summary.final_pass);
    assert_eq!(last.progress.done, summary.tested as u64);

    // The registry index lists the run, and `craft runs` renders it.
    let reg_arg = format!("--registry={}", root.join("registry").display());
    let runs = craft(&["runs", &reg_arg]);
    assert!(runs.status.success());
    assert!(stdout(&runs).contains(&manifest.id), "craft runs omits the recorded id");

    // `craft watch` replays the finished stream (registry `latest`
    // resolution and the explicit path must agree).
    for target in [run.display().to_string(), "latest".into()] {
        let watch = craft(&["watch", &target, &reg_arg]);
        assert!(watch.status.success(), "watch {target} failed");
        let text = stdout(&watch);
        assert!(text.contains("phase timeline"), "watch output missing timeline:\n{text}");
        assert!(text.contains("done"), "watch output missing done phase:\n{text}");
    }
}

#[test]
fn report_degrades_gracefully_on_partial_run_dirs() {
    let root = scratch("cli-partial-report");
    let run = traced_run(&root);

    // Full directory reports everything.
    let full = craft(&["report", &run.display().to_string()]);
    assert!(full.status.success());
    assert!(stdout(&full).contains("event log"));
    assert!(stdout(&full).contains("trace"));
    assert!(stdout(&full).contains("worker idle : "), "idle share missing");

    // Without events.jsonl the report still renders manifest + trace
    // and names the missing artifact instead of failing.
    std::fs::remove_file(run.join("events.jsonl")).unwrap();
    let partial = craft(&["report", &run.display().to_string()]);
    assert!(partial.status.success(), "partial run dir must still report");
    let text = stdout(&partial);
    assert!(text.contains("summary"), "manifest summary missing:\n{text}");
    assert!(text.contains("absent from run directory"), "absence note missing:\n{text}");
    assert!(text.contains("events.jsonl"), "missing artifact not named:\n{text}");

    // An empty directory has nothing to report: runtime error, exit 1.
    let empty = root.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let nothing = craft(&["report", &empty.display().to_string()]);
    assert_eq!(nothing.status.code(), Some(1));
}

#[test]
fn compare_self_is_clean_and_deterministic() {
    let root = scratch("cli-compare-self");
    let run = traced_run(&root);
    let run = run.display().to_string();

    let first = craft(&["compare", &run, &run]);
    let second = craft(&["compare", &run, &run]);
    assert!(first.status.success(), "self-compare must exit 0");
    assert_eq!(stdout(&first), stdout(&second), "self-compare must be byte-identical");
    let text = stdout(&first);
    assert!(text.contains("no regressions"), "unexpected self-compare verdict:\n{text}");
    assert!(text.contains("counters (0 changed)"), "self-compare found counter drift:\n{text}");
}

#[test]
fn injected_cycle_regression_is_attributed_and_gates() {
    let root = scratch("cli-compare-inject");
    let run_a = traced_run(&root);

    // Clone the run's trace and inject +50k interpreter cycles into two
    // hot instructions of vecops' main function.
    let run_b = root.join("run-b");
    std::fs::create_dir_all(&run_b).unwrap();
    let mut snap = LiveLog::from_file(run_a.join("live.jsonl")).unwrap().final_snapshot();
    let mut bumped = 0;
    for h in &mut snap.hot {
        if h.label.contains("/main/") && bumped < 2 {
            h.cycles += 50_000;
            bumped += 1;
        }
    }
    assert_eq!(bumped, 2, "expected at least two labelled hot insns in vecops/main");
    // The bumped trace, streamed as one delta from empty.
    let delta = TraceDelta::between(&TraceSnapshot::default(), &snap, 1, 0);
    let line = LiveLine::Delta { delta }.to_json();
    std::fs::write(run_b.join("live.jsonl"), format!("{LIVE_META}\n{line}\n")).unwrap();

    let a = run_a.display().to_string();
    let b = run_b.display().to_string();
    let out = craft(&["compare", &a, &b]);
    assert_eq!(out.status.code(), Some(1), "injected regression must fail the gate");
    let text = stdout(&out);
    assert!(
        text.contains("function vecops.s/main: +100000 cycles"),
        "delta not attributed to vecops.s/main:\n{text}"
    );
    assert!(text.contains("2 insn(s) affected"), "wrong insn count:\n{text}");
    assert!(text.contains("REGRESSION"), "verdict section missing regression:\n{text}");

    // --warn-only reports the same text but exits 0, and the reverse
    // direction (B -> A) is an improvement, not a regression.
    let warn = craft(&["compare", &a, &b, "--warn-only"]);
    assert!(warn.status.success(), "--warn-only must not gate");
    let reverse = craft(&["compare", &b, &a]);
    assert!(reverse.status.success(), "an improvement must pass the gate");
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A misspelt flag must not run a search without the option it meant.
    let out = craft(&["analyze", "vecops", "s", "--second_phase"]);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{}", stdout(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--second_phase"));
    assert!(stdout(&out).is_empty(), "no search may run");
    // The shared flags are one table: `analyze` accepts what `submit`
    // does, and validates it the same way.
    let bad_depth = craft(&["analyze", "vecops", "s", "--stop-depth=x"]);
    assert_eq!(bad_depth.status.code(), Some(2));
    let tested = |extra: &[&str]| {
        let out = craft(&[&["analyze", "ep", "s", "--threads=1"], extra].concat());
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = stdout(&out);
        let line = text.lines().find_map(|l| l.strip_prefix("configurations tested: "));
        line.expect("tested line").parse::<usize>().unwrap()
    };
    assert!(tested(&["--max-tests=1"]) < tested(&[]), "--max-tests was ignored");
}

#[test]
fn lean_is_not_a_flag() {
    // Every search verifies on lean snippets; there is nothing to switch.
    let out = craft(&["analyze", "ep", "s", "--lean"]);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{}", stdout(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--lean`"));
    assert!(stdout(&out).is_empty(), "no search may run");
}

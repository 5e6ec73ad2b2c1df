//! The CLI and the daemon write the same run directory: one `vecops s`
//! search run as a `craftd` job (in-process `JobManager`) and once the
//! way `craft analyze --trace=DIR` runs it (`AnalysisSystem` plus
//! `mixedprec::rundir`) must leave the same artifacts, the same search
//! record and decision records byte for byte, the same manifest up to
//! its run identity (the build's revision included), and the same
//! counter names in the trace folded from `live.jsonl`. In each
//! directory `decisions.jsonl` is the fold of that directory's own
//! `events.jsonl`, and no `trace.jsonl` is written.

use craftd::{DaemonConfig, JobManager, JobState};
use mixedprec::rundir::{self, RunDir};
use mixedprec::{AnalysisSystem, JobSpec};
use mpconfig::Config;
use mpsearch::decisions;
use mpsearch::events::Event;
use mptrace::registry::RunManifest;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// The artifact names in `dir`, minus the daemon's own job files.
fn artifacts(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !matches!(n.as_str(), "job.json" | "status.json"))
        .collect()
}

/// The manifest with its run identity (id, times, trace id) masked.
fn masked_manifest(dir: &Path) -> RunManifest {
    let m = RunManifest::load(dir).expect("manifest parses").expect("manifest written");
    RunManifest { id: String::new(), created_unix: 0, wall_us: 0, trace_id: String::new(), ..m }
}

fn counter_names(dir: &Path) -> Vec<String> {
    rundir::load_snapshot(dir).expect("trace folds").snap.counters.into_keys().collect()
}

/// `dir`'s `events.jsonl` folded into decision records, as JSONL.
fn folded_decisions(dir: &Path, sys: &AnalysisSystem, final_config: &Config) -> Vec<u8> {
    let text = std::fs::read_to_string(dir.join(rundir::EVENTS_FILE)).unwrap();
    let events = text.lines().map(|l| Event::parse(l).expect("event line parses"));
    let folded = decisions::fold(sys.tree(), sys.base_config(), final_config, events);
    decisions::to_jsonl(&folded).into_bytes()
}

#[test]
fn cli_and_daemon_write_the_same_run_directory() {
    let root = std::env::temp_dir().join(format!("craftd-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = JobSpec {
        bench: "vecops".into(),
        class: "s".into(),
        threads: Some(1),
        ..Default::default()
    };

    // The daemon path.
    let mgr = JobManager::start(DaemonConfig {
        data_dir: root.join("daemon"),
        workers: 1,
        max_running: 1,
        ..Default::default()
    })
    .expect("daemon starts");
    let id = mgr.submit(spec.clone(), None).expect("job accepted");
    let t0 = Instant::now();
    let job = loop {
        let job = mgr.job(&id).expect("job known");
        if job.state.is_terminal() {
            break job;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "job stuck in {:?}", job.state);
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(job.state, JobState::Done, "{:?}", job.error);
    mgr.drain();
    mgr.wait_drained();
    let daemon_dir = mgr.job_dir(&id);

    // The `craft analyze --trace=DIR` path.
    let cli_dir = root.join("cli");
    let mut sys = AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
    let run = RunDir::create(&cli_dir, &mut sys).expect("run dir opens");
    let rec = sys.recommend_with(&run.hooks("vecops.s".into()));
    let stamp = RunManifest { id: "cli".into(), ..Default::default() };
    let done = run.finish(&spec, &sys, &rec, stamp);
    assert_eq!((done.decisions_error, done.manifest_error), (None, None));

    assert_eq!(artifacts(&cli_dir), artifacts(&daemon_dir));
    assert!(!artifacts(&cli_dir).contains("trace.jsonl"));
    let read = |dir: &Path, file: &str| std::fs::read(dir.join(file)).unwrap();
    let decisions = |dir: &Path| read(dir, rundir::DECISIONS_FILE);
    assert!(!decisions(&cli_dir).is_empty());
    assert!(decisions(&cli_dir) == decisions(&daemon_dir), "decisions.jsonl differs");
    let events = |dir: &Path| read(dir, rundir::EVENTS_FILE);
    assert!(events(&cli_dir) == events(&daemon_dir), "events.jsonl differs");
    assert_eq!(masked_manifest(&cli_dir), masked_manifest(&daemon_dir));
    assert_eq!(masked_manifest(&daemon_dir).git, rundir::GIT);
    // The manifests' equal config hashes make the CLI's final
    // configuration the job's too.
    for dir in [&cli_dir, &daemon_dir] {
        let folded = folded_decisions(dir, &sys, &rec.report.final_config);
        assert!(decisions(dir) == folded, "{}: decisions.jsonl is not its fold", dir.display());
    }
    let names = counter_names(&cli_dir);
    assert!(names.iter().any(|n| n.starts_with("search.replaced.")), "{names:?}");
    assert_eq!(names, counter_names(&daemon_dir));
    let _ = std::fs::remove_dir_all(&root);
}

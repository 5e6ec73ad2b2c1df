//! A run's trace is the fold of its `live.jsonl`, so the stream must end
//! on exactly what the tracer recorded: every span, counter, gauge,
//! histogram and hot instruction, including the counters created at
//! zero, the `fp.*` family and `num_health` span folded in after the
//! search, and the `search.replaced.<tok>` counters added at finish.

use mixedprec::rundir::{self, RunDir};
use mixedprec::{AnalysisSystem, JobSpec};
use mptrace::registry::RunManifest;
use std::path::Path;

fn spec(bench: &str) -> JobSpec {
    JobSpec { bench: bench.into(), class: "s".into(), threads: Some(1), ..Default::default() }
}

#[test]
fn live_stream_folds_to_the_final_trace_on_every_nas_bench() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("live-trace");
    let _ = std::fs::remove_dir_all(&root);
    let armed = JobSpec {
        lattice: "s,b".into(),
        shadow_priority: true,
        shadow_prune: true,
        second_phase: true,
        num_health: true,
        ..spec("ep")
    };
    let specs = ["bt", "cg", "ep", "ft", "lu", "mg", "sp"].map(spec);
    for (i, spec) in specs.iter().chain([&armed]).enumerate() {
        let dir = root.join(format!("{i}-{}", spec.bench));
        let mut sys =
            AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
        let run = RunDir::create(&dir, &mut sys).unwrap();
        let tracer = run.tracer().clone();
        let rec = sys.recommend_with(&run.hooks(format!("{}.s", spec.bench)));
        let done = run.finish(spec, &sys, &rec, RunManifest::default());
        let at_finish = tracer.snapshot();
        let folded = rundir::load_snapshot(&dir).unwrap();
        assert_eq!(folded.warning, None, "{}", spec.bench);
        assert!(folded.snap == at_finish, "{}: live.jsonl does not fold to the trace", spec.bench);
        assert!(done.snapshot == at_finish, "{}: finish returned another trace", spec.bench);
        assert!(at_finish.counters.keys().any(|k| k.starts_with("search.replaced.")));
        assert!(!dir.join("trace.jsonl").exists());
    }
    let armed = rundir::load_snapshot(&root.join("7-ep")).unwrap().snap;
    assert!(armed.counters.contains_key("fp.result"), "{:?}", armed.counters.keys());
    assert!(armed.spans.iter().any(|s| s.name == "num_health"));
    let _ = std::fs::remove_dir_all(&root);
}

//! The search record is the planner's: a search writes the same
//! `events.jsonl` bytes at any worker count. Each case is a class-S
//! search run in process through `search_observed` at 1, 2 and 4
//! threads, twice each, and every record must equal the first serial
//! one byte for byte.

use mixedprec::{AnalysisSystem, JobSpec};
use mpsearch::{search_observed, EventLog, SearchHooks, SearchOptions, ShadowOracle, VmEvaluator};

/// The record of `sys`'s search at `threads` workers, with the
/// shadow oracle over `shadow` attached if `sys` prunes.
fn record(sys: &AnalysisSystem, shadow: &mpshadow::SensitivityProfile, threads: usize) -> String {
    let (w, opts) = (sys.workload(), sys.options());
    let mut eval = VmEvaluator::with_options(
        w.program(),
        sys.tree(),
        w.reference_stats().steps,
        w.vm_opts(),
        opts.rewrite.clone(),
        w.verifier(),
    );
    eval.set_backend(opts.backend);
    let shadow = opts.shadow.prune.then_some(ShadowOracle {
        profile: shadow,
        prioritize: opts.shadow.prioritize,
        prune_threshold: Some(w.tol * opts.shadow.prune_margin),
    });
    let (log, buf) = EventLog::in_memory();
    let hooks =
        SearchHooks { bench: "case".into(), events: Some(&log), shadow, ..Default::default() };
    let search = SearchOptions { threads, ..opts.search.clone() };
    search_observed(sys.tree(), sys.base_config(), Some(sys.profile()), &eval, &search, &hooks);
    drop(log);
    let bytes = buf.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap()
}

fn assert_thread_count_invariant(spec: JobSpec) {
    let sys = AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
    let shadow = sys.shadow_profile();
    let serial = record(&sys, &shadow, 1);
    assert!(serial.lines().filter(|l| l.starts_with("{\"ev\":\"trial\"")).count() > 1);
    for threads in [1, 2, 4] {
        for round in 0..2 {
            let got = record(&sys, &shadow, threads);
            assert!(
                got == serial,
                "{} {}: the record at {threads} threads (round {round}) differs from the \
                 serial one:\n{got}\n--- serial ---\n{serial}",
                spec.bench,
                spec.lattice
            );
        }
    }
}

#[test]
fn cg_s_lattice_record_is_the_same_at_any_thread_count() {
    assert_thread_count_invariant(JobSpec {
        bench: "cg".into(),
        class: "s".into(),
        lattice: "s,b".into(),
        shadow_prune: true,
        second_phase: true,
        ..Default::default()
    });
}

#[test]
fn ep_s_classic_record_is_the_same_at_any_thread_count() {
    assert_thread_count_invariant(JobSpec {
        bench: "ep".into(),
        class: "s".into(),
        ..Default::default()
    });
}

//! An injected worker panic is absorbed silently: the executor unwinds it
//! without the panic hook, so `--inject-panic` prints nothing, while a
//! real panic still reaches the hook. This suite installs a process-wide
//! hook, so it is a test binary of its own.

use mixedprec::{AnalysisSystem, JobSpec};
use mpsearch::{search_observed, FaultPlan, SearchHooks, SearchOptions, VmEvaluator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn injected_panics_skip_the_hook_and_keep_the_verdicts() {
    let (seen, injected) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (s, i) = (Arc::clone(&seen), Arc::clone(&injected));
    std::panic::set_hook(Box::new(move |info| {
        s.fetch_add(1, Ordering::Relaxed);
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("injected") {
            i.fetch_add(1, Ordering::Relaxed);
        }
    }));

    let spec = JobSpec { bench: "cg".into(), class: "s".into(), ..Default::default() };
    let sys = AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
    let w = sys.workload();
    let eval = VmEvaluator::with_options(
        w.program(),
        sys.tree(),
        w.reference_stats().steps,
        w.vm_opts(),
        sys.options().rewrite.clone(),
        w.verifier(),
    );
    let opts = SearchOptions { threads: 1, ..sys.options().search.clone() };
    let run = |faults: FaultPlan| {
        let hooks = SearchHooks { faults, ..Default::default() };
        search_observed(sys.tree(), sys.base_config(), Some(sys.profile()), &eval, &opts, &hooks)
    };
    let clean = run(FaultPlan::default());
    let faulted = run(FaultPlan { panic_at: vec![1, 2], ..Default::default() });

    assert_eq!(faulted.crashes, 2, "each injected panic is one Crashed attempt");
    assert_eq!(faulted.final_config, clean.final_config);
    assert_eq!(faulted.configs_tested, clean.configs_tested);
    assert_eq!(faulted.final_pass, clean.final_pass);
    assert_eq!(injected.load(Ordering::Relaxed), 0, "an injected panic reached the hook");

    // A real panic still goes through the hook.
    let before = seen.load(Ordering::Relaxed);
    let _ = std::panic::catch_unwind(|| panic!("a real panic"));
    assert_eq!(seen.load(Ordering::Relaxed), before + 1);
    let _ = std::panic::take_hook();
}

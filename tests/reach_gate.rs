//! The reach analysis misses nothing on any shipped workload.
//!
//! Every class-S search the system ships (the 7 NAS benches, amg, slu,
//! mathmix and vecops) runs classic, with `--lattice=s,b`, and with
//! `s,b --second-phase`, at one thread. A bare candidate that consumes a
//! replaced value traps and its trial is rerun fully instrumented, so a
//! miss never changes a verdict, but it costs a second run: the gate is
//! zero misses. Each search's full reruns are printed by trap kind (run
//! with `--nocapture` to see them).

use mixedprec::jobspec::BENCHES;
use mixedprec::{AnalysisSystem, JobSpec};
use mpsearch::{search, Evaluator, VmEvaluator};

fn spec(bench: &str, lattice: &str, second_phase: bool) -> JobSpec {
    JobSpec {
        bench: bench.to_string(),
        class: "s".into(),
        threads: Some(1),
        lattice: lattice.to_string(),
        second_phase,
        ..Default::default()
    }
}

#[test]
fn no_shipped_class_s_search_misses_a_reached_candidate() {
    let mut misses = Vec::new();
    for bench in BENCHES {
        for (mode, lattice, second) in
            [("classic", "", false), ("s,b", "s,b", false), ("s,b 2nd", "s,b", true)]
        {
            let spec = spec(bench, lattice, second);
            let sys =
                AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
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
            search(sys.tree(), sys.base_config(), Some(sys.profile()), &eval, &opts.search);
            println!("{bench:<8} {mode:<8} full reruns: {:?}", eval.full_reruns());
            let n = eval.stats().reach_misses;
            if n != 0 {
                misses.push(format!("{bench} {mode}: {n} reach misses"));
            }
        }
    }
    assert!(misses.is_empty(), "{misses:#?}");
}

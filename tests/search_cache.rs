//! The search's verdict store: a trial whose configuration an earlier
//! trial settled is answered without a run, and `cache_hits` counts
//! those trials in the planner's order. So the count depends on
//! verdicts alone: it is the same at any thread count, and a per-run
//! fuel limit that never binds changes nothing.

use mixedprec::{AnalysisOptions, AnalysisSystem, EvalMiddleware, WrapCtx};
use mpconfig::{parse_lattice, Config, StructureTree};
use mpsearch::{EvalOutcome, Evaluator, RunControl, SearchOptions, SearchReport};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use workloads::{nas, Class, Workload};

/// Records the replacement key of every configuration that runs.
#[derive(Default)]
struct Keys(Mutex<Vec<Vec<u64>>>);

impl EvalMiddleware for Keys {
    fn wrap<'a>(&'a self, inner: &'a dyn Evaluator, ctx: &WrapCtx<'a>) -> Box<dyn Evaluator + 'a> {
        Box::new(KeyEval { inner, tree: ctx.tree, keys: self })
    }
}

struct KeyEval<'a> {
    inner: &'a dyn Evaluator,
    tree: &'a StructureTree,
    keys: &'a Keys,
}

impl Evaluator for KeyEval<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        self.keys.0.lock().unwrap().push(cfg.replacement_key(self.tree));
        self.inner.evaluate_run(cfg, ctl)
    }
}

type Make = fn(Class) -> Workload;

const BENCHES: [(&str, Make); 2] = [("ep", nas::ep), ("cg", nas::cg)];
const LATTICES: [&str; 2] = ["s", "s,b"];

/// One class-S search of `make` with `search` options, and the keys of
/// the configurations it ran.
fn run(make: Make, search: SearchOptions) -> (SearchReport, Vec<Vec<u64>>) {
    let opts = AnalysisOptions { search, ..Default::default() };
    let mut sys = AnalysisSystem::with_options(make(Class::S), opts);
    let keys = Arc::new(Keys::default());
    sys.set_middleware(keys.clone(), String::new());
    let report = sys.run_search();
    let keys = std::mem::take(&mut *keys.0.lock().unwrap());
    (report, keys)
}

fn options(threads: usize, lattice: &str) -> SearchOptions {
    SearchOptions {
        lattice: parse_lattice(lattice).unwrap(),
        ..SearchOptions::with_threads(threads)
    }
}

#[test]
fn cache_hits_count_repeated_keys_at_any_thread_count() {
    for (name, make) in BENCHES {
        for lattice in LATTICES {
            let (serial, ran) = run(make, options(1, lattice));
            // Serially, every trial whose key is new runs once, and
            // every other one is a repeat: settled trials are the tested
            // configurations.
            let distinct: HashSet<&Vec<u64>> = ran.iter().collect();
            assert_eq!(distinct.len(), ran.len(), "{name} {lattice}: a key ran twice");
            let repeats = serial.configs_tested - ran.len();
            assert_eq!(serial.cache_hits, repeats, "{name} {lattice}");
            for threads in [2, 4] {
                let (par, _) = run(make, options(threads, lattice));
                assert_eq!(par.cache_hits, repeats, "{name} {lattice} threads={threads}");
                assert_eq!(par.figure10_row(name), serial.figure10_row(name));
                assert_eq!(par.final_config, serial.final_config);
            }
        }
    }
}

#[test]
fn a_fuel_limit_that_never_binds_changes_no_verdict_and_no_hit() {
    for (name, make) in BENCHES {
        for lattice in LATTICES {
            let (free, _) = run(make, options(1, lattice));
            let mut limited = options(1, lattice);
            limited.exec.fuel_limit = Some(1_000_000_000);
            let (capped, _) = run(make, limited);
            assert_eq!(capped.figure10_row(name), free.figure10_row(name), "{name} {lattice}");
            assert_eq!(capped.final_config, free.final_config, "{name} {lattice}");
            assert_eq!(capped.cache_hits, free.cache_hits, "{name} {lattice}");
        }
    }
    // The union repeats a passing trial on ep.s.
    assert!(run(nas::ep, options(1, "s")).0.cache_hits > 0);
}

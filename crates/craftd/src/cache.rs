//! The cross-job verdict cache.
//!
//! One [`SharedEvalCache`] lives for the daemon's whole life. It holds
//! one [`VerdictStore`] per [`JobSpec::cache_namespace`](mixedprec::JobSpec),
//! and each job's search settles its trials from, and adds its verdicts
//! to, the store of its namespace. Re-submitting a job, or submitting a
//! variant that retreads part of the search space, then answers most
//! trials without running anything. Store keys pack each replaced
//! instruction's format with its id
//! ([`mpconfig::Config::replacement_key`]), so jobs with different
//! lattices share one namespace.

use mpsearch::VerdictStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The daemon's verdict stores, one per cache namespace.
#[derive(Default)]
pub struct SharedEvalCache {
    stores: Mutex<HashMap<String, Arc<VerdictStore>>>,
}

impl SharedEvalCache {
    /// A fresh, empty cache.
    pub fn new() -> SharedEvalCache {
        SharedEvalCache::default()
    }

    /// The store of `namespace`, created empty on first use.
    pub fn store(&self, namespace: &str) -> Arc<VerdictStore> {
        Arc::clone(self.lock().entry(namespace.to_string()).or_default())
    }

    /// Trials answered from a store, across all jobs.
    pub fn hits(&self) -> u64 {
        self.lock().values().map(|s| s.hits()).sum()
    }

    /// Trials that found no stored verdict and ran, across all jobs.
    pub fn misses(&self) -> u64 {
        self.lock().values().map(|s| s.misses()).sum()
    }

    /// Verdicts currently held, across all namespaces.
    pub fn entries(&self) -> usize {
        self.lock().values().map(|s| s.entries()).sum()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<VerdictStore>>> {
        self.stores.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpconfig::{Config, StructureTree};
    use mpsearch::{search_observed, Evaluator, FaultPlan, SearchHooks, SearchOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Passes every configuration; counts the runs that reach it.
    struct CountingEval {
        calls: AtomicUsize,
    }

    impl Evaluator for CountingEval {
        fn evaluate(&self, _cfg: &Config) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    fn tree() -> StructureTree {
        let w = workloads::vecops::vecops(workloads::Class::S);
        StructureTree::build(w.program())
    }

    /// One serial search over `store` under `faults`: its cache hits.
    fn search_with(
        tree: &StructureTree,
        eval: &CountingEval,
        store: &VerdictStore,
        faults: FaultPlan,
    ) -> usize {
        let hooks = SearchHooks { verdicts: Some(store), faults, ..Default::default() };
        let opts = SearchOptions::with_threads(1);
        search_observed(tree, &Config::new(), None, eval, &opts, &hooks).cache_hits
    }

    fn search(tree: &StructureTree, eval: &CountingEval, store: &VerdictStore) -> usize {
        search_with(tree, eval, store, FaultPlan::default())
    }

    #[test]
    fn a_second_search_in_the_same_namespace_runs_nothing() {
        let (tree, cache) = (tree(), SharedEvalCache::new());
        let eval = CountingEval { calls: AtomicUsize::new(0) };
        // Everything passes: the whole program, then the union, which
        // repeats it.
        assert_eq!(search(&tree, &eval, &cache.store("ep.s|default")), 1);
        assert_eq!(eval.calls.load(Ordering::Relaxed), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));
        // A second job answers both trials from the first one's verdict.
        assert_eq!(search(&tree, &eval, &cache.store("ep.s|default")), 2);
        assert_eq!(eval.calls.load(Ordering::Relaxed), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (3, 1, 1));
    }

    #[test]
    fn namespaces_do_not_share_entries() {
        let (tree, cache) = (tree(), SharedEvalCache::new());
        let eval = CountingEval { calls: AtomicUsize::new(0) };
        assert_eq!(search(&tree, &eval, &cache.store("a")), 1);
        assert_eq!(search(&tree, &eval, &cache.store("b")), 1);
        assert_eq!(eval.calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.entries(), 2);
        assert!(Arc::ptr_eq(&cache.store("a"), &cache.store("a")));
    }

    #[test]
    fn starved_runs_are_not_stored() {
        let (tree, cache) = (tree(), SharedEvalCache::new());
        let eval = CountingEval { calls: AtomicUsize::new(0) };
        let store = cache.store("n");
        // Both trials' only attempts are starved: their verdicts are
        // the fault's, so neither is stored, and the union runs again.
        let starved = FaultPlan { fuel_starve_at: vec![0, 1], ..Default::default() };
        assert_eq!(search_with(&tree, &eval, &store, starved), 1);
        assert_eq!(eval.calls.load(Ordering::Relaxed), 2);
        assert_eq!((store.hits(), store.misses(), store.entries()), (0, 2, 0));
    }
}

//! The verdict store: the one memo of configuration verdicts.
//!
//! Distinct configurations often instrument identically: the union
//! repeats a passing trial, binary splitting re-derives a child's set
//! when its sibling partition is empty, and the second phase retests
//! subsets (§2.2, §3.1). The search driver settles such a trial from
//! the store without running it.
//!
//! Entries are keyed by [`Config::replacement_key`](mpconfig::Config):
//! the replaced instructions, each with its format. Within one search
//! every trial shares one base configuration, so two equal keys
//! instrument the same program and get the same verdict. Across
//! searches that holds only when everything else that decides a verdict
//! (program, tolerance, fuel limit, backend) is equal too: the `craftd`
//! daemon keeps one store per such namespace.

use crate::executor::Verdict;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Verdicts keyed by replacement key, each with the fuel its run spent
/// and the search that stored it. Only deterministic verdicts go in
/// (see [`Outcome::deterministic`](crate::Outcome)).
#[derive(Default)]
pub struct VerdictStore {
    map: Mutex<HashMap<Vec<u64>, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerdictStore {
    /// A fresh, empty store.
    pub fn new() -> VerdictStore {
        VerdictStore::default()
    }

    /// The verdict stored for `key` with its run's steps, and whether a
    /// search other than `search` stored it.
    pub(crate) fn get(&self, key: &[u64], search: u64) -> Option<(Verdict, u64, bool)> {
        let found = self.lock().get(key).map(|e| (e.verdict, e.steps, e.search != search));
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store `search`'s verdict for `key`, with the steps its run spent;
    /// the first one stored stays.
    pub(crate) fn put(&self, key: Vec<u64>, verdict: Verdict, steps: u64, search: u64) {
        self.lock().entry(key).or_insert(Entry { verdict, steps, search });
    }

    /// Lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing: each one ran its configuration.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Verdicts held.
    pub fn entries(&self) -> usize {
        self.lock().len()
    }

    /// A worker that panicked mid-lookup leaves whole entries behind.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<u64>, Entry>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One stored verdict.
struct Entry {
    verdict: Verdict,
    steps: u64,
    search: u64,
}

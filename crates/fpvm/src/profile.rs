//! Execution profiles: per-instruction execution counts.
//!
//! The search's second optimization (§2.2) prioritizes configurations that
//! replace the most frequently *executed* instructions, which requires an
//! initial profiling run; and the "dynamic replacement %" column of the
//! paper's Fig. 10 is computed from the same counts.

use crate::isa::InsnId;

/// Per-instruction execution counts, indexed by [`InsnId`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    counts: Vec<u64>,
}

impl Profile {
    /// Create a profile able to hold ids below `bound`.
    pub fn new(bound: usize) -> Self {
        Profile { counts: vec![0; bound] }
    }

    /// Record one execution of `id`.
    #[inline]
    pub fn bump(&mut self, id: InsnId) {
        self.add(id, 1);
    }

    /// Record `n` executions of `id`.
    #[inline]
    pub fn add(&mut self, id: InsnId, n: u64) {
        let i = id.0 as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
    }

    /// Execution count of `id`.
    pub fn count(&self, id: InsnId) -> u64 {
        self.counts.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Sum of counts over a set of instruction ids.
    pub fn total_of(&self, ids: impl IntoIterator<Item = InsnId>) -> u64 {
        ids.into_iter().map(|i| self.count(i)).sum()
    }

    /// Total dynamic instruction count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merge another profile into this one (used when aggregating ranks).
    pub fn merge(&mut self, other: &Profile) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_merge() {
        let mut p = Profile::new(4);
        p.bump(InsnId(0));
        p.bump(InsnId(0));
        p.bump(InsnId(7)); // grows on demand
        p.add(InsnId(9), 3);
        assert_eq!(p.count(InsnId(0)), 2);
        assert_eq!(p.count(InsnId(7)), 1);
        assert_eq!(p.count(InsnId(9)), 3);
        assert_eq!(p.count(InsnId(3)), 0);
        assert_eq!(p.total(), 6);
        p.add(InsnId(9), 0);
        assert_eq!(p.total(), 6);

        let mut q = Profile::new(2);
        q.bump(InsnId(1));
        q.merge(&p);
        assert_eq!(q.count(InsnId(0)), 2);
        assert_eq!(q.count(InsnId(1)), 1);
        assert_eq!(q.total(), 7);
        assert_eq!(q.total_of([InsnId(0), InsnId(7)]), 3);
    }
}

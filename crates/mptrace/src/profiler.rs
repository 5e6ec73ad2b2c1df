//! Per-instruction interpreter profiling via the const-gated step hook
//! of [`Observer`].
//!
//! [`InsnProfiler`] attributes model cycles and dispatch counts to
//! [`InsnId`]s while a program runs on the pre-decoded fast path or the
//! compiled threaded tier ([`fpvm::Vm::run_image_with`],
//! [`fpvm::Vm::run_compiled_with`]). Because the hook is gated on an
//! associated `const`, the unprofiled loop monomorphizes without any
//! trace of it — zero cost when disabled, enforced bit-identical by
//! `tests/trace_differential.rs`.

use fpvm::exec::Observer;
use fpvm::InsnId;

/// One instruction's accumulators, kept together so the per-dispatch
/// hook touches a single slot (one bounds check, one cache line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Model cycles attributed to the instruction.
    pub cycles: u64,
    /// Dispatch count of the instruction.
    pub hits: u64,
}

/// Dense per-instruction cycle/hit accumulators, indexed by `InsnId`.
///
/// The slot vector carries one extra entry past the id bound: a
/// *discard bucket*. The per-dispatch hook clamps every id into range
/// and accumulates unconditionally — terminators and synthetic ops
/// (sentinel id `u32::MAX`) land in the discard bucket instead of
/// taking a data-dependent branch, which would mispredict on the
/// op/terminator interleaving of real programs. Accessors never expose
/// the discard bucket.
#[derive(Debug, Clone, Default)]
pub struct InsnProfiler {
    slots: Vec<Slot>,
}

impl InsnProfiler {
    /// A profiler sized for a program with `insn_id_bound() == bound`.
    pub fn new(bound: usize) -> InsnProfiler {
        InsnProfiler { slots: vec![Slot::default(); bound + 1] }
    }

    /// Ids strictly below this are attributed; the rest are discarded.
    fn bound(&self) -> usize {
        self.slots.len().saturating_sub(1)
    }

    /// Reset all accumulators to zero, keeping capacity.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::default());
    }

    /// Cycles attributed to instruction `id` (0 when out of range).
    pub fn cycles(&self, id: u32) -> u64 {
        if (id as usize) < self.bound() {
            self.slots[id as usize].cycles
        } else {
            0
        }
    }

    /// Dispatch count of instruction `id` (0 when out of range).
    pub fn hits(&self, id: u32) -> u64 {
        if (id as usize) < self.bound() {
            self.slots[id as usize].hits
        } else {
            0
        }
    }

    /// Iterate `(id, slot)` over every instruction with any attribution.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Slot)> + '_ {
        self.slots[..self.bound()]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cycles != 0 || s.hits != 0)
            .map(|(i, &s)| (i as u32, s))
    }

    /// Total cycles attributed across all instructions.
    pub fn total_cycles(&self) -> u64 {
        self.slots[..self.bound()].iter().map(|s| s.cycles).sum()
    }

    /// Total dispatches attributed across all instructions.
    pub fn total_hits(&self) -> u64 {
        self.slots[..self.bound()].iter().map(|s| s.hits).sum()
    }

    /// Fold this profile into another profiler under an id mapping:
    /// entry `i` is added at `map(i)`, growing the destination as
    /// needed. Used to attribute time spent in rewritten snippet
    /// instructions back to the original instruction they replaced.
    pub fn fold_into(&self, dest: &mut InsnProfiler, mut map: impl FnMut(u32) -> u32) {
        for (i, s) in self.iter() {
            let j = map(i) as usize;
            if j >= dest.bound() {
                dest.slots.resize(j + 2, Slot::default());
            }
            dest.slots[j].cycles += s.cycles;
            dest.slots[j].hits += s.hits;
        }
    }
}

impl Observer for InsnProfiler {
    const STEPS: bool = true;

    #[inline(always)]
    fn step(&mut self, insn: InsnId, cost: u64) {
        // Runs once per dispatched instruction: clamp into the discard
        // bucket and accumulate unconditionally — no data-dependent
        // branch, and the bounds check is elided by the clamp.
        if self.slots.is_empty() {
            return; // only a default()-built fold destination
        }
        let i = (insn.0 as usize).min(self.slots.len() - 1);
        let s = &mut self.slots[i];
        s.cycles += cost;
        s.hits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_accumulates_and_ignores_sentinel() {
        let mut p = InsnProfiler::new(3);
        p.step(InsnId(1), 4);
        p.step(InsnId(1), 4);
        p.step(InsnId(2), 1);
        p.step(InsnId(u32::MAX), 9); // sentinel: out of bounds, ignored
        assert_eq!(p.cycles(1), 8);
        assert_eq!(p.hits(1), 2);
        assert_eq!(p.cycles(2), 1);
        assert_eq!(p.total_cycles(), 9);
        assert_eq!(p.total_hits(), 3);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn fold_into_applies_origin_mapping_and_grows() {
        let mut p = InsnProfiler::new(4);
        p.step(InsnId(0), 2);
        p.step(InsnId(3), 5);
        let mut dest = InsnProfiler::default();
        // Map snippet insn 3 back to origin 1, identity elsewhere.
        p.fold_into(&mut dest, |i| if i == 3 { 1 } else { i });
        assert_eq!(dest.cycles(0), 2);
        assert_eq!(dest.cycles(1), 5);
        assert_eq!(dest.hits(0), 1);
        assert_eq!(dest.hits(1), 1);
    }
}

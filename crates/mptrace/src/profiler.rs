//! Per-instruction hot-spot profiles.
//!
//! [`InsnProfiler`] attributes model cycles and dispatch counts to
//! [`InsnId`](fpvm::InsnId)s. It is derived after a run from the run's
//! own execution counts ([`InsnProfiler::from_profile`]), which every
//! engine produces under `profile: true` — the compiled one without
//! leaving its fused tier. The cost model charges a static cost per
//! instruction, so an instruction's cycles are its hits times that cost,
//! exactly what a per-dispatch hook would sum.

use fpvm::{CostModel, Insn, Profile};

/// One instruction's accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Model cycles attributed to the instruction.
    pub cycles: u64,
    /// Dispatch count of the instruction.
    pub hits: u64,
}

/// Dense per-instruction cycle/hit accumulators, indexed by `InsnId`.
#[derive(Debug, Clone, Default)]
pub struct InsnProfiler {
    slots: Vec<Slot>,
}

impl InsnProfiler {
    /// A profiler sized for a program with `insn_id_bound() == bound`
    /// (it grows past that on demand).
    pub fn new(bound: usize) -> InsnProfiler {
        InsnProfiler { slots: vec![Slot::default(); bound] }
    }

    /// The hot-spot profile of one run of a program made of `insns`
    /// (each once, in any order) with execution counts `profile`: each
    /// instruction's hits are its count and its cycles are its hits
    /// times its cost under `cost` (the cost model the run used); a bare
    /// candidate counts as the snippet path it is charged
    /// ([`fpvm::Charge`]), per execution. Both
    /// go to the instruction it originates from, so time in a rewritten
    /// snippet counts for the instruction the snippet expands
    /// (`Insn::origin`). Terminators have no id and cost nothing, so the
    /// cycles sum to the run's modelled cycles.
    pub fn from_profile<'i>(
        insns: impl IntoIterator<Item = &'i Insn>,
        profile: &Profile,
        cost: &CostModel,
    ) -> InsnProfiler {
        let mut p = InsnProfiler::default();
        for insn in insns {
            let n = profile.count(insn.id);
            if n != 0 {
                p.add(
                    insn.origin.unwrap_or(insn.id).0,
                    n * insn.dispatches(),
                    n * insn.cycles(cost),
                );
            }
        }
        p
    }

    /// Attribute `hits` dispatches costing `cycles` in total to
    /// instruction `id`, growing the profiler as needed.
    pub fn add(&mut self, id: u32, hits: u64, cycles: u64) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        self.slots[i].cycles += cycles;
        self.slots[i].hits += hits;
    }

    /// Cycles attributed to instruction `id` (0 when out of range).
    pub fn cycles(&self, id: u32) -> u64 {
        self.slots.get(id as usize).map_or(0, |s| s.cycles)
    }

    /// Dispatch count of instruction `id` (0 when out of range).
    pub fn hits(&self, id: u32) -> u64 {
        self.slots.get(id as usize).map_or(0, |s| s.hits)
    }

    /// Iterate `(id, slot)` over every instruction with any attribution.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Slot)> + '_ {
        let slots = self.slots.iter().enumerate();
        slots.filter(|(_, s)| s.cycles != 0 || s.hits != 0).map(|(i, &s)| (i as u32, s))
    }

    /// Total cycles attributed across all instructions.
    pub fn total_cycles(&self) -> u64 {
        self.slots.iter().map(|s| s.cycles).sum()
    }

    /// Total dispatches attributed across all instructions.
    pub fn total_hits(&self) -> u64 {
        self.slots.iter().map(|s| s.hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm::{FpAluOp, InstKind, Prec, Program, Terminator, Xmm, RM};

    #[test]
    fn add_accumulates_and_grows() {
        let mut p = InsnProfiler::new(3);
        p.add(1, 2, 8);
        p.add(2, 1, 1);
        p.add(5, 1, 3); // past the bound: grows
        assert_eq!((p.hits(1), p.cycles(1)), (2, 8));
        assert_eq!((p.hits(5), p.cycles(5)), (1, 3));
        assert_eq!((p.hits(9), p.cycles(9)), (0, 0));
        assert_eq!(p.total_cycles(), 12);
        assert_eq!(p.total_hits(), 4);
        assert_eq!(p.iter().map(|(i, _)| i).collect::<Vec<_>>(), [1, 2, 5]);
    }

    #[test]
    fn from_profile_charges_static_costs_to_origins() {
        let mut prog = Program::new(64);
        let m = prog.add_module("m");
        let f = prog.add_function(m, "main");
        let b = prog.add_block(f);
        let add = |op| InstKind::FpArith {
            op,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        };
        let a = prog.push_insn(b, add(FpAluOp::Add));
        let d = prog.push_insn(b, add(FpAluOp::Div));
        let snippet = prog.push_insn(b, InstKind::Nop);
        prog.block_mut(b).insns[2].origin = Some(d);
        prog.block_mut(b).term = Terminator::Halt;
        let cost = CostModel::default();
        let mut profile = Profile::new(prog.insn_id_bound());
        profile.add(a, 3);
        profile.add(d, 2);
        profile.add(snippet, 5);
        let p = InsnProfiler::from_profile(&prog.block(b).insns, &profile, &cost);
        let c = |k: usize| cost.cost(&prog.block(b).insns[k].kind);
        assert_eq!((p.hits(a.0), p.cycles(a.0)), (3, 3 * c(0)));
        assert_eq!((p.hits(d.0), p.cycles(d.0)), (7, 2 * c(1) + 5 * c(2)));
        assert_eq!(p.hits(snippet.0), 0);
        assert_eq!(p.total_hits(), profile.total());
    }
}

//! Differential property test for the interpreter's const-gated step
//! hook: attaching an [`mptrace::profiler::InsnProfiler`] via
//! `run_image_with` must leave the primary execution bit-identical —
//! same result (including the exact trap), same statistics, same
//! registers, same memory — on random programs, and the profiler's
//! cycle/hit attribution must reconcile exactly with the run's
//! aggregate statistics. This is the executable form of the mptrace
//! overhead contract: the profiled loop only *reads* state the
//! interpreter already computed, and the unprofiled loop (exercised by
//! every other test in the suite via `run_image`) monomorphizes the
//! hook away entirely.

mod common;

use common::build_program;
use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, InsnId, Observer, Program, Vm, VmOptions};
use mptrace::profiler::InsnProfiler;
use proptest::collection::vec;
use proptest::prelude::*;

/// A step observer that counts *every* dispatched op, including the
/// synthetic ones (id `u32::MAX`) the `InsnProfiler` deliberately drops,
/// so the profiler's attribution can be reconciled exactly.
#[derive(Default)]
struct CountAll {
    steps: u64,
    cycles: u64,
    in_range_hits: u64,
    in_range_cycles: u64,
    bound: u32,
}

impl Observer for CountAll {
    const STEPS: bool = true;
    fn step(&mut self, insn: InsnId, cost: u64) {
        self.steps += 1;
        self.cycles += cost;
        if insn.0 < self.bound {
            self.in_range_hits += 1;
            self.in_range_cycles += cost;
        }
    }
}

/// Run `p` once unprofiled and once with an `InsnProfiler` attached, and
/// assert the primary architectural state is bit-identical while the
/// profiler reconciles with the run's aggregate statistics.
fn assert_profiler_is_invisible(p: &Program, opts: &VmOptions) {
    let image = ExecImage::compile(p, &opts.cost);

    let mut plain_vm = Vm::new(p, opts.clone());
    let plain_out = plain_vm.run_image(&image);

    let mut prof = InsnProfiler::new(p.insn_id_bound());
    let mut prof_vm = Vm::new(p, opts.clone());
    let prof_out = prof_vm.run_image_with(&image, &mut prof);

    assert_eq!(plain_out.result, prof_out.result, "result/trap diverges");
    assert_eq!(plain_out.stats.steps, prof_out.stats.steps, "steps diverge");
    assert_eq!(plain_out.stats.cycles, prof_out.stats.cycles, "cycles diverge");
    assert_eq!(plain_out.stats.fp_ops, prof_out.stats.fp_ops, "fp_ops diverge");
    assert_eq!(plain_vm.gpr, prof_vm.gpr, "gpr state diverges");
    assert_eq!(plain_vm.xmm, prof_vm.xmm, "xmm state diverges");
    let words = plain_vm.mem.len() / 8;
    assert_eq!(
        plain_vm.mem.read_u64_slice(0, words).unwrap(),
        prof_vm.mem.read_u64_slice(0, words).unwrap(),
        "memory diverges"
    );

    // The hook fires exactly once per dispatched op with that op's
    // modelled cost, so a count-everything observer must reproduce the
    // aggregate statistics exactly, and the profiler's attribution must
    // match the in-range portion of the dispatch stream.
    let mut all = CountAll { bound: p.insn_id_bound() as u32, ..CountAll::default() };
    let mut count_vm = Vm::new(p, opts.clone());
    let count_out = count_vm.run_image_with(&image, &mut all);
    assert_eq!(count_out.result, plain_out.result);
    assert_eq!(all.steps, count_out.stats.steps, "hook must fire once per retired step");
    assert_eq!(all.cycles, count_out.stats.cycles, "hook must see every modelled cycle");

    assert_eq!(prof.total_hits(), all.in_range_hits, "profiler hits != in-range dispatches");
    assert_eq!(prof.total_cycles(), all.in_range_cycles, "profiler cycles != in-range cost");
    for (id, s) in prof.iter() {
        assert!(s.hits > 0, "insn {id}: cycles attributed without a hit");
    }

    // A traced compiled evaluation attaches the same profiler to the
    // threaded tier, which must attribute exactly what the fast path does.
    let cimg = CompiledImage::from_image(&image);
    let mut comp_prof = InsnProfiler::new(p.insn_id_bound());
    let comp_out = Vm::new(p, opts.clone()).run_compiled_with(&cimg, &mut comp_prof);
    assert_eq!(comp_out.result, plain_out.result, "threaded: result/trap diverges");
    assert_eq!(comp_out.stats.cycles, plain_out.stats.cycles, "threaded: cycles diverge");
    assert!(prof.iter().eq(comp_prof.iter()), "threaded-tier profile diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_profiler_leaves_primary_state_bit_identical(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        assert_profiler_is_invisible(&p, &opts);
    }

    #[test]
    fn step_profiler_is_invisible_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        let opts = VmOptions { fuel, ..VmOptions::default() };
        assert_profiler_is_invisible(&p, &opts);
    }
}

//! Differential property test for the hot-spot profile a traced
//! evaluation records: the run counts executions (`profile: true`, which
//! keeps the compiled backend on its fused tier) and
//! [`mptrace::profiler::InsnProfiler::from_profile`] prices the counts
//! after the run. Counting must leave the primary execution
//! bit-identical — same result (including the exact trap), same
//! statistics, same registers, same memory — on random programs, and the
//! priced profile must reconcile exactly with the run's aggregate
//! statistics and equal the one priced from the reference interpreter's
//! counts. This is the executable form of the mptrace overhead
//! contract: the unprofiled fused loop (exercised by every other test in
//! the suite via `run_compiled`) compiles the region-entry counter away.

mod common;

use common::build_program;
use fpvm::{CompiledImage, Program, Vm, VmOptions};
use mptrace::profiler::InsnProfiler;
use proptest::collection::vec;
use proptest::prelude::*;

/// Run `p` on the compiled backend once plain and once counting, and
/// assert the primary architectural state is bit-identical while the
/// priced profile reconciles with the run's aggregate statistics.
fn assert_hot_profile_reconciles(p: &Program, opts: &VmOptions) {
    let cimg = CompiledImage::compile(p, &opts.cost);
    let counting = VmOptions { profile: true, ..opts.clone() };

    let mut plain_vm = Vm::new(p, VmOptions { profile: false, ..opts.clone() });
    let plain_out = plain_vm.run_compiled(&cimg);
    let mut prof_vm = Vm::new(p, counting.clone());
    let prof_out = prof_vm.run_compiled(&cimg);

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

    // Terminators carry no id and cost nothing, so the priced profile
    // holds every modelled cycle, and every step that is not a hit is a
    // terminator.
    let profile = prof_out.profile.as_ref().expect("a profiled run has a profile");
    let hot = InsnProfiler::from_profile(p.iter_insns().map(|(.., i)| i), profile, &opts.cost);
    let stats = prof_out.stats;
    assert_eq!(hot.total_cycles(), stats.cycles, "priced cycles != modelled cycles");
    assert_eq!(hot.total_hits(), profile.total(), "hits != executions");
    let fp: u64 =
        p.iter_insns().filter(|(.., i)| i.kind.is_fp_op()).map(|(.., i)| profile.count(i.id)).sum();
    assert_eq!(fp, stats.fp_ops, "fp-op executions != fp_ops");
    let terminators = stats.steps.checked_sub(hot.total_hits()).expect("more hits than steps");
    // A halted run ends every block it enters with the block's
    // terminator, and (`build_program` emits no empty block) enters a
    // block as often as its first instruction runs.
    if prof_out.ok() {
        let blocks = p.funcs.iter().flat_map(|f| &f.blocks).map(|&b| p.block(b));
        let firsts: Vec<_> = blocks.map(|b| b.insns.first().expect("an empty block")).collect();
        let entered: u64 = firsts.iter().map(|i| profile.count(i.id)).sum();
        assert_eq!(entered, terminators, "terminators != block entries");
    }
    for (id, s) in hot.iter() {
        assert!(s.hits > 0, "insn {id}: cycles attributed without a hit");
    }

    // The reference interpreter's counts price to the same profile.
    let ref_out = Vm::new(p, counting).run();
    assert_eq!(ref_out.result, prof_out.result, "interp: result/trap diverges");
    let insns = p.iter_insns().map(|(.., i)| i);
    let want = InsnProfiler::from_profile(insns, ref_out.profile.as_ref().unwrap(), &opts.cost);
    assert!(hot.iter().eq(want.iter()), "hot profile diverges from the interpreter's");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hot_profile_is_invisible_and_reconciles_with_run_stats(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
    ) {
        let p = build_program(&vals, &ops, iters);
        assert_hot_profile_reconciles(&p, &VmOptions::default());
    }

    #[test]
    fn hot_profile_is_invisible_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        assert_hot_profile_reconciles(&p, &VmOptions { fuel, ..VmOptions::default() });
    }
}

//! Differential property test for the shadow-value engine: attaching a
//! [`mpshadow::ShadowEngine`] to the compiled backend's threaded tier
//! must leave the *primary* execution bit-identical — same result (including the
//! exact trap), same statistics, same registers, same memory — on
//! random programs. The observer receives copies of values only; this
//! test is the executable form of that guarantee.

mod common;

use common::build_program;
use fpvm::{CompiledImage, Program, Vm, VmOptions};
use mpshadow::ShadowEngine;
use proptest::collection::vec;
use proptest::prelude::*;

/// Run `p` once unobserved on the fused tier and once on the threaded
/// tier with a `ShadowEngine` attached, and assert the primary
/// architectural state is bit-identical.
fn assert_shadow_is_invisible(p: &Program, opts: &VmOptions) {
    let image = CompiledImage::compile(p, &opts.cost);

    let mut plain_vm = Vm::new(p, opts.clone());
    let plain_out = plain_vm.run_compiled(&image);

    let mut engine = ShadowEngine::new(p.insn_id_bound());
    let mut obs_vm = Vm::new(p, opts.clone());
    let obs_out = obs_vm.run_observed(&image, &mut engine);

    assert_eq!(plain_out.result, obs_out.result, "result/trap diverges");
    assert_eq!(plain_out.stats.steps, obs_out.stats.steps, "steps diverge");
    assert_eq!(plain_out.stats.cycles, obs_out.stats.cycles, "cycles diverge");
    assert_eq!(plain_out.stats.fp_ops, obs_out.stats.fp_ops, "fp_ops diverge");
    assert_eq!(plain_vm.gpr, obs_vm.gpr, "gpr state diverges");
    assert_eq!(plain_vm.xmm, obs_vm.xmm, "xmm state diverges");
    let words = plain_vm.mem.len() / 8;
    assert_eq!(
        plain_vm.mem.read_u64_slice(0, words).unwrap(),
        obs_vm.mem.read_u64_slice(0, words).unwrap(),
        "memory diverges"
    );

    // The observed run must have produced a coherent profile: every
    // recorded instruction id lies inside the program's id bound.
    let profile = engine.into_profile();
    for (&id, s) in &profile.insns {
        assert!((id as usize) < p.insn_id_bound(), "stat for out-of-range insn {id}");
        assert!(s.count > 0 || s.cancels > 0, "empty stat retained for insn {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_observer_leaves_primary_state_bit_identical(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        assert_shadow_is_invisible(&p, &opts);
    }

    #[test]
    fn shadow_observer_is_invisible_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        let opts = VmOptions { fuel, ..VmOptions::default() };
        assert_shadow_is_invisible(&p, &opts);
    }
}

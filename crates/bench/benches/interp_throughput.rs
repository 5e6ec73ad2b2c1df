//! Interpreter throughput on the NAS analogues: steps/second for the
//! original and all-double-instrumented binaries, through both engines
//! and both compiled tiers — the tree-walking reference interpreter, the
//! compiled backend's threaded tier on its own (`*.threaded`: a whole
//! run with the `()` observer, the loop value observers run on), and
//! its fused tier (`*.compiled`: block-fused superinstructions over the
//! threaded handlers). The orig/instrumented ratio is the "overhead (X)"
//! of the paper's Figs. 8–9 at micro scale; the reference/threaded
//! ratio is the dispatch speedup of decoding and binding; the
//! threaded/compiled ratio is what the fusion pass adds, which
//! `bench_gate --compiled-ratio` gates. The `*.traced` rows time the
//! traced path (the compiled backend counting executions, priced into
//! the hot-spot profile) against the plain `*.compiled` rows; the
//! `*.shadow` and `*.numhealth` rows time the value observers against
//! `*.threaded`.
//!
//! Before timing anything, the engines are asserted bit-identical on
//! every benched program (same result, same step/cycle counts).

use criterion::{criterion_group, criterion_main, Criterion};
use fpvm::{CompiledImage, Vm, VmOptions};
use instrument::rewrite_all_double;
use mpconfig::StructureTree;
use mptrace::profiler::InsnProfiler;
use workloads::{nas, Class};

/// Assert both compiled tiers reproduce the reference run exactly, and
/// return the step count so benches can sanity-check against it.
fn assert_bit_identical(p: &fpvm::Program, cimg: &CompiledImage) -> u64 {
    let opts = VmOptions::default();
    let ref_out = Vm::run_program(p, opts.clone());
    assert!(ref_out.ok());
    for threaded in [true, false] {
        let mut vm = Vm::new(p, opts.clone());
        let out = if threaded { vm.run_observed(cimg, &mut ()) } else { vm.run_compiled(cimg) };
        assert_eq!(ref_out.result, out.result);
        assert_eq!(ref_out.stats.steps, out.stats.steps);
        assert_eq!(ref_out.stats.cycles, out.stats.cycles);
        assert_eq!(ref_out.stats.fp_ops, out.stats.fp_ops);
    }
    ref_out.stats.steps
}

/// One traced compiled run of `p`: profiled on the fused tier, its
/// counts priced into the hot-spot profile.
fn traced_run(p: &fpvm::Program, cimg: &CompiledImage, steps: u64) -> u64 {
    let opts = VmOptions { profile: true, ..VmOptions::default() };
    let mut vm = Vm::new(p, opts.clone());
    let out = vm.run_compiled(cimg);
    assert_eq!(out.stats.steps, steps);
    let profile = out.profile.expect("a profiled run has a profile");
    InsnProfiler::from_profile(p.iter_insns().map(|(.., i)| i), &profile, &opts.cost).total_cycles()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp");
    // The traced/untraced overhead contract is asserted on these rows'
    // minima; extra samples keep the min estimator stable enough to
    // resolve a 5% margin on shared runners.
    g.sample_size(40);
    for (name, w) in [("ep", nas::ep(Class::S)), ("cg", nas::cg(Class::S))] {
        let orig = w.program().clone();
        let tree = StructureTree::build(&orig);
        let (instr, _) = rewrite_all_double(&orig, &tree);
        let cost = VmOptions::default().cost;
        let orig_cimg = CompiledImage::compile(&orig, &cost);
        let instr_cimg = CompiledImage::compile(&instr, &cost);
        let orig_steps = assert_bit_identical(&orig, &orig_cimg);
        let instr_steps = assert_bit_identical(&instr, &instr_cimg);

        g.bench_function(format!("{name}.orig"), |b| {
            b.iter(|| {
                let out = Vm::run_program(&orig, VmOptions::default());
                assert!(out.ok());
                out.stats.steps
            })
        });
        g.bench_function(format!("{name}.orig.threaded"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_observed(&orig_cimg, &mut ());
                assert_eq!(out.stats.steps, orig_steps);
                out.stats.steps
            })
        });
        // The fused tier on the same image: block-fused superinstruction
        // kernels over the threaded handlers. The bench_gate check fails
        // when this is not `--compiled-ratio` times faster than
        // `.orig.threaded` on the gated rows.
        g.bench_function(format!("{name}.orig.compiled"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_compiled(&orig_cimg);
                assert_eq!(out.stats.steps, orig_steps);
                out.stats.steps
            })
        });
        // Overhead of the shadow-value engine over the plain threaded
        // tier: same image, same run, with every FP event mirrored in f32.
        g.bench_function(format!("{name}.orig.shadow"), |b| {
            b.iter(|| {
                let mut engine = mpshadow::ShadowEngine::new(orig.insn_id_bound());
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_observed(&orig_cimg, &mut engine);
                assert_eq!(out.stats.steps, orig_steps);
                engine.into_profile().len()
            })
        });
        // Overhead of the per-instruction hot-spot profile, timed as a
        // traced evaluation runs it: the compiled backend with
        // `profile: true` (the fused tier with region-entry counters),
        // then the counts priced into an `InsnProfiler`. Contract: <5%
        // over `.orig.compiled`.
        g.bench_function(format!("{name}.orig.traced"), |b| {
            b.iter(|| traced_run(&orig, &orig_cimg, orig_steps))
        });
        // Overhead of the numerical-health observer (the mptrace
        // `fp.*` path): same image, same run, with every scalar FP
        // result and quantize classified. Contract: <5% over
        // `.orig.threaded`, while `.orig.threaded` itself (the hooks
        // compiled out by the `()` observer) stays within noise.
        g.bench_function(format!("{name}.orig.numhealth"), |b| {
            b.iter(|| {
                let mut prof = mptrace::numprof::NumProfiler::new(orig.insn_id_bound());
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_observed(&orig_cimg, &mut prof);
                assert_eq!(out.stats.steps, orig_steps);
                prof.iter().map(|(_, e)| e.total).sum::<u64>()
            })
        });
        g.bench_function(format!("{name}.instrumented"), |b| {
            b.iter(|| {
                let out = Vm::run_program(&instr, VmOptions::default());
                assert!(out.ok());
                out.stats.steps
            })
        });
        g.bench_function(format!("{name}.instrumented.threaded"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&instr, VmOptions::default());
                let out = vm.run_observed(&instr_cimg, &mut ());
                assert_eq!(out.stats.steps, instr_steps);
                out.stats.steps
            })
        });
        g.bench_function(format!("{name}.instrumented.compiled"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&instr, VmOptions::default());
                let out = vm.run_compiled(&instr_cimg);
                assert_eq!(out.stats.steps, instr_steps);
                out.stats.steps
            })
        });
        // The traced path on the code searches run.
        g.bench_function(format!("{name}.instrumented.compiled.traced"), |b| {
            b.iter(|| traced_run(&instr, &instr_cimg, instr_steps))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

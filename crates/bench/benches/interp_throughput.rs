//! Interpreter throughput on the NAS analogues: steps/second for the
//! original and all-double-instrumented binaries, through all three
//! execution engines — the tree-walking reference interpreter, the
//! pre-decoded execution image (`fpvm::exec`), and the compiled backend
//! (`fpvm::compiled`: threaded-code dispatch + block-fused
//! superinstructions). The orig/instrumented ratio is the "overhead (X)"
//! of the paper's Figs. 8–9 at micro scale; the reference/fast ratio is
//! the dispatch speedup of the pre-decode pass; the fast/compiled ratio
//! is the dispatch + fusion speedup of the compiled tier, which
//! `bench_gate --compiled-ratio` gates on both the original and the
//! instrumented rows. The `*.traced` rows time the traced path (the
//! compiled backend counting executions, priced into the hot-spot
//! profile) against the plain `*.compiled` rows.
//!
//! Before timing anything, the engines are asserted bit-identical on
//! every benched program (same result, same step/cycle counts).

use criterion::{criterion_group, criterion_main, Criterion};
use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, Vm, VmOptions};
use instrument::rewrite_all_double;
use mpconfig::StructureTree;
use mptrace::profiler::InsnProfiler;
use workloads::{nas, Class};

/// Assert the fast path reproduces the reference run exactly, and return
/// the step count so benches can sanity-check against it.
fn assert_bit_identical(p: &fpvm::Program) -> u64 {
    let opts = VmOptions::default();
    let ref_out = Vm::run_program(p, opts.clone());
    let image = ExecImage::compile(p, &opts.cost);
    let mut vm = Vm::new(p, opts.clone());
    let fast_out = vm.run_image(&image);
    assert_eq!(ref_out.result, fast_out.result);
    assert_eq!(ref_out.stats.steps, fast_out.stats.steps);
    assert_eq!(ref_out.stats.cycles, fast_out.stats.cycles);
    assert_eq!(ref_out.stats.fp_ops, fast_out.stats.fp_ops);
    assert!(fast_out.ok());
    let cimg = CompiledImage::from_image(&image);
    let mut vm = Vm::new(p, opts);
    let comp_out = vm.run_compiled(&cimg);
    assert_eq!(ref_out.result, comp_out.result);
    assert_eq!(ref_out.stats.steps, comp_out.stats.steps);
    assert_eq!(ref_out.stats.cycles, comp_out.stats.cycles);
    assert_eq!(ref_out.stats.fp_ops, comp_out.stats.fp_ops);
    fast_out.stats.steps
}

/// One traced compiled run of `p`: profiled on the fused tier, its
/// counts priced into the hot-spot profile.
fn traced_run(p: &fpvm::Program, cimg: &CompiledImage, steps: u64) -> u64 {
    let opts = VmOptions { profile: true, ..VmOptions::default() };
    let mut vm = Vm::new(p, opts.clone());
    let out = vm.run_compiled(cimg);
    assert_eq!(out.stats.steps, steps);
    let profile = out.profile.expect("a profiled run has a profile");
    InsnProfiler::from_profile(p, &profile, &opts.cost).total_cycles()
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
        let orig_image = ExecImage::compile(&orig, &cost);
        let instr_image = ExecImage::compile(&instr, &cost);
        let orig_cimg = CompiledImage::from_image(&orig_image);
        let instr_cimg = CompiledImage::from_image(&instr_image);
        let orig_steps = assert_bit_identical(&orig);
        let instr_steps = assert_bit_identical(&instr);

        g.bench_function(format!("{name}.orig"), |b| {
            b.iter(|| {
                let out = Vm::run_program(&orig, VmOptions::default());
                assert!(out.ok());
                out.stats.steps
            })
        });
        g.bench_function(format!("{name}.orig.fast"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_image(&orig_image);
                assert_eq!(out.stats.steps, orig_steps);
                out.stats.steps
            })
        });
        // The compiled backend on the same image: threaded dispatch with
        // block-fused superinstruction kernels. The bench_gate check
        // fails when this is not `--compiled-ratio` times faster than
        // `.orig.fast`.
        g.bench_function(format!("{name}.orig.compiled"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_compiled(&orig_cimg);
                assert_eq!(out.stats.steps, orig_steps);
                out.stats.steps
            })
        });
        // Overhead of the shadow-value engine over the plain fast path:
        // same image, same run, with every FP event mirrored in f32.
        g.bench_function(format!("{name}.orig.shadow"), |b| {
            b.iter(|| {
                let mut engine = mpshadow::ShadowEngine::new(orig.insn_id_bound());
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_image_with(&orig_image, &mut engine);
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
        // `.orig.fast`, while `.orig.fast` itself (the hooks compiled
        // out by the `()` observer) stays within noise.
        g.bench_function(format!("{name}.orig.numhealth"), |b| {
            b.iter(|| {
                let mut prof = mptrace::numprof::NumProfiler::new(orig.insn_id_bound());
                let mut vm = Vm::new(&orig, VmOptions::default());
                let out = vm.run_image_with(&orig_image, &mut prof);
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
        g.bench_function(format!("{name}.instrumented.fast"), |b| {
            b.iter(|| {
                let mut vm = Vm::new(&instr, VmOptions::default());
                let out = vm.run_image(&instr_image);
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

//! A packed-SIMD streaming workload: repeated 128-bit AXPY updates over
//! large arrays. Exercises the *packed* replacement path end-to-end —
//! the paper's Fig. 5 notes the in-place flag technique "works for single
//! values as well as packed floating-point values in 128-bit XMM
//! registers", and the packed snippets must check/convert and re-flag
//! each 64-bit lane independently.

use crate::{Class, Workload};
use fpir::*;

/// Build the vecops workload: `iters` sweeps of `y += a_k · x` with a
/// final checksum, all through packed (two-lane) instructions.
pub fn vecops(class: Class) -> Workload {
    let n = match class {
        Class::S => 32i64,
        Class::W => 128,
        Class::A => 512,
        Class::C => 2048,
    };
    let iters = 8i64;
    let mut ir = IrProgram::new(format!("vecops.{}", class.letter()));
    let xs = ir.array_f64_init("x", (0..n).map(|k| 0.5 + 0.01 * k as f64).collect());
    let ys = ir.array_f64("y", n as usize);
    let out = ir.array_f64("out", 1);

    let main = ir.func("main", &[], None, |ir, fr, _| {
        let it = ir.local_i(fr);
        let k = ir.local_i(fr);
        let acc = ir.local_f(fr);
        vec![
            for_(
                it,
                i(0),
                i(iters),
                vec![
                    // coefficient varies per sweep: a = 1/(it+2)
                    Stmt::PackedAxpy {
                        y: ys,
                        a: fdiv(f(1.0), itof(iadd(v(it), i(2)))),
                        x: xs,
                        n: i(n),
                    },
                ],
            ),
            set(acc, f(0.0)),
            for_(k, i(0), i(n), vec![set(acc, fadd(v(acc), ld(ys, v(k))))]),
            st(out, i(0), v(acc)),
        ]
    });
    ir.set_entry(main);

    Workload::package("vecops", class, ir, 1e-5, vec![("out".into(), 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm::isa::InstKind;
    use fpvm::{Vm, VmOptions};
    use instrument::{rewrite, rewrite_all_double, RewriteOptions};
    use mpconfig::{Config, Flag, StructureTree};

    #[test]
    fn reference_matches_host_math() {
        let w = vecops(Class::S);
        let mut y = vec![0.0f64; 32];
        for it in 0..8 {
            let a = 1.0 / (it as f64 + 2.0);
            for (k, yk) in y.iter_mut().enumerate() {
                *yk += a * (0.5 + 0.01 * k as f64);
            }
        }
        let want: f64 = y.iter().sum();
        let got = w.reference()[0][0];
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn kernel_actually_uses_packed_instructions() {
        let w = vecops(Class::S);
        let packed = w
            .program()
            .iter_insns()
            .filter(|(_, _, ins)| matches!(ins.kind, InstKind::FpArith { packed: true, .. }))
            .count();
        assert!(packed >= 2, "expected packed arithmetic, found {packed}");
    }

    #[test]
    fn packed_all_double_is_bit_transparent() {
        let w = vecops(Class::S);
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let (instr, stats) = rewrite_all_double(prog, &tree);
        assert!(stats.instrumented() > 0);
        let mut a = Vm::new(prog, VmOptions::default());
        assert!(a.run().ok());
        let mut b = Vm::new(&instr, VmOptions::default());
        assert!(b.run().ok());
        let pa = prog.symbol("out").unwrap();
        assert_eq!(
            a.mem.load_u64(pa).unwrap(),
            b.mem.load_u64(pa).unwrap(),
            "packed all-double instrumentation changed results"
        );
    }

    #[test]
    fn packed_all_single_matches_f32_lowering() {
        // bit-exactness through the packed snippet path
        let w = vecops(Class::S);
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let mut cfg = Config::new();
        for m in &tree.modules {
            cfg.set_module(m.id, Flag::Single);
        }
        let (instr, _) = rewrite(prog, &tree, &cfg, &RewriteOptions::default());
        let mut vm = Vm::new(&instr, VmOptions::default());
        assert!(vm.run().ok(), "packed all-single run failed");
        let got = vm.mem.load_u64(prog.symbol("out").unwrap()).unwrap() as u32;

        let manual = w.compile_f32();
        let mut vm32 = Vm::new(&manual, VmOptions::default());
        assert!(vm32.run().ok());
        let want = vm32.mem.load_u32(manual.symbol("out").unwrap()).unwrap();
        assert_eq!(got, want, "packed single path diverges from manual f32");
    }

    #[test]
    fn search_replaces_the_packed_kernel() {
        let w = vecops(Class::S);
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let profile = Vm::run_program(prog, VmOptions { profile: true, ..Default::default() })
            .profile
            .unwrap();
        let eval = mpsearch_eval(&w, prog, &tree);
        let r = mpsearch::search(
            &tree,
            &Config::new(),
            Some(&profile),
            &eval,
            &mpsearch::SearchOptions { threads: 2, ..Default::default() },
        );
        assert!(r.static_pct > 50.0, "packed kernel mostly replaceable, got {}", r.static_pct);
        assert!(r.final_pass);
    }

    fn mpsearch_eval<'p>(
        w: &Workload,
        prog: &'p fpvm::Program,
        tree: &'p StructureTree,
    ) -> mpsearch::VmEvaluator<'p> {
        mpsearch::VmEvaluator::with_options(
            prog,
            tree,
            w.reference_stats().steps,
            w.vm_opts(),
            RewriteOptions::default(),
            w.verifier(),
        )
    }
}

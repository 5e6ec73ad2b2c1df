//! Differential property tests: both tiers of the compiled backend
//! (`fpvm::compiled` — fused regions and pure threaded code) must be
//! bit-identical to the reference interpreter on random programs — same
//! results, same traps, same `RunStats`, same final machine state, same
//! profile — both on plain programs and on instrumented (rewritten)
//! ones, where crash-on-miss traps must agree too. Profiled runs stay
//! on the fused tier, whose per-region counters must expand to the
//! interpreter's per-instruction counts. A fixed hand-built
//! corpus additionally pins down every `InstKind` (and the trap paths)
//! deterministically, independent of proptest generation.

mod common;

use common::{build_program, build_shape_program};
use fpvm::{CompiledImage, Program, Vm, VmOptions};
use instrument::{rewrite, RewriteOptions};
use mpconfig::{Config, Flag, StructureTree};
use proptest::collection::vec;
use proptest::prelude::*;

/// Run `p` through every engine — reference interpreter, compiled
/// (fused tier), compiled (threaded tier, a whole unobserved run) — and
/// assert all outcomes are bit-identical: result (including the exact
/// trap), statistics, registers, memory, and profile counts.
fn assert_engines_agree(p: &Program, opts: &VmOptions) {
    let mut ref_vm = Vm::new(p, opts.clone());
    let ref_out = ref_vm.run();
    let cimg = CompiledImage::compile(p, &opts.cost);

    let mut comp_vm = Vm::new(p, opts.clone());
    let comp_out = comp_vm.run_compiled(&cimg);
    let mut thr_vm = Vm::new(p, opts.clone());
    let thr_out = thr_vm.run_observed(&cimg, &mut ());

    let engines = [("compiled", &comp_vm, &comp_out), ("threaded", &thr_vm, &thr_out)];
    for (name, vm, out) in engines {
        assert_eq!(ref_out.result, out.result, "{name}: result/trap diverges");
        assert_eq!(ref_out.stats.steps, out.stats.steps, "{name}: steps diverge");
        assert_eq!(ref_out.stats.cycles, out.stats.cycles, "{name}: cycles diverge");
        assert_eq!(ref_out.stats.fp_ops, out.stats.fp_ops, "{name}: fp_ops diverge");
        assert_eq!(ref_vm.gpr, vm.gpr, "{name}: gpr state diverges");
        assert_eq!(ref_vm.xmm, vm.xmm, "{name}: xmm state diverges");
        let words = ref_vm.mem.len() / 8;
        assert_eq!(
            ref_vm.mem.read_u64_slice(0, words).unwrap(),
            vm.mem.read_u64_slice(0, words).unwrap(),
            "{name}: memory diverges"
        );
        match (&ref_out.profile, &out.profile) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                for id in 0..p.insn_id_bound() {
                    let id = fpvm::InsnId(id as u32);
                    assert_eq!(a.count(id), b.count(id), "{name}: profile diverges at {id:?}");
                }
            }
            _ => panic!("{name}: one engine produced a profile, the other did not"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_path_matches_reference_on_random_programs(
        vals in vec(-4.0f64..4.0, 1..8),
        ops in vec(0u8..255, 1..10),
        iters in 1i64..40,
        profile in any::<bool>(),
    ) {
        let p = build_program(&vals, &ops, iters);
        let opts = VmOptions { profile, ..VmOptions::default() };
        assert_engines_agree(&p, &opts);
    }

    #[test]
    fn fast_path_matches_reference_under_fuel_exhaustion(
        vals in vec(-2.0f64..2.0, 1..5),
        ops in vec(0u8..255, 1..6),
        fuel in 0u64..60,
    ) {
        let p = build_program(&vals, &ops, 25);
        assert_engines_agree(&p, &VmOptions { fuel, ..VmOptions::default() });
        assert_engines_agree(&p, &VmOptions { fuel, profile: true, ..VmOptions::default() });
    }

    #[test]
    fn snippet_shapes_match_reference_on_random_programs(
        xs in vec((-4.0f64..4.0, any::<bool>()), 8),
        ops in vec(any::<u64>(), 1..24),
        rsp in any::<u8>(),
        fuel in 0u64..80,
    ) {
        // Random registers, lanes and flags around the snippet kernels'
        // shapes, run to completion (or the stack-bound trap) and cut
        // off by fuel at a random step.
        let p = build_shape_program(&xs, &ops, rsp);
        assert_engines_agree(&p, &VmOptions::default());
        assert_engines_agree(&p, &VmOptions { fuel, ..VmOptions::default() });
        assert_engines_agree(&p, &VmOptions { fuel, profile: true, ..VmOptions::default() });
    }

    #[test]
    fn fast_path_matches_reference_on_instrumented_programs(
        vals in vec(-4.0f64..4.0, 1..6),
        ops in vec(0u8..255, 1..8),
        iters in 1i64..20,
        flags in vec(0u8..3, 64),
    ) {
        let p = build_program(&vals, &ops, iters);
        let tree = StructureTree::build(&p);
        // A random mixed configuration: single/double/ignore per candidate.
        // Ignore next to single can produce crash-on-miss traps, which both
        // engines must report identically (same trap, same instruction id).
        let mut cfg = Config::new();
        for (j, id) in tree.all_insns().into_iter().enumerate() {
            let fl = match flags[j % flags.len()] {
                0 => Flag::Single,
                1 => Flag::Double,
                _ => Flag::Ignore,
            };
            cfg.set_insn(id, fl);
        }
        // Full snippets, and the lean ones searches verify on.
        for lean in [false, true] {
            let (q, _) = rewrite(&p, &tree, &cfg, &RewriteOptions { lean, ..Default::default() });
            assert_engines_agree(&q, &VmOptions::default());
            assert_engines_agree(&q, &VmOptions { profile: true, ..VmOptions::default() });
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed regression corpus: deterministic hand-built programs that
// exercise every `InstKind` variant (and the trap paths), so backend
// coverage never depends on what proptest happens to generate.
// ---------------------------------------------------------------------------

use fpvm::{
    Cond, FpAluOp, FpLoc, Gpr, InstKind, IntOp, MathFun, MemRef, Prec, Terminator, Width, Xmm, GM,
    GMI, RM,
};

/// A kitchen-sink program touching every instruction kind: all FP ALU
/// ops (scalar/packed, single/double), sqrt, every math intrinsic, both
/// compares, every conversion, all move forms and widths, lane
/// extract/insert, every integer ALU op, lea in every addressing mode,
/// push/pop, call/ret, nop, and all terminator kinds.
fn kitchen_sink() -> Program {
    let mut g = Vec::new();
    for v in [2.25f64, -3.5, 1.75, 9.0, 0.5, 4.0, 6.25, 2.0] {
        g.extend_from_slice(&v.to_le_bytes());
    }
    g.extend_from_slice(&1.5f32.to_le_bytes());
    g.extend_from_slice(&(-0.75f32).to_le_bytes());
    g.extend_from_slice(&0.0625f64.to_le_bytes());

    let mut p = Program::new(1 << 14);
    let m = p.add_module("corpus");
    let fmain = p.add_function(m, "main");
    let finc = p.add_function(m, "inc");

    let bi = p.add_block(finc);
    p.funcs[finc.0 as usize].entry = bi;
    p.push_insn(
        bi,
        InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        },
    );
    p.block_mut(bi).term = Terminator::Ret;

    let b0 = p.add_block(fmain);
    let b_odd = p.add_block(fmain);
    let b_even = p.add_block(fmain);
    let b_j1 = p.add_block(fmain);
    let b_lt = p.add_block(fmain);
    let b_ge = p.add_block(fmain);
    let b_j2 = p.add_block(fmain);
    let b_gt = p.add_block(fmain);
    let b_le = p.add_block(fmain);
    let b_done = p.add_block(fmain);
    p.funcs[fmain.0 as usize].entry = b0;
    p.entry = fmain;
    p.globals = g;

    let arith = |op, prec, packed, dst, src| InstKind::FpArith { op, prec, packed, dst, src };

    // Integer setup + every lea addressing mode.
    p.push_insn(b0, InstKind::MovI { dst: GM::Reg(Gpr(1)), src: GMI::Imm(8) });
    p.push_insn(b0, InstKind::Lea { dst: Gpr(2), mem: MemRef::abs(16) });
    p.push_insn(b0, InstKind::Lea { dst: Gpr(3), mem: MemRef::base_disp(Gpr(1), 16) });
    p.push_insn(b0, InstKind::Lea { dst: Gpr(4), mem: MemRef::base_index(Gpr(1), Gpr(1), 2, 8) });
    p.push_insn(
        b0,
        InstKind::Lea {
            dst: Gpr(5),
            mem: MemRef { base: None, index: Some((Gpr(1), 4)), disp: 8 },
        },
    );
    // Integer moves in every direction.
    p.push_insn(b0, InstKind::MovI { dst: GM::Reg(Gpr(6)), src: GMI::Mem(MemRef::abs(0)) });
    p.push_insn(b0, InstKind::MovI { dst: GM::Mem(MemRef::abs(256)), src: GMI::Reg(Gpr(6)) });
    p.push_insn(
        b0,
        InstKind::MovI { dst: GM::Mem(MemRef::base_disp(Gpr(1), 256)), src: GMI::Imm(-99) },
    );
    // FP loads: every width and addressing shape.
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Reg(Xmm(0)),
            src: FpLoc::Mem(MemRef::abs(0)),
        },
    );
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Reg(Xmm(1)),
            src: FpLoc::Mem(MemRef::base_disp(Gpr(1), 0)),
        },
    );
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W32,
            dst: FpLoc::Reg(Xmm(3)),
            src: FpLoc::Mem(MemRef::abs(64)),
        },
    );
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W128,
            dst: FpLoc::Reg(Xmm(7)),
            src: FpLoc::Mem(MemRef::abs(32)),
        },
    );
    p.push_insn(
        b0,
        InstKind::MovF { width: Width::W64, dst: FpLoc::Reg(Xmm(2)), src: FpLoc::Reg(Xmm(0)) },
    );
    // Scalar double ALU: all six ops, register and memory sources.
    p.push_insn(b0, arith(FpAluOp::Add, Prec::Double, false, Xmm(0), RM::Reg(Xmm(1))));
    p.push_insn(b0, arith(FpAluOp::Sub, Prec::Double, false, Xmm(0), RM::Reg(Xmm(1))));
    p.push_insn(b0, arith(FpAluOp::Mul, Prec::Double, false, Xmm(0), RM::Mem(MemRef::abs(16))));
    p.push_insn(
        b0,
        arith(FpAluOp::Div, Prec::Double, false, Xmm(0), RM::Mem(MemRef::base_disp(Gpr(1), 16))),
    );
    p.push_insn(b0, arith(FpAluOp::Min, Prec::Double, false, Xmm(0), RM::Reg(Xmm(2))));
    p.push_insn(b0, arith(FpAluOp::Max, Prec::Double, false, Xmm(0), RM::Mem(MemRef::abs(56))));
    // The load→arith→store idiom the fused tier recognizes.
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Reg(Xmm(4)),
            src: FpLoc::Mem(MemRef::abs(24)),
        },
    );
    p.push_insn(b0, arith(FpAluOp::Mul, Prec::Double, false, Xmm(2), RM::Reg(Xmm(4))));
    p.push_insn(
        b0,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Mem(MemRef::abs(264)),
            src: FpLoc::Reg(Xmm(2)),
        },
    );
    // Sqrt and math intrinsics (double), sqrt(|x|) kept NaN-free and a
    // negative sqrt deliberately producing a NaN both engines must share.
    p.push_insn(
        b0,
        InstKind::FpSqrt {
            prec: Prec::Double,
            packed: false,
            dst: Xmm(5),
            src: RM::Mem(MemRef::abs(24)),
        },
    );
    p.push_insn(
        b0,
        InstKind::FpSqrt { prec: Prec::Double, packed: false, dst: Xmm(6), src: RM::Reg(Xmm(1)) },
    );
    for fun in [MathFun::Sin, MathFun::Cos, MathFun::Exp, MathFun::Log, MathFun::Abs, MathFun::Neg]
    {
        p.push_insn(
            b0,
            InstKind::FpMath { fun, prec: Prec::Double, dst: Xmm(5), src: RM::Reg(Xmm(5)) },
        );
    }
    p.push_insn(
        b0,
        InstKind::FpMath {
            fun: MathFun::Abs,
            prec: Prec::Single,
            dst: Xmm(3),
            src: RM::Reg(Xmm(3)),
        },
    );
    // Conversions, both directions and precisions.
    p.push_insn(b0, InstKind::CvtF2F { to: Prec::Single, dst: Xmm(8), src: RM::Reg(Xmm(0)) });
    p.push_insn(b0, InstKind::CvtF2F { to: Prec::Double, dst: Xmm(9), src: RM::Reg(Xmm(8)) });
    p.push_insn(b0, InstKind::CvtI2F { to: Prec::Double, dst: Xmm(10), src: GMI::Reg(Gpr(1)) });
    p.push_insn(b0, InstKind::CvtI2F { to: Prec::Single, dst: Xmm(11), src: GMI::Imm(-7) });
    p.push_insn(b0, InstKind::CvtF2I { from: Prec::Double, dst: Gpr(7), src: RM::Reg(Xmm(5)) });
    p.push_insn(b0, InstKind::CvtF2I { from: Prec::Single, dst: Gpr(8), src: RM::Reg(Xmm(3)) });
    // Single-precision ALU and sqrt.
    p.push_insn(b0, arith(FpAluOp::Add, Prec::Single, false, Xmm(3), RM::Reg(Xmm(11))));
    p.push_insn(b0, arith(FpAluOp::Div, Prec::Single, false, Xmm(3), RM::Mem(MemRef::abs(68))));
    p.push_insn(
        b0,
        InstKind::FpSqrt { prec: Prec::Single, packed: false, dst: Xmm(3), src: RM::Reg(Xmm(3)) },
    );
    // Packed forms, double and single.
    p.push_insn(b0, arith(FpAluOp::Add, Prec::Double, true, Xmm(7), RM::Mem(MemRef::abs(48))));
    p.push_insn(
        b0,
        InstKind::FpSqrt { prec: Prec::Double, packed: true, dst: Xmm(12), src: RM::Reg(Xmm(7)) },
    );
    p.push_insn(b0, arith(FpAluOp::Mul, Prec::Single, true, Xmm(7), RM::Reg(Xmm(7))));
    p.push_insn(
        b0,
        InstKind::FpSqrt { prec: Prec::Single, packed: true, dst: Xmm(13), src: RM::Reg(Xmm(7)) },
    );
    // Lane extract/insert, both lanes.
    p.push_insn(b0, InstKind::PExtrQ { dst: Gpr(9), src: Xmm(12), lane: 0 });
    p.push_insn(b0, InstKind::PExtrQ { dst: Gpr(10), src: Xmm(12), lane: 1 });
    p.push_insn(b0, InstKind::PInsrQ { dst: Xmm(14), src: Gpr(10), lane: 0 });
    p.push_insn(b0, InstKind::PInsrQ { dst: Xmm(14), src: Gpr(9), lane: 1 });
    // Reduced-precision quantize-and-reflag, several formats and both lanes.
    p.push_insn(b0, InstKind::FpTrunc { mant: 10, exp: 5, dst: Xmm(14), lane: 0 });
    p.push_insn(b0, InstKind::FpTrunc { mant: 7, exp: 8, dst: Xmm(14), lane: 1 });
    p.push_insn(b0, InstKind::FpTrunc { mant: 3, exp: 4, dst: Xmm(14), lane: 0 });
    // Every integer ALU op.
    p.push_insn(b0, InstKind::MovI { dst: GM::Reg(Gpr(11)), src: GMI::Imm(1000) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Add, dst: Gpr(11), src: GMI::Reg(Gpr(1)) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Sub, dst: Gpr(11), src: GMI::Imm(3) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Mul, dst: Gpr(11), src: GMI::Imm(7) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Div, dst: Gpr(11), src: GMI::Imm(11) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Rem, dst: Gpr(11), src: GMI::Imm(-13) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::And, dst: Gpr(11), src: GMI::Imm(0x7fff) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Or, dst: Gpr(11), src: GMI::Imm(0x1010) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Xor, dst: Gpr(11), src: GMI::Reg(Gpr(6)) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Shl, dst: Gpr(11), src: GMI::Imm(3) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Shr, dst: Gpr(11), src: GMI::Imm(2) });
    p.push_insn(b0, InstKind::IntAlu { op: IntOp::Sar, dst: Gpr(11), src: GMI::Imm(1) });
    p.push_insn(
        b0,
        InstKind::IntAlu { op: IntOp::Div, dst: Gpr(11), src: GMI::Mem(MemRef::abs(0)) },
    );
    // Stack ops.
    p.push_insn(b0, InstKind::Push { src: Gpr(11) });
    p.push_insn(b0, InstKind::Push { src: Gpr(1) });
    p.push_insn(b0, InstKind::Pop { dst: Gpr(12) });
    p.push_insn(b0, InstKind::Pop { dst: Gpr(13) });
    p.push_insn(b0, InstKind::Nop);
    // test + branch (fused test-br idiom).
    p.push_insn(b0, InstKind::Test { lhs: Gpr(11), src: GMI::Imm(1) });
    p.block_mut(b0).term = Terminator::Br { cond: Cond::Ne, then_: b_odd, else_: b_even };

    p.push_insn(b_odd, InstKind::MovI { dst: GM::Reg(Gpr(14)), src: GMI::Imm(111) });
    p.block_mut(b_odd).term = Terminator::Jmp(b_j1);
    p.push_insn(b_even, InstKind::MovI { dst: GM::Reg(Gpr(14)), src: GMI::Imm(222) });
    p.block_mut(b_even).term = Terminator::Jmp(b_j1);

    // cmp + branch (fused cmp-br idiom).
    p.push_insn(b_j1, InstKind::Cmp { lhs: Gpr(14), src: GMI::Imm(200) });
    p.block_mut(b_j1).term = Terminator::Br { cond: Cond::Lt, then_: b_lt, else_: b_ge };
    p.push_insn(b_lt, InstKind::IntAlu { op: IntOp::Add, dst: Gpr(14), src: GMI::Imm(1) });
    p.block_mut(b_lt).term = Terminator::Jmp(b_j2);
    p.push_insn(b_ge, InstKind::IntAlu { op: IntOp::Sub, dst: Gpr(14), src: GMI::Imm(1) });
    p.block_mut(b_ge).term = Terminator::Jmp(b_j2);

    // ucomi + branch (fused ucomi-br idiom), then a call and stores.
    p.push_insn(b_j2, InstKind::FpUcomi { prec: Prec::Double, lhs: Xmm(0), src: RM::Reg(Xmm(1)) });
    p.block_mut(b_j2).term = Terminator::Br { cond: Cond::Above, then_: b_gt, else_: b_le };
    p.push_insn(
        b_gt,
        InstKind::FpUcomi { prec: Prec::Single, lhs: Xmm(3), src: RM::Mem(MemRef::abs(64)) },
    );
    p.block_mut(b_gt).term = Terminator::Jmp(b_done);
    p.push_insn(b_le, InstKind::FpUcomi { prec: Prec::Single, lhs: Xmm(3), src: RM::Reg(Xmm(11)) });
    p.block_mut(b_le).term = Terminator::Jmp(b_done);

    p.push_insn(b_done, InstKind::Call { func: finc });
    p.push_insn(
        b_done,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Mem(MemRef::abs(272)),
            src: FpLoc::Reg(Xmm(0)),
        },
    );
    p.push_insn(
        b_done,
        InstKind::MovF {
            width: Width::W32,
            dst: FpLoc::Mem(MemRef::abs(280)),
            src: FpLoc::Reg(Xmm(3)),
        },
    );
    p.push_insn(
        b_done,
        InstKind::MovF {
            width: Width::W128,
            dst: FpLoc::Mem(MemRef::abs(288)),
            src: FpLoc::Reg(Xmm(13)),
        },
    );
    p.push_insn(b_done, InstKind::MovI { dst: GM::Mem(MemRef::abs(304)), src: GMI::Reg(Gpr(14)) });
    p.block_mut(b_done).term = Terminator::Halt;
    p
}

#[test]
fn corpus_covers_every_inst_kind() {
    let p = kitchen_sink();
    let mut kinds = std::collections::HashSet::new();
    for f in &p.funcs {
        for &b in &f.blocks {
            for insn in &p.block(b).insns {
                kinds.insert(std::mem::discriminant(&insn.kind));
            }
        }
    }
    // InstKind currently has 20 variants; if one is added, this corpus
    // must grow with it.
    assert_eq!(kinds.len(), 20, "corpus no longer covers every InstKind");
}

#[test]
fn corpus_agrees_across_engines() {
    let p = kitchen_sink();
    assert_engines_agree(&p, &VmOptions::default());
    assert_engines_agree(&p, &VmOptions { profile: true, ..VmOptions::default() });
}

#[test]
fn corpus_agrees_at_every_fuel_boundary() {
    let p = kitchen_sink();
    // Walk fuel through the whole program so exhaustion lands on every
    // op — including mid-fused-region, where the compiled backend must
    // fall back without over- or under-counting.
    let full = Vm::new(&p, VmOptions::default()).run().stats.steps;
    for fuel in 0..=full {
        assert_engines_agree(&p, &VmOptions { fuel, ..VmOptions::default() });
        assert_engines_agree(&p, &VmOptions { fuel, profile: true, ..VmOptions::default() });
    }
}

#[test]
fn corpus_trap_paths_agree() {
    // Division by zero inside a straight-line region.
    let mut p = Program::new(1 << 12);
    let m = p.add_module("t");
    let f = p.add_function(m, "main");
    let b = p.add_block(f);
    p.funcs[f.0 as usize].entry = b;
    p.entry = f;
    p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(1)), src: GMI::Imm(0) });
    p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(2)), src: GMI::Imm(5) });
    p.push_insn(b, InstKind::IntAlu { op: IntOp::Div, dst: Gpr(2), src: GMI::Reg(Gpr(1)) });
    p.push_insn(b, InstKind::Nop);
    p.block_mut(b).term = Terminator::Halt;
    assert_engines_agree(&p, &VmOptions::default());
    assert_engines_agree(&p, &VmOptions { profile: true, ..VmOptions::default() });

    // Out-of-bounds load mid-region.
    let mut p = Program::new(1 << 12);
    let m = p.add_module("t");
    let f = p.add_function(m, "main");
    let b = p.add_block(f);
    p.funcs[f.0 as usize].entry = b;
    p.entry = f;
    p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(1)), src: GMI::Imm(1 << 30) });
    p.push_insn(
        b,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Reg(Xmm(0)),
            src: FpLoc::Mem(MemRef::base_disp(Gpr(1), 0)),
        },
    );
    p.push_insn(b, InstKind::Nop);
    p.block_mut(b).term = Terminator::Halt;
    assert_engines_agree(&p, &VmOptions::default());
    assert_engines_agree(&p, &VmOptions { profile: true, ..VmOptions::default() });

    // Crash-on-miss: consuming a flagged (replaced) double must trap
    // with the same instruction id everywhere.
    let mut p = Program::new(1 << 12);
    let m = p.add_module("t");
    let f = p.add_function(m, "main");
    let b = p.add_block(f);
    p.funcs[f.0 as usize].entry = b;
    p.entry = f;
    p.globals = fpvm::value::replace(1.5).to_le_bytes().to_vec();
    p.push_insn(
        b,
        InstKind::MovF {
            width: Width::W64,
            dst: FpLoc::Reg(Xmm(0)),
            src: FpLoc::Mem(MemRef::abs(0)),
        },
    );
    p.push_insn(
        b,
        InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(0)),
        },
    );
    p.block_mut(b).term = Terminator::Halt;
    assert_engines_agree(&p, &VmOptions::default());
    assert_engines_agree(&p, &VmOptions { profile: true, ..VmOptions::default() });

    // Unbounded recursion must hit the call-depth trap identically.
    let mut p = Program::new(1 << 12);
    let m = p.add_module("t");
    let f = p.add_function(m, "main");
    let b = p.add_block(f);
    p.funcs[f.0 as usize].entry = b;
    p.entry = f;
    p.push_insn(b, InstKind::Call { func: f });
    p.block_mut(b).term = Terminator::Halt;
    assert_engines_agree(&p, &VmOptions::default());
    assert_engines_agree(&p, &VmOptions { profile: true, ..VmOptions::default() });
}

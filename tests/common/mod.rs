//! Helpers shared by the differential suites.

// Each suite compiles this module separately and uses only part of it.
#![allow(dead_code)]

use fpir::{
    f, fabs, fadd, fdiv, fmax, fmin, fmul, for_, fsqrt, fsub, i, irem, itof, ld, set, st, v,
    CompileOptions, IrProgram,
};
use fpvm::value::{replace, FLAG_HI64, HI_MASK};
use fpvm::{
    BlockId, Cond, FpLoc, Gpr, InstKind, IntOp, MemRef, Observer, Program, Terminator, Width, Xmm,
    GM, GMI,
};

/// Build a numerically busy random program from generator data: a loop
/// over `iters` iterations applying a chain of randomly chosen FP ops to
/// an accumulator and elements of a random input array.
pub fn build_program(vals: &[f64], ops: &[u8], iters: i64) -> Program {
    let mut ir = IrProgram::new("rand");
    let n = vals.len() as i64;
    let xs = ir.array_f64_init("xs", vals.to_vec());
    let out = ir.array_f64("out", 2);
    let ops = ops.to_vec();
    let main = ir.func("main", &[], None, move |ir, fr, _| {
        let s = ir.local_f(fr);
        let t = ir.local_f(fr);
        let k = ir.local_i(fr);
        let mut body = vec![set(t, ld(xs, irem(v(k), i(n))))];
        for (j, &op) in ops.iter().enumerate() {
            let e = match op % 8 {
                0 => fadd(v(s), v(t)),
                1 => fsub(v(s), v(t)),
                2 => fmul(v(s), v(t)),
                3 => fdiv(v(s), v(t)),
                4 => fmin(v(s), v(t)),
                5 => fmax(v(s), fmul(v(t), itof(v(k)))),
                6 => fsqrt(fabs(v(s))),
                _ => fadd(fmul(v(s), f(0.5)), fdiv(v(t), f(1.0 + j as f64))),
            };
            body.push(set(s, e));
        }
        vec![
            set(s, f(1.0)),
            set(t, f(0.0)),
            for_(k, i(0), i(iters), body),
            st(out, i(0), v(s)),
            st(out, i(1), v(t)),
        ]
    });
    ir.set_entry(main);
    fpir::compile(&ir, &CompileOptions::default())
}

/// Build a random program out of the fixed sequences the snippet emitter
/// wraps around every replaced instruction: scratch save (`push; push`)
/// and restore (`pop; pop`) pairs, the flag test with its branch, and
/// the set-flag. Each word of `ops` picks one sequence and its operands:
/// lane, input register, branch condition, and registers drawn at random,
/// so pairs alias and `%rsp` itself gets clobbered. Half the sequences tie
/// their registers the way the emitter does (one value register, one
/// scratch register); the rest draw every operand independently. `xs`
/// are the four input `xmm` registers' lanes (flagged when `true`); `rsp`
/// places the stack near either bound, so pairs trap on their first or
/// second op.
pub fn build_shape_program(xs: &[(f64, bool)], ops: &[u64], rsp: u8) -> Program {
    const REGS: [Gpr; 8] =
        [Gpr::RAX, Gpr::RBX, Gpr::RAX, Gpr::RBX, Gpr(2), Gpr(2), Gpr(3), Gpr::RSP];
    const MEM: usize = 1 << 12;
    let mut p = Program::new(MEM);
    let m = p.add_module("shapes");
    let f = p.add_function(m, "main");
    let entry = p.add_block(f);
    p.funcs[f.0 as usize].entry = entry;
    p.entry = f;
    for &(v, flagged) in xs.iter().cycle().take(8) {
        let bits = if flagged { replace(v) } else { v.to_bits() };
        p.globals.extend_from_slice(&bits.to_le_bytes());
    }
    for x in 0..4u8 {
        let src = FpLoc::Mem(MemRef::abs(16 * x as u64));
        p.push_insn(entry, InstKind::MovF { width: Width::W128, dst: FpLoc::Reg(Xmm(x)), src });
    }
    // A few slots below the top, or a few above the bottom.
    let slots = (rsp & 7) as i64 * 8;
    let sp = if rsp & 8 == 0 { MEM as i64 - slots } else { slots };
    p.push_insn(entry, InstKind::MovI { dst: GM::Reg(Gpr::RSP), src: GMI::Imm(sp) });
    let mut cur: BlockId = entry;
    for (k, &o) in ops.iter().enumerate() {
        let reg = |n: u64| REGS[(o >> (8 + 3 * n)) as usize & 7];
        let (r, s) = (reg(0), reg(1));
        let tied = o & 0x40 == 0;
        let pick = |n: u64, like: Gpr| if tied { like } else { reg(n) };
        let (x, lane) = (Xmm((o >> 2) as u8 & 3), (o >> 4) as u8 & 1);
        let (mask, last) = match o & 3 {
            0 => {
                p.push_insn(cur, InstKind::Push { src: r });
                p.push_insn(cur, InstKind::Push { src: s });
                continue;
            }
            1 => {
                p.push_insn(cur, InstKind::Pop { dst: r });
                p.push_insn(cur, InstKind::Pop { dst: s });
                continue;
            }
            2 => (HI_MASK as i64, InstKind::Cmp { lhs: pick(6, r), src: GMI::Reg(pick(7, s)) }),
            _ => (
                0xFFFF_FFFF,
                InstKind::IntAlu { op: IntOp::Or, dst: pick(6, r), src: GMI::Reg(pick(7, s)) },
            ),
        };
        p.push_insn(cur, InstKind::PExtrQ { dst: r, src: x, lane });
        p.push_insn(cur, InstKind::MovI { dst: GM::Reg(pick(2, s)), src: GMI::Imm(mask) });
        let and = InstKind::IntAlu { op: IntOp::And, dst: pick(3, r), src: GMI::Reg(pick(4, s)) };
        p.push_insn(cur, and);
        let flag = GMI::Imm(FLAG_HI64 as i64);
        p.push_insn(cur, InstKind::MovI { dst: GM::Reg(pick(5, s)), src: flag });
        p.push_insn(cur, last);
        if o & 3 == 3 {
            p.push_insn(cur, InstKind::PInsrQ { dst: x, src: pick(8, r), lane });
            continue;
        }
        let (then_, else_, join) = (p.add_block(f), p.add_block(f), p.add_block(f));
        let cond = if o & 0x20 == 0 { Cond::Eq } else { Cond::Ne };
        p.block_mut(cur).term = Terminator::Br { cond, then_, else_ };
        let tally = GMI::Imm(k as i64 + 1);
        p.push_insn(then_, InstKind::IntAlu { op: IntOp::Add, dst: Gpr(8), src: tally });
        p.push_insn(else_, InstKind::IntAlu { op: IntOp::Xor, dst: Gpr(8), src: tally });
        for b in [then_, else_] {
            p.block_mut(b).term = Terminator::Jmp(join);
        }
        cur = join;
    }
    for x in 0..4u8 {
        let dst = FpLoc::Mem(MemRef::abs(64 + 16 * x as u64));
        p.push_insn(cur, InstKind::MovF { width: Width::W128, dst, src: FpLoc::Reg(Xmm(x)) });
    }
    p.block_mut(cur).term = Terminator::Halt;
    p
}

/// A step-only observer that records nothing. On
/// `Vm::run_compiled_with` it selects the threaded tier, so a suite can
/// check that tier on its own.
pub struct Threaded;

impl Observer for Threaded {
    const STEPS: bool = true;
}

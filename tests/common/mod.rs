//! Helpers shared by the differential suites.

// Each suite compiles this module separately and uses only part of it.
#![allow(dead_code)]

use fpir::{
    f, fabs, fadd, fdiv, fmax, fmin, fmul, for_, fsqrt, fsub, i, irem, itof, ld, set, st, v,
    CompileOptions, IrProgram,
};
use fpvm::{Observer, Program};

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

/// A step-only observer that records nothing. On
/// `Vm::run_compiled_with` it selects the threaded tier, so a suite can
/// check that tier on its own.
pub struct Threaded;

impl Observer for Threaded {
    const STEPS: bool = true;
}

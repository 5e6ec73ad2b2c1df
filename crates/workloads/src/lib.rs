//! # workloads — benchmark programs for the analysis system
//!
//! Scaled-down analogues of the paper's evaluation subjects, written in
//! the `fpir` source language and compiled to `fpvm` binaries:
//!
//! * the seven NAS kernels (§3.1): [`nas::ep`], [`nas::cg`], [`nas::ft`],
//!   [`nas::mg`], [`nas::bt`], [`nas::lu`], [`nas::sp`], with class
//!   S/W/A/C problem sizes;
//! * the AMG microkernel (§3.2): [`amg`];
//! * a sparse LU linear solver with a memplus-like circuit matrix and a
//!   backward-error metric (§3.3): [`slu`];
//! * Matrix Market I/O ([`matmarket`]) for the SuperLU data set;
//! * a transcendental-heavy kernel in intrinsic and software-libm
//!   variants ([`mathmix`]) for the §2.5 special-handling ablation.
//!
//! Each workload packages the source program, a representative data set
//! (baked into the program's globals), and a verification routine that
//! compares outputs against the original double-precision run — the three
//! inputs of the paper's Fig. 2 pipeline.

#![warn(missing_docs)]

pub mod amg;
pub mod mathmix;
pub mod matmarket;
pub mod nas;
pub mod rng;
pub mod slu;
pub mod sparse;
pub mod vecops;

use fpir::{compile, CompileOptions, FpWidth, IrProgram};
use fpvm::program::Program;
use fpvm::{CompiledImage, Profile, RunStats, Vm, VmOptions};
use std::sync::Arc;

/// NAS-style problem classes; each workload maps these to concrete sizes
/// scaled for an interpreted substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Sample (tiny, unit-test sized).
    S,
    /// Workstation.
    W,
    /// Class A.
    A,
    /// Class C (largest; overhead experiments only).
    C,
}

impl Class {
    /// Short lowercase label (`"s"`, `"w"`, `"a"`, `"c"`).
    pub fn letter(self) -> &'static str {
        match self {
            Class::S => "s",
            Class::W => "w",
            Class::A => "a",
            Class::C => "c",
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.letter())
    }
}

/// A packaged benchmark: program, data set, and verification routine.
pub struct Workload {
    /// Benchmark name (e.g. `"cg"`).
    pub name: String,
    /// Problem class.
    pub class: Class,
    /// The source program.
    pub ir: IrProgram,
    /// Output arrays checked by verification: `(symbol, length)`.
    pub out_syms: Vec<(String, usize)>,
    /// Relative tolerance of the verification routine.
    pub tol: f64,
    /// Instruction budget for one run (trap beyond this).
    pub fuel: u64,
    prog: Program,
    reference: Arc<Vec<Vec<f64>>>,
    profile: Profile,
    stats: RunStats,
}

impl Workload {
    /// Package a workload: compiles the double-precision binary and runs
    /// it once, profiled, on the compiled engine. That one run captures
    /// both the reference outputs the verification routine compares
    /// against and the execution profile the search prioritizes by. A
    /// profiled compiled run takes the threaded tier, whose
    /// per-instruction counts equal the reference interpreter's.
    pub fn package(
        name: impl Into<String>,
        class: Class,
        ir: IrProgram,
        tol: f64,
        out_syms: Vec<(String, usize)>,
    ) -> Self {
        let name = name.into();
        let prog = compile(&ir, &CompileOptions { fp: FpWidth::F64 });
        let fuel = 4_000_000_000;
        let opts = VmOptions { fuel, profile: true, ..Default::default() };
        let image = CompiledImage::compile(&prog, &opts.cost);
        let mut vm = Vm::new(&prog, opts);
        let out = vm.run_compiled(&image);
        assert!(out.ok(), "workload {name}.{class} reference run trapped: {:?}", out.result);
        let reference: Vec<Vec<f64>> = out_syms
            .iter()
            .map(|(s, n)| {
                let a =
                    prog.symbol(s).unwrap_or_else(|| panic!("workload {name}: unknown symbol {s}"));
                vm.mem.read_f64_slice(a, *n).unwrap()
            })
            .collect();
        let (reference, stats) = (Arc::new(reference), out.stats);
        let profile = out.profile.expect("profiled reference run lost its profile");
        Workload { name, class, ir, out_syms, tol, fuel, prog, reference, profile, stats }
    }

    /// The compiled double-precision binary (the "original program").
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Compile the manually-converted single-precision binary (§3.1).
    pub fn compile_f32(&self) -> Program {
        compile(&self.ir, &CompileOptions { fp: FpWidth::F32 })
    }

    /// Reference outputs captured from the double run.
    pub fn reference(&self) -> &[Vec<f64>] {
        &self.reference
    }

    /// Per-instruction execution counts of the reference run (the
    /// search's prioritization profile, paper §2.2).
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Statistics of the reference run (steps, modelled cycles, FP ops).
    pub fn reference_stats(&self) -> RunStats {
        self.stats
    }

    /// Function names recommended for `ignore` flags (FP-trick RNGs).
    pub fn ignore_funcs(&self) -> Vec<String> {
        self.ir.ignore_hints()
    }

    /// The verification routine: every checked element within `tol`
    /// relative error of the double-precision reference.
    pub fn verifier(&self) -> impl Fn(&Vm<'_>) -> bool + Send + Sync + 'static {
        let syms: Vec<(u64, usize)> =
            self.out_syms.iter().map(|(s, n)| (self.prog.symbol(s).unwrap(), *n)).collect();
        let reference = Arc::clone(&self.reference);
        let tol = self.tol;
        move |vm: &Vm<'_>| {
            syms.iter().enumerate().all(|(k, &(addr, n))| match vm.mem.read_f64_slice(addr, n) {
                Ok(got) => got.iter().zip(&reference[k]).all(|(&g, &r)| rel_err(g, r) <= tol),
                Err(_) => false,
            })
        }
    }

    /// Maximum relative error of a halted machine's outputs against the
    /// reference (useful for threshold sweeps).
    pub fn max_rel_err(&self, vm: &Vm<'_>) -> f64 {
        let mut worst: f64 = 0.0;
        for (k, (s, n)) in self.out_syms.iter().enumerate() {
            let addr = self.prog.symbol(s).unwrap();
            if let Ok(got) = vm.mem.read_f64_slice(addr, *n) {
                for (&g, &r) in got.iter().zip(&self.reference[k]) {
                    worst = worst.max(rel_err(g, r));
                }
            } else {
                return f64::INFINITY;
            }
        }
        worst
    }

    /// VM options appropriate for this workload.
    pub fn vm_opts(&self) -> VmOptions {
        VmOptions { fuel: self.fuel, ..Default::default() }
    }
}

/// Relative error with an absolute floor of 1 (`|g−r| / max(|r|, 1)`),
/// NaN-propagating (NaN compares as infinite error).
pub fn rel_err(got: f64, reference: f64) -> f64 {
    let e = (got - reference).abs() / reference.abs().max(1.0);
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

/// All seven NAS analogues for a class, in the paper's Fig. 10 order.
pub fn nas_all(class: Class) -> Vec<Workload> {
    vec![
        nas::bt(class),
        nas::cg(class),
        nas::ep(class),
        nas::ft(class),
        nas::lu(class),
        nas::mg(class),
        nas::sp(class),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basics() {
        assert_eq!(rel_err(1.0, 1.0), 0.0);
        assert!(rel_err(1.1, 1.0) > 0.09);
        assert_eq!(rel_err(f64::NAN, 1.0), f64::INFINITY);
        // absolute floor avoids blowups near zero
        assert!(rel_err(1e-12, 0.0) < 1e-11);
    }
}

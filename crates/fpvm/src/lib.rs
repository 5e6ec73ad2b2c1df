//! # fpvm — the virtual floating-point machine
//!
//! This crate is the *binary substrate* of the reproduction: it stands in
//! for the x86-64 machine code, the XED decoder, and the executable images
//! that the original framework (built on Dyninst and Pin) operates on.
//!
//! It provides:
//!
//! * [`isa`] — an SSE2-modelled virtual instruction set: scalar and packed
//!   FP arithmetic on 128-bit XMM registers, integer ALU, flat memory,
//!   flags, and block-structured control flow;
//! * [`program`] — program images (modules → functions → basic blocks →
//!   instructions) with CFG editing primitives (block splitting, edge
//!   rewiring) used by the instrumentation layer;
//! * [`interp`] — a bit-faithful interpreter with profiling, fuel, and the
//!   crash-on-miss trap for replaced values;
//! * [`value`] — the in-place downcast-and-flag representation of replaced
//!   doubles (`0x7FF4DEAD`, paper Fig. 5);
//! * [`cost`] — a documented cycle/bandwidth model for *modelled* speedups;
//! * [`exec`] — the pre-decoded linear execution image the compiled
//!   backend binds, and the value-observer API ([`Observer`], [`FpEvent`]);
//! * [`compiled`] — the compiled backend: threaded-code dispatch over
//!   monomorphized op handlers, where observers run, plus block-fused
//!   superinstruction regions (bit-identical to [`interp`],
//!   differentially tested);
//! * [`cluster`] — an intra-node MPI-rank analogue for the scaling
//!   experiments (paper Fig. 8).

#![warn(missing_docs)]

pub mod cluster;
pub mod compiled;
pub mod cost;
pub mod exec;
pub mod interp;
pub mod isa;
pub mod mem;
pub mod profile;
pub mod program;
pub mod trap;
pub mod value;

pub use compiled::{Backend, CompiledImage, Idiom};
pub use cost::CostModel;
pub use exec::{ExecImage, FpEvent, FpLocV, Observer};
pub use interp::{RunOutcome, RunStats, Vm, VmOptions};
pub use isa::{
    BlockId, Charge, Cond, FpAluOp, FpLoc, FuncId, Gpr, Insn, InsnId, InstKind, IntOp, MathFun,
    MemRef, ModuleId, Prec, Terminator, Width, Xmm, GM, GMI, RM,
};
pub use mem::Memory;
pub use profile::Profile;
pub use program::{BasicBlock, Function, Module, Program};
pub use trap::Trap;

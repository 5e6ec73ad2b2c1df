//! # mpshadow — shadow-value runtime analysis
//!
//! The runtime-analysis half of the CRAFT system: run a program *once*
//! while maintaining, for every scalar-double register and memory slot
//! the run touches, a paired single-precision **shadow value** computed
//! by the same operations truncated to `f32`. Per instruction, the
//! divergence between the shadow twin and the primary double value is
//! accumulated into a [`SensitivityProfile`]:
//!
//! * maximum and mean relative divergence of the instruction's results,
//! * catastrophic-cancellation events (exponent-drop detection on
//!   additive operations),
//! * aggregates at any level of the same structure tree `mpconfig` uses.
//!
//! The engine attaches to the compiled backend's threaded tier as an
//! [`fpvm::Observer`] with the FP-event hook enabled; with no observer
//! the threaded loop is bit-identical and pays nothing (the hook is a
//! compile-time constant).
//! The resulting profile is a search oracle: `mpsearch` can rank
//! configurations by low shadow error and prune configurations whose
//! shadow error already exceeds the verification threshold.
//!
//! ```no_run
//! # let prog: fpvm::Program = unimplemented!();
//! let report = mpshadow::shadow_run(&prog, fpvm::VmOptions::default());
//! for (id, s) in &report.profile.insns {
//!     println!("insn {id}: max_rel={} cancels={}", s.max_rel, s.cancels);
//! }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod profile;

pub use engine::ShadowEngine;
pub use profile::{error_class, InsnSensitivity, SensitivityProfile};

use fpvm::{CompiledImage, Program, RunOutcome, Vm, VmOptions};

/// The outcome of one shadowed run: the sensitivity profile and the
/// primary execution's (unmodified) outcome.
#[derive(Debug)]
pub struct ShadowReport {
    /// Per-instruction error statistics.
    pub profile: SensitivityProfile,
    /// The primary run's outcome, exactly as an unshadowed run would
    /// have produced it.
    pub outcome: RunOutcome,
}

/// Run `prog` once with the shadow engine attached and return the
/// sensitivity profile plus the primary outcome. Compiles a fresh
/// [`CompiledImage`] under `opts.cost`.
pub fn shadow_run(prog: &Program, opts: VmOptions) -> ShadowReport {
    let image = CompiledImage::compile(prog, &opts.cost);
    let mut engine = ShadowEngine::new(prog.insn_id_bound());
    let mut vm = Vm::new(prog, opts);
    let outcome = vm.run_observed(&image, &mut engine);
    ShadowReport { profile: engine.into_profile(), outcome }
}

//! # mixedprec — the end-to-end mixed-precision analysis system
//!
//! The paper's Fig. 2 pipeline as one API: given an *original program*, a
//! *data set*, and a *verification routine* (packaged together as a
//! [`workloads::Workload`]), the system
//!
//! 1. generates the initial configuration (structure tree + `ignore`
//!    flags for constructs like FP-trick RNGs),
//! 2. profiles the original binary,
//! 3. runs the automatic breadth-first search over mixed-precision
//!    configurations (instrument → run → verify, in parallel),
//! 4. composes and tests the final union configuration, and
//! 5. reports a recommendation with static/dynamic replacement
//!    percentages and a modelled speedup.

#![warn(missing_docs)]

use fpvm::cost::CostModel;
use fpvm::isa::{FpAluOp, InstKind, Prec, Width};
use fpvm::{Profile, Vm};
use instrument::{rewrite_all_double, RewriteOptions};
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::{
    search_observed, SearchHooks, SearchOptions, SearchReport, ShadowOracle, VmEvaluator,
};
use std::sync::Arc;
use std::time::Instant;
use workloads::Workload;

pub mod http;
pub mod jobspec;
pub mod rundir;

pub use jobspec::JobSpec;
pub use mpsearch::StopDepth;

/// Context handed to [`EvalMiddleware::wrap`]: the structure tree the
/// evaluations index into, and a namespace string identifying every
/// option that changes an evaluation's verdict (see
/// [`JobSpec::cache_namespace`]) so cross-run state is never shared
/// between semantically different jobs.
pub struct WrapCtx<'a> {
    /// The workload's structure tree.
    pub tree: &'a StructureTree,
    /// Verdict-determining option fingerprint.
    pub namespace: String,
}

/// Interposes on configuration evaluation for a whole analysis run.
///
/// A long-running driver (the `craftd` daemon) installs one middleware
/// on every [`AnalysisSystem`] it builds; the middleware wraps the
/// system's private evaluator before each search, typically with a
/// cache shared *across* jobs. The wrapper sits *under* the search's
/// own per-run [`mpsearch::CachedEvaluator`], so its hits chain into
/// [`SearchReport::cache_hits`] via `Evaluator::stats`.
pub trait EvalMiddleware: Send + Sync {
    /// Wrap `inner` for one search run.
    fn wrap<'a>(
        &'a self,
        inner: &'a dyn mpsearch::Evaluator,
        ctx: &WrapCtx<'a>,
    ) -> Box<dyn mpsearch::Evaluator + 'a>;
}

/// Options for a full analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Search options (§2.2).
    pub search: SearchOptions,
    /// Rewriter options (§2.3–2.4).
    pub rewrite: RewriteOptions,
    /// Shadow-value analysis options (see `mpshadow`).
    pub shadow: ShadowOptions,
    /// Execution backend for verification runs and the fuel baseline
    /// (`--backend=`). All backends are bit-identical; this only changes
    /// trial throughput.
    pub backend: fpvm::Backend,
    /// Arm the numerical-health observer (`--num-health`): after the
    /// search, the final configuration is run once more under
    /// `mptrace`'s `NumProfiler` (an [`fpvm::Observer`]) and the
    /// per-instruction `fp.*` event counters are folded into the
    /// attached tracer (see [`AnalysisSystem::num_health_profile`]).
    pub num_health: bool,
}

/// How the shadow-value sensitivity profile guides the search.
#[derive(Debug, Clone)]
pub struct ShadowOptions {
    /// Rank search-queue items by low shadow error (profile counts break
    /// ties). Changes test *order* only, never results.
    pub prioritize: bool,
    /// Skip-as-failed items whose worst *instruction-local* shadow error
    /// exceeds `tolerance × prune_margin`, refining them directly.
    pub prune: bool,
    /// Margin between the workload's verification tolerance and the
    /// prune threshold. Ordinary one-step truncation error is ~1e-7
    /// relative; the margin keeps the threshold far above it so only
    /// instructions the shadow run shows to be genuinely amplified
    /// (cancellation blow-ups, f32 range overflow) are pruned.
    pub prune_margin: f64,
}

impl Default for ShadowOptions {
    fn default() -> Self {
        ShadowOptions { prioritize: false, prune: false, prune_margin: 100.0 }
    }
}

/// The assembled analysis system for one workload.
pub struct AnalysisSystem {
    workload: Workload,
    tree: StructureTree,
    base: Config,
    opts: AnalysisOptions,
    tracer: Option<mptrace::Tracer>,
    middleware: Option<(Arc<dyn EvalMiddleware>, String)>,
}

/// Overhead of the all-double instrumented binary relative to the
/// original (the base-case measurement of Figs. 8–9).
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Wall-clock ratio (instrumented / original).
    pub wall_x: f64,
    /// Dynamic instruction ratio.
    pub steps_x: f64,
    /// Modelled cycle ratio.
    pub cycles_x: f64,
    /// Candidates instrumented.
    pub instrumented: usize,
}

/// The final recommendation handed to the developer.
pub struct Recommendation {
    /// The search report (Fig. 10 row data).
    pub report: SearchReport,
    /// The recommended configuration rendered in the exchange format.
    pub config_text: String,
    /// Modelled speedup of a source-level conversion following the
    /// recommended configuration (per-operation cost model over the
    /// original profile).
    pub modelled_speedup: f64,
}

impl AnalysisSystem {
    /// Build the system: structure tree plus the initial configuration
    /// carrying `ignore` flags for the workload's hinted functions.
    pub fn new(workload: Workload) -> Self {
        Self::with_options(workload, AnalysisOptions::default())
    }

    /// Build with explicit options.
    pub fn with_options(workload: Workload, opts: AnalysisOptions) -> Self {
        let tree = StructureTree::build(workload.program());
        let mut base = Config::new();
        for name in workload.ignore_funcs() {
            for m in &tree.modules {
                for fun in &m.funcs {
                    if fun.name == name {
                        base.set_func(fun.id, Flag::Ignore);
                    }
                }
            }
        }
        AnalysisSystem { workload, tree, base, opts, tracer: None, middleware: None }
    }

    /// Install an evaluation middleware (see [`EvalMiddleware`]). The
    /// `namespace` should fingerprint every option that changes a
    /// verdict — [`JobSpec::cache_namespace`] builds the canonical one.
    pub fn set_middleware(&mut self, middleware: Arc<dyn EvalMiddleware>, namespace: String) {
        self.middleware = Some((middleware, namespace));
    }

    /// Attach a span/metric recorder. Every subsequent pipeline run
    /// (search, evaluation, rewriting, hot-spot profiling) records into
    /// it; hot instructions are labelled with their full structural path
    /// `module/func/b{block}@addr: disasm`, so snapshots are readable
    /// without the binary and `craft compare` can fold per-insn cycle
    /// deltas up the structure tree.
    pub fn set_tracer(&mut self, tracer: mptrace::Tracer) {
        for (_, e, path) in self.tree.insn_paths() {
            tracer.label_insn(e.id.0, path);
        }
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&mptrace::Tracer> {
        self.tracer.as_ref()
    }

    /// The structure tree of the original binary.
    pub fn tree(&self) -> &StructureTree {
        &self.tree
    }

    /// The initial (base) configuration.
    pub fn base_config(&self) -> &Config {
        &self.base
    }

    /// The packaged workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The options the system was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// The original binary's execution profile (used for search
    /// prioritization and the dynamic-replacement metric). It is the
    /// workload's reference run's profile, see [`Workload::profile`].
    pub fn profile(&self) -> &Profile {
        self.workload.profile()
    }

    /// Evaluate one configuration: instrument, run, verify.
    pub fn evaluate(&self, cfg: &Config) -> bool {
        use mpsearch::Evaluator as _;
        self.evaluator().evaluate(cfg)
    }

    fn evaluator(&self) -> VmEvaluator<'_> {
        let mut ev = VmEvaluator::with_options(
            self.workload.program(),
            &self.tree,
            self.workload.vm_opts(),
            self.opts.rewrite.clone(),
            self.workload.verifier(),
        );
        ev.set_backend(self.opts.backend);
        if let Some(t) = &self.tracer {
            ev.set_tracer(t.clone());
        }
        ev
    }

    /// Measure the all-double instrumentation overhead (Figs. 8–9): same
    /// semantics, every candidate checked.
    pub fn overhead_all_double(&self) -> OverheadReport {
        let prog = self.workload.program();
        let (instrumented, stats) = rewrite_all_double(prog, &self.tree);
        let vm_opts = self.workload.vm_opts();

        let t0 = Instant::now();
        let base = Vm::run_program(prog, vm_opts.clone());
        let base_wall = t0.elapsed();
        assert!(base.ok());

        let t1 = Instant::now();
        let instr = Vm::run_program(&instrumented, vm_opts);
        let instr_wall = t1.elapsed();
        assert!(instr.ok(), "all-double instrumented run failed: {:?}", instr.result);

        OverheadReport {
            wall_x: instr_wall.as_secs_f64() / base_wall.as_secs_f64().max(1e-9),
            steps_x: instr.stats.steps as f64 / base.stats.steps.max(1) as f64,
            cycles_x: instr.stats.cycles as f64 / base.stats.cycles.max(1) as f64,
            instrumented: stats.instrumented(),
        }
    }

    /// Run the automatic search (§2.2) and return the raw report.
    pub fn run_search(&self) -> SearchReport {
        self.run_search_with(&SearchHooks::default())
    }

    /// Run the workload once under the shadow-value engine and return
    /// the per-instruction sensitivity profile (see `mpshadow`).
    pub fn shadow_profile(&self) -> mpshadow::SensitivityProfile {
        mpshadow::shadow_run(self.workload.program(), self.workload.vm_opts()).profile
    }

    /// Run `cfg`'s instrumented program once under the numerical-health
    /// observer and return the per-instruction event profile, folded
    /// back to original instruction ids (instrumentation snippets
    /// attribute to the instruction they expand). The run uses the fast
    /// path whatever [`AnalysisOptions::backend`] says: the profiler is
    /// a value observer, which [`fpvm::Vm::run_compiled_with`] rejects.
    pub fn num_health_profile(&self, cfg: &Config) -> mptrace::numprof::NumProfiler {
        let prog = self.workload.program();
        let rewriter = instrument::Rewriter::new(prog, self.opts.rewrite.clone());
        let (instrumented, _) = rewriter.rewrite(prog, &self.tree, cfg);
        let vm_opts = self.workload.vm_opts();
        let image = fpvm::exec::ExecImage::compile(&instrumented, &vm_opts.cost);
        let mut prof = mptrace::numprof::NumProfiler::new(instrumented.insn_id_bound());
        let mut vm = Vm::new(&instrumented, vm_opts);
        let out = vm.run_image_with(&image, &mut prof);
        assert!(out.ok(), "num-health run of a verified config failed: {:?}", out.result);
        let origin = instrumented.origins();
        prof.fold_ids(prog.insn_id_bound(), |i| origin[i as usize])
    }

    /// [`AnalysisSystem::run_search`] with observability hooks: a JSONL
    /// event sink and/or a deterministic fault plan for the evaluation
    /// executor. Optionally runs the shadow analysis first and plugs it
    /// into the hooks as an oracle.
    pub fn run_search_with(&self, hooks: &SearchHooks<'_>) -> SearchReport {
        let tracer = hooks.tracer.or(self.tracer.as_ref());
        // The profile was taken when the workload was built; the span
        // keeps its name for trace continuity.
        let profile = {
            let _s = tracer.map(|t| t.span("profile"));
            self.profile()
        };
        let sh = &self.opts.shadow;
        let sprof = (sh.prioritize || sh.prune).then(|| {
            let _s = tracer.map(|t| t.span("shadow_profile"));
            self.shadow_profile()
        });
        let hooks = SearchHooks {
            bench: hooks.bench.clone(),
            faults: hooks.faults.clone(),
            events: hooks.events,
            stream: hooks.stream,
            tracer,
            shadow: sprof.as_ref().map(|sp| ShadowOracle {
                profile: sp,
                prioritize: sh.prioritize,
                prune_threshold: sh.prune.then_some(self.workload.tol * sh.prune_margin),
            }),
        };
        // The installed middleware (a daemon's cross-job cache) wraps
        // the evaluator *outside* this call; the search then stacks its
        // own per-run CachedEvaluator on top, so middleware hits chain
        // into the report's cache_hits through Evaluator::stats.
        let ev = self.evaluator();
        let wrapped = self
            .middleware
            .as_ref()
            .map(|(m, ns)| m.wrap(&ev, &WrapCtx { tree: &self.tree, namespace: ns.clone() }));
        let eval: &dyn mpsearch::Evaluator = match &wrapped {
            Some(b) => b.as_ref(),
            None => &ev,
        };
        let report =
            search_observed(&self.tree, &self.base, Some(profile), eval, &self.opts.search, &hooks);
        // Numerical health: one extra observed run of the final
        // configuration, folded into the tracer as the `fp.*` family.
        if self.opts.num_health {
            if let Some(t) = tracer {
                let _s = t.span("num_health");
                self.num_health_profile(&report.final_config).fold_into(t);
            }
        }
        report
    }

    /// Full pipeline: search, compose, and package the recommendation.
    pub fn recommend(&self) -> Recommendation {
        self.recommend_with(&SearchHooks::default())
    }

    /// [`AnalysisSystem::recommend`] with observability/fault-injection
    /// hooks for the underlying search.
    pub fn recommend_with(&self, hooks: &SearchHooks<'_>) -> Recommendation {
        let report = self.run_search_with(hooks);
        let config_text = mpconfig::print_config(&self.tree, &report.final_config);
        let modelled_speedup = model_speedup(
            self.workload.program(),
            &self.tree,
            &report.final_config,
            self.profile(),
            &CostModel::default(),
        );
        Recommendation { report, config_text, modelled_speedup }
    }
}

/// Modelled speedup of converting the recommended regions to single
/// precision at the source level: per-operation cost-model cycles over
/// the original profile, with replaced candidates costed at their
/// single-precision variant.
pub fn model_speedup(
    prog: &fpvm::Program,
    tree: &StructureTree,
    cfg: &Config,
    profile: &Profile,
    cost: &CostModel,
) -> f64 {
    // Dynamic replacement fraction, used to prorate FP data movement: a
    // source-level conversion shrinks the *arrays* the replaced regions
    // touch, halving the traffic of their loads/stores. Moves are not
    // candidates themselves, so we attribute the width reduction in
    // proportion to how much of the FP work was replaced.
    let mut cand_total = 0u128;
    let mut cand_repl = 0u128;
    for id in tree.all_insns() {
        let n = profile.count(id) as u128;
        cand_total += n;
        if cfg.effective(tree, id).is_replacement() {
            cand_repl += n;
        }
    }
    let w = if cand_total == 0 { 0.0 } else { cand_repl as f64 / cand_total as f64 };

    let mut orig = 0.0f64;
    let mut mixed = 0.0f64;
    for (_, _, insn) in prog.iter_insns() {
        let n = profile.count(insn.id) as f64;
        if n == 0.0 {
            continue;
        }
        let c_orig = cost.cost(&insn.kind) as f64;
        // Reduced formats (half/bf16/custom) are costed at their
        // single-precision variant: the emulation executes the single op
        // plus a quantize, and a source-level conversion would use the
        // same 32-bit datapath on scalar hardware — the model stays
        // conservative rather than inventing 16-bit op costs.
        let c_mixed = if insn.kind.is_candidate() && cfg.effective(tree, insn.id).is_replacement() {
            cost.cost(&to_single(&insn.kind)) as f64
        } else if let InstKind::MovF { width, dst, src } = &insn.kind {
            match width {
                Width::W64 | Width::W128 => {
                    let narrow = InstKind::MovF {
                        width: if *width == Width::W64 { Width::W32 } else { Width::W64 },
                        dst: *dst,
                        src: *src,
                    };
                    w * cost.cost(&narrow) as f64 + (1.0 - w) * c_orig
                }
                Width::W32 => c_orig,
            }
        } else {
            c_orig
        };
        orig += n * c_orig;
        mixed += n * c_mixed;
    }
    if mixed == 0.0 {
        1.0
    } else {
        orig / mixed
    }
}

fn to_single(kind: &InstKind) -> InstKind {
    let mut k = kind.clone();
    match &mut k {
        InstKind::FpArith { prec, .. }
        | InstKind::FpSqrt { prec, .. }
        | InstKind::FpMath { prec, .. }
        | InstKind::FpUcomi { prec, .. }
        | InstKind::CvtF2I { from: prec, .. } => *prec = Prec::Single,
        InstKind::CvtF2F { .. } => {
            // a narrowing conversion disappears in an all-single source;
            // model it as a cheap register-register single op
            k = InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Single,
                packed: false,
                dst: fpvm::Xmm(0),
                src: fpvm::RM::Reg(fpvm::Xmm(0)),
            };
        }
        _ => {}
    }
    k
}

/// Measured + modelled speedup of the whole-program manual f32 conversion
/// (the paper's AMG §3.2 and SuperLU §3.3 experiments).
pub struct ConversionSpeedup {
    /// Modelled cycle ratio f64/f32 (the headline number; captures the
    /// bandwidth/SIMD/issue effects an interpreter cannot show).
    pub modelled: f64,
    /// Interpreter wall-clock ratio (for completeness).
    pub wall: f64,
    /// Dynamic instruction ratio.
    pub steps: f64,
}

/// Measure [`ConversionSpeedup`] for a workload.
pub fn conversion_speedup(w: &Workload) -> ConversionSpeedup {
    let p64 = w.program();
    let p32 = w.compile_f32();
    let opts = w.vm_opts();

    let t0 = Instant::now();
    let o64 = Vm::run_program(p64, opts.clone());
    let w64 = t0.elapsed();
    let t1 = Instant::now();
    let o32 = Vm::run_program(&p32, opts);
    let w32 = t1.elapsed();
    assert!(o64.ok() && o32.ok());

    ConversionSpeedup {
        modelled: o64.stats.cycles as f64 / o32.stats.cycles.max(1) as f64,
        wall: w64.as_secs_f64() / w32.as_secs_f64().max(1e-9),
        steps: o64.stats.steps as f64 / o32.stats.steps.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Class;

    fn fast_opts() -> AnalysisOptions {
        AnalysisOptions {
            search: SearchOptions { threads: 2, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn overhead_is_real_and_semantics_preserving() {
        let sys = AnalysisSystem::new(workloads::nas::ep(Class::S));
        let o = sys.overhead_all_double();
        assert!(o.steps_x > 1.5, "instrumentation too cheap: {}x", o.steps_x);
        assert!(o.steps_x < 100.0, "instrumentation absurdly expensive: {}x", o.steps_x);
        assert!(o.instrumented > 10);
    }

    #[test]
    fn amg_fully_replaceable_with_speedup() {
        let sys = AnalysisSystem::with_options(workloads::amg::amg(Class::S), fast_opts());
        let rec = sys.recommend();
        assert!(rec.report.final_pass, "AMG final configuration must verify");
        assert!(
            (rec.report.static_pct - 100.0).abs() < 1e-9,
            "AMG should be fully replaceable, got {:.1}%",
            rec.report.static_pct
        );
        assert!(rec.modelled_speedup > 1.3, "modelled speedup {}", rec.modelled_speedup);
        assert!(rec.config_text.contains("MODULE"));
    }

    #[test]
    fn ep_search_ignores_the_rng() {
        let sys = AnalysisSystem::with_options(workloads::nas::ep(Class::S), fast_opts());
        let rec = sys.recommend();
        let tree = sys.tree();
        for m in &tree.modules {
            for fun in &m.funcs {
                if fun.name == "randlc" {
                    for b in &fun.blocks {
                        for e in &b.insns {
                            assert_eq!(rec.report.final_config.effective(tree, e.id), Flag::Ignore);
                        }
                    }
                }
            }
        }
        assert!(rec.report.static_pct > 50.0, "static {}%", rec.report.static_pct);
    }

    #[test]
    fn conversion_speedup_favors_f32() {
        let s = conversion_speedup(&workloads::amg::amg(Class::S));
        assert!(s.modelled > 1.2, "modelled {}", s.modelled);
    }
}

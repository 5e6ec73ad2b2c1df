//! Configuration evaluation: rewrite → run → verify.
//!
//! The evaluation pipeline is the search's hot loop, so this module stacks
//! three optimizations on top of the naive rewrite-interpret-verify cycle:
//!
//! * instrumented programs come from an incremental [`Rewriter`] that
//!   caches per-block expansions across configurations;
//! * runs go through the pre-decoded [`ExecImage`] fast path instead of
//!   the tree-walking reference interpreter;
//! * each run gets a fuel budget derived from the all-double baseline, so
//!   diverging candidates fail fast instead of burning the global fuel cap.
//!
//! [`CachedEvaluator`] adds result memoization on top of any evaluator,
//! keyed by the configuration's effective replaced-instruction set.

use fpvm::exec::ExecImage;
use fpvm::program::Program;
use fpvm::{Backend, CompiledImage, Memory, Trap, Vm, VmOptions};
use instrument::{rewrite_all_double, RewriteOptions, Rewriter};
use mpconfig::{Config, StructureTree};
use mptrace::profiler::InsnProfiler;
use mptrace::Tracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Operational counters an [`Evaluator`] may expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluations answered from a result cache without running anything.
    pub cache_hits: usize,
    /// Evaluations aborted by the per-run fuel budget (diverging
    /// candidates cut off early).
    pub fuel_capped: usize,
}

/// Per-run knobs the executor passes down to an evaluation attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunControl {
    /// Additional fuel ceiling for this run, layered under the
    /// evaluator's own budget (used by the executor's fault injection and
    /// per-run fuel policy). Evaluators that cannot honor it may ignore
    /// it.
    pub fuel_override: Option<u64>,
}

/// The detailed outcome of one evaluation attempt, as the executor sees
/// it before classifying a [`Verdict`](crate::executor::Verdict).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Did the run complete and verify?
    pub pass: bool,
    /// Fuel spent: dynamic instructions executed (0 if the evaluator does
    /// not track it).
    pub steps: u64,
    /// Trap kind (`fpvm::Trap::kind`) if the run ended abnormally.
    pub trap: Option<&'static str>,
    /// Whether the result was served from a cache without running.
    pub cache_hit: bool,
}

impl EvalOutcome {
    /// A bare pass/fail outcome with no accounting attached.
    pub fn from_pass(pass: bool) -> Self {
        EvalOutcome { pass, ..Default::default() }
    }
}

/// Something that can judge a precision configuration. `evaluate` must be
/// thread-safe: the search calls it from many workers at once.
pub trait Evaluator: Sync {
    /// Build the mixed-precision binary for `cfg`, run it on the
    /// representative data set, and apply the verification routine.
    fn evaluate(&self, cfg: &Config) -> bool;

    /// Like [`Evaluator::evaluate`], but honoring per-run controls and
    /// reporting fuel/trap accounting. The default implementation
    /// delegates to `evaluate` and reports no accounting.
    fn evaluate_run(&self, cfg: &Config, _ctl: &RunControl) -> EvalOutcome {
        EvalOutcome::from_pass(self.evaluate(cfg))
    }

    /// Operational counters accumulated so far (all zero by default).
    fn stats(&self) -> EvalStats {
        EvalStats::default()
    }
}

/// The standard evaluator: instruments a program under the configuration,
/// executes it, and applies a user verification closure to the final
/// machine state (paper Fig. 2's "Data Set + Verification Routine" box).
///
/// Internally it reuses an incremental rewriter, a pool of memory buffers,
/// and a per-run fuel budget of `fuel_factor ×` the all-double baseline
/// step count (never above `vm_opts.fuel`), computed lazily on first use.
pub struct VmEvaluator<'p> {
    prog: &'p Program,
    tree: &'p StructureTree,
    vm_opts: VmOptions,
    verify: Box<dyn Fn(&Vm<'_>) -> bool + Sync + Send>,
    rewriter: Rewriter,
    fuel_factor: u64,
    budget: OnceLock<u64>,
    fuel_capped: AtomicUsize,
    mem_pool: Mutex<Vec<Memory>>,
    tracer: Option<Tracer>,
    backend: Backend,
}

impl<'p> VmEvaluator<'p> {
    /// Construct with default VM/rewrite options.
    pub fn new(
        prog: &'p Program,
        tree: &'p StructureTree,
        verify: impl Fn(&Vm<'_>) -> bool + Sync + Send + 'static,
    ) -> Self {
        Self::with_options(prog, tree, VmOptions::default(), RewriteOptions::default(), verify)
    }

    /// Construct with explicit VM and rewrite options (the rewrite mode is
    /// normally `Config`; `lean` is selectable).
    pub fn with_options(
        prog: &'p Program,
        tree: &'p StructureTree,
        vm_opts: VmOptions,
        rewrite_opts: RewriteOptions,
        verify: impl Fn(&Vm<'_>) -> bool + Sync + Send + 'static,
    ) -> Self {
        VmEvaluator {
            prog,
            tree,
            vm_opts,
            verify: Box::new(verify),
            rewriter: Rewriter::new(prog, rewrite_opts),
            fuel_factor: 8,
            budget: OnceLock::new(),
            fuel_capped: AtomicUsize::new(0),
            mem_pool: Mutex::new(Vec::new()),
            tracer: None,
            backend: Backend::default(),
        }
    }

    /// Select the execution backend for verification runs. Traced runs
    /// attach a step profiler, so `Interp` runs them on the fast path
    /// (the reference interpreter has no observer hook).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The execution backend verification runs use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Attach a [`Tracer`]: evaluations get rewrite/run spans and
    /// latency histograms, and every run feeds the per-instruction
    /// hot-spot profile — time spent in rewritten snippet instructions
    /// is attributed back to the original instruction they expand
    /// (`Insn::origin`). Untraced evaluators skip all of this.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.rewriter.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Override the fuel-budget factor. The per-run budget is
    /// `factor × all-double baseline steps` (capped at `vm_opts.fuel`);
    /// `0` disables the budget entirely.
    pub fn set_fuel_factor(&mut self, factor: u64) {
        self.fuel_factor = factor;
    }

    /// Fragment-cache `(hits, misses)` of the incremental rewriter.
    pub fn rewrite_cache_stats(&self) -> (u64, u64) {
        self.rewriter.cache_stats()
    }

    fn fuel_budget(&self) -> u64 {
        if self.fuel_factor == 0 {
            return self.vm_opts.fuel;
        }
        *self.budget.get_or_init(|| {
            // The all-double instrumented run is the yardstick: every
            // candidate carries comparable instrumentation overhead, so a
            // healthy run stays within a small multiple of its step count.
            let (base, _) = rewrite_all_double(self.prog, self.tree);
            let out = Vm::run_program(&base, self.vm_opts.clone());
            match out.result {
                Ok(()) => {
                    out.stats.steps.saturating_mul(self.fuel_factor).clamp(1, self.vm_opts.fuel)
                }
                // Baseline itself failed — no meaningful yardstick.
                Err(_) => self.vm_opts.fuel,
            }
        })
    }
}

impl Evaluator for VmEvaluator<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        let rewrite_span = self.tracer.as_ref().map(|t| t.span("rewrite"));
        let (instrumented, _) = self.rewriter.rewrite(self.prog, self.tree, cfg);
        let image = ExecImage::compile(&instrumented, &self.vm_opts.cost);
        let cimg = (self.backend == Backend::Compiled).then(|| CompiledImage::from_image(&image));
        drop(rewrite_span);
        let mut fuel = self.fuel_budget();
        if let Some(cap) = ctl.fuel_override {
            fuel = fuel.min(cap.max(1));
        }
        let mut opts = self.vm_opts.clone();
        opts.fuel = fuel;
        let mem = self.mem_pool.lock().unwrap().pop().unwrap_or_else(|| Memory::new(0, &[]));
        let mut vm = Vm::with_memory(&instrumented, opts, mem);
        let run_span = self.tracer.as_ref().map(|t| t.span("run"));
        let t0 = Instant::now();
        let outcome = match &self.tracer {
            // Traced: profile the run, then attribute snippet-insn time
            // back to the original instruction each snippet expands.
            Some(tracer) => {
                let mut prof = InsnProfiler::new(instrumented.insn_id_bound());
                // A step observer keeps compiled runs on the threaded
                // tier, whose attribution is exact.
                let outcome = match &cimg {
                    Some(c) => vm.run_compiled_with(c, &mut prof),
                    None => vm.run_image_with(&image, &mut prof),
                };
                let mut origin: Vec<u32> = (0..instrumented.insn_id_bound() as u32).collect();
                for (_, _, insn) in instrumented.iter_insns() {
                    if let Some(o) = insn.origin {
                        origin[insn.id.0 as usize] = o.0;
                    }
                }
                let mut folded = InsnProfiler::default();
                prof.fold_into(&mut folded, |i| origin[i as usize]);
                tracer.merge_hot(&folded);
                outcome
            }
            None => match (&cimg, self.backend) {
                (Some(c), _) => vm.run_compiled(c),
                (None, Backend::Interp) => vm.run(),
                (None, _) => vm.run_image(&image),
            },
        };
        drop(run_span);
        if let Some(t) = &self.tracer {
            t.incr("eval.runs", 1);
            t.observe("eval.run_us", t0.elapsed().as_micros() as u64);
            t.observe("eval.steps", outcome.stats.steps);
        }
        // Any trap — including crash-on-miss and fuel exhaustion — is a
        // verification failure.
        let pass = outcome.ok() && (self.verify)(&vm);
        if fuel < self.vm_opts.fuel && matches!(outcome.result, Err(Trap::FuelExhausted)) {
            self.fuel_capped.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.tracer {
                t.incr("eval.fuel_capped", 1);
            }
        }
        self.mem_pool.lock().unwrap().push(std::mem::replace(&mut vm.mem, Memory::new(0, &[])));
        EvalOutcome {
            pass,
            steps: outcome.stats.steps,
            trap: outcome.result.err().map(|t| t.kind()),
            cache_hit: false,
        }
    }

    fn stats(&self) -> EvalStats {
        EvalStats { cache_hits: 0, fuel_capped: self.fuel_capped.load(Ordering::Relaxed) }
    }
}

/// Memoizes another evaluator by the *effect* of a configuration: its
/// effective replaced-instruction set.
///
/// Distinct configurations frequently instrument identically — the final
/// union config repeats a passing trial, binary splitting re-derives a
/// child's set when its sibling partition is empty, and the second phase
/// retests subsets — so the cache turns those into constant-time lookups.
///
/// Soundness: within one search every trial shares the same base config,
/// so `Ignore` flags (and hence the candidate set) are constant; two
/// configs with equal effective replacement maps — the same instructions
/// at the same formats (the key packs `(insn, mantissa, exponent)`, see
/// [`Config::replacement_key`]) — produce the same rewritten program and
/// therefore the same verdict.
pub struct CachedEvaluator<'a> {
    inner: &'a dyn Evaluator,
    tree: &'a StructureTree,
    cache: Mutex<HashMap<Vec<u64>, EvalOutcome>>,
    hits: AtomicUsize,
}

impl<'a> CachedEvaluator<'a> {
    /// Wrap `inner`, memoizing by effective replaced set under `tree`.
    pub fn new(inner: &'a dyn Evaluator, tree: &'a StructureTree) -> Self {
        CachedEvaluator {
            inner,
            tree,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
        }
    }

    /// Number of evaluations served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

impl Evaluator for CachedEvaluator<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        // A fuel-overridden (starved) run is not representative: bypass
        // the cache entirely so it neither reads nor poisons entries.
        if ctl.fuel_override.is_some() {
            return self.inner.evaluate_run(cfg, ctl);
        }
        let key = cfg.replacement_key(self.tree);
        if let Some(&v) = self.cache.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return EvalOutcome { cache_hit: true, ..v };
        }
        // Concurrent misses on the same key may both evaluate; results are
        // deterministic, so the duplicate insert is harmless.
        let v = self.inner.evaluate_run(cfg, ctl);
        self.cache.lock().unwrap().insert(key, v);
        v
    }

    fn stats(&self) -> EvalStats {
        let mut s = self.inner.stats();
        s.cache_hits += self.hits();
        s
    }
}

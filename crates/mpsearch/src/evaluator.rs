//! Configuration evaluation: rewrite → run → verify.
//!
//! The evaluation pipeline is the search's hot loop, so this module stacks
//! four optimizations on top of the naive rewrite-interpret-verify cycle:
//!
//! * instrumented code comes from an incremental [`Rewriter`] that
//!   caches per-block expansions across configurations, and with them
//!   their compiled code: a compiled run's image is linked from cached
//!   chunks, and no instrumented [`Program`] is built unless the
//!   interpreter runs it;
//! * with lean snippets, a compiled run leaves every double candidate
//!   that the reach analysis ([`instrument::reach`]) proves no replaced
//!   value reaches bare, charged as its snippet so that steps and fuel
//!   are unchanged. The crash-on-miss trap is the safety net: a pruned
//!   run that ends in any trap is run again with every candidate
//!   instrumented, and that outcome is final;
//! * runs go through the selected [`Backend`], by default the compiled
//!   engine rather than the tree-walking reference interpreter;
//! * each run is bounded by fuel, so diverging candidates fail fast
//!   instead of burning the global fuel cap. The budget is
//!   `FUEL_FACTOR` × the all-double baseline's steps, but the baseline
//!   runs only when a candidate needs it: until then runs get a floor
//!   derived from the reference run's steps, which never exceeds the
//!   budget, and only a run that exhausts the floor waits for the
//!   baseline and is rerun under the budget (see [`VmEvaluator`]).
//!
//! Repeated configurations never get here: the search driver settles
//! them from its verdict store ([`crate::VerdictStore`]).

use fpvm::program::Program;
use fpvm::{Backend, CompiledImage, Memory, RunOutcome, Trap, Vm, VmOptions};
use instrument::{rewrite_all_double, Patch, RewriteOptions, Rewriter};
use mpconfig::{Config, StructureTree};
use mptrace::profiler::InsnProfiler;
use mptrace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Operational counters an [`Evaluator`] may expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluations aborted by the per-run fuel budget (diverging
    /// candidates cut off early).
    pub fuel_capped: usize,
    /// Pruned runs that trapped `FlaggedNanConsumed` and were run again
    /// with every candidate instrumented: a bare candidate the reach
    /// analysis missed consumed a replaced value.
    pub reach_misses: usize,
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

/// A healthy run's fuel budget, as a multiple of the all-double baseline.
const FUEL_FACTOR: u64 = 8;

/// The standard evaluator: instruments a program under the configuration,
/// executes it, and applies a user verification closure to the final
/// machine state (paper Fig. 2's "Data Set + Verification Routine" box).
///
/// Internally it reuses an incremental rewriter and a pool of memory
/// buffers, and bounds every run by one fuel rule. With `S_ref` the
/// original program's step count and `S_base` the all-double
/// instrumented baseline's, the budget is
/// `B = FUEL_FACTOR × max(S_base, S_ref)` and the floor is
/// `F = FUEL_FACTOR × S_ref`, both clamped to `1..=vm_opts.fuel`, so
/// `F ≤ B`. A run gets `B` once the baseline has run, and `F` before
/// that (a [`RunControl::fuel_override`] caps either). Fuel only bounds
/// a run, so a run that ends any way other than fuel exhaustion below
/// the budget ends the same way under the budget. A run that exhausts
/// the floor computes `B` (one baseline run on the selected backend,
/// once per evaluator) and is rerun from the same linked image. A
/// search therefore pays for the baseline only if some candidate runs
/// longer than `F`, and every outcome equals a run under `B`.
///
/// A compiled evaluation with lean snippets runs the rewriter's pruned
/// patch ([`Rewriter::patch`]); if that run ends in any trap and the patch
/// left a candidate bare, the evaluation starts over on the full patch
/// ([`Rewriter::patch_full`]), fuel rule included, and only that run
/// counts. Interpreter runs, the reference the compiled engine is checked
/// against, and runs without the crash-on-miss trap always take the full
/// patch.
pub struct VmEvaluator<'p> {
    prog: &'p Program,
    tree: &'p StructureTree,
    vm_opts: VmOptions,
    verify: Box<dyn Fn(&Vm<'_>) -> bool + Sync + Send>,
    rewriter: Rewriter,
    ref_steps: u64,
    budget: OnceLock<u64>,
    fuel_capped: AtomicUsize,
    /// Full reruns by the trap kind of the pruned run that needed one.
    reruns: Mutex<Vec<(&'static str, usize)>>,
    mem_pool: Mutex<Vec<Memory>>,
    /// Code-less copies of `prog` (its memory size and data segment) for
    /// runs of a linked image: the VM reads nothing else of a program on
    /// the compiled backend.
    shells: Mutex<Vec<Program>>,
    tracer: Option<Tracer>,
    backend: Backend,
}

impl<'p> VmEvaluator<'p> {
    /// Construct with default VM/rewrite options. `ref_steps` is the step
    /// count of one run of the original `prog`; it sets the fuel floor.
    pub fn new(
        prog: &'p Program,
        tree: &'p StructureTree,
        ref_steps: u64,
        verify: impl Fn(&Vm<'_>) -> bool + Sync + Send + 'static,
    ) -> Self {
        Self::with_options(
            prog,
            tree,
            ref_steps,
            VmOptions::default(),
            RewriteOptions::default(),
            verify,
        )
    }

    /// Construct with explicit VM and rewrite options (the rewrite mode is
    /// normally `Config`; searches pass lean snippets, the options of
    /// `mixedprec::AnalysisOptions::default()`). `ref_steps` is the step
    /// count of one run of the original `prog` (a workload's
    /// `reference_stats().steps`).
    pub fn with_options(
        prog: &'p Program,
        tree: &'p StructureTree,
        ref_steps: u64,
        vm_opts: VmOptions,
        rewrite_opts: RewriteOptions,
        verify: impl Fn(&Vm<'_>) -> bool + Sync + Send + 'static,
    ) -> Self {
        VmEvaluator {
            prog,
            tree,
            verify: Box::new(verify),
            rewriter: Rewriter::with_cost_model(prog, rewrite_opts, vm_opts.cost.clone()),
            vm_opts,
            ref_steps,
            budget: OnceLock::new(),
            fuel_capped: AtomicUsize::new(0),
            reruns: Mutex::new(Vec::new()),
            mem_pool: Mutex::new(Vec::new()),
            shells: Mutex::new(Vec::new()),
            tracer: None,
            backend: Backend::default(),
        }
    }

    /// Select the execution backend for verification runs and the
    /// all-double fuel baseline. Traced runs count executions on the
    /// same backend (`profile: true`); under `Compiled` they stay on the
    /// fused tier.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The execution backend verification runs use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Attach a [`Tracer`]: evaluations get rewrite (with the rewriter's
    /// `reach` span inside it), materialize (interpreter backend), link
    /// (compiled backend), run and verify spans and latency histograms,
    /// the baseline run (if one is needed) a `baseline` span, a full
    /// rerun the `eval.full_reruns` counter and a reach miss the
    /// `eval.reach_misses` counter, and every final run feeds the
    /// per-instruction
    /// hot-spot profile: its execution counts priced by the cost model
    /// over the patch's instructions, with time spent in rewritten
    /// snippet instructions attributed back to the original instruction
    /// they expand (`Insn::origin`). Untraced evaluators skip all of
    /// this.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.rewriter.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// Full reruns so far, by the trap kind of the pruned run that needed
    /// one, in the order the kinds first occurred.
    pub fn full_reruns(&self) -> Vec<(&'static str, usize)> {
        self.reruns.lock().unwrap().clone()
    }

    /// `FUEL_FACTOR × steps`, clamped to `1..=vm_opts.fuel`.
    fn scaled(&self, steps: u64) -> u64 {
        steps.saturating_mul(FUEL_FACTOR).clamp(1, self.vm_opts.fuel)
    }

    /// The fuel a run gets before the baseline has run.
    fn fuel_floor(&self) -> u64 {
        self.scaled(self.ref_steps)
    }

    /// The fuel budget, running the baseline on first use.
    fn fuel_budget(&self) -> u64 {
        *self.budget.get_or_init(|| {
            // The all-double instrumented run is the yardstick: every
            // candidate carries comparable instrumentation overhead, so a
            // healthy run stays within a small multiple of its step count.
            // Engines are bit-identical, so it runs on the selected one.
            let _span = self.tracer.as_ref().map(|t| t.span("baseline"));
            let (base, _) = rewrite_all_double(self.prog, self.tree);
            let cimg = (self.backend == Backend::Compiled)
                .then(|| CompiledImage::compile(&base, &self.vm_opts.cost));
            let mut vm = Vm::new(&base, self.vm_opts.clone());
            let out = self.run_on_backend(&mut vm, cimg.as_ref());
            match out.result {
                Ok(()) => self.scaled(out.stats.steps.max(self.ref_steps)),
                // Baseline itself failed — no meaningful yardstick.
                Err(_) => self.vm_opts.fuel,
            }
        })
    }

    /// The program a run of `patch` executes on: the instrumented
    /// program on the interpreter, else a shell with its memory layout
    /// and id bound and no code, taken from the pool (`true`), which it
    /// goes back to after the run.
    fn program_for(&self, patch: &Patch) -> (Program, bool) {
        if self.backend == Backend::Interp {
            let _span = self.tracer.as_ref().map(|t| t.span("materialize"));
            return (patch.program(self.prog), false);
        }
        let mut shell = self.shells.lock().unwrap().pop().unwrap_or_else(|| {
            let mut shell = Program::new(self.prog.mem_size);
            shell.globals = self.prog.globals.clone();
            shell
        });
        let (id, addr) = patch.id_cursor();
        shell.set_id_cursor(id, addr);
        (shell, true)
    }

    /// Run on the selected backend: the one place a run picks its
    /// engine.
    fn run_on_backend(&self, vm: &mut Vm<'_>, cimg: Option<&CompiledImage>) -> RunOutcome {
        match cimg {
            Some(c) => vm.run_compiled(c),
            None => vm.run(),
        }
    }

    /// One candidate run under `fuel` on a VM built over `mem`. Traced
    /// runs also count executions per instruction (`profile: true`); the
    /// counts come back in the outcome, so the caller prices only the
    /// run it keeps.
    fn run_candidate<'v>(
        &self,
        prog: &'v Program,
        cimg: Option<&CompiledImage>,
        fuel: u64,
        mem: Memory,
    ) -> (Vm<'v>, RunOutcome, Duration) {
        let mut opts = self.vm_opts.clone();
        opts.fuel = fuel;
        opts.profile |= self.tracer.is_some();
        let mut vm = Vm::with_memory(prog, opts, mem);
        let _span = self.tracer.as_ref().map(|t| t.span("run"));
        let t0 = Instant::now();
        let outcome = self.run_on_backend(&mut vm, cimg);
        (vm, outcome, t0.elapsed())
    }
}

impl Evaluator for VmEvaluator<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        let cap = ctl.fuel_override.map_or(self.vm_opts.fuel, |c| c.max(1));
        let mut full = self.backend == Backend::Interp || !self.vm_opts.trap_on_flag;
        let mut run_time = Duration::ZERO;
        loop {
            let rewrite_span = self.tracer.as_ref().map(|t| t.span("rewrite"));
            let patch = if full {
                self.rewriter.patch_full(self.prog, self.tree, cfg)
            } else {
                self.rewriter.patch(self.prog, self.tree, cfg)
            };
            drop(rewrite_span);
            match self.run_patch(&patch, cap, &mut run_time) {
                Ok(outcome) => return outcome,
                // The pruned run trapped: start over on the full patch.
                Err(kind) => {
                    self.note_rerun(kind);
                    full = true;
                }
            }
        }
    }

    fn stats(&self) -> EvalStats {
        let reruns = self.reruns.lock().unwrap();
        EvalStats {
            fuel_capped: self.fuel_capped.load(Ordering::Relaxed),
            reach_misses: reruns.iter().filter(|(k, _)| *k == FLAGGED).map(|(_, n)| n).sum(),
        }
    }
}

/// The trap kind of a reach miss.
const FLAGGED: &str = "flagged-nan";

impl VmEvaluator<'_> {
    /// Count a full rerun after a pruned run that trapped with `kind`.
    fn note_rerun(&self, kind: &'static str) {
        let mut reruns = self.reruns.lock().unwrap();
        match reruns.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => reruns.push((kind, 1)),
        }
        if let Some(t) = &self.tracer {
            t.incr("eval.full_reruns", 1);
            if kind == FLAGGED {
                t.incr("eval.reach_misses", 1);
            }
        }
    }

    /// Link, run under the fuel rule and verify `patch`, adding the run
    /// time to `run_time`. A run of a patch that left a candidate bare
    /// and ends in a trap is discarded (its profile dropped, its fuel cap
    /// not counted), and its trap kind returned instead.
    fn run_patch(
        &self,
        patch: &Patch,
        cap: u64,
        run_time: &mut Duration,
    ) -> Result<EvalOutcome, &'static str> {
        let (instrumented, shell) = self.program_for(patch);
        let cimg = (self.backend == Backend::Compiled).then(|| {
            let _span = self.tracer.as_ref().map(|t| t.span("link"));
            self.rewriter.link(self.prog, patch)
        });
        let mem = self.mem_pool.lock().unwrap().pop().unwrap_or_else(|| Memory::new(0, &[]));
        let mut fuel = self.budget.get().copied().unwrap_or_else(|| self.fuel_floor()).min(cap);
        let (mut vm, mut outcome, t) = self.run_candidate(&instrumented, cimg.as_ref(), fuel, mem);
        *run_time += t;
        // Only a run cut off below the budget can end differently under
        // it: fetch the budget (running the baseline if no run has needed
        // it yet) and rerun if it is larger. The discarded run's time
        // still counts as run time; its profile is dropped.
        if fuel < cap && matches!(outcome.result, Err(Trap::FuelExhausted)) {
            let budget = self.fuel_budget().min(cap);
            if budget > fuel {
                fuel = budget;
                let mem = std::mem::replace(&mut vm.mem, Memory::new(0, &[]));
                let t;
                (vm, outcome, t) = self.run_candidate(&instrumented, cimg.as_ref(), fuel, mem);
                *run_time += t;
            }
        }
        let missed = match &outcome.result {
            Err(trap) if patch.stats().bare > 0 => Some(trap.kind()),
            _ => None,
        };
        if missed.is_none() {
            self.settle(patch, &outcome, fuel, *run_time);
        }
        // Any trap — including crash-on-miss and fuel exhaustion — is a
        // verification failure.
        let pass = missed.is_none() && {
            let _span = self.tracer.as_ref().map(|t| t.span("verify"));
            outcome.ok() && (self.verify)(&vm)
        };
        self.mem_pool.lock().unwrap().push(std::mem::replace(&mut vm.mem, Memory::new(0, &[])));
        drop(vm);
        if shell {
            self.shells.lock().unwrap().push(instrumented);
        }
        match missed {
            Some(kind) => Err(kind),
            None => Ok(EvalOutcome {
                pass,
                steps: outcome.stats.steps,
                trap: outcome.result.err().map(|t| t.kind()),
            }),
        }
    }

    /// Record what a final run leaves: its hot-spot profile, its run
    /// metrics, and whether fuel cut it off.
    fn settle(&self, patch: &Patch, outcome: &RunOutcome, fuel: u64, run: Duration) {
        if let Some(t) = &self.tracer {
            if let Some(profile) = &outcome.profile {
                let cost = &self.vm_opts.cost;
                t.merge_hot(&InsnProfiler::from_profile(patch.insns(self.prog), profile, cost));
            }
            t.incr("eval.runs", 1);
            t.observe("eval.run_us", run.as_micros() as u64);
            t.observe("eval.steps", outcome.stats.steps);
        }
        if fuel < self.vm_opts.fuel && matches!(outcome.result, Err(Trap::FuelExhausted)) {
            self.fuel_capped.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &self.tracer {
                t.incr("eval.fuel_capped", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search, SearchOptions};
    use fpir::{cmp, f, fadd, i, set, st, v, while_, Cc, CompileOptions, IrProgram};
    use mpconfig::{parse_lattice, Flag};
    use workloads::{amg, mathmix, nas, nas_all, slu, vecops, Class, Workload};

    fn evaluator<'p>(w: &'p Workload, tree: &'p StructureTree) -> VmEvaluator<'p> {
        VmEvaluator::with_options(
            w.program(),
            tree,
            w.reference_stats().steps,
            w.vm_opts(),
            RewriteOptions::default(),
            w.verifier(),
        )
    }

    /// The all-double baseline's step count, on the reference interpreter.
    fn baseline_steps(prog: &Program, tree: &StructureTree, opts: &VmOptions) -> u64 {
        let (base, _) = rewrite_all_double(prog, tree);
        let mut vm = Vm::new(&base, opts.clone());
        let out = vm.run();
        assert!(out.ok(), "baseline trapped: {:?}", out.result);
        out.stats.steps
    }

    #[test]
    fn fuel_budget_is_the_same_on_every_backend() {
        let w = nas::cg(Class::S);
        let tree = StructureTree::build(w.program());
        let budget = |backend| {
            let mut ev = evaluator(&w, &tree);
            ev.set_backend(backend);
            ev.fuel_budget()
        };
        let interp = budget(Backend::Interp);
        assert!(interp < w.fuel, "the baseline must finish under the global cap");
        assert_eq!(interp % FUEL_FACTOR, 0);
        assert_eq!(budget(Backend::Compiled), interp);
    }

    #[test]
    fn budget_is_the_baseline_rule_on_every_shipped_workload() {
        // The `max` with the reference steps never binds on a shipped
        // workload: the budget is `FUEL_FACTOR` × the baseline's steps.
        let mut ws = nas_all(Class::S);
        ws.extend(nas_all(Class::W));
        ws.push(amg::amg(Class::S));
        ws.push(slu::slu(Class::S).wl);
        ws.push(mathmix::mathmix(Class::S, mathmix::LibmKind::Intrinsic));
        ws.push(vecops::vecops(Class::S));
        for w in &ws {
            let tree = StructureTree::build(w.program());
            let ev = evaluator(w, &tree);
            let (s_ref, s_base) =
                (w.reference_stats().steps, baseline_steps(w.program(), &tree, &w.vm_opts()));
            assert!(
                s_base >= s_ref,
                "{}.{}: baseline {s_base} < reference {s_ref}",
                w.name,
                w.class
            );
            assert_eq!(ev.fuel_budget(), (s_base * FUEL_FACTOR).clamp(1, w.fuel));
            assert!(ev.fuel_floor() <= ev.fuel_budget());
        }
    }

    /// Records every evaluation that reaches the wrapped evaluator.
    struct Recorder<'a> {
        inner: &'a dyn Evaluator,
        log: Mutex<Vec<(Config, RunControl, EvalOutcome)>>,
    }

    impl Evaluator for Recorder<'_> {
        fn evaluate(&self, cfg: &Config) -> bool {
            self.evaluate_run(cfg, &RunControl::default()).pass
        }

        fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
            let out = self.inner.evaluate_run(cfg, ctl);
            self.log.lock().unwrap().push((cfg.clone(), *ctl, out));
            out
        }

        fn stats(&self) -> EvalStats {
            self.inner.stats()
        }
    }

    #[test]
    fn reruns_equal_runs_under_the_precomputed_budget() {
        // Candidates on these two run past the floor, so their searches
        // take the rerun path; every outcome must still be the one a run
        // under the budget gives.
        let ws =
            [mathmix::mathmix(Class::S, mathmix::LibmKind::Intrinsic), vecops::vecops(Class::S)];
        for w in &ws {
            let tree = StructureTree::build(w.program());
            let lazy = evaluator(w, &tree);
            let rec = Recorder { inner: &lazy, log: Mutex::new(Vec::new()) };
            let opts = SearchOptions {
                threads: 2,
                lattice: parse_lattice("s,b").unwrap(),
                ..Default::default()
            };
            search(&tree, &Config::new(), Some(w.profile()), &rec, &opts);
            let log = rec.log.into_inner().unwrap();
            let floor = lazy.fuel_floor();
            let past_floor = log.iter().filter(|(_, _, o)| o.steps > floor).count();
            assert!(past_floor > 0, "{}: no run went past the floor", w.name);
            assert!(lazy.budget.get().is_some());

            let eager = evaluator(w, &tree);
            eager.fuel_budget();
            for (cfg, ctl, out) in &log {
                assert_eq!(eager.evaluate_run(cfg, ctl), *out, "{}: outcome differs", w.name);
            }
            assert_eq!(eager.stats(), lazy.stats());
        }
    }

    /// A loop that ends after 10 steps of `2^-30` in binary64 and never
    /// in binary32, where `1 + 2^-30` rounds back to 1.
    fn stalling_loop() -> Program {
        let mut ir = IrProgram::new("stall");
        let out = ir.array_f64("out", 1);
        let tiny = 2f64.powi(-30);
        let main = ir.func("main", &[], None, |ir, fr, _| {
            let a = ir.local_f(fr);
            vec![
                set(a, f(1.0)),
                while_(cmp(Cc::Lt, v(a), f(1.0 + 9.5 * tiny)), vec![set(a, fadd(v(a), f(tiny)))]),
                st(out, i(0), v(a)),
            ]
        });
        ir.set_entry(main);
        fpir::compile(&ir, &CompileOptions::default())
    }

    #[test]
    fn fuel_overrides_and_divergent_runs_end_at_the_rule_s_bound() {
        let prog = stalling_loop();
        let tree = StructureTree::build(&prog);
        let opts = VmOptions::default();
        let reference = Vm::run_program(&prog, opts.clone());
        assert!(reference.ok());
        let s_ref = reference.stats.steps;
        let (floor, budget) =
            (s_ref * FUEL_FACTOR, baseline_steps(&prog, &tree, &opts) * FUEL_FACTOR);
        assert!(floor < budget);
        // Only the add is replaced: the compare stays binary64, so it
        // keeps comparing the stalled sum against the unrounded limit.
        let mut stalled = Config::new();
        for (_, e, _) in tree.insn_paths().filter(|(_, e, _)| e.disasm.starts_with("add")) {
            stalled.set_insn(e.id, Flag::Single);
        }
        let fresh = || VmEvaluator::new(&prog, &tree, s_ref, |_: &Vm<'_>| true);
        let run = |ev: &VmEvaluator<'_>, cfg: &Config, cap: Option<u64>| {
            ev.evaluate_run(cfg, &RunControl { fuel_override: cap })
        };
        let exhausted = |steps| EvalOutcome { pass: false, steps, trap: Some("fuel-exhausted") };

        // Unbounded by an override, the divergent run ends at exactly B.
        let ev = fresh();
        assert_eq!(run(&ev, &stalled, None), exhausted(budget));
        assert_eq!(ev.stats().fuel_capped, 1);
        // Once B is known, runs get it directly.
        assert_eq!(run(&ev, &stalled, None), exhausted(budget));

        // An override at or below F is final without the baseline.
        for cap in [1, floor / 2, floor] {
            let ev = fresh();
            assert_eq!(run(&ev, &stalled, Some(cap)), exhausted(cap));
            assert!(ev.budget.get().is_none(), "override {cap} needed the baseline");
        }
        // Between F and B the rerun stops at the override.
        let mid = (floor + budget) / 2;
        let ev = fresh();
        assert_eq!(run(&ev, &stalled, Some(mid)), exhausted(mid));
        assert!(ev.budget.get().is_some());
        // Above B the budget binds.
        let ev = fresh();
        assert_eq!(run(&ev, &stalled, Some(budget * 2)), exhausted(budget));

        // A halting run is final at any override above its length.
        let ev = fresh();
        let plain = run(&ev, &Config::new(), Some(floor));
        assert!(plain.pass && plain.steps <= floor);
        assert!(ev.budget.get().is_none());
        assert_eq!(ev.stats().fuel_capped, 0);
    }
}

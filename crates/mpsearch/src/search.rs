//! The breadth-first search algorithm (paper §2.2): its options, its
//! hooks, and the driver that evaluates the search planner's trials.

use crate::evaluator::Evaluator;
use crate::events::EventLog;
use crate::executor::{ExecPolicy, Executor, FaultPlan, Outcome};
use crate::planner::{Ahead, Answer, Phase, Planner};
use crate::report::SearchReport;
use crate::store::VerdictStore;
use fpvm::Profile;
use mpconfig::{Config, Flag, StructureTree};
use mptrace::stream::{Progress, StreamSink};
use mptrace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The deepest structure level the search descends to. Stopping at
/// functions or blocks "allows for faster convergence with coarser
/// results" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopDepth {
    /// Test module- and function-level configurations only.
    Function,
    /// Descend to basic blocks.
    Block,
    /// Descend all the way to individual instructions (default).
    Instruction,
}

impl StopDepth {
    pub(crate) fn max_depth(self) -> usize {
        match self {
            StopDepth::Function => 1,
            StopDepth::Block => 2,
            StopDepth::Instruction => 3,
        }
    }
}

/// Search options.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Deepest level to descend to.
    pub stop_depth: StopDepth,
    /// Enable the binary-splitting optimization for failed aggregates.
    pub binary_split: bool,
    /// Enable profile-count prioritization (requires a profile).
    pub prioritize: bool,
    /// Worker threads evaluating configurations in parallel.
    pub threads: usize,
    /// Stop after this many configuration evaluations, if set.
    pub max_tests: Option<usize>,
    /// Run the second search phase the paper suggests (§3.1): when the
    /// union of individually passing replacements fails verification,
    /// greedily back off the least-executed passing units until a
    /// composable configuration is found.
    pub second_phase: bool,
    /// Per-run fuel and wall-clock limits for the evaluation executor.
    pub exec: ExecPolicy,
    /// The precision lattice: replacement levels to descend through, in
    /// order of decreasing width. The default `[Single]` reproduces the
    /// classic two-level (double/single) search exactly. With more
    /// levels — e.g. `[Single, Half]` or `[Single, Bf16]` — a unit that
    /// passes at level *k* is re-enqueued at level *k + 1*, so each unit
    /// settles at the narrowest format that still verifies (demotion on
    /// failure keeps the last passing level). Non-replacement flags are
    /// ignored; an empty list is normalized to `[Single]`.
    pub lattice: Vec<Flag>,
}

impl SearchOptions {
    /// The default worker-thread count: the `CRAFT_THREADS` environment
    /// variable if set and parseable, otherwise
    /// [`std::thread::available_parallelism`], clamped to `1..=16` so a
    /// many-core host does not oversubscribe the interpreter-bound
    /// evaluations.
    /// A malformed or zero value falls back to the automatic default
    /// with a warning rather than being silently ignored.
    pub fn default_threads() -> usize {
        if let Ok(v) = std::env::var("CRAFT_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(0) => {
                    eprintln!(
                        "warning: CRAFT_THREADS=0 is invalid (need at least one worker); \
                         using automatic thread count"
                    );
                }
                Ok(n) => return n.clamp(1, 64),
                Err(_) => {
                    eprintln!(
                        "warning: CRAFT_THREADS={v:?} is not a number; \
                         using automatic thread count"
                    );
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(1, 16)
    }

    /// The defaults, with `threads` workers: [`SearchOptions::default`]
    /// without probing the environment and the machine for a thread
    /// count.
    pub fn with_threads(threads: usize) -> Self {
        SearchOptions {
            stop_depth: StopDepth::Instruction,
            binary_split: true,
            prioritize: true,
            threads,
            max_tests: None,
            second_phase: false,
            exec: ExecPolicy::default(),
            lattice: vec![Flag::Single],
        }
    }
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions::with_threads(SearchOptions::default_threads())
    }
}

/// Side-channel hooks for [`search_observed`]: deterministic fault
/// injection, a structured event sink, an optional shadow-value oracle,
/// and the verdict store. [`search`] uses the inert defaults.
#[derive(Default)]
pub struct SearchHooks<'a> {
    /// Label stamped on the `search_started` event.
    pub bench: String,
    /// Deterministic fault plan applied by the executor.
    pub faults: FaultPlan,
    /// Sink for the search record ([`crate::events`]); `None` disables
    /// it.
    pub events: Option<&'a EventLog>,
    /// Shadow-value oracle for prioritization and pruning; `None`
    /// leaves the search exactly as without the subsystem.
    pub shadow: Option<ShadowOracle<'a>>,
    /// Span/metric recorder; `None` disables tracing entirely.
    pub tracer: Option<&'a Tracer>,
    /// Live telemetry stream (`live.jsonl`); `None` disables streaming.
    /// The sink is interval- and delta-gated, so the per-evaluation cost
    /// of wiring it in is a couple of atomic loads.
    pub stream: Option<&'a StreamSink>,
    /// Verdicts to settle repeated configurations from, and to add this
    /// search's deterministic verdicts to; `None` gives the search a
    /// fresh store of its own. A store shared between searches must only
    /// see searches whose verdicts agree (same program, tolerance, fuel
    /// limit and backend).
    pub verdicts: Option<&'a VerdictStore>,
}

/// A shadow-run sensitivity profile plugged into the search as an
/// oracle (see `mpshadow`).
///
/// * **Prioritization** — with `prioritize` set, queue priority becomes
///   `(error_class << 48) | profile_count`: items whose instructions
///   diverged least under full truncation are popped first, with the
///   execution-count heuristic breaking ties within a class. Order alone
///   never changes *which* items get tested, so results are unchanged.
/// * **Pruning** — with `prune_threshold` set, an item whose worst
///   *instruction-local* shadow error exceeds the threshold is treated
///   as a failed evaluation without running it: it is expanded into
///   finer-grained work and counted in
///   [`SearchReport::pruned_by_shadow`] instead of `configs_tested`.
///   Pruning deliberately uses the local metric, not the propagated
///   divergence — the shadow run truncates *everything* at once, so
///   propagated error wildly overestimates what replacing one unit
///   introduces. The union and second-phase evaluations are never
///   pruned, so a misprediction costs extra refinement, not a wrong
///   final configuration.
#[derive(Clone, Copy)]
pub struct ShadowOracle<'a> {
    /// Per-instruction shadow-error statistics from one shadowed run.
    pub profile: &'a mpshadow::SensitivityProfile,
    /// Rank queue items by (low) shadow error before profile counts.
    pub prioritize: bool,
    /// Skip-as-failed items whose worst instruction-local shadow error
    /// exceeds this; `None` disables pruning.
    pub prune_threshold: Option<f64>,
}

/// Run the automatic breadth-first search.
///
/// * `tree` — the program's structure tree;
/// * `base` — the starting configuration (typically empty, or carrying
///   `ignore` flags for constructs like FP-trick RNGs);
/// * `profile` — an execution profile of the original program, used for
///   prioritization and the dynamic-replacement metric;
/// * `eval` — the configuration evaluator (instrument → run → verify).
pub fn search(
    tree: &StructureTree,
    base: &Config,
    profile: Option<&Profile>,
    eval: &dyn Evaluator,
    opts: &SearchOptions,
) -> SearchReport {
    search_observed(tree, base, profile, eval, opts, &SearchHooks::default())
}

/// [`search`], with observability and fault-injection hooks: evaluations
/// run through the fault-tolerant [`Executor`] (they always do — plain
/// [`search`] just uses inert hooks), the search record goes to
/// `hooks.events`, and `hooks.faults` deterministically injects failures
/// for robustness testing.
///
/// Every decision is the search planner's, made from verdicts in its own
/// serial order, and so is the search record; this driver only produces
/// verdicts and the trace. A trial whose replacement key has a verdict
/// in the store (`hooks.verdicts`) is settled from it without a run.
/// BFS trials run on `opts.threads` workers, the union and second-phase
/// ones (each depends on the last) on the calling thread.
pub fn search_observed(
    tree: &StructureTree,
    base: &Config,
    profile: Option<&Profile>,
    eval: &dyn Evaluator,
    opts: &SearchOptions,
    hooks: &SearchHooks<'_>,
) -> SearchReport {
    let start = Instant::now();
    let mut planner = Planner::new(tree, base, profile, opts, hooks);
    let search_span = hooks.tracer.map(|t| t.span("search"));

    let fresh = VerdictStore::new();
    let settler = Settler {
        exec: Executor::new(eval, opts.exec.clone(), hooks.faults.clone())
            .with_tracer(hooks.tracer),
        tree,
        store: hooks.verdicts.unwrap_or(&fresh),
        search: SEARCHES.fetch_add(1, Ordering::Relaxed),
        tracer: hooks.tracer,
    };

    while let Some(phase) = planner.advance() {
        let span = hooks.tracer.map(|t| t.span(format!("phase:{}", phase.name())));
        if let Some(sink) = hooks.stream {
            sink.force(&planner.progress(phase, None, 0));
        }
        if phase == Phase::Bfs {
            bfs(&mut planner, &settler, opts.threads.max(1), hooks);
        } else {
            while let Some(trial) = planner.next() {
                let answer = planner.run_of(&trial).map(|cfg| settler.answer(&cfg));
                planner.settle(trial, answer);
            }
        }
        drop(span);
    }

    let report = SearchReport {
        elapsed: start.elapsed(),
        fuel_capped: eval.stats().fuel_capped,
        ..planner.into_report()
    };
    if let Some(log) = hooks.events {
        log.flush();
    }
    // Close the root span before the final emission so the last delta
    // carries it — the streamed snapshot then matches the post-mortem one.
    drop(search_span);
    if let Some(sink) = hooks.stream {
        // Final forced emission: the stream ends on settled state, so a
        // watcher always sees the run complete.
        sink.force(&Progress {
            phase: "done".into(),
            queue_depth: 0,
            in_flight: 0,
            done: report.configs_tested as u64,
            total_estimate: report.configs_tested as u64,
        });
    }
    report
}

/// Identifies a search among the writers of a shared [`VerdictStore`].
static SEARCHES: AtomicU64 = AtomicU64::new(0);

/// Settles trials: from the verdict store, or by a run on the executor
/// whose verdict is stored if it is deterministic.
struct Settler<'a> {
    exec: Executor<'a>,
    tree: &'a StructureTree,
    store: &'a VerdictStore,
    /// This search's id in the store.
    search: u64,
    tracer: Option<&'a Tracer>,
}

impl Settler<'_> {
    /// The outcome on `cfg`, with its replacement key, computed once
    /// here. A stored verdict answers as the run that stored it.
    fn answer(&self, cfg: &Config) -> Answer {
        let lookup = self.tracer.map(|t| t.span("cache_lookup"));
        let key = cfg.replacement_key(self.tree);
        if let Some((verdict, steps, foreign)) = self.store.get(&key, self.search) {
            return Answer { run: Outcome::stored(verdict, steps), key, foreign };
        }
        drop(lookup);
        let run = self.exec.run(cfg, &key);
        if run.deterministic {
            self.store.put(key.clone(), run.verdict, run.steps, self.search);
        }
        Answer { run, key, foreign: false }
    }
}

/// The BFS on up to `threads` workers, the calling thread among them:
/// each takes a trial under the lock, settles it outside, and records
/// the answer. Helpers start on demand: one is spawned only when a
/// worker takes a trial while another stays ready and no worker is
/// waiting for work, so a BFS that never has two trials ready at once
/// runs on the calling thread alone.
fn bfs(planner: &mut Planner<'_>, settler: &Settler<'_>, threads: usize, hooks: &SearchHooks<'_>) {
    let pool = Pool {
        state: Mutex::new(PoolState { ahead: Ahead::new(planner), workers: 1, waiting: 0 }),
        cond: Condvar::new(),
        settler,
        hooks,
        threads,
    };
    std::thread::scope(|scope| pool.worker(scope));
}

/// The BFS workers' shared state.
struct Pool<'p, 'a, 'x> {
    state: Mutex<PoolState<'p, 'a>>,
    cond: Condvar,
    settler: &'x Settler<'x>,
    hooks: &'x SearchHooks<'x>,
    threads: usize,
}

struct PoolState<'p, 'a> {
    ahead: Ahead<'p, 'a>,
    /// Workers started, the calling thread included.
    workers: usize,
    /// Workers blocked waiting for a trial.
    waiting: usize,
}

impl<'x> Pool<'_, '_, 'x> {
    /// One worker. It charges its wall time and its waits for work to
    /// the tracer: `search.idle_us` over `search.worker_us` is the idle
    /// share.
    fn worker<'s>(&'s self, scope: &'s std::thread::Scope<'s, '_>) {
        let (t0, mut idle) = (Instant::now(), Duration::ZERO);
        self.work(scope, &mut idle);
        if let Some(t) = self.hooks.tracer {
            t.incr("search.idle_us", idle.as_micros() as u64);
            t.incr("search.worker_us", t0.elapsed().as_micros() as u64);
        }
    }

    /// Take, run and record trials until the BFS is over. `idle` sums
    /// this worker's waits for work (on traced searches only).
    fn work<'s>(&'s self, scope: &'s std::thread::Scope<'s, '_>, idle: &mut Duration) {
        let hooks = self.hooks;
        loop {
            let (run, trial, spawn) = {
                let mut p = self.state.lock().expect("a search worker panicked");
                let trial = loop {
                    if let Some(trial) = p.ahead.take() {
                        break trial;
                    }
                    if p.ahead.over() {
                        return;
                    }
                    let t0 = hooks.tracer.map(|_| Instant::now());
                    p.waiting += 1;
                    p = self.cond.wait(p).expect("a search worker panicked");
                    p.waiting -= 1;
                    *idle += t0.map_or(Duration::ZERO, |t0| t0.elapsed());
                };
                let (depth, in_flight) = (p.ahead.waiting(), p.ahead.running);
                // Another trial is ready and nobody is free to take it.
                let spawn = depth > 0 && p.waiting == 0 && p.workers < self.threads;
                p.workers += spawn as usize;
                // Gauges sampled when work is taken, so idle drains show.
                if let Some(t) = hooks.tracer {
                    t.gauge("search.queue_depth", depth as f64);
                    t.gauge("search.in_flight", in_flight as f64);
                }
                (p.ahead.planner.run_of(&trial), trial, spawn)
            };
            if spawn {
                scope.spawn(move || self.worker(scope));
            }
            let answer = run.map(|cfg| self.settler.answer(&cfg));
            let mut p = self.state.lock().expect("a search worker panicked");
            p.ahead.record(trial, answer);
            // Snapshot progress under the lock, emit it after releasing it.
            let a = &p.ahead;
            let progress =
                hooks.stream.map(|_| a.planner.progress(Phase::Bfs, Some(a.waiting()), a.running));
            self.cond.notify_all();
            drop(p);
            if let (Some(sink), Some(progress)) = (hooks.stream, progress) {
                sink.tick(&progress);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalOutcome, RunControl, VmEvaluator};
    use crate::executor::Verdict;
    use fpir::{f, fadd, fdiv, fmul, for_, i, itof, ld, set, st, v, CompileOptions, IrProgram};
    use fpvm::isa::InsnId;
    use fpvm::{Vm, VmOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An evaluator over instruction-id sets with a fixed "sensitive"
    /// subset: a config passes iff it replaces no sensitive instruction.
    struct SetEval {
        tree: StructureTreeBox,
        sensitive: Vec<InsnId>,
        calls: AtomicUsize,
    }

    // Helper owning the program so tree references stay alive.
    struct StructureTreeBox {
        _prog: fpvm::Program,
        tree: StructureTree,
    }

    impl Evaluator for SetEval {
        fn evaluate(&self, cfg: &Config) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            !self.sensitive.iter().any(|&i| cfg.effective(&self.tree.tree, i) == Flag::Single)
        }
    }

    /// A program with two functions of several candidates each.
    fn make_prog(n_funcs: usize, insns_per_func: usize) -> StructureTreeBox {
        use fpvm::isa::*;
        let mut p = fpvm::Program::new(1 << 12);
        let m = p.add_module("m");
        for k in 0..n_funcs {
            let f = p.add_function(m, format!("f{k}"));
            let b = p.add_block(f);
            p.funcs[f.0 as usize].entry = b;
            if k == 0 {
                p.entry = f;
            }
            for _ in 0..insns_per_func {
                p.push_insn(
                    b,
                    InstKind::FpArith {
                        op: FpAluOp::Add,
                        prec: Prec::Double,
                        packed: false,
                        dst: Xmm(0),
                        src: RM::Reg(Xmm(1)),
                    },
                );
            }
            p.block_mut(b).term = Terminator::Ret;
        }
        let tree = StructureTree::build(&p);
        StructureTreeBox { _prog: p, tree }
    }

    fn opts_serial() -> SearchOptions {
        SearchOptions { threads: 1, prioritize: false, ..Default::default() }
    }

    #[test]
    fn fully_replaceable_program_passes_at_module_level() {
        let tb = make_prog(3, 4);
        let eval = SetEval { tree: make_prog(3, 4), sensitive: vec![], calls: AtomicUsize::new(0) };
        let r = search(&tb.tree, &Config::new(), None, &eval, &opts_serial());
        assert_eq!(r.candidates, 12);
        // one module test + one final test
        assert_eq!(r.configs_tested, 2);
        assert!(r.final_pass);
        assert_eq!(r.static_pct, 100.0);
        assert_eq!(r.failed_insns, 0);
    }

    /// Records the thread of every evaluation; each takes 2 ms, so
    /// ready trials pile up while one runs.
    struct ThreadEval {
        inner: SetEval,
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Evaluator for ThreadEval {
        fn evaluate(&self, cfg: &Config) -> bool {
            self.threads.lock().unwrap().push(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(2));
            self.inner.evaluate(cfg)
        }
    }

    #[test]
    fn helpers_start_only_when_trials_wait() {
        // The threads that evaluated, and the workers' summed waits for
        // work (a spawned helper with nothing to take waits).
        let run = |sensitive: Vec<usize>| {
            let tb = make_prog(4, 3);
            let ids = tb.tree.all_insns();
            let sensitive = sensitive.into_iter().map(|k| ids[k]).collect();
            let eval = ThreadEval {
                inner: SetEval { tree: make_prog(4, 3), sensitive, calls: AtomicUsize::new(0) },
                threads: Mutex::new(Vec::new()),
            };
            let opts = SearchOptions { threads: 4, ..opts_serial() };
            let tracer = Tracer::new();
            let hooks = SearchHooks { tracer: Some(&tracer), ..Default::default() };
            search_observed(&tb.tree, &Config::new(), None, &eval, &opts, &hooks);
            let mut seen = eval.threads.into_inner().unwrap();
            seen.sort_by_key(|t| format!("{t:?}"));
            seen.dedup();
            (seen, tracer.snapshot().counters["search.idle_us"])
        };
        // One trial at a time (the module passes): the calling thread
        // runs the whole search, and no helper starts to wait idle.
        assert_eq!(run(vec![]), (vec![std::thread::current().id()], 0));
        // A failing module makes its four functions ready at once.
        assert!(run(vec![0, 3, 6, 9]).0.len() > 1, "no helper took a waiting trial");
    }

    #[test]
    fn single_sensitive_insn_is_isolated() {
        let tb = make_prog(2, 4);
        let sensitive = vec![tb.tree.all_insns()[5]];
        let eval = SetEval {
            tree: make_prog(2, 4),
            sensitive: sensitive.clone(),
            calls: AtomicUsize::new(0),
        };
        let r = search(&tb.tree, &Config::new(), None, &eval, &opts_serial());
        assert_eq!(r.failed_insns, 1);
        assert!((r.static_pct - 7.0 / 8.0 * 100.0).abs() < 1e-9);
        // the sensitive insn stays double in the final config
        assert_eq!(r.final_config.effective(&tb.tree, sensitive[0]), Flag::Double);
        assert!(r.final_pass);
    }

    #[test]
    fn search_prunes_relative_to_exhaustive() {
        // With all instructions replaceable, far fewer configs than
        // candidates are tested (the paper's pruning claim).
        let tb = make_prog(4, 8);
        let eval = SetEval { tree: make_prog(4, 8), sensitive: vec![], calls: AtomicUsize::new(0) };
        let r = search(&tb.tree, &Config::new(), None, &eval, &opts_serial());
        assert!(r.configs_tested < r.candidates);
    }

    #[test]
    fn binary_split_reduces_tests_with_sparse_failures() {
        let tb = make_prog(1, 32);
        let sensitive = vec![tb.tree.all_insns()[17]];
        let mk = || SetEval {
            tree: make_prog(1, 32),
            sensitive: sensitive.clone(),
            calls: AtomicUsize::new(0),
        };
        let with_split = search(
            &tb.tree,
            &Config::new(),
            None,
            &mk(),
            &SearchOptions { binary_split: true, ..opts_serial() },
        );
        let without = search(
            &tb.tree,
            &Config::new(),
            None,
            &mk(),
            &SearchOptions { binary_split: false, ..opts_serial() },
        );
        assert_eq!(with_split.failed_insns, 1);
        assert_eq!(without.failed_insns, 1);
        assert!(
            with_split.configs_tested < without.configs_tested,
            "split {} !< flat {}",
            with_split.configs_tested,
            without.configs_tested
        );
    }

    #[test]
    fn stop_depth_function_gives_coarse_results() {
        let tb = make_prog(2, 4);
        // one sensitive insn in f1: at Function granularity the whole f1
        // stays double.
        let sensitive = vec![tb.tree.all_insns()[6]];
        let eval = SetEval { tree: make_prog(2, 4), sensitive, calls: AtomicUsize::new(0) };
        let r = search(
            &tb.tree,
            &Config::new(),
            None,
            &eval,
            &SearchOptions { stop_depth: StopDepth::Function, ..opts_serial() },
        );
        assert_eq!(r.failed_insns, 4); // all of f1
        assert_eq!(r.static_pct, 50.0);
    }

    #[test]
    fn ignored_insns_are_not_candidates() {
        let tb = make_prog(2, 4);
        let mut base = Config::new();
        base.set_func(tb.tree.modules[0].funcs[1].id, Flag::Ignore);
        let eval = SetEval { tree: make_prog(2, 4), sensitive: vec![], calls: AtomicUsize::new(0) };
        let r = search(&tb.tree, &base, None, &eval, &opts_serial());
        assert_eq!(r.candidates, 4);
        assert_eq!(r.static_pct, 100.0);
        // ignored func stays ignored in the final config
        for e in &tb.tree.modules[0].funcs[1].blocks[0].insns {
            assert_eq!(r.final_config.effective(&tb.tree, e.id), Flag::Ignore);
        }
    }

    #[test]
    fn max_tests_bounds_work() {
        let tb = make_prog(4, 16);
        let sensitive = tb.tree.all_insns(); // nothing passes: worst case
        let eval = SetEval { tree: make_prog(4, 16), sensitive, calls: AtomicUsize::new(0) };
        let tested = |threads| {
            let opts = SearchOptions { max_tests: Some(10), threads, ..opts_serial() };
            search(&tb.tree, &Config::new(), None, &eval, &opts).configs_tested
        };
        let serial = tested(1);
        assert!(serial <= 10);
        // The cut falls where the planner's serial order puts it, however
        // many workers run ahead of it.
        assert_eq!(tested(4), serial);
    }

    #[test]
    fn parallel_search_matches_serial_outcome() {
        let tb = make_prog(3, 8);
        let sensitive = vec![tb.tree.all_insns()[3], tb.tree.all_insns()[12]];
        let mk = || SetEval {
            tree: make_prog(3, 8),
            sensitive: sensitive.clone(),
            calls: AtomicUsize::new(0),
        };
        let serial = search(&tb.tree, &Config::new(), None, &mk(), &opts_serial());
        let par = search(
            &tb.tree,
            &Config::new(),
            None,
            &mk(),
            &SearchOptions { threads: 8, prioritize: false, ..Default::default() },
        );
        // Everything the search decides is equal, test count, passing
        // units (in order) and cache hits included; only timing may
        // differ.
        assert_eq!(decided_fields(&par), decided_fields(&serial));
        assert!(par.configs_tested > 1);
    }

    /// A report's verdict-determined fields: all but the elapsed time.
    fn decided_fields(r: &SearchReport) -> String {
        format!("{:?}", SearchReport { elapsed: Duration::ZERO, ..r.clone() })
    }

    #[test]
    fn prioritization_uses_profile_counts() {
        let tb = make_prog(2, 4);
        let ids = tb.tree.all_insns();
        let mut prof = Profile::new(64);
        // make f1's instructions hot
        for _ in 0..100 {
            for &i in &ids[4..8] {
                prof.bump(i);
            }
        }
        for &i in &ids[..4] {
            prof.bump(i);
        }
        let eval = SetEval { tree: make_prog(2, 4), sensitive: vec![], calls: AtomicUsize::new(0) };
        let r = search(
            &tb.tree,
            &Config::new(),
            Some(&prof),
            &eval,
            &SearchOptions { prioritize: true, threads: 1, ..Default::default() },
        );
        assert!(r.final_pass);
        assert!((r.dynamic_pct - 100.0).abs() < 1e-9);
    }

    /// An evaluator with an interaction failure: every unit passes alone,
    /// but replacing the first and last instructions *together* fails.
    struct InteractionEval {
        tree: StructureTreeBox,
        pair: (InsnId, InsnId),
    }

    impl Evaluator for InteractionEval {
        fn evaluate(&self, cfg: &Config) -> bool {
            let a = cfg.effective(&self.tree.tree, self.pair.0) == Flag::Single;
            let b = cfg.effective(&self.tree.tree, self.pair.1) == Flag::Single;
            !(a && b)
        }
    }

    #[test]
    fn second_phase_composes_a_passing_subset() {
        let tb = make_prog(2, 4);
        let ids = tb.tree.all_insns();
        let pair = (ids[0], ids[7]);
        let mk = || InteractionEval { tree: make_prog(2, 4), pair };
        // without the second phase the union fails (paper §3.1 observation)
        let r1 = search(&tb.tree, &Config::new(), None, &mk(), &opts_serial());
        assert!(!r1.final_pass, "interaction failure should break the union");
        // with it, a passing subset is composed
        let r2 = search(
            &tb.tree,
            &Config::new(),
            None,
            &mk(),
            &SearchOptions { second_phase: true, ..opts_serial() },
        );
        assert!(r2.final_pass, "second phase should find a composable subset");
        assert!(r2.static_pct > 0.0, "subset should not be empty");
        assert!(r2.static_pct < 100.0);
        assert!(r2.configs_tested > r1.configs_tested);
    }

    #[test]
    fn streamed_search_emits_consistent_live_log() {
        use mptrace::stream::{LiveLog, StreamSink};
        let tb = make_prog(3, 8);
        let sensitive = vec![tb.tree.all_insns()[3]];
        let eval = SetEval { tree: make_prog(3, 8), sensitive, calls: AtomicUsize::new(0) };
        let tracer = Tracer::new();
        let sink = StreamSink::in_memory(&tracer);
        let (events, buf) = EventLog::in_memory();
        let hooks = SearchHooks {
            bench: "unit".into(),
            tracer: Some(&tracer),
            stream: Some(&sink),
            events: Some(&events),
            ..Default::default()
        };
        let report = search_observed(
            &tb.tree,
            &Config::new(),
            None,
            &eval,
            &SearchOptions { threads: 2, prioritize: false, ..Default::default() },
            &hooks,
        );
        let log = LiveLog::parse_tolerant(&sink.contents()).unwrap();
        assert!(log.warning.is_none(), "{:?}", log.warning);
        // Deltas fold to exactly what the tracer holds at the end.
        assert_eq!(log.final_snapshot(), tracer.snapshot());
        // Progress walked through bfs to done, and the final record
        // reflects the report's totals with a drained queue.
        let phases: Vec<&str> = log.progress.iter().map(|p| p.progress.phase.as_str()).collect();
        assert_eq!(phases.first(), Some(&"bfs"));
        assert_eq!(phases.last(), Some(&"done"));
        assert!(phases.contains(&"union"), "{phases:?}");
        let last = log.latest_progress().unwrap();
        assert_eq!(last.progress.queue_depth, 0);
        assert_eq!(last.progress.in_flight, 0);
        assert_eq!(last.progress.done, report.configs_tested as u64);
        // Verdict counts mirror the executor's tracer counters: every
        // tested configuration ran, or was settled from the store.
        let total: u64 = last.verdicts.values().sum();
        let settled = total + report.cache_hits as u64;
        assert!(settled >= report.configs_tested as u64, "{:?}", last.verdicts);
        // The search record has one `trial` line per tested
        // configuration, numbered in settle order, and its hits are the
        // report's cache hits and the tracer's.
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let trials: Vec<(usize, bool)> = (text.lines())
            .filter_map(|l| match crate::events::Event::parse(l).unwrap() {
                crate::events::Event::Trial { n, hit, .. } => Some((n, hit)),
                _ => None,
            })
            .collect();
        let numbers: Vec<usize> = trials.iter().map(|t| t.0).collect();
        assert_eq!(numbers, (0..report.configs_tested).collect::<Vec<_>>());
        let hits = trials.iter().filter(|t| t.1).count();
        assert_eq!(hits, report.cache_hits);
        let counted = log.final_snapshot().counters.get("search.cache_hits").copied();
        assert_eq!(counted.unwrap_or(0), hits as u64);
        // Sequence numbers strictly increase across all records.
        let mut seqs: Vec<u64> =
            log.deltas.iter().map(|d| d.seq).chain(log.progress.iter().map(|p| p.seq)).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s.dedup();
            s
        };
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs, sorted);
    }

    /// Times out, as a natural fuel exhaustion, wherever `SetEval`
    /// fails.
    struct TimeoutEval(SetEval);

    impl Evaluator for TimeoutEval {
        fn evaluate(&self, cfg: &Config) -> bool {
            self.0.evaluate(cfg)
        }

        fn evaluate_run(&self, cfg: &Config, _: &RunControl) -> EvalOutcome {
            let pass = self.0.evaluate(cfg);
            EvalOutcome { pass, steps: 7, trap: (!pass).then_some("fuel-exhausted") }
        }
    }

    #[test]
    fn a_timeout_settled_from_the_store_counts_no_attempt() {
        // The module and its one function replace the same set: the
        // function's trial is settled by the module's stored timeout.
        let tb = make_prog(1, 4);
        let sensitive = vec![tb.tree.all_insns()[2]];
        let eval = TimeoutEval(SetEval { tree: make_prog(1, 4), sensitive, calls: 0.into() });
        let (log, buf) = EventLog::in_memory();
        let hooks = SearchHooks { events: Some(&log), ..Default::default() };
        let r = search_observed(&tb.tree, &Config::new(), None, &eval, &opts_serial(), &hooks);
        drop(log);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let timed_out: Vec<(u64, bool)> = (text.lines())
            .filter_map(|l| match crate::events::Event::parse(l).unwrap() {
                crate::events::Event::Trial { verdict: Verdict::Timeout, steps, hit, .. } => {
                    Some((steps, hit))
                }
                _ => None,
            })
            .collect();
        // Both trials record the run's steps; only the first counts.
        assert_eq!(&timed_out[..2], [(7, false), (7, true)]);
        let runs = timed_out.iter().filter(|t| !t.1).count();
        assert_eq!(r.timeouts, runs);
        assert_eq!(eval.0.calls.load(Ordering::Relaxed), r.configs_tested - r.cache_hits);
    }

    /// An evaluator over mantissa widths: a config passes iff every
    /// instruction's effective format keeps at least its required
    /// mantissa bits (unreplaced doubles count as 52).
    struct MantissaEval {
        tree: StructureTreeBox,
        min_mant: std::collections::HashMap<u32, u32>,
    }

    impl Evaluator for MantissaEval {
        fn evaluate(&self, cfg: &Config) -> bool {
            self.tree.tree.all_insns().into_iter().all(|i| {
                let mant = cfg.effective(&self.tree.tree, i).mantissa_bits().unwrap_or(52);
                mant >= self.min_mant.get(&i.0).copied().unwrap_or(0)
            })
        }
    }

    /// [`search_observed`] from an empty base with an in-memory event log
    /// added to `hooks`, and the decision records folded from that log.
    fn decided(
        tree: &StructureTree,
        eval: &dyn Evaluator,
        opts: &SearchOptions,
        hooks: SearchHooks<'_>,
    ) -> (SearchReport, Vec<crate::decisions::DecisionRecord>) {
        let (log, buf) = EventLog::in_memory();
        let hooks = SearchHooks { events: Some(&log), ..hooks };
        let r = search_observed(tree, &Config::new(), None, eval, opts, &hooks);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events = text.lines().map(|l| crate::events::Event::parse(l).unwrap());
        let decisions = crate::decisions::fold(tree, &Config::new(), &r.final_config, events);
        (r, decisions)
    }

    #[test]
    fn lattice_descends_each_unit_to_its_narrowest_passing_format() {
        // f0 tolerates bf16 (7 mantissa bits), f1 only half, f2 only
        // single: with the lattice [Single, Half, Bf16] each function
        // must settle exactly there.
        let tb = make_prog(3, 4);
        let ids = tb.tree.all_insns();
        let mut min_mant = std::collections::HashMap::new();
        for &i in &ids[..4] {
            min_mant.insert(i.0, 7);
        }
        for &i in &ids[4..8] {
            min_mant.insert(i.0, 10);
        }
        for &i in &ids[8..] {
            min_mant.insert(i.0, 23);
        }
        let eval = MantissaEval { tree: make_prog(3, 4), min_mant };
        let opts =
            SearchOptions { lattice: vec![Flag::Single, Flag::Half, Flag::Bf16], ..opts_serial() };
        let (r, decisions) = decided(&tb.tree, &eval, &opts, SearchHooks::default());
        assert!(r.final_pass);
        assert_eq!(r.static_pct, 100.0);
        for &i in &ids[..4] {
            assert_eq!(r.final_config.effective(&tb.tree, i), Flag::Bf16);
        }
        for &i in &ids[4..8] {
            assert_eq!(r.final_config.effective(&tb.tree, i), Flag::Half);
        }
        for &i in &ids[8..] {
            assert_eq!(r.final_config.effective(&tb.tree, i), Flag::Single);
        }
        // the precision dimension of the report reflects the same split
        let breakdown = r.format_breakdown(&tb.tree);
        assert_eq!(
            breakdown,
            vec![("s".to_string(), 4), ("h".to_string(), 4), ("b".to_string(), 4)]
        );
        // decision provenance: one record per insn, and every replaced
        // insn carries a passed-at-level event for its final format.
        assert_eq!(decisions.len(), ids.len());
        for rec in &decisions {
            assert_ne!(rec.final_format, "d", "everything replaced in this scenario");
            assert!(
                rec.events.iter().any(|e| matches!(
                    e,
                    crate::decisions::DecisionEvent::Passed { format, .. }
                        if *format == rec.final_format
                )),
                "insn {} final {} lacks a matching passed event: {:?}",
                rec.insn,
                rec.final_format,
                rec.events
            );
        }
    }

    #[test]
    fn lattice_failure_demotes_to_the_last_passing_level() {
        // Nothing tolerates half: a [Single, Half] lattice must land
        // everything at Single and still pass, costing extra tests for
        // the refused descents.
        let tb = make_prog(2, 4);
        let ids = tb.tree.all_insns();
        let min_mant = ids.iter().map(|i| (i.0, 23)).collect();
        let eval = MantissaEval { tree: make_prog(2, 4), min_mant };
        let classic = search(
            &tb.tree,
            &Config::new(),
            None,
            &MantissaEval {
                tree: make_prog(2, 4),
                min_mant: ids.iter().map(|i| (i.0, 23)).collect(),
            },
            &opts_serial(),
        );
        let opts = SearchOptions { lattice: vec![Flag::Single, Flag::Half], ..opts_serial() };
        let r = search(&tb.tree, &Config::new(), None, &eval, &opts);
        assert!(r.final_pass);
        for &i in &ids {
            assert_eq!(r.final_config.effective(&tb.tree, i), Flag::Single);
        }
        assert_eq!(
            classic.final_config.replaced_insns(&tb.tree),
            r.final_config.replaced_insns(&tb.tree)
        );
        assert!(r.configs_tested > classic.configs_tested, "descent attempts must be tested");
    }

    #[test]
    fn empty_lattice_is_normalized_to_classic_single() {
        let tb = make_prog(2, 4);
        let eval = SetEval { tree: make_prog(2, 4), sensitive: vec![], calls: AtomicUsize::new(0) };
        let opts = SearchOptions { lattice: vec![], ..opts_serial() };
        let r = search(&tb.tree, &Config::new(), None, &eval, &opts);
        assert!(r.final_pass);
        assert_eq!(r.configs_tested, 2); // one module test + one union test
        for i in tb.tree.all_insns() {
            assert_eq!(r.final_config.effective(&tb.tree, i), Flag::Single);
        }
    }

    #[test]
    fn range_guards_block_unsurvivable_demotions() {
        use mpshadow::{InsnSensitivity, SensitivityProfile};
        // Every instruction verifies at any precision (SetEval with no
        // sensitive set), but instruction 0's observed magnitudes exceed
        // half's finite range — the guard must keep it at Single while
        // its sibling descends.
        let tb = make_prog(1, 2);
        let ids = tb.tree.all_insns();
        let mut profile = SensitivityProfile::default();
        profile.insns.insert(
            ids[0].0,
            InsnSensitivity {
                count: 10,
                max_abs: 1.0e6, // > 65504, half's max finite
                min_abs: 1.0,
                ..Default::default()
            },
        );
        let eval = SetEval { tree: make_prog(1, 2), sensitive: vec![], calls: AtomicUsize::new(0) };
        let hooks = SearchHooks {
            shadow: Some(ShadowOracle {
                profile: &profile,
                prioritize: false,
                prune_threshold: None,
            }),
            ..Default::default()
        };
        let opts = SearchOptions { lattice: vec![Flag::Single, Flag::Half], ..opts_serial() };
        let (r, decisions) = decided(&tb.tree, &eval, &opts, hooks);
        assert!(r.final_pass);
        assert_eq!(r.final_config.effective(&tb.tree, ids[0]), Flag::Single);
        assert_eq!(r.final_config.effective(&tb.tree, ids[1]), Flag::Half);
        assert!(r.guard_refused > 0, "the blocked descent must be counted");
        assert!(!r.guard_note("m").is_empty());
        // The refused insn's record carries the observed range evidence.
        let rec = decisions.iter().find(|d| d.insn == ids[0].0).unwrap();
        let guard = rec
            .events
            .iter()
            .find_map(|e| match e {
                crate::decisions::DecisionEvent::GuardRefused {
                    format, max_abs, bound, ..
                } => Some((format.clone(), *max_abs, *bound)),
                _ => None,
            })
            .expect("guard refusal must leave evidence");
        assert_eq!(guard.0, "half");
        assert_eq!(guard.1, 1.0e6);
        assert!(guard.1 > guard.2, "observed max must exceed the format bound");
    }

    #[test]
    fn end_to_end_with_vm_evaluator() {
        // A real program: two accumulations, one needing double precision
        // (verification tolerance set so f32 fails for it).
        let mut ir = IrProgram::new("demo");
        let xs = ir.array_f64_init("xs", (0..64).map(|k| 1.0 + (k as f64) * 1e-9).collect());
        let out = ir.array_f64("out", 2);
        let main = ir.func("main", &[], None, |ir, fr, _| {
            let a = ir.local_f(fr);
            let b = ir.local_f(fr);
            let k = ir.local_i(fr);
            vec![
                set(a, f(0.0)),
                set(b, f(0.0)),
                // coarse: sum of xs (fine in f32 at this tolerance)
                for_(k, i(0), i(64), vec![set(a, fadd(v(a), ld(xs, v(k))))]),
                // delicate: accumulate tiny differences (dies in f32)
                for_(
                    k,
                    i(0),
                    i(64),
                    vec![set(
                        b,
                        fadd(v(b), fmul(fdiv(fadd(ld(xs, v(k)), f(-1.0)), f(1e-9)), itof(v(k)))),
                    )],
                ),
                st(out, i(0), v(a)),
                st(out, i(1), v(b)),
            ]
        });
        ir.set_entry(main);
        let prog = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&prog);

        // reference outputs from the original program
        let mut vm = Vm::new(&prog, VmOptions::default());
        let reference = vm.run();
        assert!(reference.ok());
        let sym = prog.symbol("out").unwrap();
        let want = vm.mem.read_f64_slice(sym, 2).unwrap();

        let eval = VmEvaluator::new(&prog, &tree, reference.stats.steps, move |vm: &Vm<'_>| {
            let got = vm.mem.read_f64_slice(sym, 2).unwrap();
            let rel = |a: f64, b: f64| ((a - b) / b.max(1.0)).abs();
            rel(got[0], want[0]) < 1e-6 && rel(got[1], want[1]) < 1e-6
        });

        let prof = Vm::run_program(&prog, VmOptions { profile: true, ..Default::default() })
            .profile
            .unwrap();
        let r = search(
            &tree,
            &Config::new(),
            Some(&prof),
            &eval,
            &SearchOptions { threads: 2, ..Default::default() },
        );
        // some instructions must be replaceable, some not
        assert!(r.static_pct > 0.0, "nothing replaced");
        assert!(r.static_pct < 100.0, "everything replaced — tolerance too loose");
        assert!(r.configs_tested > 1);
    }
}

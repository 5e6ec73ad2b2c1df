//! The breadth-first search algorithm (paper §2.2).

use crate::decisions::DecisionEvent;
use crate::evaluator::{CachedEvaluator, Evaluator};
use crate::events::{Event, EventLog};
use crate::executor::{ExecPolicy, Executor, FaultPlan, Verdict};
use crate::report::{PassingUnit, SearchReport};
use fpvm::isa::InsnId;
use fpvm::Profile;
use mpconfig::{Config, Flag, NodeRef, StructureTree};
use mpfmt::guard::{check_demotion, op_class_of_disasm, GuardError, OpClass};
use mptrace::stream::{Progress, StreamSink};
use mptrace::Tracer;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

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
    fn max_depth(self) -> usize {
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
    /// Children-count threshold above which binary splitting applies.
    pub split_threshold: usize,
    /// Run the second search phase the paper suggests (§3.1): when the
    /// union of individually passing replacements fails verification,
    /// greedily back off the least-executed passing units until a
    /// composable configuration is found.
    pub second_phase: bool,
    /// Memoize evaluation results by effective replaced-instruction set
    /// (shared across all workers), so structurally different trials that
    /// instrument identically are evaluated once.
    pub eval_cache: bool,
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
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            stop_depth: StopDepth::Instruction,
            binary_split: true,
            prioritize: true,
            threads: SearchOptions::default_threads(),
            max_tests: None,
            split_threshold: 2,
            second_phase: false,
            eval_cache: true,
            exec: ExecPolicy::default(),
            lattice: vec![Flag::Single],
        }
    }
}

/// Side-channel hooks for [`search_observed`]: deterministic fault
/// injection, a structured event sink, and an optional shadow-value
/// oracle. [`search`] uses the inert defaults.
#[derive(Default)]
pub struct SearchHooks<'a> {
    /// Label stamped on the `search_started` event.
    pub bench: String,
    /// Deterministic fault plan applied by the executor.
    pub faults: FaultPlan,
    /// JSONL event sink; `None` disables event emission.
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

/// A work item: a structure node, or a binary-split partition of some
/// node's children, tried at one level of the precision lattice.
#[derive(Debug, Clone)]
struct Item {
    node: NodeRef,
    /// For partitions: the explicit child subset being tested.
    subset: Option<Vec<NodeRef>>,
    insns: Vec<InsnId>,
    /// Index into the sanitized lattice: the replacement flag this trial
    /// applies to `insns`. Roots start at 0; passing items re-enter the
    /// queue at `level + 1` until the lattice bottoms out.
    level: usize,
}

/// How a worker settled one dequeued item.
enum Settled {
    /// Skipped by shadow pruning: its worst instruction-local shadow
    /// error exceeds the threshold.
    Pruned { unit: String, err: f64, threshold: f64 },
    /// Refused by the range guards, with per-instruction evidence.
    Refused(Vec<(InsnId, DecisionEvent)>),
    /// Evaluated by the executor.
    Tested { unit: String, verdict: Verdict },
}

struct QEntry {
    priority: u64,
    seq: Reverse<u64>,
    item: Item,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

struct Shared {
    queue: BinaryHeap<QEntry>,
    in_flight: usize,
    tested: usize,
    pruned: usize,
    guard_refused: usize,
    next_seq: u64,
    passing: Vec<Item>,
    stopped: bool,
}

struct Ctx<'a> {
    tree: &'a StructureTree,
    base: &'a Config,
    profile: Option<&'a Profile>,
    opts: &'a SearchOptions,
    /// Sanitized [`SearchOptions::lattice`]: replacement flags only,
    /// never empty.
    lattice: Vec<Flag>,
    /// Range-guard classes per candidate instruction, classified from
    /// the tree's disassembly. Empty unless the lattice has reduced
    /// levels and a shadow oracle (the range source) is attached.
    classes: HashMap<u32, OpClass>,
    events: Option<&'a EventLog>,
    shadow: Option<ShadowOracle<'a>>,
    tracer: Option<&'a Tracer>,
    stream: Option<&'a StreamSink>,
}

/// Instantaneous progress for the live stream, read under the shared
/// lock. `done` counts pruned items too: they consumed queue work even
/// though no evaluation ran.
fn progress_of(s: &Shared, phase: &str) -> Progress {
    let done = s.tested + s.pruned + s.guard_refused;
    Progress {
        phase: phase.into(),
        queue_depth: s.queue.len() as u64,
        in_flight: s.in_flight as u64,
        done: done as u64,
        total_estimate: (done + s.queue.len() + s.in_flight) as u64,
    }
}

impl Ctx<'_> {
    /// Non-ignored candidate instructions under a node.
    fn live_insns(&self, node: NodeRef) -> Vec<InsnId> {
        self.tree
            .insns_under(node)
            .into_iter()
            .filter(|&i| self.base.effective(self.tree, i) != Flag::Ignore)
            .collect()
    }

    fn priority_of(&self, insns: &[InsnId]) -> u64 {
        if !self.opts.prioritize {
            return 0;
        }
        let count = match self.profile {
            Some(p) => p.total_of(insns.iter().copied()),
            None => 0,
        };
        match self.shadow {
            // Shadow-guided ranking: the error class (higher = smaller
            // divergence) dominates, profile counts break ties within a
            // class. 48 bits of count is far beyond any real fuel budget.
            Some(o) if o.prioritize => {
                let err = o.profile.max_rel_over(insns.iter().copied());
                (mpshadow::error_class(err) << 48) | count.min((1 << 48) - 1)
            }
            _ => count,
        }
    }

    /// The replacement flag at one lattice level (clamped to the last
    /// level, though the search never enqueues beyond the lattice).
    fn flag_at(&self, level: usize) -> Flag {
        self.lattice[level.min(self.lattice.len() - 1)]
    }

    /// Human label for a work item (node label, plus the partition size
    /// for binary-split subsets, plus the lattice level below the
    /// classic single).
    fn label_of(&self, item: &Item) -> String {
        let base = match &item.subset {
            Some(sub) => format!("{} [{} children]", self.tree.label(item.node), sub.len()),
            None => self.tree.label(item.node),
        };
        if item.level == 0 {
            base
        } else {
            format!("{} @{}", base, self.flag_at(item.level).token())
        }
    }

    fn push(&self, s: &mut Shared, item: Item) {
        if item.insns.is_empty() {
            return;
        }
        let priority = self.priority_of(&item.insns);
        let seq = s.next_seq;
        s.next_seq += 1;
        if let Some(log) = self.events {
            log.emit(Event::ConfigEnqueued {
                label: self.label_of(&item),
                insns: item.insns.len(),
                priority,
                depth: s.queue.len() + 1,
            });
        }
        if let Some(t) = self.tracer {
            t.incr("search.enqueued", 1);
        }
        s.queue.push(QEntry { priority, seq: Reverse(seq), item });
    }

    /// Expand a failed item into finer-grained work at the same lattice
    /// level: a unit that fails at level *k* is refined structurally, so
    /// smaller pieces can still reach level *k* even though the whole
    /// could not (the pieces already passed level *k − 1* as part of a
    /// passing ancestor, which stays in `passing`).
    fn expand(&self, s: &mut Shared, item: &Item) {
        match &item.subset {
            Some(children) if children.len() > 1 => {
                // split the partition in half (binary splitting)
                let mid = children.len() / 2;
                for half in [&children[..mid], &children[mid..]] {
                    let insns: Vec<InsnId> =
                        half.iter().flat_map(|&c| self.live_insns(c)).collect();
                    let subset = if half.len() > 1 { Some(half.to_vec()) } else { None };
                    let node = if half.len() == 1 { half[0] } else { item.node };
                    self.push(s, Item { node, subset, insns, level: item.level });
                }
            }
            Some(children) => {
                // singleton partition == the child node itself; its test
                // just failed, so expand the child directly.
                debug_assert_eq!(children.len(), 1);
                self.expand_node(s, children[0], item.level);
            }
            None => self.expand_node(s, item.node, item.level),
        }
    }

    fn expand_node(&self, s: &mut Shared, node: NodeRef, level: usize) {
        if node.depth() >= self.opts.stop_depth.max_depth() {
            return; // leaf at the configured granularity: stays double
        }
        let children: Vec<NodeRef> = self
            .tree
            .children(node)
            .into_iter()
            .filter(|&c| !self.live_insns(c).is_empty())
            .collect();
        if children.is_empty() {
            return;
        }
        if self.opts.binary_split && children.len() > self.opts.split_threshold {
            let mid = children.len() / 2;
            for half in [&children[..mid], &children[mid..]] {
                let insns: Vec<InsnId> = half.iter().flat_map(|&c| self.live_insns(c)).collect();
                let subset = if half.len() > 1 { Some(half.to_vec()) } else { None };
                let n = if half.len() == 1 { half[0] } else { node };
                self.push(s, Item { node: n, subset, insns, level });
            }
        } else {
            for c in children {
                let insns = self.live_insns(c);
                self.push(s, Item { node: c, subset: None, insns, level });
            }
        }
    }

    fn trial_config(&self, insns: &[InsnId], level: usize) -> Config {
        let mut cfg = self.base.clone();
        let flag = self.flag_at(level);
        for &i in insns {
            cfg.set_insn(i, flag);
        }
        cfg
    }

    /// Compose the final configuration from passing units: each
    /// instruction lands at the *narrowest* format it passed at (the
    /// same unit re-passes at every shallower level first, so every
    /// covered instruction has a level-0 entry too). Returns the config
    /// and the set of replaced instructions.
    fn union_config(&self, items: &[Item]) -> (Config, BTreeSet<InsnId>) {
        let mut best: BTreeMap<InsnId, Flag> = BTreeMap::new();
        for it in items {
            let fl = self.flag_at(it.level);
            for &i in &it.insns {
                let e = best.entry(i).or_insert(fl);
                if fl.mantissa_bits().unwrap_or(u32::MAX) < e.mantissa_bits().unwrap_or(u32::MAX) {
                    *e = fl;
                }
            }
        }
        let replaced: BTreeSet<InsnId> = best.keys().copied().collect();
        let mut cfg = self.base.clone();
        for (i, fl) in best {
            cfg.set_insn(i, fl);
        }
        (cfg, replaced)
    }

    /// Range-guard check for one item: every covered instruction whose
    /// observed operand envelope cannot survive the item's target
    /// format, with the refusing [`mpfmt::guard::GuardError`] and the
    /// observed range as evidence. A non-empty result refuses the whole
    /// item. Only reduced formats are guarded, and only when a shadow
    /// profile (the range source) is attached — otherwise demotions keep
    /// the classic try-it-and-verify behavior.
    fn guard_refusals(&self, item: &Item) -> Vec<(InsnId, DecisionEvent)> {
        let (Some(oracle), Some(fmt)) =
            (self.shadow, self.flag_at(item.level).format().filter(|f| f.is_reduced()))
        else {
            return Vec::new();
        };
        item.insns
            .iter()
            .filter_map(|&i| {
                let class = self.classes.get(&i.0).copied().unwrap_or(OpClass::Other);
                let obs = oracle.profile.range_over([i]);
                let err = check_demotion(fmt, class, &obs).err()?;
                let (class, bound) = match err {
                    GuardError::Overflow { class, bound, .. }
                    | GuardError::Underflow { class, bound, .. } => (class, bound),
                };
                Some((
                    i,
                    DecisionEvent::GuardRefused {
                        format: fmt.name(),
                        class: format!("{class:?}"),
                        max_abs: obs.max_abs,
                        min_abs: obs.min_abs,
                        bound,
                    },
                ))
            })
            .collect()
    }

    /// Logs `what(i)` as a `decision` event for each insn `i` in
    /// `insns`; without an event log nothing is built. Outcome sites call
    /// this under the shared lock, before enqueueing follow-up work, so
    /// each insn's evidence is in causal order at any thread count.
    fn decide(&self, insns: &[InsnId], what: impl Fn(InsnId) -> DecisionEvent) {
        if let Some(log) = self.events {
            for &i in insns {
                log.emit(Event::Decision { insn: i.0, what: what(i) });
            }
        }
    }
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
/// [`search`] just uses inert hooks), structured events go to
/// `hooks.events`, and `hooks.faults` deterministically injects failures
/// for robustness testing.
pub fn search_observed(
    tree: &StructureTree,
    base: &Config,
    profile: Option<&Profile>,
    eval: &dyn Evaluator,
    opts: &SearchOptions,
    hooks: &SearchHooks<'_>,
) -> SearchReport {
    let start = Instant::now();
    // Sanitize the lattice: replacement flags only, never empty. The
    // default `[Single]` reproduces the classic two-level search.
    let mut lattice: Vec<Flag> =
        opts.lattice.iter().copied().filter(|f| f.is_replacement()).collect();
    if lattice.is_empty() {
        lattice.push(Flag::Single);
    }
    // Range-guard classes are only needed when a reduced level can
    // actually be tried and a shadow profile supplies observed ranges.
    let guards_armed = hooks.shadow.is_some()
        && lattice.iter().any(|f| f.format().is_some_and(|fm| fm.is_reduced()));
    let classes: HashMap<u32, OpClass> = if guards_armed {
        tree.modules
            .iter()
            .flat_map(|m| m.funcs.iter())
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insns.iter())
            .map(|e| (e.id.0, op_class_of_disasm(&e.disasm)))
            .collect()
    } else {
        HashMap::new()
    };
    let ctx = Ctx {
        tree,
        base,
        profile,
        opts,
        lattice,
        classes,
        events: hooks.events,
        shadow: hooks.shadow,
        tracer: hooks.tracer,
        stream: hooks.stream,
    };
    let search_span = hooks.tracer.map(|t| t.span("search"));

    // Optionally interpose the evaluation cache. All call sites below —
    // workers, the final union test, and the second phase — go through
    // `eval`, so every repeated effective configuration is a hit.
    let cache = opts.eval_cache.then(|| CachedEvaluator::new(eval, tree));
    let eval: &dyn Evaluator = match &cache {
        Some(c) => c,
        None => eval,
    };
    let exec = Executor::new(eval, tree, opts.exec.clone(), hooks.faults.clone(), hooks.events)
        .with_tracer(hooks.tracer);

    let candidates: Vec<InsnId> =
        tree.all_insns().into_iter().filter(|&i| base.effective(tree, i) != Flag::Ignore).collect();

    if let Some(log) = hooks.events {
        log.emit(Event::SearchStarted {
            bench: hooks.bench.clone(),
            candidates: candidates.len(),
            threads: opts.threads.max(1),
        });
        log.emit(Event::PhaseStarted { phase: "bfs".into() });
    }
    let phase_start = Instant::now();
    let bfs_span = hooks.tracer.map(|t| t.span("phase:bfs"));

    let shared = Mutex::new(Shared {
        queue: BinaryHeap::new(),
        in_flight: 0,
        tested: 0,
        pruned: 0,
        guard_refused: 0,
        next_seq: 0,
        passing: Vec::new(),
        stopped: false,
    });
    let cond = Condvar::new();

    {
        let mut s = shared.lock().unwrap();
        for root in tree.roots() {
            let insns = ctx.live_insns(root);
            ctx.push(&mut s, Item { node: root, subset: None, insns, level: 0 });
        }
        if let Some(sink) = ctx.stream {
            sink.force(&progress_of(&s, "bfs"));
        }
    }

    // Settle one dequeued item under the shared lock: count it, log its
    // decisions, then keep a pass (re-entering it one lattice level
    // deeper) or refine anything else structurally, like a failed test.
    let settle = |item: Item, outcome: Settled| {
        let mut s = shared.lock().unwrap();
        let passed = match outcome {
            Settled::Pruned { unit, err, threshold } => {
                s.pruned += 1;
                ctx.decide(&item.insns, |_| DecisionEvent::ShadowPruned {
                    level: item.level as u32,
                    format: ctx.flag_at(item.level).token(),
                    err,
                    threshold,
                    unit: unit.clone(),
                });
                false
            }
            Settled::Refused(refusals) => {
                s.guard_refused += 1;
                for (i, what) in refusals {
                    ctx.decide(&[i], |_| what.clone());
                }
                false
            }
            Settled::Tested { unit, verdict: Verdict::Pass } => {
                s.tested += 1;
                ctx.decide(&item.insns, |_| DecisionEvent::Passed {
                    level: item.level as u32,
                    format: ctx.flag_at(item.level).token(),
                    unit: unit.clone(),
                });
                true
            }
            Settled::Tested { unit, verdict } => {
                s.tested += 1;
                // Per-insn error metric: the instruction-local shadow
                // error, when an oracle supplied one.
                ctx.decide(&item.insns, |i| DecisionEvent::Failed {
                    level: item.level as u32,
                    format: ctx.flag_at(item.level).token(),
                    verdict,
                    unit: unit.clone(),
                    shadow_err: ctx.shadow.map(|o| o.profile.max_local_over([i])),
                });
                false
            }
        };
        if passed {
            // Lattice descent: a passing unit re-enters the queue at the
            // next (narrower) level; the pass itself is kept so the unit
            // settles at its deepest passing format.
            if item.level + 1 < ctx.lattice.len() {
                let deeper = Item { level: item.level + 1, ..item.clone() };
                ctx.push(&mut s, deeper);
            }
            s.passing.push(item);
        } else {
            ctx.expand(&mut s, &item);
        }
        s.in_flight -= 1;
        // Snapshot progress under the lock, emit after releasing it — the
        // sink's own gates keep this cheap.
        let prog = ctx.stream.map(|_| progress_of(&s, "bfs"));
        cond.notify_all();
        drop(s);
        if let (Some(sink), Some(p)) = (ctx.stream, prog) {
            sink.tick(&p);
        }
    };
    let worker_loop = || loop {
        let item = {
            let mut s = shared.lock().unwrap();
            loop {
                if s.stopped {
                    return;
                }
                if let Some(max) = opts.max_tests {
                    if s.tested >= max {
                        s.stopped = true;
                        cond.notify_all();
                        return;
                    }
                }
                if let Some(e) = s.queue.pop() {
                    s.in_flight += 1;
                    if let Some(log) = ctx.events {
                        log.emit(Event::QueueDepth {
                            depth: s.queue.len(),
                            in_flight: s.in_flight,
                        });
                    }
                    // Gauge sampled at the dequeue, so idle drains
                    // are visible, not just enqueue-time spikes.
                    if let Some(t) = ctx.tracer {
                        t.gauge("search.queue_depth", s.queue.len() as f64);
                        t.gauge("search.in_flight", s.in_flight as f64);
                    }
                    break e.item;
                }
                if s.in_flight == 0 {
                    cond.notify_all();
                    return;
                }
                s = cond.wait(s).unwrap();
            }
        };
        // Shadow pruning: an item whose worst instruction-local shadow
        // error already exceeds the threshold is expanded like a failed
        // evaluation, without paying for the evaluation.
        if let Some(ShadowOracle { profile, prune_threshold: Some(threshold), .. }) = ctx.shadow {
            let err = profile.max_local_over(item.insns.iter().copied());
            if err > threshold {
                let unit = ctx.label_of(&item);
                if let Some(log) = ctx.events {
                    log.emit(Event::ShadowPruned { label: unit.clone(), err, threshold });
                }
                if let Some(t) = ctx.tracer {
                    t.incr("search.shadow_pruned", 1);
                }
                settle(item, Settled::Pruned { unit, err, threshold });
                continue;
            }
        }
        // Range guards: a reduced-format trial whose observed operand
        // envelope cannot survive the target format is refused without
        // evaluation.
        let refusals = ctx.guard_refusals(&item);
        if !refusals.is_empty() {
            if let Some(t) = ctx.tracer {
                t.incr("search.guard_refused", 1);
            }
            settle(item, Settled::Refused(refusals));
            continue;
        }
        let cfg = ctx.trial_config(&item.insns, item.level);
        let unit = ctx.label_of(&item);
        let verdict = exec.run(&cfg, &unit);
        settle(item, Settled::Tested { unit, verdict });
    };
    // The borrow is load-bearing: one closure is spawned `threads` times,
    // so it must be passed by reference, not moved.
    #[allow(clippy::needless_borrows_for_generic_args)]
    std::thread::scope(|scope| {
        for _ in 0..opts.threads.max(1) {
            scope.spawn(&worker_loop);
        }
    });

    let s = shared.into_inner().unwrap();
    drop(bfs_span);
    if let Some(log) = hooks.events {
        log.emit(Event::PhaseFinished {
            phase: "bfs".into(),
            wall_us: phase_start.elapsed().as_micros() as u64,
        });
        log.emit(Event::PhaseStarted { phase: "union".into() });
    }
    let phase_start = Instant::now();
    let union_span = hooks.tracer.map(|t| t.span("phase:union"));
    if let Some(sink) = ctx.stream {
        sink.force(&progress_of(&s, "union"));
    }

    // Compose the final configuration: the union of every individually
    // passing unit (§2.2), each instruction at the narrowest format it
    // passed at, then test it once more.
    let (mut final_config, mut replaced) = ctx.union_config(&s.passing);
    let mut final_pass = replaced.is_empty() || exec.run(&final_config, "union") == Verdict::Pass;
    let mut tested_extra = 0usize;
    drop(union_span);
    if let Some(log) = hooks.events {
        log.emit(Event::PhaseFinished {
            phase: "union".into(),
            wall_us: phase_start.elapsed().as_micros() as u64,
        });
    }

    // Second phase (paper §3.1: "a second search phase may be useful, to
    // determine the largest subset of individually-passing instruction
    // replacements that may be composed to create a passing final
    // configuration"): greedily drop the passing unit with the fewest
    // replaced executions — sacrificing the least dynamic coverage — and
    // retest, until the composition verifies or nothing remains.
    let mut passing_units: Vec<Item> = s.passing.clone();
    if opts.second_phase && !final_pass {
        if let Some(log) = hooks.events {
            log.emit(Event::PhaseStarted { phase: "second-phase".into() });
        }
        let phase_start = Instant::now();
        let second_span = hooks.tracer.map(|t| t.span("phase:second-phase"));
        if let Some(sink) = ctx.stream {
            sink.force(&progress_of(&s, "second-phase"));
        }
        passing_units.sort_by_key(|it| match profile {
            Some(p) => p.total_of(it.insns.iter().copied()),
            None => it.insns.len() as u64,
        });
        while !final_pass && !passing_units.is_empty() {
            let dropped = passing_units.remove(0);
            ctx.decide(&dropped.insns, |_| DecisionEvent::Dropped { unit: ctx.label_of(&dropped) });
            let (cfg, kept) = ctx.union_config(&passing_units);
            final_config = cfg;
            final_pass =
                kept.is_empty() || exec.run(&final_config, "second-phase") == Verdict::Pass;
            tested_extra += 1;
        }
        replaced = passing_units.iter().flat_map(|it| it.insns.iter().copied()).collect();
        drop(second_span);
        if let Some(log) = hooks.events {
            log.emit(Event::PhaseFinished {
                phase: "second-phase".into(),
                wall_us: phase_start.elapsed().as_micros() as u64,
            });
        }
    }

    let static_pct = if candidates.is_empty() {
        0.0
    } else {
        100.0 * replaced.len() as f64 / candidates.len() as f64
    };
    let dynamic_pct = match profile {
        Some(p) => {
            let total: u64 = candidates.iter().map(|&i| p.count(i)).sum();
            let rep: u64 = replaced.iter().map(|&i| p.count(i)).sum();
            if total == 0 {
                0.0
            } else {
                100.0 * rep as f64 / total as f64
            }
        }
        None => f64::NAN,
    };

    let passing = passing_units
        .iter()
        .map(|it| PassingUnit { node: it.node, label: ctx.label_of(it), insns: it.insns.len() })
        .collect();

    let estats = eval.stats();
    let counters = exec.counters();
    let report = SearchReport {
        candidates: candidates.len(),
        configs_tested: s.tested + tested_extra + if replaced.is_empty() { 0 } else { 1 },
        passing,
        failed_insns: candidates.len() - replaced.len(),
        final_config,
        final_pass,
        static_pct,
        dynamic_pct,
        elapsed: start.elapsed(),
        cache_hits: estats.cache_hits,
        fuel_capped: estats.fuel_capped,
        timeouts: counters.timeouts,
        crashes: counters.crashes,
        retries: counters.retries,
        quarantined: counters.quarantined,
        pruned_by_shadow: s.pruned,
        guard_refused: s.guard_refused,
    };
    if let Some(log) = hooks.events {
        log.emit(Event::SearchFinished {
            tested: report.configs_tested,
            passing: report.passing.len(),
            timeouts: report.timeouts,
            crashes: report.crashes,
            retries: report.retries,
            quarantined: report.quarantined,
            cache_hits: report.cache_hits,
            wall_us: report.elapsed.as_micros() as u64,
        });
        log.flush();
    }
    // Close the root span before the final emission so the last delta
    // carries it — the streamed snapshot then matches the post-mortem one.
    drop(search_span);
    if let Some(sink) = ctx.stream {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::VmEvaluator;
    use fpir::{f, fadd, fdiv, fmul, for_, i, itof, ld, set, st, v, CompileOptions, IrProgram};
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
        let r = search(
            &tb.tree,
            &Config::new(),
            None,
            &eval,
            &SearchOptions { max_tests: Some(10), ..opts_serial() },
        );
        assert!(r.configs_tested <= 10);
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
        // replaced sets must be identical even if test counts differ
        assert_eq!(
            serial.final_config.replaced_insns(&tb.tree),
            par.final_config.replaced_insns(&tb.tree)
        );
        assert_eq!(serial.failed_insns, par.failed_insns);
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
        let hooks = SearchHooks {
            bench: "unit".into(),
            tracer: Some(&tracer),
            stream: Some(&sink),
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
        // Verdict counts mirror the executor's tracer counters.
        let total: u64 = last.verdicts.values().sum();
        assert!(total >= report.configs_tested as u64, "{:?}", last.verdicts);
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
        let records = text.lines().map(|l| crate::events::Record::parse(l).unwrap());
        let decisions = crate::decisions::fold(tree, &Config::new(), &r.final_config, records);
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
        assert!(vm.run().ok());
        let sym = prog.symbol("out").unwrap();
        let want = vm.mem.read_f64_slice(sym, 2).unwrap();

        let eval = VmEvaluator::new(&prog, &tree, move |vm: &Vm<'_>| {
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

//! The §2.2 search as a serial planner over verdicts. [`Planner`] makes
//! every decision from verdicts alone, in one order: highest priority
//! first, ties broken by push order. It has no threads, locks or clocks,
//! so scheduling cannot change what the search decides, nor the search
//! record it writes ([`crate::events`]); [`Ahead`] lets workers evaluate
//! trials before the planner reaches them.

use crate::decisions::DecisionEvent;
use crate::events::Event;
use crate::executor::{ExecCounters, Outcome, Verdict};
use crate::report::{PassingUnit, SearchReport};
use crate::search::{SearchHooks, SearchOptions};
use fpvm::isa::InsnId;
use fpvm::Profile;
use mpconfig::{Config, Flag, NodeRef, StructureTree};
use mpfmt::guard::{check_demotion, op_class_of_disasm, GuardError, OpClass};
use mptrace::stream::Progress;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Children-count threshold above which binary splitting applies.
const SPLIT_THRESHOLD: usize = 2;

/// A work item: a structure node, or a binary-split partition of some
/// node's children, tried at one level of the precision lattice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Item {
    node: NodeRef,
    /// For partitions: the explicit child subset being tested.
    subset: Option<Vec<NodeRef>>,
    insns: Vec<InsnId>,
    /// Index into the sanitized lattice. Roots start at 0; passing items
    /// re-enter the queue at `level + 1` until the lattice bottoms out.
    level: usize,
    priority: u64,
}

/// A configuration the planner wants a verdict for: a BFS item, or the
/// phase's composition of passing units (the union, or a §3.1 subset).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Trial {
    Unit(Item),
    Compose(Phase),
}

/// A trial's outcome, with its configuration's replacement key and
/// whether another search's stored verdict answered it.
pub(crate) struct Answer {
    pub(crate) run: Outcome,
    pub(crate) key: Vec<u64>,
    pub(crate) foreign: bool,
}

/// The search's phases, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Bfs,
    Union,
    Second,
}

impl Phase {
    /// Wire name, as in `phase_started` events and `phase:*` spans.
    pub(crate) fn name(self) -> &'static str {
        ["bfs", "union", "second-phase"][self as usize]
    }
}

/// Why the planner settles an item without a run: shadow pruning, or
/// the range guards' per-instruction refusals.
enum RuledOut {
    Pruned { err: f64, threshold: f64 },
    Refused(Vec<(InsnId, DecisionEvent)>),
}

/// The search's decision state: [`Planner::next`] hands out a trial and
/// [`Planner::settle`] takes its verdict back, one trial at a time.
pub(crate) struct Planner<'a> {
    tree: &'a StructureTree,
    base: &'a Config,
    profile: Option<&'a Profile>,
    opts: &'a SearchOptions,
    hooks: &'a SearchHooks<'a>,
    /// Sanitized [`SearchOptions::lattice`]: never empty.
    lattice: Vec<Flag>,
    /// Range-guard classes per instruction; empty unless a reduced level
    /// can be tried and a shadow oracle (the range source) is attached.
    classes: HashMap<u32, OpClass>,
    pub(crate) candidates: Vec<InsnId>,
    s: State,
}

/// What the planner has decided so far.
#[derive(Default)]
struct State {
    phase: Option<Phase>,
    /// Keyed by (priority, push number): the first entry is the head.
    queue: BTreeMap<(Reverse<u64>, u64), Item>,
    pushed: u64,
    tested: usize,
    /// Trials settled, in every phase.
    trials: usize,
    /// Replacement keys of the trials settled so far, each with whether
    /// a deterministic verdict settled it (and so is in the store).
    settled: HashMap<Vec<u64>, bool>,
    /// Trials whose key an earlier trial settled or another search
    /// stored.
    cache_hits: usize,
    /// The settled trials' executor counters.
    exec: ExecCounters,
    pruned: usize,
    guard_refused: usize,
    /// Passing units, in settle order.
    passing: Vec<Item>,
    /// The union trial is yet to be handed out.
    due: bool,
    /// Second-phase compositions, each counted as a test.
    tested_extra: usize,
    final_config: Config,
    final_pass: bool,
    replaced: BTreeSet<InsnId>,
}

impl<'a> Planner<'a> {
    /// A planner for one search, silent until [`Planner::advance`].
    pub(crate) fn new(
        tree: &'a StructureTree,
        base: &'a Config,
        profile: Option<&'a Profile>,
        opts: &'a SearchOptions,
        hooks: &'a SearchHooks<'a>,
    ) -> Self {
        // The default `[Single]` reproduces the classic two-level search.
        let mut lattice: Vec<Flag> =
            opts.lattice.iter().copied().filter(|f| f.is_replacement()).collect();
        if lattice.is_empty() {
            lattice.push(Flag::Single);
        }
        let guards = hooks.shadow.is_some()
            && lattice.iter().any(|f| f.format().is_some_and(|fm| fm.is_reduced()));
        let insns = tree.modules.iter().flat_map(|m| &m.funcs).flat_map(|f| &f.blocks);
        let insns = insns.flat_map(|b| &b.insns).filter(|_| guards);
        let classes = insns.map(|e| (e.id.0, op_class_of_disasm(&e.disasm))).collect();
        let candidates = tree.all_insns().into_iter();
        let candidates = candidates.filter(|&i| base.effective(tree, i) != Flag::Ignore).collect();
        let s = State::default();
        Planner { tree, base, profile, opts, hooks, lattice, classes, candidates, s }
    }

    /// Live-stream progress with `waiting` trials not started (default: the
    /// queue) and `busy` running; `done` counts pruned and refused items.
    pub(crate) fn progress(&self, phase: Phase, waiting: Option<usize>, busy: usize) -> Progress {
        let (waiting, s) = (waiting.unwrap_or(self.s.queue.len()), &self.s);
        let done = s.tested + s.pruned + s.guard_refused;
        Progress {
            phase: phase.name().into(),
            queue_depth: waiting as u64,
            in_flight: busy as u64,
            done: done as u64,
            total_estimate: (done + waiting + busy) as u64,
        }
    }

    /// Logs the end of the current phase (or the start of the search),
    /// then enters and logs the next phase (`None`: the search is over).
    /// The second phase, run if enabled and the union failed, drops
    /// passing units fewest replaced executions first (a stable sort).
    pub(crate) fn advance(&mut self) -> Option<Phase> {
        self.log(|p| match p.s.phase {
            Some(phase) => Event::PhaseFinished { phase: phase.name().into() },
            None => Event::SearchStarted {
                bench: p.hooks.bench.clone(),
                candidates: p.candidates.len(),
            },
        });
        let phase = match self.s.phase {
            None => Phase::Bfs,
            Some(Phase::Bfs) => Phase::Union,
            Some(Phase::Union) if self.opts.second_phase && !self.s.final_pass => Phase::Second,
            _ => return None,
        };
        self.s.phase = Some(phase);
        self.log(|_| Event::PhaseStarted { phase: phase.name().into() });
        match phase {
            Phase::Bfs => {
                for root in self.tree.roots() {
                    let item = self.item(root, None, 0);
                    if !item.insns.is_empty() {
                        self.push(item);
                    }
                }
            }
            Phase::Union => {
                (self.s.final_config, self.s.replaced) = self.union_config(&self.s.passing);
                self.s.final_pass = self.s.replaced.is_empty();
                self.s.due = !self.s.final_pass;
            }
            Phase::Second => self.s.passing.sort_by_key(|it| match self.profile {
                Some(p) => p.total_of(it.insns.iter().copied()),
                None => it.insns.len() as u64,
            }),
        }
        Some(phase)
    }

    /// The phase's next trial, or `None` once it needs no more verdicts.
    /// The BFS stops at an empty queue or `max_tests` settled tests; the
    /// second phase (§3.1) drops one passing unit per trial until the rest
    /// compose to a pass or nothing remains.
    pub(crate) fn next(&mut self) -> Option<Trial> {
        let s = &mut self.s;
        match s.phase? {
            Phase::Bfs if self.opts.max_tests.is_some_and(|max| s.tested >= max) => None,
            Phase::Bfs => s.queue.pop_first().map(|(_, item)| Trial::Unit(item)),
            Phase::Union => std::mem::take(&mut s.due).then_some(Trial::Compose(Phase::Union)),
            Phase::Second => {
                while !self.s.final_pass && !self.s.passing.is_empty() {
                    let dropped = self.s.passing.remove(0);
                    let unit = self.label_of(&dropped);
                    self.decide(&dropped.insns, |_| DecisionEvent::Dropped { unit: unit.clone() });
                    (self.s.final_config, self.s.replaced) = self.union_config(&self.s.passing);
                    self.s.tested_extra += 1;
                    if !self.s.replaced.is_empty() {
                        return Some(Trial::Compose(Phase::Second));
                    }
                    self.s.final_pass = true;
                }
                None
            }
        }
    }

    /// What the executor runs to settle `trial`, or `None` for an item
    /// the planner rules out itself.
    pub(crate) fn run_of(&self, trial: &Trial) -> Option<Config> {
        match trial {
            Trial::Compose(_) => Some(self.s.final_config.clone()),
            Trial::Unit(item) if self.ruled_out(item).is_some() => None,
            Trial::Unit(item) => {
                let mut cfg = self.base.clone();
                for &i in &item.insns {
                    cfg.set_insn(i, self.flag_at(item.level));
                }
                Some(cfg)
            }
        }
    }

    /// Applies the answer on the trial [`Planner::next`] handed out last
    /// (`None` if [`Planner::run_of`] asked for no run).
    pub(crate) fn settle(&mut self, trial: Trial, answer: Option<Answer>) {
        let item = match trial {
            Trial::Unit(item) => item,
            Trial::Compose(phase) => {
                let insns = self.s.replaced.len();
                let verdict = answer.map(|a| self.tally(phase.name().into(), None, insns, a));
                self.s.final_pass = verdict == Some(Verdict::Pass);
                return;
            }
        };
        let (level, format) = (item.level as u32, self.flag_at(item.level).token());
        let unit = self.label_of(&item);
        let verdict = answer.map(|a| self.tally(unit.clone(), Some(level), item.insns.len(), a));
        match verdict {
            Some(verdict) => {
                self.s.tested += 1;
                // A failure carries the instruction-local shadow error,
                // when an oracle supplied one.
                self.decide(&item.insns, |i| match verdict {
                    Verdict::Pass => {
                        DecisionEvent::Passed { level, format: format.clone(), unit: unit.clone() }
                    }
                    verdict => DecisionEvent::Failed {
                        level,
                        format: format.clone(),
                        verdict,
                        unit: unit.clone(),
                        shadow_err: self.hooks.shadow.map(|o| o.profile.max_local_over([i])),
                    },
                });
            }
            None => {
                let ruled_out = self.ruled_out(&item).expect("an unrun item is ruled out");
                let (counter, evidence) = match ruled_out {
                    RuledOut::Pruned { err, threshold } => {
                        self.s.pruned += 1;
                        self.log(|_| Event::ShadowPruned { label: unit.clone(), err, threshold });
                        let what =
                            DecisionEvent::ShadowPruned { level, format, err, threshold, unit };
                        let evidence = item.insns.iter().map(|&i| (i, what.clone())).collect();
                        ("search.shadow_pruned", evidence)
                    }
                    RuledOut::Refused(refusals) => {
                        self.s.guard_refused += 1;
                        ("search.guard_refused", refusals)
                    }
                };
                if let Some(t) = self.hooks.tracer {
                    t.incr(counter, 1);
                }
                for (i, what) in evidence {
                    self.decide(&[i], |_| what.clone());
                }
            }
        }
        for next in self.successors(&item, verdict) {
            self.push(next);
        }
        if verdict == Some(Verdict::Pass) {
            self.s.passing.push(item);
        }
    }

    /// Logs the `trial` line of `a`, the answer on `unit` (at `level`,
    /// replacing `insns` candidates), adds its counters, and returns its
    /// verdict. The trial is a cache hit if an earlier trial settled its
    /// key or another search stored its verdict, and a hit that this
    /// order settles from the store made no attempt, whichever trials
    /// the workers happened to run. So the line and the counts follow
    /// this order alone.
    fn tally(&mut self, unit: String, level: Option<u32>, insns: usize, a: Answer) -> Verdict {
        let Outcome { verdict, steps, deterministic, mut counters } = a.run;
        let earlier = self.s.settled.get(&a.key).copied();
        if a.foreign || earlier == Some(true) {
            counters = ExecCounters::default();
        }
        *self.s.settled.entry(a.key).or_default() |= deterministic;
        let hit = a.foreign || earlier.is_some();
        if hit {
            self.s.cache_hits += 1;
            if let Some(t) = self.hooks.tracer {
                t.incr("search.cache_hits", 1);
            }
        }
        self.s.exec += counters;
        let (n, retries) = (self.s.trials, counters.retries);
        self.log(|_| Event::Trial { n, unit, level, insns, verdict, steps, retries, hit });
        self.s.trials += 1;
        verdict
    }

    /// The finished search's report, also logged as `search_finished`;
    /// the elapsed time and the evaluator's counters are the driver's to
    /// fill in.
    pub(crate) fn into_report(self) -> SearchReport {
        let (candidates, s) = (&self.candidates, &self.s);
        let pct = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { 100.0 * part / whole };
        let dynamic_pct = self.profile.map_or(f64::NAN, |p| {
            let total = p.total_of(candidates.iter().copied());
            pct(p.total_of(s.replaced.iter().copied()) as f64, total as f64)
        });
        let passing = s.passing.iter().map(|it| PassingUnit {
            node: it.node,
            label: self.label_of(it),
            insns: it.insns.len(),
        });
        let report = SearchReport {
            candidates: candidates.len(),
            configs_tested: s.tested + s.tested_extra + usize::from(!s.replaced.is_empty()),
            passing: passing.collect(),
            failed_insns: candidates.len() - s.replaced.len(),
            final_config: s.final_config.clone(),
            final_pass: s.final_pass,
            static_pct: pct(s.replaced.len() as f64, candidates.len() as f64),
            dynamic_pct,
            cache_hits: s.cache_hits,
            timeouts: s.exec.timeouts,
            crashes: s.exec.crashes,
            retries: s.exec.retries,
            quarantined: s.exec.quarantined,
            pruned_by_shadow: s.pruned,
            guard_refused: s.guard_refused,
            ..SearchReport::default()
        };
        self.log(|_| Event::SearchFinished {
            tested: report.configs_tested,
            passing: report.passing.len(),
            timeouts: report.timeouts,
            crashes: report.crashes,
            retries: report.retries,
            quarantined: report.quarantined,
            cache_hits: report.cache_hits,
        });
        report
    }

    /// The work a verdict on `item` implies (pure). A pass re-enters the
    /// unit one lattice level narrower, keeping the pass; anything else
    /// refines it at the same level, where its pieces may still pass.
    fn successors(&self, item: &Item, verdict: Option<Verdict>) -> Vec<Item> {
        match &item.subset {
            _ if verdict == Some(Verdict::Pass) => (item.level + 1 < self.lattice.len())
                .then(|| Item { level: item.level + 1, ..item.clone() })
                .into_iter()
                .collect(),
            // split the partition in half (binary splitting)
            Some(children) if children.len() > 1 => self.halves(item.node, children, item.level),
            // singleton partition == the child node itself; its test just
            // failed, so expand the child directly.
            Some(children) => self.expand_node(children[0], item.level),
            None => self.expand_node(item.node, item.level),
        }
    }

    fn expand_node(&self, node: NodeRef, level: usize) -> Vec<Item> {
        if node.depth() >= self.opts.stop_depth.max_depth() {
            return Vec::new(); // leaf at the configured granularity: stays double
        }
        let children = self.tree.children(node).into_iter();
        let children: Vec<NodeRef> = children.filter(|&c| !self.live_insns(c).is_empty()).collect();
        if self.opts.binary_split && children.len() > SPLIT_THRESHOLD {
            self.halves(node, &children, level)
        } else {
            children.into_iter().map(|c| self.item(c, None, level)).collect()
        }
    }

    /// `node`'s `children` split in two partitions (a lone child as itself).
    fn halves(&self, node: NodeRef, children: &[NodeRef], level: usize) -> Vec<Item> {
        let (a, b) = children.split_at(children.len() / 2);
        let half = |half: &[NodeRef]| match half {
            [only] => self.item(*only, None, level),
            _ => self.item(node, Some(half.to_vec()), level),
        };
        vec![half(a), half(b)]
    }

    fn item(&self, node: NodeRef, subset: Option<Vec<NodeRef>>, level: usize) -> Item {
        let insns: Vec<InsnId> = match &subset {
            Some(children) => children.iter().flat_map(|&c| self.live_insns(c)).collect(),
            None => self.live_insns(node),
        };
        Item { priority: self.priority_of(&insns), node, subset, insns, level }
    }

    fn push(&mut self, item: Item) {
        self.log(|p| Event::ConfigEnqueued {
            label: p.label_of(&item),
            insns: item.insns.len(),
            priority: item.priority,
            depth: p.s.queue.len() + 1,
        });
        if let Some(t) = self.hooks.tracer {
            t.incr("search.enqueued", 1);
        }
        self.s.queue.insert((Reverse(item.priority), self.s.pushed), item);
        self.s.pushed += 1;
    }

    /// Non-ignored candidate instructions under a node.
    fn live_insns(&self, node: NodeRef) -> Vec<InsnId> {
        let insns = self.tree.insns_under(node).into_iter();
        insns.filter(|&i| self.base.effective(self.tree, i) != Flag::Ignore).collect()
    }

    fn priority_of(&self, insns: &[InsnId]) -> u64 {
        if !self.opts.prioritize {
            return 0;
        }
        let count = self.profile.map_or(0, |p| p.total_of(insns.iter().copied()));
        match self.hooks.shadow {
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

    /// The replacement flag at one lattice level (clamped to the last).
    fn flag_at(&self, level: usize) -> Flag {
        self.lattice[level.min(self.lattice.len() - 1)]
    }

    /// Node label, plus a partition's size and the position of its
    /// first child among the node's children (which tells a node's
    /// partitions apart), and a level below single.
    fn label_of(&self, item: &Item) -> String {
        let base = match &item.subset {
            Some(sub) => {
                let children = self.tree.children(item.node);
                let at = children.iter().position(|&c| c == sub[0]).expect("a child of the node");
                format!("{} [{} children from #{at}]", self.tree.label(item.node), sub.len())
            }
            None => self.tree.label(item.node),
        };
        match item.level {
            0 => base,
            level => format!("{} @{}", base, self.flag_at(level).token()),
        }
    }

    /// The union of passing units, each instruction at the *narrowest*
    /// format it passed at, and the set of replaced instructions.
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

    /// Shadow pruning, then the range guards, which refuse a reduced
    /// format for any instruction whose observed operand envelope cannot
    /// survive it. Either settles the item as failed without a run.
    fn ruled_out(&self, item: &Item) -> Option<RuledOut> {
        let oracle = self.hooks.shadow?;
        if let Some(threshold) = oracle.prune_threshold {
            let err = oracle.profile.max_local_over(item.insns.iter().copied());
            if err > threshold {
                return Some(RuledOut::Pruned { err, threshold });
            }
        }
        let fmt = self.flag_at(item.level).format().filter(|f| f.is_reduced())?;
        let refuse = |&i: &InsnId| {
            let class = self.classes.get(&i.0).copied().unwrap_or(OpClass::Other);
            let obs = oracle.profile.range_over([i]);
            let (GuardError::Overflow { class, bound, .. }
            | GuardError::Underflow { class, bound, .. }) =
                check_demotion(fmt, class, &obs).err()?;
            let (max_abs, min_abs, format) = (obs.max_abs, obs.min_abs, fmt.name());
            let class = format!("{class:?}");
            Some((i, DecisionEvent::GuardRefused { format, class, max_abs, min_abs, bound }))
        };
        let refusals: Vec<_> = item.insns.iter().filter_map(refuse).collect();
        (!refusals.is_empty()).then_some(RuledOut::Refused(refusals))
    }

    /// Logs `what(i)` as a `decision` event for each insn `i` in `insns`;
    /// without an event log nothing is built.
    fn decide(&self, insns: &[InsnId], what: impl Fn(InsnId) -> DecisionEvent) {
        for &i in insns {
            self.log(|_| Event::Decision { insn: i.0, what: what(i) });
        }
    }

    /// Logs the event `event` builds; without an event log nothing is
    /// built.
    fn log(&self, event: impl FnOnce(&Self) -> Event) {
        if let Some(log) = self.hooks.events {
            log.emit(event(self));
        }
    }
}

/// The BFS driver's state: the planner, plus the items a full search is
/// certain to test, which workers may evaluate ahead of it — its queue and
/// the successors of known verdicts. Thread-free; on one worker it runs
/// exactly the planner's head each time.
pub(crate) struct Ahead<'p, 'a> {
    pub(crate) planner: &'p mut Planner<'a>,
    /// The planner's current trial; `None` once the BFS is over.
    head: Option<Trial>,
    /// Certain items no worker has taken yet.
    ready: Vec<Item>,
    /// Answers the planner has not reached yet.
    known: Vec<(Trial, Option<Answer>)>,
    pub(crate) running: usize,
}

impl<'p, 'a> Ahead<'p, 'a> {
    /// Drives the BFS phase `planner` has just entered.
    pub(crate) fn new(planner: &'p mut Planner<'a>) -> Self {
        let ready = planner.s.queue.values().cloned().collect();
        let head = planner.next();
        Ahead { planner, head, ready, known: Vec::new(), running: 0 }
    }

    /// The planner needs no more verdicts.
    pub(crate) fn over(&self) -> bool {
        self.head.is_none()
    }

    /// Items waiting for a worker.
    pub(crate) fn waiting(&self) -> usize {
        self.ready.len()
    }

    /// The head if no worker has it, else the best ready item while
    /// `max_tests` has tests left for it. `None`: wait, or stop if over.
    pub(crate) fn take(&mut self) -> Option<Trial> {
        let Some(Trial::Unit(head)) = &self.head else { return None };
        let k = match self.ready.iter().position(|r| r == head) {
            Some(k) => k,
            None => {
                let outstanding = self.running + self.known.len() + self.planner.s.tested;
                if self.planner.opts.max_tests.is_some_and(|max| outstanding >= max) {
                    return None;
                }
                (0..self.ready.len()).max_by_key(|&k| (self.ready[k].priority, Reverse(k)))?
            }
        };
        self.running += 1;
        Some(Trial::Unit(self.ready.remove(k)))
    }

    /// Records a taken trial's answer (`None`: it needed no run), then
    /// settles every head whose answer is known, in the planner's order.
    pub(crate) fn record(&mut self, trial: Trial, answer: Option<Answer>) {
        self.running -= 1;
        if let Trial::Unit(item) = &trial {
            let next = self.planner.successors(item, answer.as_ref().map(|a| a.run.verdict));
            self.ready.extend(next);
        }
        self.known.push((trial, answer));
        while let Some(k) =
            self.head.as_ref().and_then(|h| self.known.iter().position(|(t, _)| t == h))
        {
            let (trial, answer) = self.known.swap_remove(k);
            self.planner.settle(trial, answer);
            self.head = self.planner.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::search::{ShadowOracle, StopDepth};
    use fpvm::isa::{FpAluOp, InstKind, Prec, Terminator, Xmm, RM};
    use mpshadow::{InsnSensitivity, SensitivityProfile};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// A random program in the shape of the search tests' `make_prog`:
    /// 1–2 modules of 1–3 functions of 1–3 blocks of 1–5 scalar FP ops.
    fn random_program(rng: &mut TestRng) -> fpvm::Program {
        let mut p = fpvm::Program::new(1 << 12);
        for m in 0..1 + rng.below(2) {
            let module = p.add_module(format!("m{m}"));
            for k in 0..1 + rng.below(3) {
                let f = p.add_function(module, format!("f{m}_{k}"));
                for b in 0..1 + rng.below(3) {
                    let block = p.add_block(f);
                    if b == 0 {
                        p.funcs[f.0 as usize].entry = block;
                    }
                    for _ in 0..1 + rng.below(5) {
                        let op = [FpAluOp::Add, FpAluOp::Mul, FpAluOp::Div][rng.below(3)];
                        let (packed, dst, src) = (false, Xmm(0), RM::Reg(Xmm(1)));
                        p.push_insn(
                            block,
                            InstKind::FpArith { op, prec: Prec::Double, packed, dst, src },
                        );
                    }
                    p.block_mut(block).term = Terminator::Ret;
                }
            }
        }
        p
    }

    /// A verdict oracle in the spirit of the search tests' evaluators:
    /// each instruction needs a minimum mantissa width (52 makes it
    /// sensitive, like `SetEval`; narrower ones like `MantissaEval`), and
    /// some pairs fail only when replaced together (`InteractionEval`).
    /// A failing configuration gets a non-pass verdict derived from it.
    struct Oracle {
        min_mant: Vec<u32>,
        pairs: Vec<(InsnId, InsnId)>,
    }

    impl Oracle {
        fn random(rng: &mut TestRng, insns: &[InsnId]) -> Self {
            let min_mant = insns.iter().map(|_| [0, 7, 10, 23, 52][rng.below(5)]).collect();
            let pairs = (0..rng.below(3))
                .map(|_| (insns[rng.below(insns.len())], insns[rng.below(insns.len())]))
                .collect();
            Oracle { min_mant, pairs }
        }

        fn verdict(&self, tree: &StructureTree, cfg: &Config) -> Verdict {
            let flag = |i: InsnId| cfg.effective(tree, i);
            let narrow = tree
                .all_insns()
                .into_iter()
                .filter(|&i| flag(i).mantissa_bits().unwrap_or(52) < self.min_mant[i.0 as usize]);
            let paired = self
                .pairs
                .iter()
                .any(|&(a, b)| flag(a).is_replacement() && flag(b).is_replacement());
            if narrow.count() == 0 && !paired {
                return Verdict::Pass;
            }
            let fails = [Verdict::Fail, Verdict::Timeout, Verdict::Crashed, Verdict::Quarantined];
            fails[cfg.replacement_key(tree).len() % fails.len()]
        }
    }

    /// Random shadow statistics: local errors for pruning and
    /// prioritization, and operand ranges some of which overflow or
    /// underflow half and bf16, so the range guards refuse them.
    fn random_shadow(rng: &mut TestRng, insns: &[InsnId]) -> SensitivityProfile {
        let mut profile = SensitivityProfile::default();
        for &i in insns {
            let err = 10f64.powi(-(rng.below(9) as i32));
            let stats = InsnSensitivity {
                count: 1 + rng.below(50) as u64,
                max_rel: err * 10.0,
                max_local: err,
                max_abs: [1.0, 1.0e6, 1.0e40][rng.below(3)],
                min_abs: [1.0, 1.0e-6, 1.0e-40][rng.below(3)],
                ..Default::default()
            };
            profile.insns.insert(i.0, stats);
        }
        profile
    }

    /// The planner's run of one search against `oracle`, as the event
    /// log it wrote and its report. With `order`, BFS trials go through
    /// [`Ahead`]: up to 1–4 are outstanding at a time, and a random one
    /// of them completes next. Without it, each trial the planner hands
    /// out is settled before the next one: the serial order.
    fn plan(
        tree: &StructureTree,
        base: &Config,
        profile: Option<&Profile>,
        opts: &SearchOptions,
        shadow: Option<ShadowOracle<'_>>,
        oracle: &Oracle,
        mut order: Option<&mut TestRng>,
    ) -> (Vec<Event>, SearchReport) {
        let (log, buf) = EventLog::in_memory();
        let hooks = SearchHooks { events: Some(&log), shadow, ..Default::default() };
        let mut planner = Planner::new(tree, base, profile, opts, &hooks);
        // A crashed or quarantined verdict is not stored, so a twin
        // trial runs again and counts its own crash.
        let verdict = |p: &Planner<'_>, t: &Trial| {
            p.run_of(t).map(|c| {
                let (verdict, key) = (oracle.verdict(tree, &c), c.replacement_key(tree));
                let deterministic = !matches!(verdict, Verdict::Crashed | Verdict::Quarantined);
                let crashes = usize::from(!deterministic);
                let counters = ExecCounters { crashes, ..Default::default() };
                let run = Outcome { verdict, steps: key.len() as u64, deterministic, counters };
                Answer { run, key, foreign: false }
            })
        };
        while let Some(phase) = planner.advance() {
            // The union and second-phase trials each depend on the last,
            // so they always run serially, as in the driver.
            let Some(rng) = order.as_deref_mut().filter(|_| phase == Phase::Bfs) else {
                while let Some(trial) = planner.next() {
                    let v = verdict(&planner, &trial);
                    planner.settle(trial, v);
                }
                continue;
            };
            let mut ahead = Ahead::new(&mut planner);
            let mut outstanding = Vec::new();
            loop {
                if outstanding.len() <= rng.below(4) {
                    if let Some(trial) = ahead.take() {
                        let v = verdict(ahead.planner, &trial);
                        outstanding.push((trial, v));
                        continue;
                    }
                }
                if outstanding.is_empty() {
                    break;
                }
                let (trial, v) = outstanding.swap_remove(rng.below(outstanding.len()));
                ahead.record(trial, v);
            }
            // Nothing left to run: the BFS must be over, not stuck.
            assert!(ahead.over(), "look-ahead stalled");
        }
        let report = planner.into_report();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events = text.lines().map(|l| Event::parse(l).unwrap()).collect();
        (events, report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        // Completion order and look-ahead never reach a decision: any
        // order yields the serial run's report (passing units in order
        // included), its decision fold, and its whole event log.
        #[test]
        fn any_completion_order_gives_the_serial_search(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let prog = random_program(&mut rng);
            let tree = StructureTree::build(&prog);
            let insns = tree.all_insns();
            let mut base = Config::new();
            if rng.below(4) == 0 {
                base.set_insn(insns[rng.below(insns.len())], Flag::Ignore);
            }
            let mut counts = Profile::new(insns.len());
            for &i in &insns {
                for _ in 0..rng.below(20) {
                    counts.bump(i);
                }
            }
            let sensitivity = random_shadow(&mut rng, &insns);
            let shadow = (rng.below(2) == 0).then(|| ShadowOracle {
                profile: &sensitivity,
                prioritize: rng.below(2) == 0,
                prune_threshold: (rng.below(2) == 0).then(|| 10f64.powi(-(rng.below(8) as i32))),
            });
            let lattices = [vec![Flag::Single], vec![Flag::Single, Flag::Bf16], vec![
                Flag::Single,
                Flag::Half,
                Flag::Bf16,
            ]];
            let depths = [StopDepth::Function, StopDepth::Block, StopDepth::Instruction];
            let opts = SearchOptions {
                lattice: lattices[rng.below(3)].clone(),
                stop_depth: depths[rng.below(3)],
                second_phase: rng.below(2) == 0,
                binary_split: rng.below(2) == 0,
                prioritize: rng.below(2) == 0,
                max_tests: (rng.below(3) == 0).then(|| 1 + rng.below(30)),
                threads: 1,
                ..Default::default()
            };
            let profile = (rng.below(4) != 0).then_some(&counts);
            let oracle = Oracle::random(&mut rng, &insns);
            let fold = |events: &[Event], r: &SearchReport| {
                let events = events.iter().cloned();
                crate::decisions::to_jsonl(&crate::decisions::fold(&tree, &base, &r.final_config, events))
            };
            let (serial, report) = plan(&tree, &base, profile, &opts, shadow, &oracle, None);
            let serial_fold = fold(&serial, &report);
            for _ in 0..3 {
                let (events, r) = plan(&tree, &base, profile, &opts, shadow, &oracle, Some(&mut rng));
                prop_assert_eq!(format!("{r:?}"), format!("{report:?}"));
                prop_assert_eq!(fold(&events, &r), serial_fold.clone());
                prop_assert_eq!(events.len(), serial.len());
                for (a, b) in events.iter().zip(&serial) {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }
}

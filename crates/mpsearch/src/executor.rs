//! Fault-tolerant evaluation executor.
//!
//! The breadth-first search drives thousands of verification runs of a
//! rewritten binary, and in the real CRAFT tool those runs crash, hang,
//! and diverge routinely — a failed run is a *search signal*, not an
//! infrastructure error (§2.2 folds crashes into "failed"). This module
//! hardens the evaluation loop accordingly:
//!
//! * every attempt runs under [`ExecPolicy`]: an optional per-run fuel
//!   override and wall-clock limit, panic isolation (`catch_unwind`
//!   around the verification closure), bounded retry with linear backoff
//!   for transient failures, and quarantine of configurations that
//!   repeatedly wedge;
//! * the classified outcome is a [`Verdict`] — only `Pass` counts as a
//!   passing unit, everything else folds into "failed" exactly as the
//!   paper prescribes;
//! * a deterministic [`FaultPlan`] can inject worker panics, fuel
//!   starvation, trap storms, NaN poisoning, and simulated timeouts at
//!   chosen evaluation indices, so the policy itself is testable;
//! * each [`Executor::run`] returns the facts of its attempts with the
//!   verdict ([`Outcome`]); the search's planner records them.
//!
//! Timeout semantics: the substrate guarantees termination (every run is
//! fuel-bounded), so wall-clock limits are classified *post-run* rather
//! than by killing a thread mid-evaluation; the fuel budget remains the
//! primary in-run bound. Injected timeouts and fuel starvation are
//! treated as transient (retried); a natural fuel or wall-clock
//! exhaustion is a deterministic divergence and is never retried.

use crate::evaluator::{Evaluator, RunControl};
use mpconfig::Config;
use mptrace::Tracer;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock `m`, recovering the guard if a previous holder panicked: a
/// worker panic caught by `catch_unwind` must not poison the quarantine
/// set for the rest of the search.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The classified outcome of evaluating one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The run completed and the verification routine accepted it.
    Pass,
    /// The run completed but verification rejected it (or the VM trapped
    /// on a replaced value — the deliberate crash-on-miss of §2.3).
    Fail,
    /// The run exceeded its fuel or wall-clock budget.
    Timeout,
    /// The evaluation panicked (worker fault) or hit an injected trap
    /// storm.
    Crashed,
    /// The configuration wedged repeatedly and was quarantined; it is
    /// skipped on re-encounter.
    Quarantined,
}

impl Verdict {
    /// Stable wire name (used in the JSONL event log).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Timeout => "timeout",
            Verdict::Crashed => "crashed",
            Verdict::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`Verdict::as_str`]. (Inherent rather than the
    /// `FromStr` trait: an `Option` reads better at call sites than a
    /// `Result` with an error type nobody inspects.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Verdict> {
        Some(match s {
            "pass" => Verdict::Pass,
            "fail" => Verdict::Fail,
            "timeout" => Verdict::Timeout,
            "crashed" => Verdict::Crashed,
            "quarantined" => Verdict::Quarantined,
            _ => return None,
        })
    }

    /// Every verdict, in wire order (used by schema round-trip tests).
    pub const ALL: [Verdict; 5] =
        [Verdict::Pass, Verdict::Fail, Verdict::Timeout, Verdict::Crashed, Verdict::Quarantined];
}

/// On the wire a verdict is its [`Verdict::as_str`] name.
impl mptrace::json::Wire for Verdict {
    fn write(&self, out: &mut String) {
        mptrace::json::esc(out, self.as_str());
    }
    fn read(v: &mptrace::json::Value) -> Option<Self> {
        v.as_str().and_then(Verdict::from_str)
    }
}

/// Per-run limits for one search's evaluations. Retry, backoff and
/// quarantine are fixed: two retries with linear 1 ms backoff, and
/// quarantine after three wedged attempts.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Per-run fuel ceiling layered *under* the evaluator's own derived
    /// budget (`None` = evaluator's budget only).
    pub fuel_limit: Option<u64>,
    /// Per-run wall-clock limit; attempts exceeding it are classified
    /// `Timeout` (checked post-run — the fuel bound guarantees
    /// termination).
    pub wall_limit: Option<Duration>,
}

/// Retries after a `Crashed` or injected-`Timeout` attempt.
const MAX_RETRIES: usize = 2;
/// Base backoff before a retry; attempt `k` sleeps `k × BACKOFF`.
const BACKOFF: Duration = Duration::from_millis(1);
/// Wedged attempts after which a configuration is quarantined.
const QUARANTINE_AFTER: usize = 3;

/// Deterministic fault injection for executor tests and drills.
///
/// Indices refer to the executor's global evaluation-*attempt* counter
/// (every attempt, including retries, increments it; a trial settled
/// from the verdict store makes no attempt). With one worker thread the
/// sequence is fully deterministic; with several, each fault still
/// fires exactly once, on whichever attempt draws the index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the evaluation closure at these attempt indices
    /// (exercises `catch_unwind` isolation for real).
    pub panic_at: Vec<u64>,
    /// Run with a starvation fuel override (1 step) at these indices —
    /// the VM genuinely traps with `FuelExhausted`.
    pub fuel_starve_at: Vec<u64>,
    /// Classify the attempt as `Timeout` at these indices (simulates an
    /// externally wedged run).
    pub timeout_at: Vec<u64>,
    /// Classify the attempt as `Crashed` at these indices (simulates a
    /// trap storm in the instrumented binary).
    pub trap_storm_at: Vec<u64>,
    /// Force verification failure at these indices (simulates NaN
    /// poisoning of the result arrays).
    pub nan_poison_at: Vec<u64>,
}

impl FaultPlan {
    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_empty()
            && self.fuel_starve_at.is_empty()
            && self.timeout_at.is_empty()
            && self.trap_storm_at.is_empty()
            && self.nan_poison_at.is_empty()
    }
}

/// Robustness counters of the attempts behind one or more verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Attempts classified `Timeout`.
    pub timeouts: usize,
    /// Attempts classified `Crashed`.
    pub crashes: usize,
    /// Retries performed after a wedged attempt.
    pub retries: usize,
    /// Configurations quarantined (including re-encounters of an already
    /// quarantined configuration).
    pub quarantined: usize,
}

impl std::ops::AddAssign for ExecCounters {
    fn add_assign(&mut self, o: ExecCounters) {
        self.timeouts += o.timeouts;
        self.crashes += o.crashes;
        self.retries += o.retries;
        self.quarantined += o.quarantined;
    }
}

/// What settling one configuration gave: its verdict, the fuel spent by
/// the attempt that gave it, and the counters of every attempt made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The classified verdict.
    pub verdict: Verdict,
    /// Fuel the deciding attempt spent (0 if no attempt finished).
    pub steps: u64,
    /// The verdict is the configuration's own: a pass, a fail or a
    /// natural fuel timeout from an attempt no fault was injected into.
    /// Only such a verdict may be stored for the configuration.
    pub deterministic: bool,
    /// The attempts' robustness counters.
    pub counters: ExecCounters,
}

impl Outcome {
    /// A stored `verdict` with its `steps`: what the fault-free run
    /// that stored it gave (a natural fuel timeout counts one timeout).
    pub(crate) fn stored(verdict: Verdict, steps: u64) -> Outcome {
        let timeouts = usize::from(verdict == Verdict::Timeout);
        let counters = ExecCounters { timeouts, ..Default::default() };
        Outcome { verdict, steps, deterministic: true, counters }
    }
}

/// The fault-tolerant evaluation executor: wraps an [`Evaluator`] with
/// policy enforcement and fault injection.
pub struct Executor<'a> {
    eval: &'a dyn Evaluator,
    policy: ExecPolicy,
    faults: FaultPlan,
    tracer: Option<&'a Tracer>,
    next_idx: AtomicU64,
    quarantine: Mutex<HashSet<Vec<u64>>>,
}

impl<'a> Executor<'a> {
    /// Build an executor over `eval` with the given policy and fault
    /// plan.
    pub fn new(eval: &'a dyn Evaluator, policy: ExecPolicy, faults: FaultPlan) -> Self {
        Executor {
            eval,
            policy,
            faults,
            tracer: None,
            next_idx: AtomicU64::new(0),
            quarantine: Mutex::new(HashSet::new()),
        }
    }

    /// Attach a [`Tracer`]: evaluation attempts get spans, verdicts get
    /// counters, and attempt wall time gets a histogram.
    pub fn with_tracer(mut self, tracer: Option<&'a Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Evaluate `cfg` under the policy: its verdict, and the facts of
    /// the attempts behind it.
    ///
    /// `key` is the configuration's [`Config::replacement_key`], which
    /// the quarantine set is keyed by: the same instruction set at
    /// different lattice levels is quarantined independently.
    pub fn run(&self, cfg: &Config, key: &[u64]) -> Outcome {
        // A verdict no finished attempt gave: never stored.
        let wedged_out =
            |verdict, counters| Outcome { verdict, steps: 0, deterministic: false, counters };
        let mut counters = ExecCounters::default();
        if relock(&self.quarantine).contains(key) {
            counters.quarantined = 1;
            if let Some(t) = self.tracer {
                t.incr("exec.verdict.quarantined", 1);
            }
            return wedged_out(Verdict::Quarantined, counters);
        }

        let _item_span = self.tracer.map(|t| t.span("eval"));
        let mut wedged = 0usize;
        let mut last = Verdict::Crashed;
        for attempt in 0..=MAX_RETRIES {
            let idx = self.next_idx.fetch_add(1, Ordering::Relaxed);
            let _attempt_span =
                self.tracer.map(|t| t.span(if attempt == 0 { "attempt" } else { "retry-attempt" }));

            let fires = |plan: &[u64]| plan.contains(&idx);
            let injected_starve = fires(&self.faults.fuel_starve_at);
            let ctl = RunControl {
                fuel_override: if injected_starve { Some(1) } else { self.policy.fuel_limit },
            };

            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if fires(&self.faults.panic_at) {
                    // Unwind without the panic hook: an absorbed injected
                    // fault prints nothing. A real evaluator panic still
                    // goes through the hook.
                    let msg = format!("injected worker panic at evaluation {idx}");
                    std::panic::resume_unwind(Box::new(msg));
                }
                self.eval.evaluate_run(cfg, &ctl)
            }));
            let wall = t0.elapsed();

            let (verdict, steps, injected, fuel_out) = match outcome {
                Err(_) => (Verdict::Crashed, 0, true, false),
                Ok(out) => {
                    let fuel_out = out.trap == Some("fuel-exhausted");
                    let over_wall = self.policy.wall_limit.is_some_and(|lim| wall > lim);
                    let v = if fires(&self.faults.trap_storm_at) {
                        Verdict::Crashed
                    } else if fires(&self.faults.timeout_at) || (injected_starve && fuel_out) {
                        Verdict::Timeout
                    } else if fires(&self.faults.nan_poison_at) {
                        Verdict::Fail
                    } else if fuel_out || over_wall {
                        Verdict::Timeout
                    } else if out.pass {
                        Verdict::Pass
                    } else {
                        Verdict::Fail
                    };
                    let injected = fires(&self.faults.trap_storm_at)
                        || fires(&self.faults.timeout_at)
                        || injected_starve;
                    (v, out.steps, injected, fuel_out)
                }
            };
            if let Some(t) = self.tracer {
                t.incr(&format!("exec.verdict.{}", verdict.as_str()), 1);
                t.observe("exec.attempt_wall_us", wall.as_micros() as u64);
            }

            match verdict {
                Verdict::Pass | Verdict::Fail => {
                    // A poisoned or starved attempt's verdict is not the
                    // configuration's.
                    let faulted = fires(&self.faults.nan_poison_at) || injected_starve;
                    return Outcome { verdict, steps, deterministic: !faulted, counters };
                }
                Verdict::Timeout => {
                    counters.timeouts += 1;
                    if !injected {
                        // Deterministic divergence: retrying cannot help.
                        // A wall-clock timeout is machine noise, though.
                        return Outcome { verdict, steps, deterministic: fuel_out, counters };
                    }
                }
                Verdict::Crashed => counters.crashes += 1,
                Verdict::Quarantined => unreachable!("quarantine decided before attempts"),
            }
            wedged += 1;
            last = verdict;

            if attempt < MAX_RETRIES {
                counters.retries += 1;
                if let Some(t) = self.tracer {
                    t.incr("exec.retries", 1);
                }
                std::thread::sleep(BACKOFF.saturating_mul(attempt as u32 + 1));
            }
        }

        if wedged >= QUARANTINE_AFTER {
            relock(&self.quarantine).insert(key.to_vec());
            counters.quarantined += 1;
            if let Some(t) = self.tracer {
                t.incr("exec.verdict.quarantined", 1);
            }
            return wedged_out(Verdict::Quarantined, counters);
        }
        wedged_out(last, counters)
    }
}

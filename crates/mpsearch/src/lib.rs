//! # mpsearch — the automatic breadth-first precision search
//!
//! Implements the paper's §2.2: a work-queue search through the program
//! structure (modules → functions → basic blocks → instructions) that
//! finds the coarsest granularity at which each part of the program can be
//! replaced by single precision while still passing an
//! application-defined verification routine.
//!
//! Both of the paper's optimizations are implemented and individually
//! switchable (for the ablation benches):
//!
//! * **binary splitting** — a failed aggregate with many children is split
//!   into two half-sized intermediate partitions instead of immediately
//!   enqueueing every child;
//! * **profile prioritization** — configurations replacing the most
//!   frequently executed instructions are tested first.
//!
//! Evaluation is parallel ("this process is highly parallelizable",
//! §2.2): `threads` workers on scoped threads produce verdicts, and a
//! thread-free planner decides from them alone, in one serial order.
//!
//! A trial whose configuration has a verdict in the [`store`] is
//! settled from it; the rest run through the fault-tolerant
//! [`executor`]: per-run
//! fuel/wall-clock limits, panic isolation, bounded retry with backoff,
//! and quarantine of repeatedly wedged configurations, with
//! deterministic fault injection via [`FaultPlan`] for testing the
//! policy itself. The planner optionally writes what the search did to
//! a JSONL [`events`] log, the same at any thread count.

#![warn(missing_docs)]

pub mod decisions;
pub mod evaluator;
pub mod events;
pub mod executor;
mod planner;
pub mod report;
pub mod search;
pub mod store;

pub use decisions::{DecisionEvent, DecisionRecord};
pub use evaluator::{EvalOutcome, EvalStats, Evaluator, RunControl, VmEvaluator};
pub use events::{Event, EventLog};
pub use executor::{ExecCounters, ExecPolicy, Executor, FaultPlan, Outcome, Verdict};
pub use report::{PassingUnit, SearchReport};
pub use search::{search, search_observed, SearchHooks, SearchOptions, ShadowOracle, StopDepth};
pub use store::VerdictStore;

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
//! Evaluation is parallel: the queue is drained by `threads` worker
//! loops on scoped threads, one set per search ("this process is highly
//! parallelizable", §2.2).
//!
//! Evaluations run through the fault-tolerant [`executor`]: per-run
//! fuel/wall-clock limits, panic isolation, bounded retry with backoff,
//! and quarantine of repeatedly wedged configurations, with every
//! transition optionally mirrored to a JSONL [`events`] log and
//! deterministic fault injection via [`FaultPlan`] for testing the
//! policy itself.

#![warn(missing_docs)]

pub mod decisions;
pub mod evaluator;
pub mod events;
pub mod executor;
pub mod report;
pub mod search;

pub use decisions::{DecisionEvent, DecisionRecord};
pub use evaluator::{CachedEvaluator, EvalOutcome, EvalStats, Evaluator, RunControl, VmEvaluator};
pub use events::{Event, EventLog, Record};
pub use executor::{ExecCounters, ExecPolicy, Executor, FaultPlan, Verdict};
pub use report::{PassingUnit, SearchReport};
pub use search::{search, search_observed, SearchHooks, SearchOptions, ShadowOracle, StopDepth};

//! The search record: a JSONL log of what one search decided.
//!
//! The search's planner writes one [`Event`] per step, in its own
//! serial order: the search and its phases starting and finishing,
//! configurations entering the queue, one `trial` line per settled
//! trial with its verdict and the executor's facts (fuel spent,
//! retries, whether an earlier trial or another search had settled its
//! key), shadow prunes, and per-instruction decision evidence. The
//! record has no clock and nothing that depends on scheduling, so it is
//! byte-identical at any thread count; timing lives in the trace.
//!
//! The schema is flat on purpose: every event is one JSON object of
//! string/integer/float/boolean fields behind an `"ev"` tag, except
//! `decision`, whose `"what"` nests a [`DecisionEvent`]. [`Event`]
//! declares its fields once through [`mptrace::record!`], which gives
//! the encoder and the parser; a line round-trips byte-exactly through
//! [`Event::to_json`] / [`Event::parse`].

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::decisions::DecisionEvent;
use crate::executor::Verdict;

/// Lock `m`, recovering the guard if a previous holder panicked. The
/// event log is written from workers running under `catch_unwind`; a
/// panic between lock and unlock must not abort every later emission.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

mptrace::record! {
    /// One step of a search, as its planner decided it.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// The search began.
        SearchStarted = "search_started" {
            /// Human label for the workload being searched.
            bench: String,
            /// Number of replacement-candidate instructions.
            candidates: usize,
        },
        /// A work item entered the priority queue.
        ConfigEnqueued = "config_enqueued" {
            /// Structural label of the enqueued node/partition.
            label: String,
            /// Candidate instructions covered by the item.
            insns: usize,
            /// Profile-count priority (0 when prioritization is off).
            priority: u64,
            /// Queue depth after the push.
            depth: usize,
        },
        /// A trial was settled with a verdict.
        Trial = "trial" {
            /// The planner's trial index (0-based, in settle order).
            n: usize,
            /// Label of the configuration: the unit's structural label,
            /// or the phase (`union`, `second-phase`) of a composition.
            unit: String,
            /// Lattice level of a unit trial (absent for compositions).
            level: Option<u32> [omit_none],
            /// Candidate instructions the trial replaces.
            insns: usize,
            /// The classified outcome.
            verdict: Verdict,
            /// Fuel the verdict's run spent (0 if unknown).
            steps: u64,
            /// Retries the executor spent settling it.
            retries: usize,
            /// An earlier trial settled its key, or another search
            /// stored its verdict.
            hit: bool,
        },
        /// A work item was skipped without evaluation because its shadow
        /// error already exceeded the verification threshold.
        ShadowPruned = "shadow_pruned" {
            /// Structural label of the pruned item.
            label: String,
            /// Worst shadow-run relative divergence over the item's
            /// instructions.
            err: f64,
            /// Prune threshold (verification tolerance × margin).
            threshold: f64,
        },
        /// A search phase began (`bfs`, `union`, `second-phase`).
        PhaseStarted = "phase_started" {
            /// Phase name.
            phase: String,
        },
        /// A search phase completed.
        PhaseFinished = "phase_finished" {
            /// Phase name.
            phase: String,
        },
        /// The search completed; its counters, summed over the settled
        /// trials.
        SearchFinished = "search_finished" {
            /// Configurations tested.
            tested: usize,
            /// Individually passing units found.
            passing: usize,
            /// Attempts classified `Timeout`.
            timeouts: usize,
            /// Attempts classified `Crashed`.
            crashes: usize,
            /// Retries performed.
            retries: usize,
            /// Configurations quarantined.
            quarantined: usize,
            /// Trials settled by an earlier trial's or another search's
            /// verdict ([`SearchReport::cache_hits`](crate::SearchReport)).
            cache_hits: usize,
        },
        /// One piece of evidence for one instruction's final format;
        /// [`crate::decisions::fold`] turns these into `decisions.jsonl`.
        Decision = "decision" {
            /// Instruction id (index into the structure tree).
            insn: u32,
            /// The evidence.
            what: DecisionEvent,
        },
    }
}

/// A shared, append-only JSONL sink for [`Event`]s.
///
/// Cheap to share across worker threads: emission takes a short mutex on
/// the underlying writer. Write errors are deliberately swallowed — an
/// observability sink must never fail the search it observes.
pub struct EventLog {
    out: Mutex<Box<dyn Write + Send>>,
}

impl EventLog {
    /// Log to a freshly created (truncated) file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<EventLog> {
        let f = std::fs::File::create(path)?;
        Ok(EventLog::to_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Log to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> EventLog {
        EventLog { out: Mutex::new(out) }
    }

    /// Log into a shared in-memory buffer (for tests): returns the log and
    /// a handle from which the emitted bytes can be read back.
    pub fn in_memory() -> (EventLog, Arc<Mutex<Vec<u8>>>) {
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                relock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (EventLog::to_writer(Box::new(Sink(buf.clone()))), buf)
    }

    /// Append one event as a line.
    pub fn emit(&self, event: Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = relock(&self.out);
        let _ = out.write_all(line.as_bytes());
    }

    /// Flush the underlying writer.
    pub fn flush(&self) {
        let _ = relock(&self.out).flush();
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        self.flush();
    }
}

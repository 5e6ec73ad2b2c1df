//! Structured JSONL event log of a search run.
//!
//! The executor and the search emit one [`Event`] per transition (search
//! started, configuration enqueued, evaluation started/finished with its
//! [`Verdict`], retries, quarantines, queue depth, phase boundaries,
//! per-insn decision evidence). Events serialize to one JSON object per
//! line so external tooling — and the `craft report` subcommand — can consume
//! a run without linking against this crate.
//!
//! The schema is flat on purpose: every event is a single JSON object of
//! string/integer/float/boolean fields plus an `"ev"` tag and a `"t_us"`
//! timestamp (microseconds since the log was opened), except `decision`,
//! whose `"what"` nests a [`DecisionEvent`]. [`Event`] declares its fields
//! once through [`mptrace::record!`], which gives the encoder and the
//! parser; [`Record`] only adds the `"t_us"` envelope, and round-trips
//! byte-exactly through [`Record::to_json`] / [`Record::parse`].

use mptrace::json::{self, esc, Wire};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::decisions::DecisionEvent;
use crate::executor::Verdict;

/// Lock `m`, recovering the guard if a previous holder panicked. The
/// event log is written from workers running under `catch_unwind`; a
/// panic between lock and unlock must not abort every later emission.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

mptrace::record! {
    /// One structured event in the life of a search.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// The search began.
        SearchStarted = "search_started" {
            /// Human label for the workload being searched.
            bench: String,
            /// Number of replacement-candidate instructions.
            candidates: usize,
            /// Worker threads draining the queue.
            threads: usize,
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
        /// An evaluation attempt started.
        EvalStarted = "eval_started" {
            /// Global attempt index (monotonic across the search).
            idx: u64,
            /// Structural label of the configuration under test.
            label: String,
            /// Candidate instructions replaced by the trial.
            insns: usize,
        },
        /// An evaluation attempt finished with a verdict.
        EvalFinished = "eval_finished" {
            /// Global attempt index.
            idx: u64,
            /// Structural label of the configuration under test.
            label: String,
            /// Retry ordinal of this attempt (0 = first try).
            attempt: usize,
            /// The classified outcome.
            verdict: Verdict,
            /// Fuel spent (dynamic instructions executed; 0 if unknown).
            steps: u64,
            /// Wall-clock time of the attempt, in microseconds.
            wall_us: u64,
            /// Always false: a trial settled from the verdict store makes
            /// no attempt. Logs from before the store carry true ones.
            cache_hit: bool,
        },
        /// A wedged attempt is being retried after backoff.
        Retry = "retry" {
            /// Attempt index that failed.
            idx: u64,
            /// Retry ordinal about to run (1-based).
            attempt: usize,
            /// Backoff slept before the retry, in microseconds.
            backoff_us: u64,
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
        /// A configuration exhausted its retries and was quarantined.
        Quarantined = "quarantined" {
            /// Structural label of the quarantined configuration.
            label: String,
            /// Number of wedged attempts observed.
            wedged: usize,
        },
        /// Queue occupancy sampled at a dequeue.
        QueueDepth = "queue_depth" {
            /// Items waiting in the queue.
            depth: usize,
            /// Evaluations currently running.
            in_flight: usize,
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
            /// Phase wall-clock time, in microseconds.
            wall_us: u64,
        },
        /// The search completed; aggregate counters.
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
            /// Total search wall-clock time, in microseconds.
            wall_us: u64,
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

/// A timestamped [`Event`] — exactly one line of the JSONL log:
/// `{"ev":…,"t_us":…,` then the event's fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Microseconds since the log was opened.
    pub t_us: u64,
    /// The event payload.
    pub event: Event,
}

impl Record {
    /// Serialize to one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"ev\":");
        esc(&mut s, self.event.tag());
        let _ = write!(s, ",\"t_us\":{}", self.t_us);
        self.event.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parse one JSONL line back into a [`Record`].
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = json::parse(line)?;
        let t_us =
            v.get("t_us").and_then(u64::read).ok_or("record: missing or malformed \"t_us\"")?;
        Ok(Record { t_us, event: Event::from_value(&v)? })
    }
}

/// A shared, append-only JSONL sink for [`Event`]s.
///
/// Cheap to share across worker threads: emission takes a short mutex on
/// the underlying writer. Write errors are deliberately swallowed — an
/// observability sink must never fail the search it observes.
pub struct EventLog {
    out: Mutex<Box<dyn Write + Send>>,
    start: Instant,
}

impl EventLog {
    /// Log to a freshly created (truncated) file at `path`.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<EventLog> {
        let f = std::fs::File::create(path)?;
        Ok(EventLog::to_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Log to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> EventLog {
        EventLog { out: Mutex::new(out), start: Instant::now() }
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

    /// Append one event, stamped with the elapsed time since the log
    /// opened.
    pub fn emit(&self, event: Event) {
        let rec = Record { t_us: self.start.elapsed().as_micros() as u64, event };
        let mut line = rec.to_json();
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

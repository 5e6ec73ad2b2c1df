//! Immutable trace snapshots.
//!
//! A [`TraceSnapshot`] is everything a [`crate::Tracer`] recorded,
//! folded into plain ordered data: spans sorted by start time, metric
//! maps ordered by name, hot instructions ordered by id. It has no file
//! format of its own: a run stores its trace as the deltas of
//! `live.jsonl` ([`crate::delta`], [`crate::stream`]), whose fold is the
//! snapshot. The four row types below are that stream's rows, each one
//! JSON array in field order (`record!`'s `[row]` form).

use std::collections::BTreeMap;

crate::record! {
    /// One completed span.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SpanRecord [row] {
        /// Snapshot-unique span id (allocation order).
        pub id: u64,
        /// Enclosing span on the same thread, if any.
        pub parent: Option<u64>,
        /// Span name, e.g. `"phase:bfs"` or `"eval"`.
        pub name: String,
        /// Process-wide ordinal of the recording thread.
        pub thread: u64,
        /// Start, microseconds since the tracer was created.
        pub start_us: u64,
        /// Wall-clock duration in microseconds.
        pub dur_us: u64,
    }
}

crate::record! {
    /// Last/min/max of a gauge over the run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct GaugeStat [row] {
        /// Most recently set value.
        pub last: f64,
        /// Smallest value ever set.
        pub min: f64,
        /// Largest value ever set.
        pub max: f64,
        /// Number of times the gauge was set.
        pub sets: u64,
    }
}

crate::record! {
    /// A folded log2-bucketed histogram.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HistStat [row] {
        /// Total observations.
        pub count: u64,
        /// Sum of observed values.
        pub sum: u64,
        /// Sparse `(bucket index, count)` pairs, ascending, zero counts
        /// omitted. Bucket `k > 0` covers `[2^(k-1), 2^k)`; bucket 0 is 0.
        pub buckets: Vec<(u32, u64)>,
    }
}

crate::record! {
    /// Aggregate interpreter time attributed to one instruction id.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HotInsn [row] {
        /// Instruction id (index into the profiled program).
        pub insn: u32,
        /// Total model cycles spent in this instruction.
        pub cycles: u64,
        /// Times the instruction was dispatched.
        pub hits: u64,
        /// Optional human label (structural path); empty when unresolved.
        pub label: String,
    }
}

/// Everything one traced run recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Completed spans, sorted by `(start_us, id)`.
    pub spans: Vec<SpanRecord>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histograms by name.
    pub hists: BTreeMap<String, HistStat>,
    /// Hot instructions, ascending by id.
    pub hot: Vec<HotInsn>,
}

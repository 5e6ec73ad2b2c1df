//! Unified observability for the mixed-precision search pipeline:
//! hierarchical wall-clock **spans**, cheap **metrics** (counters,
//! gauges, log2-bucketed histograms), and a per-instruction **hot-spot
//! profile** fed by the interpreter's const-gated step hook.
//!
//! # Design
//!
//! A [`Tracer`] is a cheaply cloneable handle (`Arc` inside) that worker
//! threads record into through a small number of mutex-protected
//! *shards*; each thread hashes to a shard by a process-wide thread
//! ordinal, so recording from the search's worker threads almost never
//! contends. Spans nest through a thread-local stack: dropping a
//! [`SpanGuard`] stamps the duration and restores the parent, so
//! `tracer.span("phase:bfs")` inside `tracer.span("search")` yields a
//! parent link without any explicit plumbing.
//!
//! Everything an observed run produced is folded into an immutable
//! [`snapshot::TraceSnapshot`]. A run stores it as the deltas of its
//! live stream ([`stream`]), which fold back to the exact snapshot, and
//! it renders through the sinks in [`sinks`]: Prometheus text exposition
//! and folded-stack output for `inferno`/flamegraph tooling.
//!
//! The overhead contract: code paths that are not handed a tracer must
//! cost *nothing*. Inside the interpreter this is enforced by
//! monomorphization ([`profiler::InsnProfiler`] implements
//! `fpvm::exec::Observer`, whose `STEPS` constant gates the hook
//! out of the unprofiled loop entirely); everywhere else the tracer is
//! an `Option` checked before any formatting work happens.

pub mod compare;
pub mod delta;
pub mod json;
pub mod numprof;
pub mod profiler;
pub mod registry;
pub mod sinks;
pub mod snapshot;
pub mod stream;

use snapshot::{GaugeStat, HistStat, HotInsn, SpanRecord, TraceSnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of recording shards. Threads map to shards by a process-wide
/// ordinal, so up to this many threads record without lock contention.
const SHARDS: usize = 16;

/// Number of log2 histogram buckets: bucket `k` (1 ≤ k ≤ 64) counts
/// values in `[2^(k-1), 2^k)`; bucket 0 counts zeros.
pub const HIST_BUCKETS: usize = 65;

static NEXT_THREAD_ORD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Process-wide thread ordinal, assigned on first trace activity.
    static THREAD_ORD: usize = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
    /// Stack of open spans on this thread: `(tracer identity, span id)`.
    /// Tracer identity keys the frames so two tracers interleaved on one
    /// thread (as in tests) never cross-link parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Shard {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

#[derive(Clone)]
struct Hist {
    count: u64,
    sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { count: 0, sum: 0, buckets: [0; HIST_BUCKETS] }
    }
}

/// Bucket index of `v` in a log2 histogram: 0 for 0, else
/// `64 - leading_zeros` (so 1 → bucket 1, 2..4 → bucket 2, …).
pub fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

#[derive(Default)]
struct GaugeCell {
    last: f64,
    min: f64,
    max: f64,
    sets: u64,
}

/// Per-instruction cycle/hit totals merged from profiled interpreter
/// runs, plus optional human labels resolved late.
#[derive(Default)]
struct HotAccum {
    cycles: Vec<u64>,
    hits: Vec<u64>,
    labels: BTreeMap<u32, String>,
}

struct Inner {
    start: Instant,
    next_span: AtomicU64,
    shards: [Mutex<Shard>; SHARDS],
    gauges: Mutex<BTreeMap<String, GaugeCell>>,
    hot: Mutex<HotAccum>,
}

/// A cheaply cloneable recording handle; see the crate docs.
///
/// All recording methods take `&self` and are safe to call from any
/// thread. None of them can fail, and none of them panic on poisoned
/// internal locks (a panicking worker must not take observability down
/// with it).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Tracer {
    /// A fresh, empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
                gauges: Mutex::new(BTreeMap::new()),
                hot: Mutex::new(HotAccum::default()),
            }),
        }
    }

    /// Microseconds elapsed since this tracer was created.
    pub fn now_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    fn shard(&self) -> MutexGuard<'_, Shard> {
        let ord = THREAD_ORD.with(|o| *o);
        relock(&self.inner.shards[ord % SHARDS])
    }

    /// Open a span. The returned guard records the span (with its
    /// parent link and duration) when dropped; nest freely.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let me = self.identity();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.iter().rev().find(|(t, _)| *t == me).map(|(_, id)| *id);
            s.push((me, id));
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name: name.into(),
            start_us: self.now_us(),
            t0: Instant::now(),
        }
    }

    /// Add `by` to the named monotonic counter.
    pub fn incr(&self, name: &str, by: u64) {
        let mut shard = self.shard();
        *shard.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Set the named gauge to `v` (last/min/max are all retained).
    pub fn gauge(&self, name: &str, v: f64) {
        let mut gauges = relock(&self.inner.gauges);
        let cell = gauges.entry(name.to_string()).or_default();
        if cell.sets == 0 || v < cell.min {
            cell.min = v;
        }
        if cell.sets == 0 || v > cell.max {
            cell.max = v;
        }
        cell.last = v;
        cell.sets += 1;
    }

    /// Record `v` into the named log2-bucketed histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut shard = self.shard();
        let h = shard.hists.entry(name.to_string()).or_default();
        h.count += 1;
        h.sum += v;
        h.buckets[log2_bucket(v)] += 1;
    }

    /// Merge a per-run instruction profile into the global hot-spot
    /// accumulator. Indices are instruction ids; the accumulator grows
    /// to fit (the incremental rewriter mints ids monotonically).
    pub fn merge_hot(&self, prof: &profiler::InsnProfiler) {
        let mut hot = relock(&self.inner.hot);
        for (i, s) in prof.iter() {
            let i = i as usize;
            if hot.cycles.len() <= i {
                hot.cycles.resize(i + 1, 0);
                hot.hits.resize(i + 1, 0);
            }
            hot.cycles[i] += s.cycles;
            hot.hits[i] += s.hits;
        }
    }

    /// Attach a human label (e.g. the structural path of the original
    /// instruction) to instruction id `id` for reports and sinks.
    pub fn label_insn(&self, id: u32, label: impl Into<String>) {
        relock(&self.inner.hot).labels.insert(id, label.into());
    }

    /// Fold everything recorded so far into an immutable snapshot.
    ///
    /// Spans are sorted by `(start_us, id)`; metric maps are ordered by
    /// name; only instructions that were actually hit appear in `hot`.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans = Vec::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut hists: BTreeMap<String, Hist> = BTreeMap::new();
        for shard in &self.inner.shards {
            let shard = relock(shard);
            spans.extend(shard.spans.iter().cloned());
            for (k, v) in &shard.counters {
                *counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &shard.hists {
                let dst = hists.entry(k.clone()).or_default();
                dst.count += h.count;
                dst.sum += h.sum;
                for (d, s) in dst.buckets.iter_mut().zip(&h.buckets) {
                    *d += s;
                }
            }
        }
        spans.sort_by_key(|s| (s.start_us, s.id));
        let gauges = relock(&self.inner.gauges)
            .iter()
            .map(|(k, c)| {
                (k.clone(), GaugeStat { last: c.last, min: c.min, max: c.max, sets: c.sets })
            })
            .collect();
        let hists = hists
            .into_iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c != 0)
                    .map(|(i, c)| (i as u32, *c))
                    .collect();
                (k, HistStat { count: h.count, sum: h.sum, buckets })
            })
            .collect();
        let hot_guard = relock(&self.inner.hot);
        let hot = hot_guard
            .cycles
            .iter()
            .zip(&hot_guard.hits)
            .enumerate()
            .filter(|(_, (&c, &h))| c != 0 || h != 0)
            .map(|(i, (&cycles, &hits))| HotInsn {
                insn: i as u32,
                cycles,
                hits,
                label: hot_guard.labels.get(&(i as u32)).cloned().unwrap_or_default(),
            })
            .collect();
        TraceSnapshot { spans, counters, gauges, hists, hot }
    }
}

/// RAII guard for an open span; records on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: u64,
    t0: Instant,
}

impl SpanGuard<'_> {
    /// The span's id (useful only for tests).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let me = self.tracer.identity();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|(t, id)| *t == me && *id == self.id) {
                s.remove(pos);
            }
        });
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            thread: THREAD_ORD.with(|o| *o) as u64,
            start_us: self.start_us,
            dur_us: self.t0.elapsed().as_micros() as u64,
        };
        self.tracer.shard().spans.push(rec);
    }
}

/// Replace the whole document at `path`: write a sibling temp file and
/// `rename` it over `path`, so a concurrent reader or a killed writer
/// sees the old document or the new one, never a partial file. No
/// `fsync`: this guards against readers and process death, not power
/// loss.
pub fn replace_file(
    path: impl AsRef<std::path::Path>,
    contents: impl AsRef<[u8]>,
) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    // Unique per process and call, so concurrent writers of one path
    // never share a temp file.
    tmp.push(format!(".tmp.{}.{}", std::process::id(), NEXT_TMP.fetch_add(1, Ordering::Relaxed)));
    let tmp = std::path::PathBuf::from(tmp);
    let res = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parent_links() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_link() {
        let a = Tracer::new();
        let b = Tracer::new();
        let _sa = a.span("a-root");
        let _sb = b.span("b-root");
        let sb2 = b.span("b-child");
        drop(sb2);
        drop(_sb);
        let snap = b.snapshot();
        let root = snap.spans.iter().find(|s| s.name == "b-root").unwrap();
        let child = snap.spans.iter().find(|s| s.name == "b-child").unwrap();
        assert_eq!(root.parent, None, "b-root must not adopt a-root as parent");
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn counters_merge_across_threads() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.incr("evals", 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counters["evals"], 400);
    }

    #[test]
    fn gauge_tracks_last_min_max() {
        let t = Tracer::new();
        t.gauge("depth", 3.0);
        t.gauge("depth", 9.0);
        t.gauge("depth", 1.0);
        let g = &t.snapshot().gauges["depth"];
        assert_eq!((g.last, g.min, g.max, g.sets), (1.0, 1.0, 9.0, 3));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
        let t = Tracer::new();
        for v in [0u64, 1, 3, 4, 1000] {
            t.observe("lat", v);
        }
        let h = &t.snapshot().hists["lat"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1008);
        assert_eq!(h.buckets.iter().map(|(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn recording_survives_a_poisoned_shard() {
        let t = Tracer::new();
        let t2 = t.clone();
        // Poison every shard lock by panicking while holding it.
        for shard in &t.inner.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = shard.lock().unwrap();
                panic!("poison");
            }));
        }
        t2.incr("after", 1);
        assert_eq!(t2.snapshot().counters["after"], 1);
    }

    #[test]
    fn hot_accumulator_merges_and_labels() {
        let t = Tracer::new();
        use fpvm::exec::Observer as _;
        let mut p = profiler::InsnProfiler::new(4);
        for _ in 0..5 {
            p.step(fpvm::InsnId(2), 2);
        }
        t.merge_hot(&p);
        t.merge_hot(&p);
        t.label_insn(2, "main/b0/i2");
        let snap = t.snapshot();
        assert_eq!(snap.hot.len(), 1);
        assert_eq!(snap.hot[0].insn, 2);
        assert_eq!(snap.hot[0].cycles, 20);
        assert_eq!(snap.hot[0].hits, 10);
        assert_eq!(snap.hot[0].label, "main/b0/i2");
    }
}

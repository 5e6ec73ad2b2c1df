//! Live telemetry streaming: incremental snapshot deltas plus search
//! progress, one JSON object per line.
//!
//! A [`StreamSink`] owns a [`Tracer`] handle and a writer (normally
//! `<run-dir>/live.jsonl`). The search loop calls [`StreamSink::tick`]
//! at convenient points; the sink is both **interval-gated** (a cheap
//! atomic check skips ticks arriving faster than
//! [`StreamOptions::min_interval`]) and **delta-gated** (nothing is
//! written when neither the trace nor the progress changed), so wiring
//! it into a hot loop costs a couple of atomic loads per call in the
//! common case. Phase transitions and run completion use
//! [`StreamSink::force`] so the file always ends on fresh state.
//!
//! The wire format is a `meta` header, then interleaved `delta` records
//! ([`crate::delta::TraceDelta`]) and `progress` records
//! ([`ProgressRecord`]), each line one [`LiveLine`], declared once
//! through [`record!`](crate::record). [`LiveLog::parse_tolerant`] reads
//! it back with [`json::read_jsonl`]'s policy, dropping a torn final line
//! from a crashed run, and [`LiveLog::final_snapshot`] folds the deltas
//! into the [`TraceSnapshot`] the tracer held at the last delta. That fold
//! is the run's trace: a run directory keeps no other copy of it.
//!
//! Telemetry never fails the search it observes: a write or flush error
//! does not stop the sink, which keeps the first one and hands it back
//! from [`StreamSink::close`].

use crate::delta::TraceDelta;
use crate::json;
use crate::snapshot::TraceSnapshot;
use crate::Tracer;
use std::collections::BTreeMap;
use std::io::Write as IoWrite;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The `format` a live stream's `meta` header names.
pub const LIVE_FORMAT: &str = "mptrace-live";

/// Header line identifying a live stream artifact.
pub const LIVE_META: &str = "{\"kind\":\"meta\",\"format\":\"mptrace-live\",\"version\":1}";

/// Tuning for a [`StreamSink`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Minimum wall time between emissions via [`StreamSink::tick`]
    /// (default 200ms). [`StreamSink::force`] ignores this.
    pub min_interval: Duration,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { min_interval: Duration::from_millis(200) }
    }
}

crate::record! {
    /// Instantaneous search progress, supplied by the caller on each tick.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Progress {
        /// Current search phase (`"bfs"`, `"union"`, `"second-phase"`,
        /// `"done"`, ...).
        pub phase: String,
        /// Configurations waiting in the work queue.
        pub queue_depth: u64,
        /// Configurations currently being evaluated.
        pub in_flight: u64,
        /// Evaluations finished so far.
        pub done: u64,
        /// Best current estimate of total evaluations (done + queued +
        /// in-flight); grows as the search expands failing configs.
        pub total_estimate: u64 [rename = "total"],
    }
}

crate::record! {
    /// One `progress` line of a live stream.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ProgressRecord {
        /// Emission ordinal shared with delta records.
        pub seq: u64,
        /// Microseconds since the stream opened.
        pub t_us: u64,
        /// The caller-supplied progress, its keys inline in the line.
        pub progress: Progress [flatten],
        /// Estimated microseconds remaining (`None` until `done > 0`).
        pub eta_us: Option<u64> [default],
        /// Executor verdict counts so far, by verdict name.
        pub verdicts: BTreeMap<String, u64> [default],
    }
}

crate::record! {
    /// One line of a live stream, tagged by its `"kind"`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum LiveLine [tag = "kind"] {
        /// The header, the stream's first line ([`LIVE_META`]).
        Meta = "meta" {
            /// [`LIVE_FORMAT`] in a live stream.
            format: String,
            /// The stream format's version, 1.
            version: u32,
        },
        /// What the tracer gained since the previous delta.
        Delta = "delta" {
            /// The delta, its keys inline in the line.
            delta: TraceDelta [flatten],
        },
        /// The search's progress at an emission.
        Progress = "progress" {
            /// The record, its keys inline in the line.
            record: ProgressRecord [flatten],
        },
    }
}

struct StreamState {
    out: Box<dyn IoWrite + Send>,
    prev: TraceSnapshot,
    last_progress: Option<ProgressRecord>,
    seq: u64,
    /// The first write or flush error, if any.
    error: Option<String>,
}

impl StreamState {
    /// Keep `r`'s error if it is the first.
    fn note(&mut self, r: std::io::Result<()>) {
        if let Err(e) = r {
            self.error.get_or_insert_with(|| e.to_string());
        }
    }

    fn write_line(&mut self, line: &LiveLine) {
        let mut text = line.to_json();
        text.push('\n');
        let r = self.out.write_all(text.as_bytes());
        self.note(r);
    }
}

/// Periodic emitter of trace deltas + progress to a JSONL stream.
pub struct StreamSink {
    tracer: Tracer,
    opts: StreamOptions,
    state: Mutex<StreamState>,
    /// `t_us` of the last emission — the fast interval gate.
    last_emit_us: AtomicU64,
    /// Shared buffer when constructed via [`StreamSink::in_memory`].
    mem: Option<Arc<Mutex<Vec<u8>>>>,
}

/// `Vec<u8>` writer that appends into a shared buffer.
struct MemWriter(Arc<Mutex<Vec<u8>>>);

impl IoWrite for MemWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StreamSink {
    /// Stream to `path` (truncating), writing the meta header eagerly so
    /// even an immediately-crashed run leaves an identifiable artifact.
    pub fn to_file(
        path: impl AsRef<Path>,
        tracer: &Tracer,
        opts: StreamOptions,
    ) -> std::io::Result<StreamSink> {
        let file = std::fs::File::create(path)?;
        Ok(StreamSink::to_writer(Box::new(std::io::BufWriter::new(file)), tracer, opts))
    }

    /// Stream to an arbitrary writer. The meta header is written
    /// immediately; a write error is kept for [`StreamSink::close`], as
    /// everywhere else in the sink: telemetry must never take down the
    /// search.
    pub fn to_writer(
        out: Box<dyn IoWrite + Send>,
        tracer: &Tracer,
        opts: StreamOptions,
    ) -> StreamSink {
        let mut st = StreamState {
            out,
            prev: TraceSnapshot::default(),
            last_progress: None,
            seq: 0,
            error: None,
        };
        let r = writeln!(st.out, "{LIVE_META}").and_then(|()| st.out.flush());
        st.note(r);
        StreamSink {
            tracer: tracer.clone(),
            opts,
            state: Mutex::new(st),
            last_emit_us: AtomicU64::new(0),
            mem: None,
        }
    }

    /// Stream into memory; read back with [`StreamSink::contents`].
    /// Ticks are never interval-suppressed, which makes tests
    /// deterministic.
    pub fn in_memory(tracer: &Tracer) -> StreamSink {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = StreamSink::to_writer(
            Box::new(MemWriter(Arc::clone(&buf))),
            tracer,
            StreamOptions { min_interval: Duration::ZERO },
        );
        sink.mem = Some(buf);
        sink
    }

    /// The bytes written so far (in-memory sinks only).
    pub fn contents(&self) -> String {
        match &self.mem {
            Some(buf) => {
                String::from_utf8_lossy(&buf.lock().unwrap_or_else(|e| e.into_inner())).into_owned()
            }
            None => String::new(),
        }
    }

    /// Rate-limited emission: returns immediately (two atomic loads)
    /// unless [`StreamOptions::min_interval`] has elapsed since the last
    /// emission.
    pub fn tick(&self, p: &Progress) {
        let now = self.tracer.now_us();
        let last = self.last_emit_us.load(Ordering::Relaxed);
        let min_us = self.opts.min_interval.as_micros() as u64;
        if now.saturating_sub(last) < min_us && last != 0 {
            return;
        }
        self.force(p);
    }

    /// Unconditional emission (phase transitions, run completion).
    pub fn force(&self, p: &Progress) {
        // Snapshot under the lock: a snapshot taken before it could be
        // older than `prev` by the time it is diffed, and the next delta
        // would then re-emit spans and miscount counters.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.tracer.snapshot();
        let now = self.tracer.now_us();
        let seq = st.seq + 1;
        let delta = TraceDelta::between(&st.prev, &cur, seq, now);
        let verdicts: BTreeMap<String, u64> = cur
            .counters
            .iter()
            .filter_map(|(k, &v)| k.strip_prefix("exec.verdict.").map(|name| (name.to_string(), v)))
            .collect();
        let eta_us = (p.done > 0 && p.total_estimate > p.done)
            .then(|| now * (p.total_estimate - p.done) / p.done);
        let rec = ProgressRecord { seq, t_us: now, progress: p.clone(), eta_us, verdicts };
        let progress_changed = match &st.last_progress {
            Some(prev) => prev.progress != rec.progress || prev.verdicts != rec.verdicts,
            None => true,
        };
        if delta.is_empty() && !progress_changed {
            return; // delta gate: nothing new anywhere
        }
        st.seq = seq;
        if !delta.is_empty() {
            st.write_line(&LiveLine::Delta { delta });
        }
        if progress_changed {
            st.write_line(&LiveLine::Progress { record: rec.clone() });
            st.last_progress = Some(rec);
        }
        let r = st.out.flush();
        st.note(r);
        st.prev = cur;
        self.last_emit_us.store(now, Ordering::Relaxed);
    }

    /// Emit what the tracer gained since the last emission, under the
    /// last progress, and close the stream. Returns the stream's fold,
    /// the tracer's snapshot at this call, and the first write or flush
    /// error the stream met, if any: the fold of what reached the writer
    /// is then shorter.
    pub fn close(self) -> (TraceSnapshot, Option<String>) {
        let last = self.state.lock().unwrap_or_else(|e| e.into_inner()).last_progress.clone();
        self.force(&last.map(|r| r.progress).unwrap_or_default());
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (std::mem::take(&mut st.prev), st.error.take())
    }
}

const MISSING_META: &str = "missing mptrace-live meta header line";

/// A parsed live stream.
#[derive(Debug, Clone, Default)]
pub struct LiveLog {
    /// Trace deltas in emission order.
    pub deltas: Vec<TraceDelta>,
    /// Progress records in emission order.
    pub progress: Vec<ProgressRecord>,
    /// Warning from a dropped truncated final line, if any.
    pub warning: Option<String>,
}

impl LiveLog {
    /// Parse a live stream, tolerating a truncated final line (see
    /// [`json::read_jsonl`]).
    pub fn parse_tolerant(text: &str) -> Result<LiveLog, String> {
        let (lines, warning) = json::read_jsonl::<LiveLine>(text)?;
        if lines.is_empty() {
            return Err(MISSING_META.into());
        }
        let mut log = LiveLog { warning, ..Default::default() };
        for (i, line) in lines.into_iter().enumerate() {
            log.fold(line, i == 0)?;
        }
        Ok(log)
    }

    /// Add one line to the log; `first` tells whether it is the
    /// stream's first line, which must be the `meta` header.
    fn fold(&mut self, line: LiveLine, first: bool) -> Result<(), String> {
        match line {
            LiveLine::Meta { format, .. } if first && format == LIVE_FORMAT => {}
            LiveLine::Meta { .. } if first => return Err("not an mptrace live stream".into()),
            _ if first => return Err(MISSING_META.into()),
            LiveLine::Meta { .. } => return Err("a second meta header line".into()),
            LiveLine::Delta { delta } => self.deltas.push(delta),
            LiveLine::Progress { record } => self.progress.push(record),
        }
        Ok(())
    }

    /// Read and parse a live stream from disk.
    pub fn from_file(path: impl AsRef<Path>) -> Result<LiveLog, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        LiveLog::parse_tolerant(&text)
    }

    /// Fold every delta into a full snapshot, equal to the one the
    /// tracer held at the last emission.
    pub fn final_snapshot(&self) -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        for d in &self.deltas {
            d.apply(&mut snap);
        }
        snap
    }

    /// The most recent progress record, if any.
    pub fn latest_progress(&self) -> Option<&ProgressRecord> {
        self.progress.last()
    }
}

/// Incremental reader for a *growing* live stream.
///
/// [`LiveLog::from_file`] re-reads and re-parses the whole file on
/// every call — fine post-mortem, quadratic for a follower polling a
/// long run, and ruinous for a daemon serving many concurrent
/// followers. A `LiveTail` remembers the byte offset of the last fully
/// consumed line and each [`LiveTail::poll`] reads only the appended
/// suffix, folding complete new lines into its accumulated [`LiveLog`].
///
/// Torn-line tolerance falls out of the framing: a partially written
/// final line has no trailing newline yet, so it stays buffered in the
/// carry until the writer's flush completes it — it is simply "not
/// there yet", never an error. A newline-*terminated* line that fails
/// to parse is mid-file corruption and errors, exactly like the
/// post-mortem reader. Truncation or recreation of the file (a re-run
/// into the same directory) is detected by the file shrinking below the
/// consumed offset, and resets the tail to re-read from the start.
#[derive(Debug)]
pub struct LiveTail {
    path: std::path::PathBuf,
    /// Bytes of complete, consumed lines.
    offset: u64,
    /// Trailing partial line awaiting its newline.
    carry: Vec<u8>,
    log: LiveLog,
    saw_meta: bool,
    /// Raw complete lines consumed since the last [`LiveTail::take_raw`]
    /// (newline-terminated), for followers that forward bytes verbatim.
    pending_raw: String,
}

impl LiveTail {
    /// Start tailing `path`. The file need not exist yet; polls before
    /// it appears simply report no progress.
    pub fn new(path: impl AsRef<Path>) -> LiveTail {
        LiveTail {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            carry: Vec::new(),
            log: LiveLog::default(),
            saw_meta: false,
            pending_raw: String::new(),
        }
    }

    /// Everything folded so far.
    pub fn log(&self) -> &LiveLog {
        &self.log
    }

    /// Byte offset of consumed complete lines (observability/tests).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Drain the raw text of lines consumed since the last call.
    pub fn take_raw(&mut self) -> String {
        std::mem::take(&mut self.pending_raw)
    }

    /// Read any appended bytes and fold complete new lines. Returns the
    /// number of new records consumed (0 when nothing changed). The
    /// consumed offset only advances past lines that parsed, so a
    /// mid-file corruption error is sticky rather than silently skipped.
    pub fn poll(&mut self) -> Result<usize, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            // Not created yet (or briefly recreated): nothing to read.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(format!("{}: {e}", self.path.display())),
        };
        let len = f.metadata().map_err(|e| format!("{}: {e}", self.path.display()))?.len();
        let consumed = self.offset + self.carry.len() as u64;
        if len < consumed {
            // Truncated or recreated: start over.
            *self = LiveTail::new(&self.path);
            return self.poll();
        }
        if len > consumed {
            f.seek(SeekFrom::Start(consumed))
                .map_err(|e| format!("{}: {e}", self.path.display()))?;
            let mut buf = Vec::with_capacity((len - consumed) as usize);
            f.read_to_end(&mut buf).map_err(|e| format!("{}: {e}", self.path.display()))?;
            self.carry.extend_from_slice(&buf);
        }
        // Always re-scan the carry: an errored poll leaves its complete
        // bad line buffered, so the error re-reports until the file is
        // truncated/recreated.

        let mut consumed_records = 0usize;
        while let Some(nl) = self.carry.iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&self.carry[..nl]).into_owned();
            if !text.trim().is_empty() {
                // Parse before consuming: a corrupt line is reported on
                // this poll and every later one, never skipped over.
                self.fold_line(&text)?;
                self.pending_raw.push_str(&text);
                self.pending_raw.push('\n');
                consumed_records += 1;
            }
            self.carry.drain(..=nl);
            self.offset += nl as u64 + 1;
        }
        Ok(consumed_records)
    }

    fn fold_line(&mut self, line: &str) -> Result<(), String> {
        let at = |e: String| format!("{}: {e}", self.path.display());
        let line = LiveLine::parse(line).map_err(at)?;
        self.log.fold(line, !self.saw_meta).map_err(at)?;
        self.saw_meta = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(phase: &str, depth: u64, done: u64, total: u64) -> Progress {
        Progress {
            phase: phase.into(),
            queue_depth: depth,
            in_flight: 1,
            done,
            total_estimate: total,
        }
    }

    #[test]
    fn stream_accumulates_to_tracer_snapshot() {
        let t = Tracer::new();
        let sink = StreamSink::in_memory(&t);
        t.incr("exec.verdict.pass", 1);
        {
            let _sp = t.span("phase:bfs");
            t.observe("eval.run_us", 40);
        }
        sink.force(&progress("bfs", 5, 1, 10));
        t.incr("exec.verdict.fail", 2);
        t.gauge("search.queue_depth", 3.0);
        sink.force(&progress("union", 2, 7, 10));
        let expect = t.snapshot();
        sink.force(&progress("done", 0, 10, 10));

        let log = LiveLog::parse_tolerant(&sink.contents()).unwrap();
        assert!(log.warning.is_none());
        assert!(log.deltas.len() >= 2);
        assert_eq!(log.progress.len(), 3);
        assert_eq!(log.final_snapshot(), t.snapshot());
        assert_eq!(expect.counters["exec.verdict.fail"], 2);
        let last = log.latest_progress().unwrap();
        assert_eq!(last.progress.phase, "done");
        assert_eq!(last.verdicts["pass"], 1);
        assert_eq!(last.verdicts["fail"], 2);
    }

    #[test]
    fn delta_gate_suppresses_no_op_emissions() {
        let t = Tracer::new();
        let sink = StreamSink::in_memory(&t);
        let p = progress("bfs", 4, 2, 8);
        sink.force(&p);
        let before = sink.contents();
        sink.force(&p); // identical trace + progress: no new bytes
        assert_eq!(sink.contents(), before);
        sink.force(&progress("bfs", 3, 3, 8)); // progress moved
        assert!(sink.contents().len() > before.len());
    }

    #[test]
    fn progress_record_round_trips() {
        let rec = ProgressRecord {
            seq: 3,
            t_us: 12345,
            progress: progress("second-phase", 9, 41, 60),
            eta_us: Some(5678),
            verdicts: [("pass".to_string(), 30u64), ("timeout".to_string(), 2)].into(),
        };
        let line = LiveLine::Progress { record: rec.clone() }.to_json();
        assert_eq!(
            line,
            "{\"kind\":\"progress\",\"seq\":3,\"t_us\":12345,\"phase\":\"second-phase\",\
             \"queue_depth\":9,\"in_flight\":1,\"done\":41,\"total\":60,\"eta_us\":5678,\
             \"verdicts\":{\"pass\":30,\"timeout\":2}}"
        );
        assert_eq!(LiveLine::parse(&line).unwrap(), LiveLine::Progress { record: rec.clone() });
        // A null ETA round-trips too, and one left out reads as null.
        let rec = ProgressRecord { eta_us: None, ..rec };
        let line = LiveLine::Progress { record: rec.clone() }.to_json();
        assert!(line.contains("\"eta_us\":null"), "{line}");
        let bare = line.replace(",\"eta_us\":null", "");
        assert_eq!(LiveLine::parse(&bare).unwrap(), LiveLine::Progress { record: rec });
    }

    #[test]
    fn meta_header_is_the_meta_line() {
        let meta = LiveLine::Meta { format: LIVE_FORMAT.into(), version: 1 };
        assert_eq!(meta.to_json(), LIVE_META);
        assert_eq!(LiveLine::parse(LIVE_META).unwrap(), meta);
    }

    #[test]
    fn non_finite_gauges_survive_the_stream() {
        let t = Tracer::new();
        let sink = StreamSink::in_memory(&t);
        t.gauge("g", f64::INFINITY);
        t.gauge("h", f64::NEG_INFINITY);
        sink.force(&progress("bfs", 0, 1, 1));
        let log = LiveLog::parse_tolerant(&sink.contents()).unwrap();
        assert_eq!(log.warning, None);
        assert_eq!(log.final_snapshot(), t.snapshot());
        assert!(sink.contents().contains("\"g\":[\"inf\",\"inf\",\"inf\",1]"));
    }

    #[test]
    fn a_failing_writer_is_reported_at_close_and_never_stops_the_sink() {
        /// Accepts `left` bytes, then fails every write.
        struct FailAfter {
            left: usize,
            kept: Arc<Mutex<Vec<u8>>>,
        }
        impl IoWrite for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.left == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                let n = buf.len().min(self.left);
                self.left -= n;
                self.kept.lock().unwrap().extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let t = Tracer::new();
        let kept = Arc::new(Mutex::new(Vec::new()));
        let out = FailAfter { left: LIVE_META.len() + 40, kept: Arc::clone(&kept) };
        let sink = StreamSink::to_writer(Box::new(out), &t, StreamOptions::default());
        for i in 0..5 {
            t.incr("a", 1);
            sink.force(&progress("bfs", 0, i, 5));
        }
        let (snap, error) = sink.close();
        assert_eq!(snap, t.snapshot());
        assert_eq!(error.as_deref(), Some("disk full"));
        // What reached the writer is a stream torn after its header.
        let text = String::from_utf8(kept.lock().unwrap().clone()).unwrap();
        let log = LiveLog::parse_tolerant(&text).unwrap();
        assert!(log.warning.is_some() && log.deltas.is_empty(), "{text}");
        // A healthy sink reports nothing.
        let healthy = StreamSink::in_memory(&t);
        healthy.force(&progress("bfs", 0, 1, 1));
        assert_eq!(healthy.close().1, None);
    }

    #[test]
    fn truncated_final_line_is_dropped_with_warning() {
        let t = Tracer::new();
        let sink = StreamSink::in_memory(&t);
        t.incr("a", 1);
        sink.force(&progress("bfs", 1, 1, 2));
        t.incr("a", 1);
        sink.force(&progress("bfs", 0, 2, 2));
        let full = sink.contents();
        // Drop the trailing progress line, then tear the second delta
        // record mid-JSON — a crash halfway through a flush.
        let trimmed = full.trim_end_matches('\n');
        let without_progress = &trimmed[..trimmed.rfind('\n').unwrap()];
        let cut = &without_progress[..without_progress.len() - 5];
        let log = LiveLog::parse_tolerant(cut).unwrap();
        assert!(log.warning.as_deref().unwrap().contains("dropped"), "{:?}", log.warning);
        // The surviving prefix still folds into a valid snapshot.
        assert_eq!(log.final_snapshot().counters.get("a"), Some(&1));
    }

    #[test]
    fn live_tail_consumes_only_the_appended_suffix() {
        let dir = std::env::temp_dir().join(format!("mptrace-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live_tail_suffix.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut tail = LiveTail::new(&path);
        assert_eq!(tail.poll().unwrap(), 0, "absent file reads as empty");

        let t = Tracer::new();
        t.incr("a", 1);
        let full = {
            let sink = StreamSink::in_memory(&t);
            sink.force(&progress("bfs", 2, 1, 4));
            t.incr("a", 1);
            sink.force(&progress("done", 0, 4, 4));
            sink.contents()
        };
        let lines: Vec<&str> = full.lines().collect();
        assert!(lines.len() >= 4, "{full}");

        // Write the first half, plus a torn fragment of the next line.
        let head = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..lines[2].len() / 2]);
        std::fs::write(&path, &head).unwrap();
        assert_eq!(tail.poll().unwrap(), 2);
        let after_head = tail.offset();
        assert_eq!(after_head, (lines[0].len() + lines[1].len() + 2) as u64);
        assert_eq!(tail.poll().unwrap(), 0, "torn line stays buffered");

        // Complete the file; only the suffix is parsed.
        std::fs::write(&path, &full).unwrap();
        let more = tail.poll().unwrap();
        assert_eq!(more, lines.len() - 2);
        assert!(tail.offset() > after_head);

        // The folded tail equals the whole-file reader's view.
        let whole = LiveLog::parse_tolerant(&full).unwrap();
        assert_eq!(tail.log().final_snapshot(), whole.final_snapshot());
        assert_eq!(tail.log().progress, whole.progress);
        // Raw drain returns every complete line exactly once.
        assert_eq!(tail.take_raw(), full);
        assert_eq!(tail.take_raw(), "");
    }

    #[test]
    fn live_tail_resets_on_truncation() {
        let dir = std::env::temp_dir().join(format!("mptrace-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live_tail_trunc.jsonl");

        let t = Tracer::new();
        // Plenty of counters, so the first stream is strictly longer
        // than the replacement written below.
        for i in 0..32 {
            t.incr(&format!("x.padding.counter.{i}"), 5);
        }
        t.incr("x", 5);
        let first = {
            let sink = StreamSink::in_memory(&t);
            sink.force(&progress("bfs", 1, 1, 2));
            sink.contents()
        };
        std::fs::write(&path, &first).unwrap();
        let mut tail = LiveTail::new(&path);
        assert!(tail.poll().unwrap() > 0);

        // A fresh, shorter stream replaces the file (re-run).
        let t2 = Tracer::new();
        t2.incr("y", 1);
        let second = {
            let sink = StreamSink::in_memory(&t2);
            sink.force(&progress("done", 0, 1, 1));
            sink.contents()
        };
        assert!(second.len() < first.len());
        std::fs::write(&path, &second).unwrap();
        assert!(tail.poll().unwrap() > 0);
        let snap = tail.log().final_snapshot();
        assert_eq!(snap.counters.get("y"), Some(&1));
        assert_eq!(snap.counters.get("x"), None, "old stream state must be discarded");
    }

    #[test]
    fn live_tail_errors_on_midfile_corruption() {
        let dir = std::env::temp_dir().join(format!("mptrace-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live_tail_corrupt.jsonl");
        std::fs::write(&path, format!("{LIVE_META}\nnot json at all\n")).unwrap();
        let mut tail = LiveTail::new(&path);
        assert!(tail.poll().is_err());
        // The error is sticky: the bad line is never skipped.
        assert!(tail.poll().is_err());
    }

    #[test]
    fn rejects_foreign_streams() {
        assert!(LiveLog::parse_tolerant(
            "{\"kind\":\"meta\",\"format\":\"mptrace\",\"version\":1}"
        )
        .is_err());
        assert!(LiveLog::parse_tolerant("{\"kind\":\"delta\",\"seq\":1,\"t_us\":2}").is_err());
    }
}

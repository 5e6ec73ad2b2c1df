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
//! ([`ProgressRecord`]). [`LiveLog::parse_tolerant`] reads it back,
//! dropping a torn final line from a crashed run, and
//! [`LiveLog::final_snapshot`] folds the deltas into the
//! [`TraceSnapshot`] the tracer held at the last delta. That fold is the
//! run's trace: a run directory keeps no other copy of it.

use crate::delta::TraceDelta;
use crate::json::{self, esc, Value, Wire};
use crate::snapshot::TraceSnapshot;
use crate::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as IoWrite;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    pub total_estimate: u64,
}

/// One `progress` line as read back from a live stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressRecord {
    /// Emission ordinal shared with delta records.
    pub seq: u64,
    /// Microseconds since the stream opened.
    pub t_us: u64,
    /// The caller-supplied progress.
    pub progress: Progress,
    /// Estimated microseconds remaining (`None` until `done > 0`).
    pub eta_us: Option<u64>,
    /// Executor verdict counts so far, by verdict name.
    pub verdicts: BTreeMap<String, u64>,
}

impl ProgressRecord {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(s, "{{\"kind\":\"progress\",\"seq\":{},\"t_us\":{}", self.seq, self.t_us);
        s.push_str(",\"phase\":");
        esc(&mut s, &self.progress.phase);
        let _ = write!(
            s,
            ",\"queue_depth\":{},\"in_flight\":{},\"done\":{},\"total\":{}",
            self.progress.queue_depth,
            self.progress.in_flight,
            self.progress.done,
            self.progress.total_estimate
        );
        match self.eta_us {
            Some(e) => {
                let _ = write!(s, ",\"eta_us\":{e}");
            }
            None => s.push_str(",\"eta_us\":null"),
        }
        s.push_str(",\"verdicts\":{");
        for (i, (k, v)) in self.verdicts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            esc(&mut s, k);
            let _ = write!(s, ":{v}");
        }
        s.push_str("}}");
        s
    }

    /// Parse a value produced by [`ProgressRecord::to_json`].
    pub fn parse(v: &Value) -> Result<ProgressRecord, String> {
        if v.get("kind").and_then(Value::as_str) != Some("progress") {
            return Err("not a progress record".into());
        }
        let n = |k: &str| -> Result<u64, String> {
            v.get(k).and_then(u64::read).ok_or_else(|| format!("progress: missing \"{k}\""))
        };
        let mut verdicts = BTreeMap::new();
        if let Some(Value::Obj(fields)) = v.get("verdicts") {
            for (k, c) in fields {
                verdicts.insert(k.clone(), u64::read(c).ok_or("progress: verdict count")?);
            }
        }
        Ok(ProgressRecord {
            seq: n("seq")?,
            t_us: n("t_us")?,
            progress: Progress {
                phase: v
                    .get("phase")
                    .and_then(Value::as_str)
                    .ok_or("progress: missing \"phase\"")?
                    .to_string(),
                queue_depth: n("queue_depth")?,
                in_flight: n("in_flight")?,
                done: n("done")?,
                total_estimate: n("total")?,
            },
            eta_us: match v.get("eta_us") {
                Some(Value::Null) | None => None,
                Some(e) => Some(u64::read(e).ok_or("progress: eta_us")?),
            },
            verdicts,
        })
    }
}

struct StreamState {
    out: Box<dyn IoWrite + Send>,
    prev: TraceSnapshot,
    last_progress: Option<ProgressRecord>,
    seq: u64,
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
    /// immediately (write errors are swallowed, as everywhere else in
    /// the sink: telemetry must never take down the search).
    pub fn to_writer(
        mut out: Box<dyn IoWrite + Send>,
        tracer: &Tracer,
        opts: StreamOptions,
    ) -> StreamSink {
        let _ = writeln!(out, "{LIVE_META}");
        let _ = out.flush();
        StreamSink {
            tracer: tracer.clone(),
            opts,
            state: Mutex::new(StreamState {
                out,
                prev: TraceSnapshot::default(),
                last_progress: None,
                seq: 0,
            }),
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
            let line = delta.to_json();
            let _ = writeln!(st.out, "{line}");
        }
        if progress_changed {
            let line = rec.to_json();
            let _ = writeln!(st.out, "{line}");
            st.last_progress = Some(rec);
        }
        let _ = st.out.flush();
        st.prev = cur;
        self.last_emit_us.store(now, Ordering::Relaxed);
    }

    /// Emit what the tracer gained since the last emission, under the
    /// last progress, and close the stream. Returns the stream's fold:
    /// the tracer's snapshot at this call.
    pub fn close(self) -> TraceSnapshot {
        let last = self.state.lock().unwrap_or_else(|e| e.into_inner()).last_progress.clone();
        self.force(&last.map(|r| r.progress).unwrap_or_default());
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut st.prev)
    }
}

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
    /// [`json::parse_jsonl_tolerant`]).
    pub fn parse_tolerant(text: &str) -> Result<LiveLog, String> {
        let (lines, warning) = json::parse_jsonl_tolerant(text)?;
        let mut log = LiveLog { warning, ..Default::default() };
        let mut saw_meta = false;
        for (i, (lineno, v)) in lines.iter().enumerate() {
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {lineno}: missing \"kind\""))?;
            let last = i + 1 == lines.len();
            let res: Result<(), String> = match kind {
                "meta" => {
                    if v.get("format").and_then(Value::as_str) != Some("mptrace-live") {
                        return Err("not an mptrace live stream".into());
                    }
                    saw_meta = true;
                    Ok(())
                }
                "delta" => TraceDelta::parse(v).map(|d| log.deltas.push(d)),
                "progress" => ProgressRecord::parse(v).map(|p| log.progress.push(p)),
                other => Err(format!("unknown kind {other:?}")),
            };
            match res {
                Ok(()) => {}
                // A final line that parses as JSON but fails
                // interpretation is the same torn-write case.
                Err(e) if last && log.warning.is_none() => {
                    log.warning =
                        Some(format!("line {lineno}: dropped invalid final record ({e})"));
                }
                Err(e) => return Err(format!("line {lineno}: {e}")),
            }
        }
        if !saw_meta {
            return Err("missing mptrace-live meta header line".into());
        }
        Ok(log)
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
        let v = json::parse(line).map_err(|e| format!("{}: {e}", self.path.display()))?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: record missing \"kind\"", self.path.display()))?;
        match kind {
            "meta" => {
                if v.get("format").and_then(Value::as_str) != Some("mptrace-live") {
                    return Err(format!("{}: not an mptrace live stream", self.path.display()));
                }
                self.saw_meta = true;
                Ok(())
            }
            _ if !self.saw_meta => {
                Err(format!("{}: missing mptrace-live meta header line", self.path.display()))
            }
            "delta" => TraceDelta::parse(&v)
                .map(|d| self.log.deltas.push(d))
                .map_err(|e| format!("{}: {e}", self.path.display())),
            "progress" => ProgressRecord::parse(&v)
                .map(|p| self.log.progress.push(p))
                .map_err(|e| format!("{}: {e}", self.path.display())),
            other => Err(format!("{}: unknown kind {other:?}", self.path.display())),
        }
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
        let line = rec.to_json();
        let back = ProgressRecord::parse(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.to_json(), line);
        // null ETA round-trips too
        let rec = ProgressRecord { eta_us: None, ..rec };
        let back = ProgressRecord::parse(&json::parse(&rec.to_json()).unwrap()).unwrap();
        assert_eq!(back.eta_us, None);
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

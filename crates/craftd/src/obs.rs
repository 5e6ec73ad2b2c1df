//! Structured daemon logging: leveled JSONL records with trace ids.
//!
//! The daemon's request and job lifecycle is written to
//! `daemon.log.jsonl` in the data directory — one JSON object per line,
//! in a fixed field order so records round-trip **byte-exactly** through
//! [`LogRecord::to_json`] / [`LogRecord::parse`] (the same discipline as
//! `mptrace`'s manifest and live-log formats). The file is size-capped:
//! when it would exceed the configured limit it is rotated once to
//! `daemon.log.jsonl.1`, keeping at most two generations on disk.
//!
//! Records carry free-form key/value fields; by convention request
//! records include a `trace` field holding the `x-craft-trace` id, which
//! is the string that stitches a client call to the daemon decision, the
//! job manifest, and the run-dir spans.

use mptrace::json::{self, esc, Value, Wire};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Name of the daemon log inside the data directory.
pub const LOG_FILE: &str = "daemon.log.jsonl";

/// Severity of a [`LogRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Routine lifecycle events (requests, job transitions).
    Info,
    /// Recoverable anomalies worth surfacing (parse errors, sheds).
    Warn,
    /// Failures (job crashes, I/O errors).
    Error,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
    fn from_str(s: &str) -> Option<Level> {
        match s {
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A field value on a [`LogRecord`]: a string or an unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogField {
    /// String-valued field.
    S(String),
    /// Integer-valued field (counts, sizes, durations in µs).
    U(u64),
}

/// One structured log line.
///
/// Serialized field order is fixed (`t_us`, `level`, `event`, then the
/// free-form fields in insertion order), which makes
/// `parse(rec.to_json()) == rec` and `parse(x).to_json() == x` hold
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Unix time of the event in microseconds.
    pub t_us: u64,
    /// Severity.
    pub level: Level,
    /// Short machine-readable event name, e.g. `request`, `job_done`.
    pub event: String,
    /// Free-form key/value payload, in insertion order.
    pub fields: Vec<(String, LogField)>,
}

impl LogRecord {
    /// Build a record stamped with the current wall-clock time.
    pub fn now(level: Level, event: &str) -> LogRecord {
        let t_us =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
        LogRecord { t_us, level, event: event.to_string(), fields: Vec::new() }
    }

    /// Append a string field (builder style).
    pub fn s(mut self, key: &str, val: impl Into<String>) -> LogRecord {
        self.fields.push((key.to_string(), LogField::S(val.into())));
        self
    }

    /// Append an integer field (builder style).
    pub fn u(mut self, key: &str, val: u64) -> LogRecord {
        self.fields.push((key.to_string(), LogField::U(val)));
        self
    }

    /// Serialize to a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"t_us\":");
        s.push_str(&self.t_us.to_string());
        s.push_str(",\"level\":\"");
        s.push_str(self.level.as_str());
        s.push_str("\",\"event\":");
        esc(&mut s, &self.event);
        for (k, v) in &self.fields {
            s.push(',');
            esc(&mut s, k);
            s.push(':');
            match v {
                LogField::S(text) => esc(&mut s, text),
                LogField::U(n) => s.push_str(&n.to_string()),
            }
        }
        s.push('}');
        s
    }

    /// Parse a record produced by [`to_json`](LogRecord::to_json).
    pub fn parse(line: &str) -> Result<LogRecord, String> {
        let v = json::parse(line)?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<LogRecord, String> {
        let obj = match v {
            Value::Obj(fields) => fields,
            _ => return Err("log record is not an object".into()),
        };
        let mut t_us = None;
        let mut level = None;
        let mut event = None;
        let mut fields = Vec::new();
        for (k, val) in obj {
            match (k.as_str(), val) {
                ("t_us", v) => t_us = u64::read(v),
                ("level", Value::Str(s)) => level = Level::from_str(s),
                ("event", Value::Str(s)) => event = Some(s.clone()),
                (k, Value::Str(s)) => fields.push((k.to_string(), LogField::S(s.clone()))),
                (k, v) => {
                    let n =
                        u64::read(v).ok_or_else(|| format!("field {k:?}: not a string or u64"))?;
                    fields.push((k.to_string(), LogField::U(n)));
                }
            }
        }
        Ok(LogRecord {
            t_us: t_us.ok_or("missing t_us")?,
            level: level.ok_or("missing/bad level")?,
            event: event.ok_or("missing event")?,
            fields,
        })
    }
}

/// Size-capped, append-only JSONL daemon log.
///
/// Thread-safe; every [`log`](DaemonLog::log) call appends one line and
/// flushes. When the file would grow past `max_bytes` it is first
/// rotated to `<path>.1` (replacing any previous generation), so the
/// live file plus one archive bound disk usage at roughly `2 × max_bytes`.
pub struct DaemonLog {
    inner: Mutex<LogInner>,
    path: PathBuf,
    max_bytes: u64,
}

struct LogInner {
    file: File,
    written: u64,
}

impl DaemonLog {
    /// Open (appending) or create the log at `path`.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<DaemonLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(DaemonLog { inner: Mutex::new(LogInner { file, written }), path, max_bytes })
    }

    /// Append one record. Rotation and I/O errors are swallowed after a
    /// best-effort stderr note — logging must never take the daemon down.
    pub fn log(&self, rec: &LogRecord) {
        // The newline rides in the same write as the record: one syscall
        // per line, and a line is never split around another writer's.
        let mut line = rec.to_json();
        line.push('\n');
        // Poison-proof: a panicked holder leaves a usable inner value.
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let len = line.len() as u64;
        if inner.written > 0 && inner.written + len > self.max_bytes {
            if let Err(e) = self.rotate(&mut inner) {
                eprintln!("craftd: log rotation failed: {e}");
            }
        }
        if let Err(e) = inner.file.write_all(line.as_bytes()) {
            eprintln!("craftd: log write failed: {e}");
            return;
        }
        inner.written += len;
        let _ = inner.file.flush();
    }

    fn rotate(&self, inner: &mut LogInner) -> std::io::Result<()> {
        inner.file.flush()?;
        let archive = self.path.with_extension("jsonl.1");
        fs::rename(&self.path, &archive)?;
        inner.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        inner.written = 0;
        Ok(())
    }

    /// Path of the live log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read a daemon log file, tolerating a torn final line (daemon killed
/// mid-write). Returns the parsed records plus an optional warning
/// describing a dropped truncated tail.
pub fn read_log(path: &Path) -> Result<(Vec<LogRecord>, Option<String>), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let (lines, warn) = json::parse_jsonl_tolerant(&text)?;
    let mut out = Vec::with_capacity(lines.len());
    for (lineno, v) in &lines {
        out.push(LogRecord::from_value(v).map_err(|e| format!("line {lineno}: {e}"))?);
    }
    Ok((out, warn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("craftd-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn log_record_round_trips_byte_exactly() {
        let rec = LogRecord {
            t_us: 1_700_000_000_123_456,
            level: Level::Warn,
            event: "request".into(),
            fields: vec![],
        }
        .s("method", "POST")
        .s("path", "/jobs")
        .u("status", 503)
        .u("us", 412)
        .s("trace", "tr-1700000000-42-0")
        .s("note", "queue \"full\"\nshed");
        let line = rec.to_json();
        let back = LogRecord::parse(&line).unwrap();
        assert_eq!(back, rec);
        // Byte-exact in both directions.
        assert_eq!(back.to_json(), line);
        let reparsed = LogRecord::parse(&back.to_json()).unwrap();
        assert_eq!(reparsed.to_json(), line);
    }

    #[test]
    fn log_record_rejects_missing_or_bad_header_fields() {
        assert!(LogRecord::parse("{\"level\":\"info\",\"event\":\"x\"}").is_err());
        assert!(LogRecord::parse("{\"t_us\":1,\"level\":\"loud\",\"event\":\"x\"}").is_err());
        assert!(LogRecord::parse("{\"t_us\":1,\"level\":\"info\"}").is_err());
        assert!(LogRecord::parse("[1,2]").is_err());
        // A float payload field is neither a string nor a u64.
        assert!(
            LogRecord::parse("{\"t_us\":1,\"level\":\"info\",\"event\":\"x\",\"f\":1.5}").is_err()
        );
    }

    #[test]
    fn rotation_keeps_at_most_two_generations() {
        let dir = tmp_dir("rotate");
        let path = dir.join(LOG_FILE);
        // Each record serializes to well under 200 bytes; cap at 256 so a
        // few appends force several rotations.
        let log = DaemonLog::open(&path, 256).unwrap();
        for i in 0..20 {
            log.log(&LogRecord::now(Level::Info, "tick").u("n", i));
        }
        let live = fs::metadata(&path).unwrap().len();
        assert!(live <= 256, "live log {live} bytes exceeds cap");
        let archive = path.with_extension("jsonl.1");
        let archived = fs::metadata(&archive).unwrap().len();
        assert!(archived <= 256, "archive {archived} bytes exceeds cap");
        // Both generations still parse cleanly.
        let (recs, warn) = read_log(&path).unwrap();
        assert!(warn.is_none());
        assert!(!recs.is_empty());
        let (old, warn) = read_log(&archive).unwrap();
        assert!(warn.is_none());
        assert!(!old.is_empty());
        // Sequence numbers are contiguous across the rotation boundary.
        let last_old = match old.last().unwrap().fields[0].1 {
            LogField::U(n) => n,
            _ => panic!("expected u64 field"),
        };
        let first_new = match recs.first().unwrap().fields[0].1 {
            LogField::U(n) => n,
            _ => panic!("expected u64 field"),
        };
        assert_eq!(first_new, last_old + 1, "rotation dropped records");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_single_record_still_lands() {
        let dir = tmp_dir("oversize");
        let path = dir.join(LOG_FILE);
        let log = DaemonLog::open(&path, 64).unwrap();
        let big = "x".repeat(200);
        log.log(&LogRecord::now(Level::Info, "big").s("payload", &big));
        log.log(&LogRecord::now(Level::Info, "after"));
        let (recs, _) = read_log(&path).unwrap();
        assert!(!recs.is_empty(), "oversized record must still be written");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let dir = tmp_dir("torn");
        let path = dir.join(LOG_FILE);
        let log = DaemonLog::open(&path, 1 << 20).unwrap();
        log.log(&LogRecord::now(Level::Info, "a"));
        log.log(&LogRecord::now(Level::Error, "b").s("err", "boom"));
        // Simulate a crash mid-write: append half a record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"t_us\":12,\"level\":\"inf").unwrap();
        drop(f);
        let (recs, warn) = read_log(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].event, "b");
        assert_eq!(recs[1].level, Level::Error);
        assert!(warn.unwrap().contains("truncated"), "torn tail must warn");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_and_respects_existing_size() {
        let dir = tmp_dir("reopen");
        let path = dir.join(LOG_FILE);
        {
            let log = DaemonLog::open(&path, 1 << 20).unwrap();
            log.log(&LogRecord::now(Level::Info, "first"));
        }
        {
            let log = DaemonLog::open(&path, 1 << 20).unwrap();
            log.log(&LogRecord::now(Level::Info, "second"));
        }
        let (recs, _) = read_log(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event, "first");
        assert_eq!(recs[1].event, "second");
        let _ = fs::remove_dir_all(&dir);
    }
}

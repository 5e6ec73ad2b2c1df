//! The run directory: what one tuning run leaves on disk. `craft analyze
//! --trace=DIR` and every `craftd` job write it through [`RunDir`], and
//! every reader of its trace folds it back through [`load_snapshot`].
//!
//! During the search [`RunDir::create`] streams `live.jsonl` and appends
//! `events.jsonl`; [`RunDir::finish`] then ends the stream on the final
//! trace and writes `trace.jsonl`, `decisions.jsonl` (the fold of
//! `events.jsonl`) and `manifest.json`, each replaced atomically
//! ([`mptrace::replace_file`]) so a concurrent reader never sees a
//! partial document. Callers keep only what is theirs: the CLI its
//! `git describe` and stderr notes, the daemon its `trace:<id>` span,
//! shared cache, pool and quotas.

use crate::{AnalysisSystem, JobSpec, Recommendation};
use mpsearch::decisions;
use mpsearch::events::{EventLog, Record};
use mpsearch::{SearchHooks, SearchReport};
use mptrace::registry::{self, RunManifest, RunSummary};
use mptrace::snapshot::TraceSnapshot;
use mptrace::stream::{LiveLog, StreamOptions, StreamSink};
use mptrace::Tracer;
use std::path::{Path, PathBuf};

/// The live telemetry stream.
pub const LIVE_FILE: &str = "live.jsonl";
/// The search event log.
pub const EVENTS_FILE: &str = "events.jsonl";
/// The final trace snapshot.
pub const TRACE_FILE: &str = "trace.jsonl";
/// Per-instruction decision provenance, the fold of [`EVENTS_FILE`].
pub const DECISIONS_FILE: &str = "decisions.jsonl";
pub use registry::MANIFEST_FILE;

/// A run directory being written: the tracer attached to the run's
/// [`AnalysisSystem`], and the live stream and event log its search
/// feeds.
pub struct RunDir {
    dir: PathBuf,
    tracer: Tracer,
    stream: StreamSink,
    events: EventLog,
}

/// What [`RunDir::finish`] wrote. A decisions or manifest write error
/// never fails a finished search; the caller reports it.
pub struct Finished {
    /// The run's manifest.
    pub manifest: RunManifest,
    /// Why `decisions.jsonl` could not be folded or written.
    pub decisions_error: Option<String>,
    /// Why `manifest.json` could not be written.
    pub manifest_error: Option<String>,
}

impl RunDir {
    /// Create `dir`, attach a fresh tracer to `sys`, and open the live
    /// stream and the event log.
    pub fn create(dir: &Path, sys: &mut AnalysisSystem) -> Result<RunDir, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let tracer = Tracer::new();
        sys.set_tracer(tracer.clone());
        let live = dir.join(LIVE_FILE);
        let stream = StreamSink::to_file(&live, &tracer, StreamOptions::default())
            .map_err(|e| format!("cannot stream to {}: {e}", live.display()))?;
        let events = dir.join(EVENTS_FILE);
        let events = EventLog::to_file(&events)
            .map_err(|e| format!("cannot create event log {}: {e}", events.display()))?;
        Ok(RunDir { dir: dir.to_path_buf(), tracer, stream, events })
    }

    /// The run's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Search hooks feeding this directory, labelling the search `bench`.
    pub fn hooks(&self, bench: String) -> SearchHooks<'_> {
        SearchHooks {
            bench,
            events: Some(&self.events),
            stream: Some(&self.stream),
            ..Default::default()
        }
    }

    /// Add a `search.replaced.<tok>` counter per format, close the live
    /// stream on a last delta and the event log, then write `trace.jsonl`,
    /// `decisions.jsonl` and `manifest.json` for `spec`'s finished search
    /// `rec`. `stamp` carries the manifest fields only the caller knows
    /// (`id`, `trace_id`, `git`, `created_unix`, `wall_us`); the rest
    /// is filled in here. Only a failed `trace.jsonl` is an error.
    pub fn finish(
        self,
        spec: &JobSpec,
        sys: &AnalysisSystem,
        rec: &Recommendation,
        stamp: RunManifest,
    ) -> Result<Finished, String> {
        let RunDir { dir, tracer, stream, events } = self;
        let r = &rec.report;
        for (tok, n) in r.format_breakdown(sys.tree()) {
            tracer.incr(&format!("search.replaced.{tok}"), n as u64);
        }
        stream.close(); // its fold is now `trace.jsonl`
        drop(events); // flushed before any reader sees the run finished
        let write_error = |file: &str, e: std::io::Error| {
            format!("cannot write {}: {e}", dir.join(file).display())
        };
        mptrace::replace_file(dir.join(TRACE_FILE), tracer.snapshot().to_jsonl())
            .map_err(|e| write_error(TRACE_FILE, e))?;
        let decisions_error = fold_events(&dir, rec, sys)
            .and_then(|text| {
                mptrace::replace_file(dir.join(DECISIONS_FILE), text)
                    .map_err(|e| write_error(DECISIONS_FILE, e))
            })
            .err();
        let (lattice, backend) = spec.labels();
        let manifest = RunManifest {
            bench: spec.bench.clone(),
            class: spec.class.clone(),
            backend: backend.to_string(),
            lattice,
            config_hash: registry::fnv1a64(&rec.config_text),
            tol: sys.workload().tol,
            threads: sys.options().search.threads,
            summary: Some(summary_of(r)),
            ..stamp
        };
        let manifest_error = manifest.save(&dir).err().map(|e| write_error(MANIFEST_FILE, e));
        Ok(Finished { manifest, decisions_error, manifest_error })
    }
}

/// `decisions.jsonl` for `rec`: the fold of `dir`'s `events.jsonl`. Any
/// line that does not parse, a torn last one included, is an error, so a
/// damaged log never yields a silently shortened file.
fn fold_events(dir: &Path, rec: &Recommendation, sys: &AnalysisSystem) -> Result<String, String> {
    let path = dir.join(EVENTS_FILE);
    let at = |msg: String| format!("{}: {msg}", path.display());
    let text = std::fs::read_to_string(&path).map_err(|e| at(format!("cannot read: {e}")))?;
    let records = (text.lines().enumerate())
        .map(|(n, line)| Record::parse(line).map_err(|e| at(format!("line {}: {e}", n + 1))))
        .collect::<Result<Vec<_>, _>>()?;
    let folded = decisions::fold(sys.tree(), sys.base_config(), &rec.report.final_config, records);
    Ok(decisions::to_jsonl(&folded))
}

/// Fold a [`SearchReport`] into the manifest's [`RunSummary`].
fn summary_of(r: &SearchReport) -> RunSummary {
    RunSummary {
        candidates: r.candidates,
        tested: r.configs_tested,
        static_pct: r.static_pct,
        dynamic_pct: r.dynamic_pct,
        final_pass: r.final_pass,
        timeouts: r.timeouts,
        crashes: r.crashes,
        retries: r.retries,
        quarantined: r.quarantined,
        pruned_by_shadow: r.pruned_by_shadow,
    }
}

/// A run's trace snapshot, as [`load_snapshot`] found it.
#[derive(Debug)]
pub struct RunSnapshot {
    /// The snapshot.
    pub snap: TraceSnapshot,
    /// `Some(n)` when folded from `n` live deltas for want of a readable
    /// `trace.jsonl`.
    pub folded: Option<usize>,
    /// A tolerated defect (a torn final line, a `trace.jsonl` that did
    /// not parse), prefixed with its path.
    pub warning: Option<String>,
}

/// Load a run's trace snapshot. `path` is a run directory or one of its
/// `trace.jsonl`/`live.jsonl` files. A directory's `trace.jsonl` wins
/// when it parses; otherwise its `live.jsonl` is folded (a running or
/// crashed run has only the stream). A stream with no delta yet is an
/// error: its empty snapshot would look like a run that did nothing.
pub fn load_snapshot(path: &Path) -> Result<RunSnapshot, String> {
    let at = |p: &Path, msg: &str| format!("{}: {msg}", p.display());
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let trace = |p: &Path| {
        let (snap, warn) = TraceSnapshot::parse_tolerant(&read(p)?).map_err(|e| at(p, &e))?;
        Ok(RunSnapshot { snap, folded: None, warning: warn.map(|w| at(p, &w)) })
    };
    let live = |p: &Path, skipped: Option<String>| {
        let log = LiveLog::parse_tolerant(&read(p)?).map_err(|e| at(p, &e))?;
        if log.deltas.is_empty() {
            return Err(at(p, "no trace delta yet"));
        }
        let torn = log.warning.as_ref().map(|w| at(p, w));
        let warning = [skipped, torn].into_iter().flatten().reduce(|a, b| format!("{a}; {b}"));
        Ok(RunSnapshot { snap: log.final_snapshot(), folded: Some(log.deltas.len()), warning })
    };
    if !path.is_dir() {
        return if path.ends_with(LIVE_FILE) { live(path, None) } else { trace(path) };
    }
    let (t, l) = (path.join(TRACE_FILE), path.join(LIVE_FILE));
    let skipped = match t.is_file().then(|| trace(&t)) {
        Some(Ok(run)) => return Ok(run),
        Some(Err(e)) => Some(e),
        None => None,
    };
    if l.is_file() {
        return live(&l, skipped);
    }
    Err(skipped.unwrap_or_else(|| at(path, &format!("no {TRACE_FILE} or {LIVE_FILE}"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rundir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_with(counter: &str) -> TraceSnapshot {
        let t = Tracer::new();
        t.incr(counter, 3);
        t.snapshot()
    }

    #[test]
    fn trace_wins_over_live_and_a_bad_trace_falls_back_to_live() {
        let dir = scratch("fallback");
        assert!(load_snapshot(&dir).unwrap_err().contains("no trace.jsonl or live.jsonl"));

        // A live stream with one delta.
        let t = Tracer::new();
        let sink = StreamSink::to_file(dir.join(LIVE_FILE), &t, StreamOptions::default()).unwrap();
        t.incr("live.only", 1);
        sink.force(&Default::default());
        drop(sink);
        let folded = load_snapshot(&dir).unwrap();
        assert_eq!(folded.folded, Some(1));
        assert!(folded.snap.counters.contains_key("live.only"));

        std::fs::write(dir.join(TRACE_FILE), snapshot_with("trace.only").to_jsonl()).unwrap();
        let read = load_snapshot(&dir).unwrap();
        assert_eq!((read.folded, read.warning), (None, None));
        assert!(read.snap.counters.contains_key("trace.only"));

        std::fs::write(dir.join(TRACE_FILE), "not a trace\n").unwrap();
        let fell_back = load_snapshot(&dir).unwrap();
        assert!(fell_back.snap.counters.contains_key("live.only"));
        assert!(fell_back.warning.unwrap().contains("trace.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_event_log_fails_the_decisions_not_the_run() {
        let dir = scratch("corrupt-events");
        let spec = JobSpec {
            bench: "vecops".into(),
            class: "s".into(),
            threads: Some(1),
            ..Default::default()
        };
        let mut sys =
            AnalysisSystem::with_options(spec.workload().unwrap(), spec.options().unwrap());
        let run = RunDir::create(&dir, &mut sys).unwrap();
        let rec = sys.recommend_with(&run.hooks("vecops.s".into()));
        // The search flushed its log at `search_finished`: break a line
        // in the middle of it.
        let events = dir.join(EVENTS_FILE);
        let text = std::fs::read_to_string(&events).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let mid = lines.len() / 2;
        lines[mid] = "{\"ev\":\"decision\",\"t_us\":";
        std::fs::write(&events, lines.join("\n") + "\n").unwrap();

        let done = run.finish(&spec, &sys, &rec, RunManifest::default()).unwrap();
        let err = done.decisions_error.expect("a corrupt event log must fail the fold");
        assert!(err.contains(&format!("line {}", mid + 1)), "{err}");
        assert!(!dir.join(DECISIONS_FILE).exists(), "no partial decisions.jsonl");
        assert!(dir.join(TRACE_FILE).is_file());
        assert_eq!(done.manifest_error, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stream_without_deltas_has_no_snapshot() {
        let dir = scratch("empty-live");
        let t = Tracer::new();
        drop(StreamSink::to_file(dir.join(LIVE_FILE), &t, StreamOptions::default()).unwrap());
        assert!(load_snapshot(&dir).unwrap_err().contains("no trace delta"));
        assert!(load_snapshot(&dir.join(LIVE_FILE)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The run directory: what one tuning run leaves on disk. `craft analyze
//! --trace=DIR` and every `craftd` job write it through [`RunDir`], and
//! every reader of its trace folds it back through [`load_snapshot`].
//!
//! During the search [`RunDir::create`] streams `live.jsonl` and appends
//! `events.jsonl`; [`RunDir::finish`] then ends the stream on the final
//! trace and writes `decisions.jsonl` (the fold of `events.jsonl`) and
//! `manifest.json`, each replaced atomically ([`mptrace::replace_file`])
//! so a concurrent reader never sees a partial document. The run's trace
//! is the fold of `live.jsonl`; no other file holds it. Callers keep
//! only what is theirs: the CLI its `git describe` and stderr notes, the
//! daemon its `trace:<id>` span, shared cache, thread gate and quotas.

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
    /// The run's trace: the snapshot `live.jsonl` closed on.
    pub snapshot: TraceSnapshot,
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
    /// stream on a last delta and the event log, then write
    /// `decisions.jsonl` and `manifest.json` for `spec`'s finished search
    /// `rec`. `stamp` carries the manifest fields only the caller knows
    /// (`id`, `trace_id`, `git`, `created_unix`, `wall_us`); the rest
    /// is filled in here.
    pub fn finish(
        self,
        spec: &JobSpec,
        sys: &AnalysisSystem,
        rec: &Recommendation,
        stamp: RunManifest,
    ) -> Finished {
        let RunDir { dir, tracer, stream, events } = self;
        let r = &rec.report;
        for (tok, n) in r.format_breakdown(sys.tree()) {
            tracer.incr(&format!("search.replaced.{tok}"), n as u64);
        }
        let snapshot = stream.close();
        drop(events); // flushed before any reader sees the run finished
        let write_error = |file: &str, e: std::io::Error| {
            format!("cannot write {}: {e}", dir.join(file).display())
        };
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
        Finished { manifest, snapshot, decisions_error, manifest_error }
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

/// A run's trace snapshot, as [`load_snapshot`] folded it.
#[derive(Debug)]
pub struct RunSnapshot {
    /// The snapshot.
    pub snap: TraceSnapshot,
    /// A tolerated torn final line, prefixed with its path.
    pub warning: Option<String>,
}

/// Load a run's trace snapshot: the fold of `path`'s `live.jsonl` when
/// `path` is a run directory, else of the stream file `path` itself. A
/// running or crashed run folds to what it had streamed so far. A stream
/// with no delta yet is an error: its empty snapshot would look like a
/// run that did nothing.
pub fn load_snapshot(path: &Path) -> Result<RunSnapshot, String> {
    let live = if path.is_dir() { path.join(LIVE_FILE) } else { path.to_path_buf() };
    let at = |msg: &str| format!("{}: {msg}", live.display());
    let text = std::fs::read_to_string(&live)
        .map_err(|e| format!("cannot read {}: {e}", live.display()))?;
    let log = LiveLog::parse_tolerant(&text).map_err(|e| at(&e))?;
    if log.deltas.is_empty() {
        return Err(at("no trace delta yet"));
    }
    Ok(RunSnapshot { snap: log.final_snapshot(), warning: log.warning.as_deref().map(at) })
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

    #[test]
    fn a_run_directory_folds_its_live_stream() {
        let dir = scratch("fold");
        assert!(load_snapshot(&dir).unwrap_err().contains("cannot read"));

        let t = Tracer::new();
        let sink = StreamSink::to_file(dir.join(LIVE_FILE), &t, StreamOptions::default()).unwrap();
        t.incr("live.only", 1);
        sink.force(&Default::default());
        t.incr("at.close", 0);
        assert_eq!(sink.close(), t.snapshot());
        for path in [dir.clone(), dir.join(LIVE_FILE)] {
            let run = load_snapshot(&path).unwrap();
            assert_eq!((run.snap, run.warning), (t.snapshot(), None));
        }
        // A crash mid-write tears the last line: the prefix still folds.
        let mut live = std::fs::OpenOptions::new().append(true).open(dir.join(LIVE_FILE)).unwrap();
        std::io::Write::write_all(&mut live, b"{\"kind\":\"delta\",\"seq\":9,").unwrap();
        let torn = load_snapshot(&dir).unwrap();
        assert_eq!(torn.snap, t.snapshot());
        assert!(torn.warning.unwrap().contains("live.jsonl: line"));
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

        let done = run.finish(&spec, &sys, &rec, RunManifest::default());
        let err = done.decisions_error.expect("a corrupt event log must fail the fold");
        assert!(err.contains(&format!("line {}", mid + 1)), "{err}");
        assert!(!dir.join(DECISIONS_FILE).exists(), "no partial decisions.jsonl");
        assert_eq!(load_snapshot(&dir).unwrap().snap, done.snapshot);
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

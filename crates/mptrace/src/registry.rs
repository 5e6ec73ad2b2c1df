//! Persistent cross-run registry: per-run manifests plus an append-only
//! index.
//!
//! Every traced run directory gains a `manifest.json` describing what
//! ran (program, config hash, tolerance, threads, git describe) and how
//! it went (wall time, final search summary, bench baselines). A
//! [`Registry`] — `~/.craft/runs` by default, overridable with
//! `--registry DIR` or `CRAFT_REGISTRY` — records one line per run in
//! `index.jsonl`, giving `craft runs` / `craft compare latest` and the
//! bench gate a durable, greppable history across working trees.

use crate::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

crate::record! {
    /// Final [`SearchReport`](https://docs.rs) figures worth keeping after
    /// the run directory itself is gone.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunSummary {
        /// Candidate instructions considered.
        pub candidates: usize,
        /// Configurations evaluated.
        pub tested: usize,
        /// Static percentage of instructions lowered to single precision.
        pub static_pct: f64,
        /// Dynamic (execution-weighted) percentage lowered.
        pub dynamic_pct: f64,
        /// Whether the final recommended configuration verified.
        pub final_pass: bool,
        /// Evaluations that timed out.
        pub timeouts: usize,
        /// Evaluations that crashed.
        pub crashes: usize,
        /// Evaluation retries.
        pub retries: usize,
        /// Configurations quarantined after repeated faults.
        pub quarantined: usize,
        /// Configurations pruned by the shadow-value analysis.
        pub pruned_by_shadow: usize,
    }
}

crate::record! {
    /// `manifest.json`: the identity and outcome of one run.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RunManifest {
        /// Registry-unique run id (`{bench}-{unix}-{pid}-{n}`).
        pub id: String,
        /// Benchmark/program name (e.g. `"ep"`).
        pub bench: String,
        /// Workload class (e.g. `"s"`).
        pub class: String,
        /// Execution backend the run used (`interp`/`fast`/`compiled`;
        /// empty in manifests from before backends existed). `craft
        /// compare` warns when two runs differ here: their cycle counts are
        /// identical by construction, but wall-clock figures are not
        /// comparable across backends.
        pub backend: String [default],
        /// Precision lattice the search descended, as comma-joined flag
        /// tokens (e.g. `"s,h,b"`). Empty means the classic two-level
        /// double/single search — both in new classic runs and in manifests
        /// written before the lattice existed.
        pub lattice: String [default],
        /// Cross-process trace/request id (`x-craft-trace`) that caused
        /// this run, as minted by `craft submit` or the daemon's intake.
        /// Empty for in-process runs and for manifests from before trace
        /// propagation existed — the id stitches one client request to the
        /// daemon log line, the job record, and the run-dir spans.
        pub trace_id: String [default],
        /// FNV-1a hash of the final configuration text, hex.
        pub config_hash: String,
        /// Verification tolerance used.
        pub tol: f64,
        /// Worker threads used by the search.
        pub threads: usize,
        /// `git describe --always --dirty` at run time (empty if
        /// unavailable).
        pub git: String,
        /// Unix seconds when the run started.
        pub created_unix: u64,
        /// Total wall time of the run, microseconds.
        pub wall_us: u64,
        /// Final search summary (`null`, or absent, if the run died
        /// before reporting).
        pub summary: Option<RunSummary> [default],
        /// Per-bench `min_ns` baselines recorded by `bench_gate --record`.
        pub bench_min_ns: BTreeMap<String, f64> [default],
    }
}

/// File name of a run manifest inside its run directory.
pub const MANIFEST_FILE: &str = "manifest.json";

impl RunManifest {
    /// Write `manifest.json` into `run_dir`.
    pub fn save(&self, run_dir: impl AsRef<Path>) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        crate::replace_file(run_dir.as_ref().join(MANIFEST_FILE), text)
    }

    /// Read `run_dir/manifest.json`, if present.
    pub fn load(run_dir: impl AsRef<Path>) -> Result<Option<RunManifest>, String> {
        let path = run_dir.as_ref().join(MANIFEST_FILE);
        match std::fs::read_to_string(&path) {
            Ok(text) => RunManifest::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

crate::record! {
    /// One line of the registry's `index.jsonl`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IndexEntry {
        /// Run id (matches the run's manifest).
        pub id: String,
        /// Absolute path of the run directory at record time.
        pub path: PathBuf,
        /// Benchmark name.
        pub bench: String,
        /// Unix seconds when the run started.
        pub created_unix: u64,
        /// Run wall time, microseconds.
        pub wall_us: u64,
        /// Whether the final configuration verified.
        pub final_pass: bool,
    }
}

/// A registry directory holding `index.jsonl`.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

/// Process-wide run counter, for id uniqueness within one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Allocate a fresh run id: `{bench}-{unix}-{pid}-{n}`.
pub fn new_run_id(bench: &str, created_unix: u64) -> String {
    let n = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{bench}-{created_unix}-{}-{n}", std::process::id())
}

/// Unix seconds now (0 if the clock is before the epoch).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// FNV-1a (64-bit) over `text`, rendered as 16 hex digits. Used for the
/// manifest's `config_hash`.
pub fn fnv1a64(text: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

impl Registry {
    /// Open (creating if needed) a registry at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Registry> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Registry { dir })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Resolve the registry directory: `explicit` flag, then the
    /// `CRAFT_REGISTRY` environment variable, then `$HOME/.craft/runs`.
    /// Returns `None` when nothing resolves (e.g. `HOME` unset).
    pub fn resolve(explicit: Option<&str>) -> Option<PathBuf> {
        if let Some(d) = explicit {
            return Some(PathBuf::from(d));
        }
        if let Ok(d) = std::env::var("CRAFT_REGISTRY") {
            if !d.is_empty() {
                return Some(PathBuf::from(d));
            }
        }
        std::env::var_os("HOME").map(|h| PathBuf::from(h).join(".craft").join("runs"))
    }

    /// Append one run to `index.jsonl`.
    pub fn record(&self, manifest: &RunManifest, run_dir: impl AsRef<Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = run_dir.as_ref();
        let entry = IndexEntry {
            id: manifest.id.clone(),
            path: std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()),
            bench: manifest.bench.clone(),
            created_unix: manifest.created_unix,
            wall_us: manifest.wall_us,
            final_pass: manifest.summary.as_ref().is_some_and(|s| s.final_pass),
        };
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("index.jsonl"))?;
        writeln!(f, "{}", entry.to_json())
    }

    /// All recorded runs in record order, tolerating a truncated final
    /// index line. Returns `(entries, warning)`.
    pub fn entries(&self) -> Result<(Vec<IndexEntry>, Option<String>), String> {
        let path = self.dir.join("index.jsonl");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), None));
            }
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        json::read_jsonl(&text)
    }

    /// The most recently recorded run, optionally restricted to one
    /// bench.
    pub fn latest(&self, bench: Option<&str>) -> Result<Option<IndexEntry>, String> {
        let (entries, _) = self.entries()?;
        Ok(entries.into_iter().rev().find(|e| bench.is_none_or(|b| e.bench == b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(id: &str, bench: &str, pass: bool) -> RunManifest {
        RunManifest {
            id: id.into(),
            bench: bench.into(),
            class: "s".into(),
            backend: "compiled".into(),
            lattice: "s,h,b".into(),
            trace_id: "tr-1700000000-1-0".into(),
            config_hash: fnv1a64("double main()"),
            tol: 1e-6,
            threads: 4,
            git: "abc1234-dirty".into(),
            created_unix: 1_700_000_000,
            wall_us: 123_456,
            summary: Some(RunSummary {
                candidates: 20,
                tested: 55,
                static_pct: 40.0,
                dynamic_pct: 61.5,
                final_pass: pass,
                timeouts: 1,
                crashes: 0,
                retries: 2,
                quarantined: 0,
                pruned_by_shadow: 7,
            }),
            bench_min_ns: [("interp/ep.orig.fast".to_string(), 1234.5f64)].into(),
        }
    }

    #[test]
    fn manifest_round_trip_is_byte_exact() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), text);
        // No summary (crashed run) round-trips too.
        let m = RunManifest { summary: None, ..m };
        assert_eq!(RunManifest::parse(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn legacy_manifest_without_backend_parses_with_empty_backend() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Simulate a manifest written before the compiled backend existed.
        let legacy = text.replace(",\"backend\":\"compiled\"", "");
        assert!(!legacy.contains("backend"));
        let back = RunManifest::parse(&legacy).unwrap();
        assert_eq!(back.backend, "");
        assert_eq!(RunManifest { backend: String::new(), ..m }, back);
    }

    #[test]
    fn legacy_manifest_without_lattice_parses_as_classic() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Simulate a manifest written before the precision lattice.
        let legacy = text.replace(",\"lattice\":\"s,h,b\"", "");
        assert!(!legacy.contains("lattice"));
        let back = RunManifest::parse(&legacy).unwrap();
        assert_eq!(back.lattice, "");
        assert_eq!(RunManifest { lattice: String::new(), ..m }, back);
    }

    #[test]
    fn legacy_manifest_without_trace_id_parses_with_empty_trace() {
        let m = manifest("ep-1700000000-1-0", "ep", true);
        let text = m.to_json();
        // Simulate a manifest written before trace propagation.
        let legacy = text.replace(",\"trace_id\":\"tr-1700000000-1-0\"", "");
        assert!(!legacy.contains("trace_id"));
        let back = RunManifest::parse(&legacy).unwrap();
        assert_eq!(back.trace_id, "");
        assert_eq!(RunManifest { trace_id: String::new(), ..m }, back);
    }

    #[test]
    fn manifest_rejects_fractional_counts() {
        let text = manifest("ep-1700000000-1-0", "ep", true).to_json();
        let bad = text.replace(r#""threads":4"#, r#""threads":2.5"#);
        assert_ne!(bad, text);
        let err = RunManifest::parse(&bad).unwrap_err();
        assert!(err.contains("\"threads\""), "{err}");
    }

    #[test]
    fn save_load_and_index_round_trip() {
        let dir = std::env::temp_dir().join(format!("mptrace-reg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run_a = dir.join("runs").join("a");
        let run_b = dir.join("runs").join("b");
        std::fs::create_dir_all(&run_a).unwrap();
        std::fs::create_dir_all(&run_b).unwrap();

        let ma = manifest("ep-1-1-0", "ep", true);
        let mb = manifest("cg-2-1-1", "cg", false);
        ma.save(&run_a).unwrap();
        mb.save(&run_b).unwrap();
        assert_eq!(RunManifest::load(&run_a).unwrap().unwrap(), ma);
        assert_eq!(RunManifest::load(dir.join("missing")).unwrap(), None);

        let reg = Registry::open(dir.join("registry")).unwrap();
        reg.record(&ma, &run_a).unwrap();
        reg.record(&mb, &run_b).unwrap();
        let (entries, warn) = reg.entries().unwrap();
        assert!(warn.is_none());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "ep-1-1-0");
        assert!(entries[0].final_pass);
        assert!(!entries[1].final_pass);
        assert_eq!(reg.latest(None).unwrap().unwrap().id, "cg-2-1-1");
        assert_eq!(reg.latest(Some("ep")).unwrap().unwrap().id, "ep-1-1-0");
        assert_eq!(reg.latest(Some("nope")).unwrap(), None);

        // A torn final index line is tolerated with a warning.
        let idx = reg.dir().join("index.jsonl");
        let mut text = std::fs::read_to_string(&idx).unwrap();
        text.push_str("{\"id\":\"torn");
        std::fs::write(&idx, text).unwrap();
        let (entries, warn) = reg.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(warn.is_some());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_ids_are_unique_and_hash_is_stable() {
        assert_ne!(new_run_id("ep", 5), new_run_id("ep", 5));
        assert_eq!(fnv1a64(""), "cbf29ce484222325");
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
    }
}

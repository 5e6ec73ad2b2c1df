//! Job specifications: the wire format through which `craftd` (and any
//! other out-of-process driver) requests a tuning run.
//!
//! A [`JobSpec`] is the serializable twin of [`AnalysisOptions`] plus
//! the workload selector: benchmark, input class, verification
//! tolerance, execution backend, and the search/rewrite switches the
//! `craft analyze` CLI exposes as flags. It round-trips through the
//! repo's hand-rolled JSON (`mptrace::json`), with every field except
//! `bench` optional so a minimal `{"bench":"ep","class":"s"}` body is a
//! complete job.
//!
//! The benchmark table ([`BENCHES`], [`build_workload`],
//! [`parse_class`]) lives here too, shared by the CLI and the daemon so
//! the two can never drift apart on what a bench name means.

use crate::{AnalysisOptions, ShadowOptions};
use instrument::RewriteOptions;
use mpsearch::{ExecPolicy, SearchOptions, StopDepth};
use mptrace::json::{self, Value};
use std::time::Duration;
use workloads::{Class, Workload};

/// Every benchmark the system can build, by CLI/job name.
pub const BENCHES: &[&str] =
    &["bt", "cg", "ep", "ft", "lu", "mg", "sp", "amg", "slu", "mathmix", "vecops"];

/// Build a named benchmark workload, or explain which names exist.
pub fn build_workload(bench: &str, class: Class) -> Result<Workload, String> {
    Ok(match bench {
        "bt" => workloads::nas::bt(class),
        "cg" => workloads::nas::cg(class),
        "ep" => workloads::nas::ep(class),
        "ft" => workloads::nas::ft(class),
        "lu" => workloads::nas::lu(class),
        "mg" => workloads::nas::mg(class),
        "sp" => workloads::nas::sp(class),
        "amg" => workloads::amg::amg(class),
        "slu" => workloads::slu::slu(class).wl,
        "mathmix" => workloads::mathmix::mathmix(class, workloads::mathmix::LibmKind::Intrinsic),
        "vecops" => workloads::vecops::vecops(class),
        other => {
            return Err(format!("unknown benchmark `{other}` (known: {})", BENCHES.join(", ")))
        }
    })
}

/// Parse a one-letter input-class name (`s|w|a|c`).
pub fn parse_class(s: &str) -> Result<Class, String> {
    match s {
        "s" => Ok(Class::S),
        "w" => Ok(Class::W),
        "a" => Ok(Class::A),
        "c" => Ok(Class::C),
        other => Err(format!("unknown class `{other}` (expected s|w|a|c)")),
    }
}

/// A serializable tuning-job request. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark name (see [`BENCHES`]).
    pub bench: String,
    /// Input-class letter (`s|w|a|c`); defaults to `w` like the CLI.
    pub class: String,
    /// Execution backend (`interp|fast|compiled`); empty = default.
    pub backend: String,
    /// Precision lattice spec: comma-joined replacement-flag tokens
    /// (e.g. `"s,h"` or `"s,b,m5e6"`), the levels the search descends
    /// through in order. Empty = the classic single-only search.
    pub lattice: String,
    /// Verification-tolerance override; `None` keeps the workload's own.
    pub tol: Option<f64>,
    /// Worker threads; `None` = [`SearchOptions::default_threads`].
    pub threads: Option<usize>,
    /// Stop depth letter (`f|b|i`); empty = instruction.
    pub stop_depth: String,
    /// Run the §3.1 second search phase.
    pub second_phase: bool,
    /// Binary splitting (default on).
    pub binary_split: bool,
    /// Profile prioritization (default on).
    pub prioritize: bool,
    /// Lean rewriting (`--lean`).
    pub lean: bool,
    /// Shadow-guided queue ordering.
    pub shadow_priority: bool,
    /// Shadow-guided pruning.
    pub shadow_prune: bool,
    /// Evaluation budget; `None` = unbounded.
    pub max_tests: Option<usize>,
    /// Per-evaluation fuel quota (instructions); `None` = the
    /// evaluator's derived budget only.
    pub fuel_limit: Option<u64>,
    /// Per-evaluation wall-clock quota in milliseconds.
    pub wall_limit_ms: Option<u64>,
    /// Arm the numerical-health observer: one extra observed run of the
    /// final configuration whose `fp.*` event counters join the job's
    /// metrics (see [`AnalysisOptions::num_health`]).
    pub num_health: bool,
    /// Test drill: panic inside the job runner after the search starts,
    /// exercising the daemon's crashed-job isolation path.
    pub inject_runner_panic: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            bench: String::new(),
            class: "w".into(),
            backend: String::new(),
            lattice: String::new(),
            tol: None,
            threads: None,
            stop_depth: String::new(),
            second_phase: false,
            binary_split: true,
            prioritize: true,
            lean: false,
            shadow_priority: false,
            shadow_prune: false,
            max_tests: None,
            fuel_limit: None,
            wall_limit_ms: None,
            num_health: false,
            inject_runner_panic: false,
        }
    }
}

impl JobSpec {
    /// Serialize to one JSON object (the `POST /jobs` body format).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\"bench\":");
        json::esc(&mut o, &self.bench);
        o.push_str(",\"class\":");
        json::esc(&mut o, &self.class);
        if !self.backend.is_empty() {
            o.push_str(",\"backend\":");
            json::esc(&mut o, &self.backend);
        }
        if !self.lattice.is_empty() {
            o.push_str(",\"lattice\":");
            json::esc(&mut o, &self.lattice);
        }
        if let Some(t) = self.tol {
            o.push_str(&format!(",\"tol\":{t:e}"));
        }
        if let Some(t) = self.threads {
            o.push_str(&format!(",\"threads\":{t}"));
        }
        if !self.stop_depth.is_empty() {
            o.push_str(",\"stop_depth\":");
            json::esc(&mut o, &self.stop_depth);
        }
        for (key, val, default) in [
            ("second_phase", self.second_phase, false),
            ("binary_split", self.binary_split, true),
            ("prioritize", self.prioritize, true),
            ("lean", self.lean, false),
            ("shadow_priority", self.shadow_priority, false),
            ("shadow_prune", self.shadow_prune, false),
            ("num_health", self.num_health, false),
            ("inject_runner_panic", self.inject_runner_panic, false),
        ] {
            if val != default {
                o.push_str(&format!(",\"{key}\":{val}"));
            }
        }
        if let Some(m) = self.max_tests {
            o.push_str(&format!(",\"max_tests\":{m}"));
        }
        if let Some(f) = self.fuel_limit {
            o.push_str(&format!(",\"fuel_limit\":{f}"));
        }
        if let Some(w) = self.wall_limit_ms {
            o.push_str(&format!(",\"wall_limit_ms\":{w}"));
        }
        o.push('}');
        o
    }

    /// Parse a `POST /jobs` body. Unknown fields are ignored; absent
    /// fields take their defaults; a missing/empty `bench` is an error.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let v = json::parse(text)?;
        let str_of = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let bool_of = |k: &str, d: bool| v.get(k).and_then(Value::as_bool).unwrap_or(d);
        let d = JobSpec::default();
        let spec = JobSpec {
            bench: str_of("bench").unwrap_or_default(),
            class: str_of("class").unwrap_or(d.class),
            backend: str_of("backend").unwrap_or_default(),
            lattice: str_of("lattice").unwrap_or_default(),
            tol: v.get("tol").and_then(Value::as_f64),
            threads: v.get("threads").and_then(Value::as_u64).map(|n| n as usize),
            stop_depth: str_of("stop_depth").unwrap_or_default(),
            second_phase: bool_of("second_phase", false),
            binary_split: bool_of("binary_split", true),
            prioritize: bool_of("prioritize", true),
            lean: bool_of("lean", false),
            shadow_priority: bool_of("shadow_priority", false),
            shadow_prune: bool_of("shadow_prune", false),
            max_tests: v.get("max_tests").and_then(Value::as_u64).map(|n| n as usize),
            fuel_limit: v.get("fuel_limit").and_then(Value::as_u64),
            wall_limit_ms: v.get("wall_limit_ms").and_then(Value::as_u64),
            num_health: bool_of("num_health", false),
            inject_runner_panic: bool_of("inject_runner_panic", false),
        };
        if spec.bench.is_empty() {
            return Err("job spec is missing `bench`".into());
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Check every enumerated field without building anything.
    pub fn validate(&self) -> Result<(), String> {
        if !BENCHES.contains(&self.bench.as_str()) {
            return Err(format!(
                "unknown benchmark `{}` (known: {})",
                self.bench,
                BENCHES.join(", ")
            ));
        }
        parse_class(&self.class)?;
        self.backend()?;
        if !self.lattice.is_empty() {
            mpconfig::parse_lattice(&self.lattice)?;
        }
        if !matches!(self.stop_depth.as_str(), "" | "f" | "b" | "i") {
            return Err(format!("unknown stop depth `{}` (expected f|b|i)", self.stop_depth));
        }
        if let Some(t) = self.tol {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!("tolerance must be a positive finite number, got {t}"));
            }
        }
        Ok(())
    }

    /// The run's canonical `(lattice, backend)` labels, as manifests
    /// and `/metrics` record them: the lattice spelt by
    /// [`mpconfig::lattice_tokens`] (`"s, m10e5"` is `"s,h"`; empty for
    /// the classic search) and the backend's [`fpvm::Backend::name`].
    pub fn labels(&self) -> (String, &'static str) {
        let lattice = match mpconfig::parse_lattice(&self.lattice) {
            Ok(levels) => mpconfig::lattice_tokens(&levels),
            Err(_) => self.lattice.clone(),
        };
        (lattice, self.backend().unwrap_or_default().name())
    }

    fn backend(&self) -> Result<fpvm::Backend, String> {
        if self.backend.is_empty() {
            return Ok(fpvm::Backend::default());
        }
        fpvm::Backend::parse(&self.backend)
            .ok_or_else(|| format!("unknown backend `{}` (interp|fast|compiled)", self.backend))
    }

    /// Build the workload, applying the tolerance override if any.
    pub fn workload(&self) -> Result<Workload, String> {
        let mut w = build_workload(&self.bench, parse_class(&self.class)?)?;
        if let Some(t) = self.tol {
            w.tol = t;
        }
        Ok(w)
    }

    /// Map the spec to concrete [`AnalysisOptions`].
    pub fn options(&self) -> Result<AnalysisOptions, String> {
        self.validate()?;
        let backend = self.backend()?;
        let stop_depth = match self.stop_depth.as_str() {
            "f" => StopDepth::Function,
            "b" => StopDepth::Block,
            _ => StopDepth::Instruction,
        };
        let lattice = if self.lattice.is_empty() {
            SearchOptions::default().lattice
        } else {
            mpconfig::parse_lattice(&self.lattice)?
        };
        Ok(AnalysisOptions {
            search: SearchOptions {
                threads: self.threads.unwrap_or_else(SearchOptions::default_threads),
                stop_depth,
                binary_split: self.binary_split,
                prioritize: self.prioritize,
                second_phase: self.second_phase,
                max_tests: self.max_tests,
                lattice,
                exec: ExecPolicy {
                    fuel_limit: self.fuel_limit,
                    wall_limit: self.wall_limit_ms.map(Duration::from_millis),
                },
                ..Default::default()
            },
            rewrite: RewriteOptions { lean: self.lean, ..Default::default() },
            shadow: ShadowOptions {
                prioritize: self.shadow_priority,
                prune: self.shadow_prune,
                ..Default::default()
            },
            backend,
            num_health: self.num_health,
        })
    }

    /// Cache namespace for the cross-job evaluation cache: everything
    /// that deterministically changes an evaluation's verdict for a
    /// given replaced-instruction set — program identity (bench +
    /// class), tolerance, rewrite shape, fuel quota, and backend.
    /// The lattice is *not* part of the namespace: cache keys already
    /// encode each instruction's target format, so jobs with different
    /// lattices share any overlapping trials.
    /// Wall-clock quotas are deliberately excluded: a timeout verdict is
    /// machine noise, and the daemon never caches non-pass/fail
    /// outcomes anyway.
    pub fn cache_namespace(&self) -> String {
        format!(
            "{}.{}|tol={}|lean={}|fuel={}|backend={}",
            self.bench,
            self.class,
            self.tol.map(|t| format!("{t:e}")).unwrap_or_else(|| "default".into()),
            self.lean,
            self.fuel_limit.map(|f| f.to_string()).unwrap_or_else(|| "default".into()),
            if self.backend.is_empty() { "default" } else { &self.backend },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_body_round_trips() {
        let spec = JobSpec::parse(r#"{"bench":"ep","class":"s"}"#).unwrap();
        assert_eq!(spec.bench, "ep");
        assert_eq!(spec.class, "s");
        assert!(spec.binary_split && spec.prioritize);
        let again = JobSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn full_body_round_trips() {
        let spec = JobSpec {
            bench: "cg".into(),
            class: "s".into(),
            backend: "fast".into(),
            lattice: "s,h,m5e6".into(),
            tol: Some(1e-8),
            threads: Some(3),
            stop_depth: "b".into(),
            second_phase: true,
            binary_split: false,
            prioritize: false,
            lean: true,
            shadow_priority: true,
            shadow_prune: true,
            max_tests: Some(40),
            fuel_limit: Some(1_000_000),
            wall_limit_ms: Some(5_000),
            num_health: true,
            inject_runner_panic: true,
        };
        let again = JobSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(JobSpec::parse(r#"{"class":"s"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"nope"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","class":"z"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","backend":"gpu"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","tol":-1.0}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","lattice":"s,x"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","lattice":"s,d"}"#).is_err());
        assert!(JobSpec::parse("not json").is_err());
    }

    #[test]
    fn options_reflect_the_spec() {
        let spec = JobSpec {
            bench: "ep".into(),
            class: "s".into(),
            stop_depth: "f".into(),
            threads: Some(2),
            wall_limit_ms: Some(250),
            ..Default::default()
        };
        let o = spec.options().unwrap();
        assert_eq!(o.search.threads, 2);
        assert!(matches!(o.search.stop_depth, StopDepth::Function));
        assert_eq!(o.search.exec.wall_limit, Some(Duration::from_millis(250)));
        // Default lattice is the classic single-only descent.
        assert_eq!(o.search.lattice, vec![mpconfig::Flag::Single]);
        let w = spec.workload().unwrap();
        assert_eq!(w.name, "ep");
        let deep = JobSpec { lattice: "s,b".into(), ..spec };
        let o = deep.options().unwrap();
        assert_eq!(o.search.lattice, vec![mpconfig::Flag::Single, mpconfig::Flag::Bf16]);
    }

    #[test]
    fn labels_are_canonical() {
        let spec = JobSpec { bench: "ep".into(), lattice: "s, m10e5".into(), ..Default::default() };
        assert_eq!(spec.labels(), ("s,h".to_string(), fpvm::Backend::default().name()));
        let classic = JobSpec { backend: "interp".into(), lattice: String::new(), ..spec };
        assert_eq!(classic.labels(), (String::new(), "interp"));
    }

    #[test]
    fn namespace_separates_semantically_different_jobs() {
        let a = JobSpec { bench: "ep".into(), class: "s".into(), ..Default::default() };
        let mut b = a.clone();
        assert_eq!(a.cache_namespace(), b.cache_namespace());
        b.tol = Some(1e-3);
        assert_ne!(a.cache_namespace(), b.cache_namespace());
        let mut c = a.clone();
        c.lean = true;
        assert_ne!(a.cache_namespace(), c.cache_namespace());
        // Purely schedule-shaping knobs do not split the cache.
        let mut d = a.clone();
        d.threads = Some(7);
        d.wall_limit_ms = Some(9);
        assert_eq!(a.cache_namespace(), d.cache_namespace());
    }
}

//! Job specifications: the wire format through which `craftd` (and any
//! other out-of-process driver) requests a tuning run.
//!
//! A [`JobSpec`] is the serializable twin of [`AnalysisOptions`] plus
//! the workload selector: benchmark, input class, verification
//! tolerance, execution backend, and the search switches the
//! `craft analyze` CLI exposes as flags. It round-trips through the
//! repo's hand-rolled JSON (`mptrace::json`), with every field except
//! `bench` optional so a minimal `{"bench":"ep","class":"s"}` body is a
//! complete job. Each field present is read through its type's
//! [`Wire`] reader, so `"threads":2.7` or `"tol":"1e-3"` is an error
//! naming the field, never a rounded or default value.
//!
//! The benchmark table ([`BENCHES`], [`build_workload`],
//! [`parse_class`]) lives here too, shared by the CLI and the daemon so
//! the two can never drift apart on what a bench name means.

use crate::AnalysisOptions;
use mpsearch::{ExecPolicy, SearchOptions, StopDepth};
use mptrace::json::{self, Value, Wire};
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
    /// Execution backend (`interp|compiled`); empty = default.
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
    /// fields take their defaults; a field that does not read as its
    /// type, or a missing/empty `bench`, is an error.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        /// The field `key` of `v`, or `default` when it is absent.
        fn field<T: Wire>(v: &Value, key: &str, default: T) -> Result<T, String> {
            match v.get(key) {
                None => Ok(default),
                Some(x) => T::read(x).ok_or_else(|| format!("job spec: malformed `{key}`")),
            }
        }
        let v = json::parse(text)?;
        let d = JobSpec::default();
        let spec = JobSpec {
            bench: field(&v, "bench", d.bench)?,
            class: field(&v, "class", d.class)?,
            backend: field(&v, "backend", d.backend)?,
            lattice: field(&v, "lattice", d.lattice)?,
            tol: field(&v, "tol", d.tol)?,
            threads: field(&v, "threads", d.threads)?,
            stop_depth: field(&v, "stop_depth", d.stop_depth)?,
            second_phase: field(&v, "second_phase", d.second_phase)?,
            binary_split: field(&v, "binary_split", d.binary_split)?,
            prioritize: field(&v, "prioritize", d.prioritize)?,
            shadow_priority: field(&v, "shadow_priority", d.shadow_priority)?,
            shadow_prune: field(&v, "shadow_prune", d.shadow_prune)?,
            max_tests: field(&v, "max_tests", d.max_tests)?,
            fuel_limit: field(&v, "fuel_limit", d.fuel_limit)?,
            wall_limit_ms: field(&v, "wall_limit_ms", d.wall_limit_ms)?,
            num_health: field(&v, "num_health", d.num_health)?,
            inject_runner_panic: field(&v, "inject_runner_panic", d.inject_runner_panic)?,
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
            .ok_or_else(|| format!("unknown backend `{}` (interp|compiled)", self.backend))
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
        // The thread count is probed only when the spec leaves it open.
        let threads = self.threads.unwrap_or_else(SearchOptions::default_threads);
        let mut search = SearchOptions::with_threads(threads);
        search.stop_depth = stop_depth;
        search.binary_split = self.binary_split;
        search.prioritize = self.prioritize;
        search.second_phase = self.second_phase;
        search.max_tests = self.max_tests;
        if !self.lattice.is_empty() {
            search.lattice = mpconfig::parse_lattice(&self.lattice)?;
        }
        search.exec = ExecPolicy {
            fuel_limit: self.fuel_limit,
            wall_limit: self.wall_limit_ms.map(Duration::from_millis),
        };
        let mut opts = AnalysisOptions::with_search(search);
        opts.shadow.prioritize = self.shadow_priority;
        opts.shadow.prune = self.shadow_prune;
        opts.backend = backend;
        opts.num_health = self.num_health;
        Ok(opts)
    }

    /// Cache namespace for the cross-job verdict cache: everything
    /// that deterministically changes an evaluation's verdict for a
    /// given replaced-instruction set — program identity (bench +
    /// class), tolerance, fuel quota, and backend.
    /// The lattice is *not* part of the namespace: cache keys already
    /// encode each instruction's target format, so jobs with different
    /// lattices share any overlapping trials.
    /// Wall-clock quotas are deliberately excluded: a wall-clock
    /// timeout is machine noise, and is never stored.
    pub fn cache_namespace(&self) -> String {
        format!(
            "{}.{}|tol={}|fuel={}|backend={}",
            self.bench,
            self.class,
            self.tol.map(|t| format!("{t:e}")).unwrap_or_else(|| "default".into()),
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
            backend: "interp".into(),
            lattice: "s,h,m5e6".into(),
            tol: Some(1e-8),
            threads: Some(3),
            stop_depth: "b".into(),
            second_phase: true,
            binary_split: false,
            prioritize: false,
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
        // A backend outside `interp|compiled`, such as the removed
        // `fast`, is refused with the list, not mapped onto an engine.
        assert_eq!(
            JobSpec::parse(r#"{"bench":"ep","backend":"fast"}"#),
            Err("unknown backend `fast` (interp|compiled)".to_string())
        );
        assert!(JobSpec::parse(r#"{"bench":"ep","tol":-1.0}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","lattice":"s,x"}"#).is_err());
        assert!(JobSpec::parse(r#"{"bench":"ep","lattice":"s,d"}"#).is_err());
        assert!(JobSpec::parse("not json").is_err());
    }

    #[test]
    fn fields_read_only_as_their_type() {
        // Each body once ran with a rounded, wrapped or default value.
        for (field, value) in [
            ("threads", "2.7"),
            ("threads", "-2"),
            ("max_tests", "-1"),
            ("max_tests", "\"5\""),
            ("fuel_limit", "1e300"),
            ("wall_limit_ms", "true"),
            ("second_phase", "\"yes\""),
            ("binary_split", "0"),
            ("tol", "\"1e-3\""),
            ("class", "1"),
            ("lattice", "[\"s\"]"),
        ] {
            let body = format!("{{\"bench\":\"ep\",\"{field}\":{value}}}");
            assert_eq!(
                JobSpec::parse(&body),
                Err(format!("job spec: malformed `{field}`")),
                "{body}"
            );
        }
        // Values of the right type read, null is an unset option, and
        // unknown keys stay ignored.
        let spec = JobSpec::parse(
            r#"{"bench":"ep","threads":2,"max_tests":5,"fuel_limit":1e6,"tol":1e-3,
                "second_phase":true,"wall_limit_ms":null,"future_knob":[1,{}]}"#,
        )
        .unwrap();
        assert_eq!(
            (spec.threads, spec.max_tests, spec.fuel_limit, spec.tol, spec.second_phase),
            (Some(2), Some(5), Some(1_000_000), Some(1e-3), true)
        );
        assert_eq!(spec.wall_limit_ms, None);
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
        // A spec that only sets the thread count gets every other default,
        // built without a default `SearchOptions` (which probes the
        // thread count).
        let bare = JobSpec { bench: "ep".into(), threads: Some(3), ..Default::default() };
        let mut want = AnalysisOptions::default();
        want.search.threads = 3;
        assert_eq!(format!("{:?}", bare.options().unwrap()), format!("{want:?}"));
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
        // Purely schedule-shaping knobs do not split the cache.
        let mut d = a.clone();
        d.threads = Some(7);
        d.wall_limit_ms = Some(9);
        assert_eq!(a.cache_namespace(), d.cache_namespace());
    }
}

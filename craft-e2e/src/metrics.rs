//! Metric names, the text and JSON renderings, and the span recorder.

use mptrace::json;
#[cfg(test)]
use mptrace::json::Value;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced pass. The list (names
/// and units) is the one `BENCHMARK.json` declares. A request is one
/// in-process search on the search workloads and one `craftd` job,
/// `POST` to seen `done`, on the daemon.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_geomean", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload measures in its traced pass, in the
/// order `BENCHMARK.json` declares them. Traced passes print more (each
/// workload's own layers); these are the ones every workload has.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("calib_ms_p50", "ms"),
    ("raw.search_ms_geomean", "ms"),
    ("trace_overhead_pct", "%"),
    ("core.recommend_ms_p50", "ms"),
    ("mpsearch.evals_per_search", "count"),
    ("mpsearch.cache_hit_ratio", "ratio"),
    ("bench.bt.search_ms_p50", "ms"),
    ("bench.cg.search_ms_p50", "ms"),
    ("bench.ep.search_ms_p50", "ms"),
    ("bench.ft.search_ms_p50", "ms"),
    ("bench.lu.search_ms_p50", "ms"),
    ("bench.mg.search_ms_p50", "ms"),
    ("bench.sp.search_ms_p50", "ms"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Printed after the value: a fallback percentile, a sample count.
    pub note: Option<String>,
}

/// Whether `name` matches `^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The outcome of one pass (untraced or traced) over one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassResult {
    pub workload: String,
    pub traced: bool,
    /// Searches or jobs attempted in the measured window.
    pub attempted: u64,
    /// Attempts that panicked, were refused, ended other than `done`, or
    /// whose Fig. 10 row differs from the expected row.
    pub failed: u64,
    /// Replayed evaluations whose verdict or step count differs from the
    /// recorded one (traced search passes only).
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
}

impl PassResult {
    pub fn new(workload: &str, traced: bool) -> PassResult {
        PassResult { workload: workload.into(), traced, ..Default::default() }
    }

    /// Record a metric. A non-finite value (a ratio over nothing) is
    /// reported as 0 with a note rather than as invalid JSON.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) -> &mut Metric {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        let (value, note) =
            if value.is_finite() { (value, None) } else { (0.0, Some("no samples".to_string())) };
        self.metrics.push(Metric { name, value, unit: unit.into(), note });
        self.metrics.last_mut().expect("just pushed")
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `name workload value unit`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{} {} {} {}", m.name, self.workload, m.value, m.unit);
            if let Some(n) = &m.note {
                let _ = write!(out, "  # {n}");
            }
            out.push('\n');
        }
        out
    }

    /// The one-line result object: `correct`, `attempted`, `failed`, and
    /// exactly the metrics in `names` (every one must have been
    /// measured).
    pub fn contract_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.mismatches == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} measured in {} not {unit}", m.unit));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}", m.value);
        }
        s.push_str("}}");
        Ok(s)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"workload\":");
        json::esc(&mut s, &self.workload);
        let _ = write!(
            s,
            ",\"traced\":{},\"attempted\":{},\"failed\":{},\"mismatches\":{},\"metrics\":[",
            self.traced, self.attempted, self.failed, self.mismatches
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json::esc(&mut s, &m.name);
            let _ = write!(s, ",\"value\":{:?},\"unit\":", m.value);
            json::esc(&mut s, &m.unit);
            if let Some(n) = &m.note {
                s.push_str(",\"note\":");
                json::esc(&mut s, n);
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    #[cfg(test)]
    fn from_json(v: &Value) -> Result<PassResult, String> {
        let str_of = |v: &Value, k: &str| {
            v.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let u64_of = |k: &str| v.get(k).and_then(Value::as_u64).ok_or(format!("missing {k}"));
        let metrics = v
            .get("metrics")
            .and_then(Value::as_arr)
            .ok_or("missing metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: str_of(m, "name")?,
                    value: m.get("value").and_then(Value::as_f64).ok_or("missing value")?,
                    unit: str_of(m, "unit")?,
                    note: m.get("note").and_then(Value::as_str).map(str::to_string),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(PassResult {
            workload: str_of(v, "workload")?,
            traced: v.get("traced").and_then(Value::as_bool).ok_or("missing traced")?,
            attempted: u64_of("attempted")?,
            failed: u64_of("failed")?,
            mismatches: u64_of("mismatches")?,
            metrics,
        })
    }
}

/// Every pass of one invocation as one JSON document (`--json-out`).
pub fn results_to_json(seed: u64, results: &[PassResult]) -> String {
    let body: Vec<String> = results.iter().map(PassResult::to_json).collect();
    format!("{{\"seed\":{seed},\"results\":[{}]}}\n", body.join(","))
}

/// Inverse of [`results_to_json`].
#[cfg(test)]
pub fn results_from_json(text: &str) -> Result<(u64, Vec<PassResult>), String> {
    let v = json::parse(text)?;
    let seed = v.get("seed").and_then(Value::as_u64).ok_or("missing seed")?;
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("missing results")?
        .iter()
        .map(PassResult::from_json)
        .collect::<Result<_, _>>()?;
    Ok((seed, results))
}

/// One timed interval recorded by the benchmark around a call into the
/// program. `sample` groups the spans of one search or job.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub sample: u64,
}

/// In-memory span store, written out as JSONL when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, spans: Vec::new() }
    }

    pub fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Record `[start, end]`; returns the span's id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        sample: u64,
    ) -> usize {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.record_us(name, start_us, end_us, parent, sample)
    }

    pub fn record_us(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
        sample: u64,
    ) -> usize {
        self.spans.push(Span { name, start_us, end_us, parent, sample });
        self.spans.len() - 1
    }

    /// Close a span opened before its extent was known.
    pub fn set_end(&mut self, id: usize, end_us: u64) {
        self.spans[id].end_us = end_us;
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"sample_id\":{}}}",
                s.name, s.start_us, s.end_us, s.sample
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name("p90%"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let v = json::parse(text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn json_output_round_trips() {
        let mut a = PassResult::new("search-s", false);
        a.attempted = 21;
        a.failed = 1;
        a.mismatches = 2;
        a.push("latency_ms_p90", 12.345678901234, "ms").note = Some("p75 of 40 \"samples\"".into());
        a.push("throughput_per_s", 1e-7, "1/s");
        a.push("ratio", f64::NAN, "ratio");
        let mut b = PassResult::new("daemon", true);
        b.attempted = 3;
        b.push("craftd.metrics_bytes", 2_500_000.0, "bytes");
        let text = results_to_json(42, &[a.clone(), b.clone()]);
        let (seed, back) = results_from_json(&text).expect("parses");
        assert_eq!(seed, 42);
        assert_eq!(back, vec![a.clone(), b]);
        assert_eq!(back[0].get("ratio").unwrap().value, 0.0);

        let line =
            a.contract_json(&[("latency_ms_p90", "ms"), ("throughput_per_s", "1/s")]).unwrap();
        let v = json::parse(&line).expect("contract line parses");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        let m = v.get("metrics").and_then(|m| m.get("latency_ms_p90")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(12.345678901234));
        assert!(a.contract_json(&[("missing", "ms")]).is_err());
    }
}

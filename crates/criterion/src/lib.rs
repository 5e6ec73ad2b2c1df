//! A small, dependency-free stand-in for the `criterion` benchmark
//! harness (the build environment has no network access), with one
//! extension: every finished benchmark group writes a machine-readable
//! `BENCH_<group>.json` file at the workspace root so the performance
//! trajectory can be tracked across PRs.
//!
//! Supported API: `Criterion::benchmark_group`, `BenchmarkGroup::{
//! sample_size, bench_function, finish}`, `Bencher::iter`, `black_box`,
//! and the `criterion_group!`/`criterion_main!` macros. A second
//! extension, `Bencher::count`, records an integer the benchmark
//! computed (a count of work, not a time) as an extra field of its row.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark context.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _criterion: self, name: name.into(), sample_size: 20, results: Vec::new() }
    }
}

/// One measured benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id within the group.
    pub name: String,
    /// Mean wall-clock time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest observed sample, in nanoseconds per iteration.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Named counts recorded with [`Bencher::count`], in record order.
    pub counts: Vec<(String, u64)>,
}

/// A named collection of benchmarks sharing settings and one JSON report.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    results: Vec<BenchResult>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Measure `f`, which receives a [`Bencher`] and must call
    /// [`Bencher::iter`].
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher { sample_size: self.sample_size, result: None, counts: Vec::new() };
        f(&mut b);
        let mut r = b.result.expect("bench_function closure never called Bencher::iter");
        r.name = id.clone();
        r.counts = b.counts;
        eprintln!(
            "bench {:<28} {:>12.0} ns/iter (min {:>12.0}, {} samples x {} iters)",
            format!("{}/{}", self.name, id),
            r.mean_ns,
            r.min_ns,
            r.samples,
            r.iters_per_sample
        );
        self.results.push(r);
        self
    }

    /// Finish the group and write `BENCH_<group>.json` at the workspace
    /// root.
    pub fn finish(self) {
        let path = bench_json_path(&self.name);
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"group\": {:?},\n", self.name));
        out.push_str("  \"unit\": \"ns_per_iter\",\n  \"benches\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let counts: String = r.counts.iter().map(|(k, v)| format!(", {k:?}: {v}")).collect();
            out.push_str(&format!(
                "    {{\"name\": {:?}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}{counts}}}{}\n",
                r.name,
                r.mean_ns,
                r.min_ns,
                r.samples,
                r.iters_per_sample,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
            Ok(()) => eprintln!("bench report written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Where `BENCH_<group>.json` goes: the enclosing workspace root if one
/// can be found (a parent directory with a `Cargo.lock` or `.git`),
/// otherwise the current directory.
fn bench_json_path(group: &str) -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        if dir.join("Cargo.lock").exists() || dir.join(".git").exists() {
            return dir.join(format!("BENCH_{group}.json"));
        }
        if !dir.pop() {
            return start.join(format!("BENCH_{group}.json"));
        }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs the measurement.
pub struct Bencher {
    sample_size: usize,
    result: Option<BenchResult>,
    counts: Vec<(String, u64)>,
}

impl Bencher {
    /// Time `f`. The routine is warmed up once, then run for
    /// `sample_size` samples (batched so that very fast routines are
    /// timed over many iterations), capped at roughly two seconds total.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + pilot measurement.
        let t0 = Instant::now();
        black_box(f());
        let pilot_ns = t0.elapsed().as_nanos().max(1);

        // Batch fast routines so each sample is at least ~1ms.
        let iters_per_sample = (1_000_000 / pilot_ns).max(1) as u64;
        // Cap total time at ~2s.
        let budget_ns: u128 = 2_000_000_000;
        let max_samples = (budget_ns / (pilot_ns * iters_per_sample as u128)).max(2) as usize;
        let samples = self.sample_size.min(max_samples).max(2);

        let mut times: Vec<u128> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            times.push(t.elapsed().as_nanos());
        }
        let total: u128 = times.iter().sum();
        let mean_ns = total as f64 / (samples as u64 * iters_per_sample) as f64;
        let min_ns = *times.iter().min().unwrap() as f64 / iters_per_sample as f64;
        self.result = Some(BenchResult {
            name: String::new(),
            mean_ns,
            min_ns,
            samples,
            iters_per_sample,
            counts: Vec::new(),
        });
    }

    /// Record a count the benchmarked routine computed, written as field
    /// `name` of the benchmark's `BENCH_<group>.json` row.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }
}

/// Define a benchmark group function from target functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Define `main` from benchmark group functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shimtest");
        g.sample_size(3);
        g.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            b.count("ops", 2);
        });
        assert_eq!(g.results.len(), 1);
        assert!(g.results[0].mean_ns >= 0.0);
        assert_eq!(g.results[0].counts, [("ops".to_string(), 2)]);
        // don't call finish() in tests: avoid writing BENCH_shimtest.json
    }
}

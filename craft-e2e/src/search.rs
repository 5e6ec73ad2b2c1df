//! The three search workloads: `craft analyze`'s pipeline run in process
//! (`JobSpec::workload` → `AnalysisSystem::with_options` → `recommend`)
//! and timed from outside.
//!
//! The traced pass adds an [`EvalMiddleware`] that times every
//! evaluation and records its configuration and outcome; after each
//! search those configurations are replayed in order on one thread,
//! stage by stage, through the same public calls the evaluator makes.

use crate::expected::Expected;
use crate::metrics::{PassResult, Spans};
use crate::stats::{calibrated, geomean_of_medians, median, quartiles, tail, Calibrator, Rng};
use fpvm::exec::ExecImage;
use fpvm::{CompiledImage, Vm};
use instrument::{rewrite_all_double, Rewriter};
use mixedprec::{AnalysisOptions, AnalysisSystem, EvalMiddleware, JobSpec, WrapCtx};
use mpconfig::Config;
use mpsearch::{EvalOutcome, EvalStats, Evaluator, RunControl};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The seven NAS benches, in Fig. 10 order.
pub const BENCHES: [&str; 7] = ["bt", "cg", "ep", "ft", "lu", "mg", "sp"];

/// Search worker threads (the benchmark machine has two cores).
pub const THREADS: usize = 2;

/// The evaluator's documented fuel rule: each run gets this many times
/// the all-double baseline's steps, capped at the workload's fuel.
const FUEL_FACTOR: u64 = 8;

/// The bench whose searches are run in traced/untraced pairs to measure
/// the program's own tracer (`mptrace.overhead_pct`).
const PAIR_BENCH: &str = "mg";

/// One search workload: which searches a round runs.
#[derive(Debug, Clone, Copy)]
pub struct SearchDef {
    pub name: &'static str,
    pub class: &'static str,
    /// `JobSpec::lattice`; empty is the classic single-only search.
    pub lattice: &'static str,
    /// Shadow-guided ordering and pruning (and, with a reduced level in
    /// the lattice, range guards).
    pub shadow: bool,
}

pub const SEARCH_S: SearchDef =
    SearchDef { name: "search-s", class: "s", lattice: "", shadow: false };
pub const SEARCH_W: SearchDef =
    SearchDef { name: "search-w", class: "w", lattice: "", shadow: false };
/// No second phase: with it and the shadow oracle both on, two search
/// threads do not always reach the same cg.s row.
pub const LATTICE_S: SearchDef =
    SearchDef { name: "lattice-s", class: "s", lattice: "s,b", shadow: true };

impl SearchDef {
    pub fn spec(&self, bench: &str) -> JobSpec {
        JobSpec {
            bench: bench.into(),
            class: self.class.into(),
            lattice: self.lattice.into(),
            threads: Some(THREADS),
            shadow_priority: self.shadow,
            shadow_prune: self.shadow,
            ..Default::default()
        }
    }
}

/// The Fig. 10 row of a finished search, labelled `bench.class`, with
/// the per-format breakdown appended for lattice searches.
pub fn row_of(
    def: &SearchDef,
    bench: &str,
    sys: &AnalysisSystem,
    rec: &mixedprec::Recommendation,
) -> String {
    let row = rec.report.figure10_row(&format!("{bench}.{}", def.class));
    if def.lattice.is_empty() {
        return row;
    }
    let formats: Vec<String> =
        rec.report.format_breakdown(sys.tree()).iter().map(|(t, n)| format!("{t}:{n}")).collect();
    format!("{row}   [{}]", formats.join(" "))
}

fn build(spec: &JobSpec) -> Result<(AnalysisSystem, AnalysisOptions), String> {
    let opts = spec.options()?;
    Ok((AnalysisSystem::with_options(spec.workload()?, opts.clone()), opts))
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "search panicked".into()))
    })
}

/// The Fig. 10 row of one search of `bench` with `backend` (empty = the
/// default), for `--write-expected`.
pub fn reference_row(def: &SearchDef, bench: &str, backend: &str) -> Result<String, String> {
    let spec = JobSpec { backend: backend.into(), ..def.spec(bench) };
    let (sys, _) = build(&spec)?;
    let rec = sys.recommend();
    Ok(row_of(def, bench, &sys, &rec))
}

/// One untraced search, timed end to end.
struct Plain {
    bench: usize,
    calib_ms: f64,
    /// Build + recommend, wall clock.
    raw_ms: f64,
    /// `recommend()` alone, wall clock.
    rec_ms: f64,
    tested: usize,
    cache_hits: usize,
    pruned: usize,
}

impl Plain {
    fn calibrated_ms(&self) -> f64 {
        calibrated(self.raw_ms, self.calib_ms)
    }
}

fn plain_sample(
    def: &SearchDef,
    bench: usize,
    calib: &mut Calibrator,
    expected: &Expected,
) -> Result<Plain, String> {
    let calib_ms = calib.sample_ms();
    guarded(|| {
        let t0 = Instant::now();
        let (sys, _) = build(&def.spec(BENCHES[bench]))?;
        let t1 = Instant::now();
        let rec = sys.recommend();
        let t2 = Instant::now();
        expected.check(&row_of(def, BENCHES[bench], &sys, &rec))?;
        Ok(Plain {
            bench,
            calib_ms,
            raw_ms: ms(t2 - t0),
            rec_ms: ms(t2 - t1),
            tested: rec.report.configs_tested,
            cache_hits: rec.report.cache_hits,
            pruned: rec.report.pruned_by_shadow,
        })
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One search per bench, in Fig. 10 order: the warm-up round. Returns the
/// failures.
pub fn warm_up(def: &SearchDef, expected: &Expected) -> u64 {
    let mut calib = Calibrator::default();
    let mut failed = 0;
    for (b, name) in BENCHES.iter().enumerate() {
        if let Err(e) = plain_sample(def, b, &mut calib, expected) {
            eprintln!("craft-e2e: {} warm-up {name}: {e}", def.name);
            failed += 1;
        }
    }
    failed
}

/// Run rounds (every bench once, in seeded order) until `seconds` have
/// passed, always at least one; `each` is called per bench.
fn rounds(seed: u64, seconds: f64, mut each: impl FnMut(usize, usize)) {
    let mut rng = Rng::new(seed);
    let t0 = Instant::now();
    for round in 0.. {
        let mut order: Vec<usize> = (0..BENCHES.len()).collect();
        rng.shuffle(&mut order);
        for b in order {
            each(round, b);
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn record_failure(res: &mut PassResult, def: &SearchDef, bench: usize, e: &str) {
    eprintln!("craft-e2e: {} {}: {e}", def.name, BENCHES[bench]);
    res.failed += 1;
}

/// End-to-end metrics over untraced samples: a request is one search
/// (build + recommend), calibrated.
fn push_search_metrics(res: &mut PassResult, plain: &[Plain]) {
    let cal: Vec<f64> = plain.iter().map(Plain::calibrated_ms).collect();
    let by_bench = plain.iter().map(|p| (p.bench, p.calibrated_ms()));
    res.push("latency_ms_geomean", geomean_of_medians(by_bench), "ms");
    res.push("latency_ms_p50", median(&cal), "ms");
    let t = tail(&cal, 90);
    res.push("latency_ms_p90", t.value, "ms").note = t.note(90);
    res.push("throughput_per_s", cal.len() as f64 / (cal.iter().sum::<f64>() / 1e3), "1/s");
}

/// Harness metrics shared by both passes: calibration and raw drift.
fn push_harness_metrics(res: &mut PassResult, plain: &[Plain]) {
    let calibs: Vec<f64> = plain.iter().map(|p| p.calib_ms).collect();
    res.push("calib_ms_p50", median(&calibs), "ms");
    let by_bench = plain.iter().map(|p| (p.bench, p.raw_ms));
    res.push("raw.search_ms_geomean", geomean_of_medians(by_bench), "ms");
    res.push(
        "core.recommend_ms_p50",
        median(&plain.iter().map(|p| p.rec_ms).collect::<Vec<_>>()),
        "ms",
    );
    let n = plain.len().max(1) as f64;
    res.push(
        "mpsearch.evals_per_search",
        plain.iter().map(|p| p.tested).sum::<usize>() as f64 / n,
        "count",
    );
    let tested: usize = plain.iter().map(|p| p.tested).sum();
    let hits: usize = plain.iter().map(|p| p.cache_hits).sum();
    res.push("mpsearch.cache_hit_ratio", hits as f64 / tested.max(1) as f64, "ratio");
    res.push(
        "mpshadow.pruned_per_search",
        plain.iter().map(|p| p.pruned).sum::<usize>() as f64 / n,
        "count",
    );
    for (b, name) in BENCHES.iter().enumerate() {
        let v: Vec<f64> = plain.iter().filter(|p| p.bench == b).map(Plain::calibrated_ms).collect();
        res.push(format!("bench.{name}.search_ms_p50"), median(&v), "ms").note =
            Some(format!("{} samples", v.len()));
    }
}

/// The untraced pass: end-to-end metrics.
pub fn untraced(def: &SearchDef, seed: u64, seconds: f64) -> PassResult {
    let mut res = PassResult::new(def.name, false);
    let expected = Expected::of(def.name).expect("search workloads have expected rows");
    let mut calib = Calibrator::default();
    let mut plain = Vec::new();
    rounds(seed, seconds, |_, b| {
        res.attempted += 1;
        match plain_sample(def, b, &mut calib, &expected) {
            Ok(p) => plain.push(p),
            Err(e) => record_failure(&mut res, def, b, &e),
        }
    });
    push_search_metrics(&mut res, &plain);
    push_harness_metrics(&mut res, &plain);
    res.push("fail_frac", res.failed as f64 / res.attempted as f64, "ratio");
    res
}

/// One evaluation seen by the middleware.
struct EvalRec {
    cfg: Config,
    ctl: RunControl,
    out: EvalOutcome,
    start: Instant,
    end: Instant,
}

/// The traced pass's middleware: times and records every evaluation
/// that reaches the program's evaluator (per-search cache hits are
/// answered above it and never arrive).
#[derive(Default)]
struct Recorder {
    evals: Mutex<Vec<EvalRec>>,
}

impl Recorder {
    fn take(&self) -> Vec<EvalRec> {
        let mut v = std::mem::take(&mut *self.evals.lock().expect("recorder lock poisoned"));
        v.sort_by_key(|e| e.start);
        v
    }
}

impl EvalMiddleware for Recorder {
    fn wrap<'a>(&'a self, inner: &'a dyn Evaluator, _ctx: &WrapCtx<'a>) -> Box<dyn Evaluator + 'a> {
        Box::new(Timed { inner, rec: self })
    }
}

struct Timed<'a> {
    inner: &'a dyn Evaluator,
    rec: &'a Recorder,
}

impl Evaluator for Timed<'_> {
    fn evaluate(&self, cfg: &Config) -> bool {
        self.evaluate_run(cfg, &RunControl::default()).pass
    }

    fn evaluate_run(&self, cfg: &Config, ctl: &RunControl) -> EvalOutcome {
        let start = Instant::now();
        let out = self.inner.evaluate_run(cfg, ctl);
        let end = Instant::now();
        let rec = EvalRec { cfg: cfg.clone(), ctl: *ctl, out, start, end };
        self.rec.evals.lock().expect("recorder lock poisoned").push(rec);
        out
    }

    fn stats(&self) -> EvalStats {
        self.inner.stats()
    }
}

/// Per-layer accumulators over every traced search of a pass.
#[derive(Default)]
struct Layers {
    build_ms: Vec<f64>,
    profile_ms: Vec<f64>,
    shadow_ms: Vec<f64>,
    self_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    first_eval_ms: Vec<f64>,
    busy_share: Vec<f64>,
    baseline_ms: Vec<f64>,
    rewrite_us: Vec<f64>,
    decode_us: Vec<f64>,
    bind_us: Vec<f64>,
    run_us: Vec<f64>,
    verify_us: Vec<f64>,
    guard_refused: usize,
    steps: u64,
    run_ns: f64,
    mismatches: u64,
    frag_hits: u64,
    frag_misses: u64,
    /// Σ middleware eval time and Σ replayed stage time, for the check
    /// that the replay accounts for what the evaluator spent.
    eval_sum_ms: f64,
    replay_sum_ms: f64,
    /// Per-bench traced (build + recommend) times, calibrated.
    traced_ms: Vec<(usize, f64)>,
    pair_pct: Vec<f64>,
}

/// One traced search: probes, recommend under the recorder, replay.
fn traced_sample(
    def: &SearchDef,
    bench: usize,
    calib: &mut Calibrator,
    expected: &Expected,
    layers: &mut Layers,
    spans: &mut Spans,
    sample: u64,
) -> Result<(), String> {
    let calib_ms = calib.sample_ms();
    guarded(|| {
        let spec = def.spec(BENCHES[bench]);
        let t0 = Instant::now();
        let (mut sys, opts) = build(&spec)?;
        let t1 = Instant::now();
        let recorder = Arc::new(Recorder::default());
        sys.set_middleware(recorder.clone(), spec.cache_namespace());
        // The profile and shadow runs recommend() makes internally,
        // repeated once from outside so their cost can be charged.
        black_box(sys.profile());
        let t2 = Instant::now();
        if def.shadow {
            black_box(sys.shadow_profile());
        }
        let t3 = Instant::now();
        let rec = sys.recommend();
        let t4 = Instant::now();
        expected.check(&row_of(def, BENCHES[bench], &sys, &rec))?;
        let evals = recorder.take();

        let root = spans.record("search", t0, t4, None, sample);
        spans.record("build", t0, t1, Some(root), sample);
        spans.record("profile", t1, t2, Some(root), sample);
        if def.shadow {
            spans.record("shadow_profile", t2, t3, Some(root), sample);
        }
        let rec_span = spans.record("recommend", t3, t4, Some(root), sample);
        for e in &evals {
            spans.record("eval", e.start, e.end, Some(rec_span), sample);
        }

        let eval_ms: Vec<f64> = evals.iter().map(|e| ms(e.end - e.start)).collect();
        let eval_sum: f64 = eval_ms.iter().sum();
        let (rec_ms, profile_ms) = (ms(t4 - t3), ms(t2 - t1));
        let shadow_ms = if def.shadow { ms(t3 - t2) } else { 0.0 };
        layers.build_ms.push(ms(t1 - t0));
        layers.profile_ms.push(profile_ms);
        if def.shadow {
            layers.shadow_ms.push(shadow_ms);
        }
        layers.self_ms.push(rec_ms - profile_ms - shadow_ms - eval_sum / THREADS as f64);
        layers.first_eval_ms.extend(eval_ms.first());
        layers.busy_share.push(eval_sum / (THREADS as f64 * rec_ms));
        layers.eval_ms.extend(&eval_ms);
        layers.eval_sum_ms += eval_sum;
        layers.guard_refused += rec.report.guard_refused;
        layers.traced_ms.push((bench, calibrated(ms(t1 - t0) + rec_ms, calib_ms)));

        replay(&sys, &opts, &evals, layers, spans, sample);
        Ok(())
    })
}

/// Replay a search's evaluations in order on this thread, timing each
/// stage: rewrite, decode, bind, run, verify.
fn replay(
    sys: &AnalysisSystem,
    opts: &AnalysisOptions,
    evals: &[EvalRec],
    layers: &mut Layers,
    spans: &mut Spans,
    sample: u64,
) {
    let prog = sys.workload().program();
    let tree = sys.tree();
    let vm_opts = sys.workload().vm_opts();

    let t0 = Instant::now();
    let (base, _) = rewrite_all_double(prog, tree);
    let out = Vm::run_program(&base, vm_opts.clone());
    let t1 = Instant::now();
    let budget = match out.result {
        Ok(()) => out.stats.steps.saturating_mul(FUEL_FACTOR).clamp(1, vm_opts.fuel),
        Err(_) => vm_opts.fuel,
    };
    let root = spans.record("replay", t0, t0, None, sample);
    spans.record("baseline", t0, t1, Some(root), sample);
    layers.baseline_ms.push(ms(t1 - t0));

    let rewriter = Rewriter::new(prog, opts.rewrite.clone());
    let verify = sys.workload().verifier();
    let mut t_end = t1;
    for e in evals {
        let s0 = Instant::now();
        let (instrumented, _) = rewriter.rewrite(prog, tree, &e.cfg);
        let s1 = Instant::now();
        let image = ExecImage::compile(&instrumented, &vm_opts.cost);
        let s2 = Instant::now();
        let cimg = CompiledImage::from_image(&image);
        let s3 = Instant::now();
        let mut run_opts = vm_opts.clone();
        run_opts.fuel = e.ctl.fuel_override.map_or(budget, |cap| budget.min(cap.max(1)));
        let mut vm = Vm::new(&instrumented, run_opts);
        let run = vm.run_compiled(&cimg);
        let s4 = Instant::now();
        let pass = run.ok() && verify(&vm);
        let s5 = Instant::now();
        if pass != e.out.pass || run.stats.steps != e.out.steps {
            eprintln!(
                "craft-e2e: replay mismatch: recorded pass={} steps={}, replayed pass={pass} steps={}",
                e.out.pass, e.out.steps, run.stats.steps
            );
            layers.mismatches += 1;
        }
        for (name, a, b) in [
            ("rewrite", s0, s1),
            ("decode", s1, s2),
            ("bind", s2, s3),
            ("run", s3, s4),
            ("verify", s4, s5),
        ] {
            spans.record(name, a, b, Some(root), sample);
        }
        layers.rewrite_us.push(us(s1 - s0));
        layers.decode_us.push(us(s2 - s1));
        layers.bind_us.push(us(s3 - s2));
        layers.run_us.push(us(s4 - s3));
        layers.verify_us.push(us(s5 - s4));
        layers.steps += run.stats.steps;
        layers.run_ns += (s4 - s3).as_secs_f64() * 1e9;
        layers.replay_sum_ms += ms(s5 - s0);
        t_end = s5;
    }
    let (hits, misses) = rewriter.cache_stats();
    layers.frag_hits += hits;
    layers.frag_misses += misses;
    let end_us = spans.us(t_end);
    spans.set_end(root, end_us);
}

/// One pair of `PAIR_BENCH` searches, with the program's own tracer
/// attached (`set_tracer(Tracer::new())`) and without; returns the traced
/// search's overhead in percent.
fn tracer_pair(def: &SearchDef, traced_first: bool) -> Result<f64, String> {
    guarded(|| {
        let spec = def.spec(PAIR_BENCH);
        let (plain, _) = build(&spec)?;
        let (mut traced, _) = build(&spec)?;
        traced.set_tracer(mptrace::Tracer::new());
        let time = |sys: &AnalysisSystem| {
            let t = Instant::now();
            black_box(sys.recommend());
            ms(t.elapsed())
        };
        let (t_ms, p_ms) = if traced_first {
            let t = time(&traced);
            (t, time(&plain))
        } else {
            let p = time(&plain);
            (time(&traced), p)
        };
        Ok((t_ms / p_ms - 1.0) * 100.0)
    })
}

/// The traced pass: per-layer metrics. Each bench of a round is searched
/// untraced, then traced and replayed; each round ends with one tracer
/// pair, alternating which side runs first.
pub fn traced(def: &SearchDef, seed: u64, seconds: f64, spans: &mut Spans) -> PassResult {
    let mut res = PassResult::new(def.name, true);
    let expected = Expected::of(def.name).expect("search workloads have expected rows");
    let mut calib = Calibrator::default();
    let mut plain = Vec::new();
    let mut layers = Layers::default();
    let mut sample = 0u64;
    let mut last_round = usize::MAX;
    rounds(seed, seconds, |round, b| {
        if round != last_round && round > 0 {
            match tracer_pair(def, round % 2 == 0) {
                Ok(pct) => layers.pair_pct.push(pct),
                Err(e) => eprintln!("craft-e2e: tracer pair: {e}"),
            }
        }
        last_round = round;
        res.attempted += 2;
        match plain_sample(def, b, &mut calib, &expected) {
            Ok(p) => plain.push(p),
            Err(e) => record_failure(&mut res, def, b, &e),
        }
        sample += 1;
        if let Err(e) = traced_sample(def, b, &mut calib, &expected, &mut layers, spans, sample) {
            record_failure(&mut res, def, b, &e);
        }
    });
    if layers.pair_pct.is_empty() {
        match tracer_pair(def, true) {
            Ok(pct) => layers.pair_pct.push(pct),
            Err(e) => eprintln!("craft-e2e: tracer pair: {e}"),
        }
    }

    push_harness_metrics(&mut res, &plain);
    let traced_g = geomean_of_medians(layers.traced_ms.iter().copied());
    let plain_g = geomean_of_medians(plain.iter().map(|p| (p.bench, p.calibrated_ms())));
    res.push("trace_overhead_pct", (traced_g / plain_g - 1.0) * 100.0, "%");

    let l = &layers;
    let n = l.self_ms.len().max(1) as f64;
    res.push("core.build_ms_p50", median(&l.build_ms), "ms");
    res.push("core.profile_ms_p50", median(&l.profile_ms), "ms");
    res.push("core.search_self_ms_p50", median(&l.self_ms), "ms");
    res.push("mpsearch.eval_ms_p50", median(&l.eval_ms), "ms");
    let t = tail(&l.eval_ms, 90);
    res.push("mpsearch.eval_ms_p90", t.value, "ms").note = t.note(90);
    res.push("mpsearch.first_eval_ms_p50", median(&l.first_eval_ms), "ms");
    res.push("mpsearch.busy_share", median(&l.busy_share), "ratio");
    res.push("fpvm.baseline_ms_p50", median(&l.baseline_ms), "ms");
    res.push("fpvm.decode_us_p50", median(&l.decode_us), "us");
    res.push("fpvm.bind_us_p50", median(&l.bind_us), "us");
    res.push("fpvm.run_us_p50", median(&l.run_us), "us");
    res.push("fpvm.verify_us_p50", median(&l.verify_us), "us");
    res.push("fpvm.steps_per_eval", l.steps as f64 / l.run_us.len().max(1) as f64, "count");
    res.push("fpvm.ns_per_step", l.run_ns / l.steps.max(1) as f64, "ns");
    res.push("fpvm.replay_mismatch", l.mismatches as f64, "count");
    // The replay re-does, on one thread, what the evaluator did on
    // `THREADS`; the first evaluation of each search also paid for the
    // fuel baseline, which the replay times separately.
    let baseline_sum: f64 = l.baseline_ms.iter().sum();
    res.push(
        "fpvm.replay_cover_pct",
        100.0 * l.replay_sum_ms / (l.eval_sum_ms - baseline_sum),
        "%",
    );
    res.push("instrument.rewrite_us_p50", median(&l.rewrite_us), "us");
    res.push(
        "instrument.fragment_hit_ratio",
        l.frag_hits as f64 / (l.frag_hits + l.frag_misses).max(1) as f64,
        "ratio",
    );
    res.push("mpshadow.profile_ms_p50", median(&l.shadow_ms), "ms");
    res.push("mpfmt.guard_refused_per_search", l.guard_refused as f64 / n, "count");
    res.push("mptrace.overhead_pct", median(&l.pair_pct), "%").note =
        Some(format!("{} pairs on {PAIR_BENCH}.{}", l.pair_pct.len(), def.class));
    let [q1, _, q3] = quartiles(&l.pair_pct);
    res.push("mptrace.overhead_noise_pct", q3 - q1, "%");
    res.mismatches = l.mismatches;
    res.push("fail_frac", res.failed as f64 / res.attempted as f64, "ratio");
    res
}

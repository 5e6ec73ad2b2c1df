//! `craft-e2e`: one benchmark for the two numbers a user of this system
//! waits on — the wall time of a `craft analyze` search and the
//! submit-to-done latency of a `craftd` job — plus per-layer numbers
//! measured from outside, by timing calls into public functions.
//!
//! ```text
//! craft-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! craft-e2e --all [--seed <n>] [--seconds <s>] [--json-out F] [--trace-out F]
//! craft-e2e --noise <K> (--workload <name> | --all) [--seconds <s>]
//! craft-e2e --smoke
//! craft-e2e --write-expected
//! ```
//!
//! Flags take `--flag value` or `--flag=value`. With `--trace` one pass
//! runs (0: untraced, end-to-end metrics; 1: traced, per-layer metrics)
//! and the last line of standard output is the result object. Without
//! it each workload runs untraced and then traced for a quarter of the
//! time. Every metric is printed as `name workload value unit`. See
//! README.md for the workloads, the metrics, and calibration.

mod daemon;
mod expected;
mod metrics;
mod search;
mod stats;

use metrics::{PassResult, Spans, END_TO_END, PER_LAYER};
use search::{SearchDef, LATTICE_S, SEARCH_S, SEARCH_W};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Every workload; README.md and BENCHMARK.json give the reason for each.
const WORKLOADS: [&str; 4] = ["search-s", "search-w", "lattice-s", "daemon"];

/// Set-up probes per untraced pass; `setup_s` is their median.
const SETUP_PROBES: usize = 5;

/// Seconds per window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    noise: Option<usize>,
    json_out: Option<String>,
    trace_out: Option<String>,
    smoke: bool,
    write_expected: bool,
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { seed: 1, seconds: DEFAULT_SECONDS, ..Default::default() };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || -> Result<String, String> {
            inline.clone().or_else(|| it.next().cloned()).ok_or(format!("{flag} needs a value"))
        };
        let num = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag {
            "--workload" => a.workloads.push(value()?),
            "--all" => a.workloads = WORKLOADS.map(String::from).to_vec(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => a.seconds = num(value()?)?.max(0.0),
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                })
            }
            "--noise" => a.noise = Some(value()?.parse().map_err(|_| "--noise: not an integer")?),
            "--json-out" => a.json_out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            "--smoke" => a.smoke = true,
            "--write-expected" => a.write_expected = true,
            "--setup-probe" => a.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.smoke {
        a.workloads = WORKLOADS.map(String::from).to_vec();
        a.seconds = 0.0;
    }
    for w in &a.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w} (known: {})", WORKLOADS.join(", ")));
        }
    }
    if a.workloads.is_empty() && !a.write_expected {
        return Err("name a workload with --workload, or pass --all".into());
    }
    Ok(a)
}

fn search_def(name: &str) -> Option<&'static SearchDef> {
    [&SEARCH_S, &SEARCH_W, &LATTICE_S].into_iter().find(|d| d.name == name)
}

/// One benchmark process: its scratch directory and recorded spans.
struct Bench {
    args: Args,
    scratch: PathBuf,
    spans: Spans,
    daemon: Option<daemon::Ctx>,
}

impl Bench {
    fn epoch_jobs(&self) -> usize {
        if self.args.smoke {
            3
        } else {
            daemon::EPOCH_JOBS
        }
    }

    fn daemon_ctx(&mut self) -> Result<&mut daemon::Ctx, String> {
        if self.daemon.is_none() {
            self.daemon = Some(daemon::Ctx::new(&self.scratch)?);
        }
        Ok(self.daemon.as_mut().expect("just set"))
    }

    /// The untimed warm-up round; returns failures.
    fn warm_up(&mut self, workload: &str) -> Result<u64, String> {
        Ok(match search_def(workload) {
            Some(def) => search::warm_up(def, &expected::Expected::of(def.name)?),
            None => daemon::warm_up(self.daemon_ctx()?),
        })
    }

    /// One measured pass over `workload`.
    fn pass(
        &mut self,
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
    ) -> Result<PassResult, String> {
        let epoch_jobs = self.epoch_jobs();
        if let Some(def) = search_def(workload) {
            return Ok(if traced {
                search::traced(def, seed, seconds, &mut self.spans)
            } else {
                search::untraced(def, seed, seconds)
            });
        }
        self.daemon_ctx()?;
        let ctx = self.daemon.as_mut().expect("created above");
        Ok(if traced {
            daemon::traced(ctx, seed, seconds, epoch_jobs, &mut self.spans)
        } else {
            daemon::untraced(ctx, seed, seconds, epoch_jobs)
        })
    }

    /// Warm up, then the untraced pass with its set-up probes, or the
    /// traced pass.
    fn measure(
        &mut self,
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        probes: usize,
    ) -> Result<PassResult, String> {
        let setup = if traced { None } else { Some(setup_probes(workload, seed, probes)?) };
        let warm_failed = self.warm_up(workload)?;
        let mut res = self.pass(workload, seed, seconds, traced)?;
        // The warm-up round and the probes are checked like the window.
        res.attempted += search::BENCHES.len() as u64;
        res.failed += warm_failed;
        if let Some(s) = setup {
            res.attempted += probes as u64;
            res.failed += s.failed;
            let shown =
                |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
            res.push("setup_s", stats::median(&s.setup_s), "s").note =
                Some(format!("median of {} probes: {}", s.setup_s.len(), shown(&s.setup_s)));
            res.push("peak_rss_mb", stats::median(&s.rss_mb), "MiB").note =
                Some(format!("median of {} probes: {}", s.rss_mb.len(), shown(&s.rss_mb)));
            res.push("window_peak_rss_mb", stats::peak_rss_mb(), "MiB");
        }
        Ok(res)
    }
}

/// What the set-up probes measured.
struct Setup {
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Probes whose warm-up failed a check (or that died).
    failed: u64,
}

/// Start `probes` fresh processes and time each from spawn until its
/// warm-up round is done: the set-up a user pays before the first
/// result. Search workloads calibrate each time by the kernel sample the
/// probe takes first; the daemon's set-up waits on the same network
/// timers as its jobs, so like them it stays raw. Each probe also
/// reports its peak RSS: the memory one round of the workload needs in a
/// fresh process, which varies less than a long window's.
fn setup_probes(workload: &str, seed: u64, probes: usize) -> Result<Setup, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut setup = Setup { setup_s: Vec::new(), rss_mb: Vec::new(), failed: 0 };
    for _ in 0..probes.max(1) {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload, "--seed", &seed.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let out = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(out).read_line(&mut line);
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait for set-up probe: {e}"))?;
        let fields: Vec<f64> = line
            .strip_prefix("ready ")
            .map(|v| v.split_whitespace().filter_map(|x| x.parse().ok()).collect())
            .unwrap_or_default();
        match (read, fields.as_slice()) {
            (Ok(_), &[calib, rss]) if status.success() => {
                setup.setup_s.push(match search_def(workload) {
                    Some(_) => stats::calibrated(elapsed, calib),
                    None => elapsed,
                });
                setup.rss_mb.push(rss);
            }
            _ => {
                eprintln!("craft-e2e: set-up probe failed ({status}): {line:?}");
                setup.failed += 1;
            }
        }
    }
    Ok(setup)
}

/// The child side of [`setup_probes`]: calibrate, warm up, report the
/// calibration and peak RSS.
fn setup_probe(bench: &mut Bench) -> Result<(), String> {
    let mut calib = stats::Calibrator::default();
    let c = stats::median(&[calib.sample_ms(), calib.sample_ms(), calib.sample_ms()]);
    let workload = bench.args.workloads[0].clone();
    let failed = bench.warm_up(&workload)?;
    if failed > 0 {
        return Err(format!("{failed} warm-up failures"));
    }
    println!("ready {c} {}", stats::peak_rss_mb());
    std::io::stdout().flush().map_err(|e| e.to_string())
}

fn write_expected() -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for def in [&SEARCH_S, &SEARCH_W, &LATTICE_S] {
        let rows = search::BENCHES
            .iter()
            .map(|b| search::reference_row(def, b, "interp"))
            .collect::<Result<Vec<_>, _>>()?;
        let path = dir.join(format!("{}.rows", def.name));
        std::fs::write(&path, expected::render(def.name, &rows))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// `--noise=K`: K interleaved repetitions of each workload's untraced
/// window in this process; per metric, the median, the full spread
/// (max − min) ÷ median, and the quartile spread (q3 − q1) ÷ median.
fn noise(bench: &mut Bench, k: usize) -> Result<Vec<PassResult>, String> {
    let workloads = bench.args.workloads.clone();
    let mut runs: Vec<Vec<PassResult>> = vec![Vec::new(); workloads.len()];
    for rep in 0..k {
        for (i, w) in workloads.iter().enumerate() {
            let r = bench.measure(
                w,
                bench.args.seed + rep as u64,
                bench.args.seconds,
                false,
                SETUP_PROBES,
            )?;
            eprintln!("craft-e2e: noise {w} rep {}/{k} done", rep + 1);
            runs[i].push(r);
        }
    }
    println!("# metric workload median spread_pct iqr_pct (K={k})");
    for (w, reps) in workloads.iter().zip(&runs) {
        for (name, unit) in END_TO_END {
            let v: Vec<f64> = reps.iter().filter_map(|r| r.get(name)).map(|m| m.value).collect();
            let med = stats::median(&v);
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            let [q1, _, q3] = stats::quartiles(&v);
            println!(
                "{name} {w} {med} {unit} spread={:.2}% iqr={:.2}%",
                100.0 * (hi - lo) / med,
                100.0 * (q3 - q1) / med
            );
        }
    }
    Ok(runs.into_iter().flatten().collect())
}

fn run(bench: &mut Bench) -> Result<Vec<PassResult>, String> {
    if let Some(k) = bench.args.noise {
        return noise(bench, k.max(1));
    }
    let (seed, seconds) = (bench.args.seed, bench.args.seconds);
    let probes = if bench.args.smoke { 1 } else { SETUP_PROBES };
    let mut results = Vec::new();
    for w in bench.args.workloads.clone() {
        let passes: Vec<(bool, f64)> = match bench.args.trace {
            Some(t) => vec![(t, seconds)],
            None => vec![(false, seconds), (true, seconds / 4.0)],
        };
        for (traced, secs) in passes {
            let res = bench.measure(&w, seed, secs, traced, probes)?;
            print!("{}", res.lines());
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            results.push(res);
        }
    }
    Ok(results)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("craft-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_expected {
        return match write_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("craft-e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let scratch = match std::env::current_dir() {
        Ok(d) => d.join(".craft-e2e-tmp").join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("craft-e2e: current_dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut bench = Bench { args, scratch, spans: Spans::new(Instant::now()), daemon: None };
    let outcome = if bench.args.setup_probe {
        setup_probe(&mut bench).map(|()| Vec::new())
    } else {
        run(&mut bench)
    };
    let _ = std::fs::remove_dir_all(&bench.scratch);
    if let Some(parent) = bench.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let results = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("craft-e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    if bench.args.setup_probe {
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &bench.args.json_out {
        if let Err(e) = std::fs::write(path, metrics::results_to_json(bench.args.seed, &results)) {
            eprintln!("craft-e2e: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &bench.args.trace_out {
        if let Err(e) = std::fs::write(path, bench.spans.to_jsonl()) {
            eprintln!("craft-e2e: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The last line: the result object. A single pass reports its
    // metric set; several passes report only the totals.
    let line = match (results.as_slice(), bench.args.trace) {
        ([one], Some(traced)) => one.contract_json(if traced { PER_LAYER } else { END_TO_END }),
        _ => {
            let total = PassResult {
                attempted: results.iter().map(|r| r.attempted).sum(),
                failed: results.iter().map(|r| r.failed).sum(),
                mismatches: results.iter().map(|r| r.mismatches).sum(),
                ..Default::default()
            };
            total.contract_json(&[])
        }
    };
    match line {
        Ok(l) => {
            println!("{l}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("craft-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `craft` — the command-line front end to the mixed-precision analysis
//! system, operating on the bundled benchmark programs.
//!
//! ```text
//! craft list                          # available benchmarks
//! craft analyze <bench> [class]      # full search + recommendation
//! craft shadow <bench> [class]       # shadow-value sensitivity analysis
//! craft overhead <bench> [class]     # all-double instrumentation cost
//! craft tree <bench> [class]         # structure tree (Fig. 4 view)
//! craft config <bench> [class]       # initial config file (Fig. 3)
//! craft report <events.jsonl|run-dir>  # digest a search event log / run directory
//! craft metrics <run-dir|live.jsonl>   # render a run's trace (Prometheus/folded)
//! craft runs                           # list registry-recorded runs
//! craft explain <run-dir|latest>       # decision provenance + numerical health
//! craft watch <run-dir|latest>         # render a run's live.jsonl stream
//! craft compare <run-a> <run-b>        # cross-run diff with regression attribution
//! craft submit <bench> [class]         # submit a tuning job to a craftd daemon
//! craft status <job-id>                # one daemon job, analyze-style summary
//! craft jobs                           # list a daemon's jobs
//! craft top                            # live multi-job daemon dashboard
//! ```
//!
//! The daemon-mode subcommands (`submit`/`status`/`jobs`/`top`) talk
//! HTTP to a running `craftd` (`--daemon=HOST:PORT`, else
//! `$CRAFTD_ADDR`, else `127.0.0.1:7050`). `submit --follow` tails the
//! job's live stream to completion and then prints the same labelled
//! summary lines as `craft analyze`, so the two outputs can be diffed
//! directly. Every `submit` mints an `x-craft-trace` id that the daemon
//! stamps through its structured log, the job record, the run manifest,
//! and the run-dir spans — one id links the client call to everything
//! it caused. `top` polls the unified `/metrics` exposition and tails
//! running jobs' `live.jsonl` (when the data directory is reachable via
//! `--data=DIR` or `$CRAFTD_DATA`) into a refreshing multi-job view;
//! `--once` renders a single frame for scripts and CI.
//!
//! `analyze`, `shadow`, `overhead`, `tree`, `config` and `submit` share
//! one flag table ([`SPEC_FLAGS`]), each flag a [`JobSpec`] field; `craft`
//! with no arguments lists them, and any other `--flag` is a usage error.
//! `--lattice=SPEC` names the precision levels the search descends
//! through (e.g. `s,h` or `s,b,m5e6`; default `s`, the classic search),
//! `--backend=interp|fast|compiled` the engine for verification runs
//! (bit-identical results, different throughput), and `--num-health`
//! replays the final configuration under the numerical-health observer
//! (needs `--trace`; `craft explain` renders it). `analyze` adds
//! `--events=FILE` (event log of an untraced run), `--trace=DIR` (a run
//! directory, written by `mixedprec::rundir` exactly as a `craftd` job
//! writes its own), `--registry=DIR` (defaults to `$CRAFT_REGISTRY` or
//! `~/.craft/runs`), and the fault-injection drills
//! `--inject-panic=IDX[,IDX…]` / `--inject-timeout=IDX[,IDX…]`.
//!
//! Exit codes are uniform across subcommands: `2` for usage/argument
//! errors (unknown benchmark, missing operand), `1` for runtime errors
//! (unreadable file, malformed log) *and* for `compare` when a
//! regression crosses its threshold (suppress with `--warn-only`),
//! `0` otherwise.

use mixedprec::http::{self, Client};
use mixedprec::rundir::{self, RunDir};
use mixedprec::{AnalysisSystem, JobSpec};
use mpconfig::editor::render_tree;
use mpconfig::print_config;
use mpsearch::events::{Event, EventLog, Record};
use mpsearch::{FaultPlan, SearchHooks, Verdict};
use mptrace::compare::{compare, CompareOptions};
use mptrace::json::{self, Value};
use mptrace::registry::{self, Registry, RunManifest};
use mptrace::sinks;
use mptrace::snapshot::TraceSnapshot;
use mptrace::stream::{LiveLog, LiveTail};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Usage/argument error: print the message and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("craft: {msg}");
    eprintln!("run `craft` with no arguments for usage");
    std::process::exit(2)
}

/// Runtime/data error (unreadable file, malformed log): exit 1.
fn fail(msg: String) -> ! {
    eprintln!("craft: {msg}");
    std::process::exit(1)
}

use mixedprec::jobspec::BENCHES;

/// The flags shared by every command that runs a workload (`analyze`,
/// `shadow`, `overhead`, `tree`, `config`, `submit`), one per
/// [`JobSpec`] field. A trailing `=` marks a flag that takes a value.
const SPEC_FLAGS: &str = "--backend= --lattice= --tol= --threads= --stop-depth= --second-phase \
    --no-split --no-priority --lean --shadow-priority --shadow-prune --max-tests= --fuel-limit= \
    --wall-limit-ms= --num-health";

/// The value of `--name=VALUE`, parsed; a value that does not parse is
/// a usage error.
fn value<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let v = args.iter().find_map(|a| a.strip_prefix(name)?.strip_prefix('='))?;
    Some(v.parse().unwrap_or_else(|_| usage(&format!("{name} wants a number, got {v:?}"))))
}

/// The validated [`JobSpec`] of `craft <cmd> <bench> [class] [flags]`.
/// A `--flag` in neither [`SPEC_FLAGS`] nor the command's own `extras`
/// (same spelling) is a usage error, as is a bad value.
fn spec_from_flags(cmd: &str, positional: &[&str], args: &[String], extras: &str) -> JobSpec {
    let known = |a: &str| {
        let key = a.find('=').map_or(a, |i| &a[..=i]);
        SPEC_FLAGS.split_whitespace().chain(extras.split_whitespace()).any(|f| f == key)
    };
    if let Some(bad) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
        usage(&format!("unknown flag `{bad}` for `craft {cmd}`"));
    }
    let bench = positional
        .get(1)
        .copied()
        .unwrap_or_else(|| usage(&format!("usage: craft {cmd} <bench> [class] [flags]")));
    let flag = |name: &str| args.iter().any(|a| a == name);
    let spec = JobSpec {
        bench: bench.to_string(),
        class: positional.get(2).copied().unwrap_or("w").to_string(),
        backend: value(args, "--backend").unwrap_or_default(),
        lattice: value(args, "--lattice").unwrap_or_default(),
        tol: value(args, "--tol"),
        threads: value(args, "--threads"),
        stop_depth: value(args, "--stop-depth").unwrap_or_default(),
        second_phase: flag("--second-phase"),
        binary_split: !flag("--no-split"),
        prioritize: !flag("--no-priority"),
        lean: flag("--lean"),
        shadow_priority: flag("--shadow-priority"),
        shadow_prune: flag("--shadow-prune"),
        max_tests: value(args, "--max-tests"),
        fuel_limit: value(args, "--fuel-limit"),
        wall_limit_ms: value(args, "--wall-limit-ms"),
        num_health: flag("--num-health"),
        inject_runner_panic: false,
    };
    spec.validate().unwrap_or_else(|e| usage(&e));
    spec
}

fn parse_indices(spec: &str) -> Vec<u64> {
    spec.split(',').filter_map(|t| t.trim().parse().ok()).collect()
}

/// Digest a JSONL search event log: per-phase timing, a verdict
/// histogram over evaluation attempts, robustness counters, and the
/// top-k most expensive evaluations. Returns an error (instead of
/// exiting) so run-directory reports can degrade gracefully.
fn render_report(path: &str, top: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    let mut malformed = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match Record::parse(line) {
            Ok(r) => records.push(r),
            Err(_) => malformed += 1,
        }
    }
    if records.is_empty() {
        return Err(format!(
            "{path}: no parseable events{}",
            if malformed > 0 { " (all malformed)" } else { "" }
        ));
    }
    let span_us = records.last().map(|r| r.t_us).unwrap_or(0);
    println!("event log   : {path}");
    println!(
        "events      : {}{}   span: {:.1} ms",
        records.len(),
        if malformed > 0 { format!(" (+{malformed} malformed)") } else { String::new() },
        span_us as f64 / 1e3
    );

    let searches: Vec<&Record> =
        records.iter().filter(|r| matches!(r.event, Event::SearchStarted { .. })).collect();
    for r in &searches {
        if let Event::SearchStarted { bench, candidates, threads } = &r.event {
            println!(
                "search      : {}  ({candidates} candidates, {threads} threads)",
                if bench.is_empty() { "<unnamed>" } else { bench }
            );
        }
    }

    println!("\nphase timing:");
    for r in &records {
        if let Event::PhaseFinished { phase, wall_us } = &r.event {
            println!("  {:<14} {:>10.1} ms", phase, *wall_us as f64 / 1e3);
        }
    }

    let mut verdicts: HashMap<Verdict, usize> = HashMap::new();
    let mut evals: Vec<(u64, u64, Verdict, String, bool)> = Vec::new();
    let mut cache_hits = 0usize;
    let mut retries = 0usize;
    let mut quarantines = 0usize;
    let mut max_depth = 0usize;
    for r in &records {
        match &r.event {
            Event::EvalFinished { idx, label, verdict, wall_us, cache_hit, .. } => {
                *verdicts.entry(*verdict).or_default() += 1;
                cache_hits += *cache_hit as usize;
                evals.push((*wall_us, *idx, *verdict, label.clone(), *cache_hit));
            }
            Event::Retry { .. } => retries += 1,
            Event::Quarantined { .. } => quarantines += 1,
            Event::QueueDepth { depth, .. } => max_depth = max_depth.max(*depth),
            _ => {}
        }
    }
    println!("\nverdicts ({} evaluation attempts):", evals.len());
    for v in Verdict::ALL {
        let n = verdicts.get(&v).copied().unwrap_or(0);
        if n > 0 || matches!(v, Verdict::Pass | Verdict::Fail) {
            println!("  {:<12} {n:>6}", v.as_str());
        }
    }
    println!(
        "\nretries: {retries}   quarantines: {quarantines}   cache hits: {cache_hits}   \
         max queue depth: {max_depth}"
    );

    evals.sort_by_key(|e| std::cmp::Reverse(e.0));
    println!("\ntop {} most expensive evaluations:", top.min(evals.len()));
    println!("  {:>10}  {:>5}  {:<11}  label", "wall", "idx", "verdict");
    for (wall_us, idx, verdict, label, cache_hit) in evals.iter().take(top) {
        println!(
            "  {:>8.1}ms  {idx:>5}  {:<11}  {label}{}",
            *wall_us as f64 / 1e3,
            verdict.as_str(),
            if *cache_hit { " (cached)" } else { "" }
        );
    }
    Ok(())
}

/// Render a trace snapshot: per-phase timeline (spans aggregated by
/// name, ordered by first start) and the top-k hottest instructions by
/// attributed interpreter cycles.
fn render_trace_report(path: &str, snap: &TraceSnapshot, top: usize) {
    println!("trace       : {path}");
    if !snap.spans.is_empty() {
        // Aggregate spans by name: repeated spans (one per work item)
        // collapse into count + total, one-shot phases keep their slot.
        struct Agg {
            first_start: u64,
            total_us: u64,
            count: u64,
        }
        let mut by_name: Vec<(String, Agg)> = Vec::new();
        for s in &snap.spans {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, a)) => {
                    a.first_start = a.first_start.min(s.start_us);
                    a.total_us += s.dur_us;
                    a.count += 1;
                }
                None => by_name.push((
                    s.name.clone(),
                    Agg { first_start: s.start_us, total_us: s.dur_us, count: 1 },
                )),
            }
        }
        by_name.sort_by_key(|(_, a)| a.first_start);
        println!("\nphase timeline ({} spans):", snap.spans.len());
        println!("  {:>10}  {:>12}  {:>6}  span", "start", "total", "count");
        for (name, a) in &by_name {
            println!(
                "  {:>8.1}ms  {:>10.1}ms  {:>6}  {name}",
                a.first_start as f64 / 1e3,
                a.total_us as f64 / 1e3,
                a.count
            );
        }
    }
    if !snap.hot.is_empty() {
        let mut hot: Vec<_> = snap.hot.iter().collect();
        hot.sort_by_key(|h| std::cmp::Reverse(h.cycles));
        let total: u64 = hot.iter().map(|h| h.cycles).sum();
        println!("\ntop {} hottest instructions ({total} attributed cycles):", top.min(hot.len()));
        println!("  {:>12}  {:>10}  {:>6}  insn", "cycles", "hits", "%");
        for h in hot.iter().take(top) {
            let label =
                if h.label.is_empty() { format!("insn {}", h.insn) } else { h.label.clone() };
            println!(
                "  {:>12}  {:>10}  {:>5.1}%  {label}",
                h.cycles,
                h.hits,
                100.0 * h.cycles as f64 / total.max(1) as f64
            );
        }
    }
    let interesting =
        ["exec.cache_hits", "exec.retries", "search.enqueued", "search.shadow_pruned"];
    let lines: Vec<String> = interesting
        .iter()
        .filter_map(|k| snap.counters.get(*k).map(|v| format!("{k}={v}")))
        .collect();
    if !lines.is_empty() {
        println!("\ncounters    : {}", lines.join("  "));
    }
}

/// `git describe --always --dirty`, best-effort (empty when git or the
/// repo is unavailable).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// Open the resolved registry (`--registry` > `$CRAFT_REGISTRY` >
/// `~/.craft/runs`); `None` with a note when nothing resolves.
fn open_registry(explicit: Option<&str>) -> Option<Registry> {
    let dir = Registry::resolve(explicit)?;
    match Registry::open(&dir) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("craft: warning: cannot open registry {}: {e}", dir.display());
            None
        }
    }
}

/// Resolve a run argument — a run directory, a bare `live.jsonl` path,
/// or the literal `latest` (most recent registry run) — to a concrete
/// path.
fn resolve_run_arg(arg: &str, registry_flag: Option<&str>) -> PathBuf {
    if arg == "latest" {
        let reg = open_registry(registry_flag)
            .unwrap_or_else(|| fail("no registry available to resolve `latest`".into()));
        match reg.latest(None) {
            Ok(Some(e)) => e.path,
            Ok(None) => fail(format!("registry {} has no recorded runs", reg.dir().display())),
            Err(e) => fail(e),
        }
    } else {
        PathBuf::from(arg)
    }
}

/// [`rundir::load_snapshot`], with its tolerated-defect warning (a
/// torn final line) on stderr.
fn load_run_snapshot(path: &Path) -> Result<rundir::RunSnapshot, String> {
    let run = rundir::load_snapshot(path)?;
    if let Some(w) = &run.warning {
        eprintln!("craft: warning: {w}");
    }
    Ok(run)
}

/// The manifest next to a run artifact (the directory itself, or the
/// artifact's parent directory). `None` when absent or unreadable.
fn load_run_manifest(path: &Path) -> Option<RunManifest> {
    let dir = if path.is_dir() { path } else { path.parent()? };
    match RunManifest::load(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("craft: warning: {e}");
            None
        }
    }
}

/// The `run : …` header line `report` and `watch` print for a manifest.
fn print_run_line(m: &RunManifest) {
    let git = if m.git.is_empty() { String::new() } else { format!(", git {}", m.git) };
    println!(
        "run         : {} ({}.{}, tol {:e}, {} threads{git})",
        m.id, m.bench, m.class, m.tol, m.threads
    );
}

/// Down-sample `values` to at most `cols` buckets (max within each) and
/// render them as a unicode spark-line.
fn sparkline(values: &[u64], cols: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let cols = cols.max(1).min(values.len());
    let mut sampled = Vec::with_capacity(cols);
    for c in 0..cols {
        let lo = c * values.len() / cols;
        let hi = ((c + 1) * values.len() / cols).max(lo + 1);
        sampled.push(values[lo..hi].iter().copied().max().unwrap_or(0));
    }
    let top = sampled.iter().copied().max().unwrap_or(0).max(1);
    sampled.iter().map(|&v| BARS[(v * 7).div_ceil(top).min(7) as usize]).collect()
}

/// Render one frame of `craft watch`: phase timeline, queue-depth
/// spark-line, verdict histogram, and hottest instructions so far.
fn render_watch(dir_label: &str, log: &LiveLog, manifest: Option<&RunManifest>, top: usize) {
    println!("watching    : {dir_label}");
    if let Some(m) = manifest {
        print_run_line(m);
    }
    if let Some(w) = &log.warning {
        println!("warning     : {w}");
    }

    // Phase timeline: first/last t_us per phase, in first-seen order.
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    for p in &log.progress {
        match phases.iter_mut().find(|(n, _, _)| *n == p.progress.phase) {
            Some((_, _, last)) => *last = p.t_us,
            None => phases.push((p.progress.phase.clone(), p.t_us, p.t_us)),
        }
    }
    if !phases.is_empty() {
        println!("\nphase timeline:");
        for (name, first, last) in &phases {
            println!(
                "  {:<14} {:>8.1} ms -> {:>8.1} ms",
                name,
                *first as f64 / 1e3,
                *last as f64 / 1e3
            );
        }
    }

    let depths: Vec<u64> = log.progress.iter().map(|p| p.progress.queue_depth).collect();
    if let Some(last) = log.latest_progress() {
        println!("\nqueue depth : {} (now {})", sparkline(&depths, 60), last.progress.queue_depth);
        let eta = match last.eta_us {
            Some(e) => format!("   eta ~{:.1}s", e as f64 / 1e6),
            None => String::new(),
        };
        println!(
            "progress    : phase {}  done {}/{}  in-flight {}{eta}",
            last.progress.phase,
            last.progress.done,
            last.progress.total_estimate,
            last.progress.in_flight
        );
        if !last.verdicts.is_empty() {
            let total: u64 = last.verdicts.values().sum();
            println!("\nverdicts ({total} attempts):");
            for (name, n) in &last.verdicts {
                let width = (n * 40).div_ceil(total.max(1)) as usize;
                println!("  {:<12} {n:>6}  {}", name, "#".repeat(width));
            }
        }
    }

    let snap = log.final_snapshot();
    if !snap.hot.is_empty() {
        let mut hot: Vec<_> = snap.hot.iter().collect();
        hot.sort_by_key(|h| std::cmp::Reverse(h.cycles));
        println!("\nhottest instructions so far:");
        for h in hot.iter().take(top) {
            let label =
                if h.label.is_empty() { format!("insn {}", h.insn) } else { h.label.clone() };
            println!("  {:>12} cycles  {:>8} hits  {label}", h.cycles, h.hits);
        }
    }
}

/// The daemon address for client-mode subcommands: `--daemon=HOST:PORT`
/// beats `$CRAFTD_ADDR` beats the craftd default `127.0.0.1:7050`.
fn daemon_addr(explicit: Option<String>) -> String {
    explicit
        .or_else(|| std::env::var("CRAFTD_ADDR").ok().filter(|s| !s.is_empty()))
        .unwrap_or_else(|| "127.0.0.1:7050".into())
}

/// The daemon's `{"error":…}` message, or the raw body if it isn't one.
fn daemon_error(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| body.trim().to_string())
}

/// Render one daemon job record. Completed jobs print the same labelled
/// summary lines as `craft analyze`, so daemon output and in-process
/// output can be diffed directly. Returns the exit code (1 for
/// failed/crashed jobs).
fn render_job_record(v: &Value) -> i32 {
    let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("");
    let state = s("state");
    println!("job                  : {}", s("id"));
    if !s("trace").is_empty() {
        println!("trace id             : {}", s("trace"));
    }
    println!("state                : {state}");
    match state {
        "done" => {
            println!("benchmark            : {}.{}", s("bench"), s("class"));
            if let Some(sum) = v.get("summary").filter(|s| s.get("candidates").is_some()) {
                let n = |k: &str| sum.get(k).and_then(Value::as_u64).unwrap_or(0);
                let f = |k: &str| sum.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                println!("candidates           : {}", n("candidates"));
                println!("configurations tested: {}", n("tested"));
                println!("replaced (static)    : {:.1}%", f("static_pct"));
                println!("replaced (dynamic)   : {:.1}%", f("dynamic_pct"));
                println!(
                    "final verification   : {}",
                    if sum.get("final_pass").and_then(Value::as_bool).unwrap_or(false) {
                        "pass"
                    } else {
                        "fail"
                    }
                );
            }
            println!(
                "modelled speedup     : {:.2}x",
                v.get("modelled_speedup").and_then(Value::as_f64).unwrap_or(0.0)
            );
            println!(
                "search wall time     : {:.2}s",
                v.get("wall_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6
            );
            println!(
                "cache hits           : {}",
                v.get("cache_hits").and_then(Value::as_u64).unwrap_or(0)
            );
            if let Some(n) = v.get("regressions").and_then(Value::as_u64) {
                println!("regressions          : {n} (vs previous run of this bench)");
            }
            0
        }
        "failed" | "crashed" => {
            println!("error                : {}", s("error"));
            1
        }
        _ => 0,
    }
}

/// Parse a Prometheus text exposition into `(series, value)` rows:
/// comment lines are skipped and the series string keeps its label set,
/// so lookups are exact-match on `name` or `name{labels}`.
fn parse_prom(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, val) = l.rsplit_once(' ')?;
            Some((name.to_string(), val.parse().ok()?))
        })
        .collect()
}

/// Exact-name lookup in a parsed exposition.
fn prom_get(series: &[(String, f64)], name: &str) -> Option<f64> {
    series.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Sum of a job's abnormal-FP-event counters from the unified
/// exposition: NaN/Inf/underflow/subnormal results plus quantize
/// saturations and flushes. Only the job-wide totals are summed — the
/// per-instruction breakdown series (those carrying an `insn` label)
/// cover the same events and would double-count. `None` when the job
/// exported no `craft_fp_*` series at all (run without `--num-health`),
/// so the dashboard can distinguish "unobserved" from "clean".
fn fp_anomalies(series: &[(String, f64)], job: &str) -> Option<u64> {
    const FP: &[&str] = &[
        "craft_fp_nan_total",
        "craft_fp_inf_total",
        "craft_fp_underflow_total",
        "craft_fp_subnormal_total",
        "craft_fp_sat_total",
        "craft_fp_flush_total",
    ];
    let tag = format!("job=\"{job}\"");
    let mut seen = false;
    let mut sum = 0.0;
    for (name, v) in series {
        let base = name.split('{').next().unwrap_or(name);
        if base.starts_with("craft_fp_") && name.contains(&tag) {
            seen = true; // armed: `fp.result` exports even for clean runs
            if FP.contains(&base) && !name.contains("insn=\"") {
                sum += v;
            }
        }
    }
    seen.then_some(sum as u64)
}

/// One frame of `craft top`: daemon request/queue/cache lines from the
/// unified `/metrics` exposition, a latency spark-line, and a per-job
/// table; running jobs are tailed from their `live.jsonl` when the data
/// directory is known. Returns `(requests_total, now)` so the next
/// frame can show a request rate.
fn render_top(
    addr: &str,
    series: &[(String, f64)],
    jobs: &[Value],
    data_dir: Option<&Path>,
    tails: &mut HashMap<String, LiveTail>,
    prev: Option<(f64, std::time::Instant)>,
) -> (f64, std::time::Instant) {
    let now = std::time::Instant::now();
    let g = |name: &str| prom_get(series, name).unwrap_or(0.0);
    let requests = g("craft_http_requests_total");
    let rate_txt = prev
        .map(|(r0, t0)| {
            let dt = now.duration_since(t0).as_secs_f64();
            format!("  ({:.1}/s)", if dt > 0.0 { (requests - r0).max(0.0) / dt } else { 0.0 })
        })
        .unwrap_or_default();
    println!("craftd      : {addr}");
    println!(
        "requests    : {requests:.0} total{rate_txt}   in-flight {:.0}   open conns {:.0}   \
         keepalive reuse {:.0}   parse errors {:.0}",
        g("craft_http_in_flight"),
        g("craft_http_open_connections"),
        g("craft_http_keepalive_reuse_total"),
        g("craft_http_parse_errors_total"),
    );
    println!(
        "jobs        : queue {:.0}   running {:.0}   submitted {:.0}   completed {:.0}   \
         failed {:.0}   crashed {:.0}   shed {:.0}",
        g("craft_daemon_queue_depth"),
        g("craft_daemon_jobs_running"),
        g("craft_daemon_jobs_submitted_total"),
        g("craft_daemon_jobs_completed_total"),
        g("craft_daemon_jobs_failed_total"),
        g("craft_daemon_jobs_crashed_total"),
        g("craft_daemon_jobs_shed_total"),
    );
    let (hits, misses) = (g("craft_daemon_cache_hits"), g("craft_daemon_cache_misses"));
    let ratio = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };
    println!(
        "shared cache: {hits:.0} hits / {misses:.0} misses ({ratio:.0}%)   entries {:.0}",
        g("craft_daemon_cache_entries")
    );
    // The log2 latency histogram, rendered as per-bucket counts.
    let mut buckets: Vec<(f64, f64)> = series
        .iter()
        .filter_map(|(n, v)| {
            let le = n.strip_prefix("craft_http_latency_us_bucket{le=\"")?.strip_suffix("\"}")?;
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((le, *v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = g("craft_http_latency_us_count");
    if buckets.is_empty() || count <= 0.0 {
        // No latency samples yet (e.g. `--once` against a daemon that
        // has served nothing): render an explicit placeholder instead
        // of a meaningless all-zero spark-line / `mean 0us over 0`.
        println!("latency     : -");
    } else {
        let mut cum = 0.0;
        let counts: Vec<u64> = buckets
            .iter()
            .map(|(_, c)| {
                let d = (c - cum).max(0.0);
                cum = *c;
                d as u64
            })
            .collect();
        let mean = g("craft_http_latency_us_sum") / count;
        println!(
            "latency     : {}  mean {mean:.0}us over {count:.0} requests",
            sparkline(&counts, 32)
        );
    }
    if jobs.is_empty() {
        println!("\n(no jobs)");
    } else {
        println!(
            "\n{:<34}  {:<8}  {:<10}  {:>9}  {:>6}  {:>7}  live",
            "id", "state", "bench", "wall", "hits", "fp!"
        );
        for j in jobs {
            let s = |k: &str| j.get(k).and_then(Value::as_str).unwrap_or("");
            let (id, state) = (s("id"), s("state"));
            let mut live = String::new();
            if state == "running" {
                match data_dir {
                    Some(dir) => {
                        let path = dir.join("jobs").join(id).join("live.jsonl");
                        let tail =
                            tails.entry(id.to_string()).or_insert_with(|| LiveTail::new(&path));
                        if tail.poll().is_ok() {
                            let _ = tail.take_raw();
                            if let Some(p) = tail.log().latest_progress() {
                                let eta = p
                                    .eta_us
                                    .map(|e| format!("  eta ~{:.1}s", e as f64 / 1e6))
                                    .unwrap_or_default();
                                live = format!(
                                    "{} {}/{}{eta}",
                                    p.progress.phase, p.progress.done, p.progress.total_estimate
                                );
                            }
                        }
                    }
                    None => live = "(pass --data=DIR to tail)".into(),
                }
            }
            println!(
                "{:<34}  {:<8}  {:<10}  {:>8.2}s  {:>6}  {:>7}  {live}",
                id,
                state,
                format!("{}.{}", s("bench"), s("class")),
                j.get("wall_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6,
                j.get("cache_hits").and_then(Value::as_u64).unwrap_or(0),
                fp_anomalies(series, id).map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
            );
        }
    }
    (requests, now)
}

/// Human name for a config flag token as stored in decision records.
fn flag_name(tok: &str) -> &'static str {
    match tok {
        "d" => "double",
        "s" => "single",
        "h" => "half",
        "b" => "bf16",
        "i" => "ignored",
        _ => "custom",
    }
}

/// `craft explain`: per-instruction decision timelines from a run
/// directory's `decisions.jsonl`, then the numerical-health hot lists
/// from its trace snapshot. Every line of a timeline names the exact
/// evidence the search acted on — the unit that passed or failed at
/// each lattice level, the verdict, the shadow error metric, or the
/// range-guard envelope that refused a demotion — so "why is this
/// instruction half?" has a mechanical answer.
fn render_explain(
    dir: &Path,
    records: &[mpsearch::decisions::DecisionRecord],
    insn: Option<u64>,
    func: Option<&str>,
    top: usize,
) {
    use mpsearch::decisions::DecisionEvent as Ev;
    let replaced =
        records.iter().filter(|r| r.final_format != "d" && r.final_format != "i").count();
    let ignored = records.iter().filter(|r| matches!(r.events.as_slice(), [Ev::Ignored])).count();
    println!("run        : {}", dir.display());
    println!(
        "decisions  : {} instructions ({replaced} replaced, {} kept double, {ignored} ignored)",
        records.len(),
        records.len() - replaced - ignored,
    );
    let filtered = insn.is_some() || func.is_some();
    let shown: Vec<_> = records
        .iter()
        .filter(|r| {
            if let Some(a) = insn {
                return r.addr == a;
            }
            if let Some(f) = func {
                return r.func == f;
            }
            // Unfiltered view: skip the ignored bulk (loads, stores,
            // control flow) — a filter brings them back.
            !matches!(r.events.as_slice(), [Ev::Ignored])
        })
        .collect();
    if filtered && shown.is_empty() {
        println!("\n(no instructions match the filter)");
    }
    for r in &shown {
        println!("\ninsn {:>3} @{:#x}  {}", r.insn, r.addr, r.label);
        println!("  final : {} ({})", r.final_format, flag_name(&r.final_format));
        for ev in &r.events {
            match ev {
                Ev::Passed { level, format, unit } => {
                    println!("  - passed        level {level} ({format}) in {unit}");
                }
                Ev::Failed { level, format, verdict, unit, shadow_err } => {
                    let err =
                        shadow_err.map(|e| format!("  shadow-err {e:.3e}")).unwrap_or_default();
                    println!(
                        "  - failed        level {level} ({format}) verdict {} in {unit}{err}",
                        verdict.as_str()
                    );
                }
                Ev::GuardRefused { format, class, max_abs, min_abs, bound } => {
                    println!(
                        "  - guard-refused {format}: {class} observed |x| in \
                         [{min_abs:.3e}, {max_abs:.3e}], bound {bound:.3e}"
                    );
                }
                Ev::ShadowPruned { level, format, err, threshold, unit } => {
                    println!(
                        "  - shadow-pruned level {level} ({format}): predicted err {err:.3e} \
                         > threshold {threshold:.3e} in {unit}"
                    );
                }
                Ev::Dropped { unit } => {
                    println!("  - dropped       by second phase from passing unit {unit}");
                }
                Ev::Ignored => println!("  - ignored       (not a tunable FP instruction)"),
            }
        }
        if r.events.is_empty() {
            println!("  - untested      (kept at base format; never isolated by the search)");
        }
    }
    render_num_health(dir, records, top);
}

/// The numerical-health tail of `craft explain`: totals plus hot lists
/// ("top NaN producers", "insns saturating at bf16") from the run's
/// `fp.*` counter family. Absent counters mean the run was not armed —
/// say so instead of printing an empty section.
fn render_num_health(dir: &Path, records: &[mpsearch::decisions::DecisionRecord], top: usize) {
    let snap = match load_run_snapshot(dir) {
        Ok(run) => run.snap,
        Err(_) => {
            println!("\nnumerical health: (no trace snapshot in this run directory)");
            return;
        }
    };
    if !snap.counters.keys().any(|k| k.starts_with("fp.")) {
        println!(
            "\nnumerical health: (none recorded — rerun `craft analyze --num-health --trace=DIR`)"
        );
        return;
    }
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    println!("\n--- numerical health ---");
    println!(
        "fp results : {}   nan {}   inf {}   underflow {}   subnormal {}",
        c("fp.result"),
        c("fp.nan"),
        c("fp.inf"),
        c("fp.underflow"),
        c("fp.subnormal")
    );
    for (k, v) in &snap.counters {
        let Some(fmt) = k.strip_prefix("fp.quantize.") else { continue };
        println!(
            "quantize   : {fmt} {v}   sat {}   flush {}",
            c(&format!("fp.sat.{fmt}")),
            c(&format!("fp.flush.{fmt}"))
        );
    }
    let labels: HashMap<u32, &str> = records.iter().map(|r| (r.insn, r.label.as_str())).collect();
    // Per-instruction series are `fp.<kind>.i<id>` where <kind> is
    // `nan`/`inf`/`underflow`/`subnormal`/`sat.<fmt>`/`flush.<fmt>`.
    let mut by_kind: std::collections::BTreeMap<&str, Vec<(u64, u32)>> = Default::default();
    for (k, v) in &snap.counters {
        let Some(rest) = k.strip_prefix("fp.") else { continue };
        let Some((kind, id)) = rest.rsplit_once(".i") else { continue };
        let Ok(id) = id.parse::<u32>() else { continue };
        by_kind.entry(kind).or_default().push((*v, id));
    }
    let hot = |kind: &str, title: String| {
        let Some(rows) = by_kind.get(kind) else { return };
        let mut rows = rows.clone();
        rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        println!("{title}:");
        for (v, id) in rows.iter().take(top) {
            println!("  {v:>10}  insn {id:>3}  {}", labels.get(id).copied().unwrap_or("?"));
        }
    };
    hot("nan", "top NaN producers".into());
    hot("inf", "top Inf producers".into());
    hot("underflow", "top underflow-to-zero sites".into());
    hot("subnormal", "top subnormal producers".into());
    for kind in by_kind.keys() {
        if let Some(fmt) = kind.strip_prefix("sat.") {
            hot(kind, format!("insns saturating at {fmt}"));
        }
    }
    for kind in by_kind.keys() {
        if let Some(fmt) = kind.strip_prefix("flush.") {
            hot(kind, format!("insns flushing to zero at {fmt}"));
        }
    }
}

/// Restore the default SIGPIPE disposition so `craft … | head` dies
/// quietly instead of panicking on the broken pipe (Rust's runtime
/// ignores SIGPIPE by default). Hand-rolled signal(2) binding — the
/// toolchain has no libc crate (same idiom as craftd's handlers).
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() {
    restore_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| !a.starts_with("--")).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter().find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
    };

    let cmd = positional.first().copied().unwrap_or("help");
    match cmd {
        "list" => {
            println!("benchmarks: {}", BENCHES.join(", "));
            println!("classes:    s (sample), w (workstation), a, c");
        }
        "report" => {
            let path = positional
                .get(1)
                .copied()
                .unwrap_or_else(|| usage("usage: craft report <events.jsonl|run-dir> [--top=N]"));
            let top = opt("--top").and_then(|t| t.parse().ok()).unwrap_or(5);
            if Path::new(path).is_dir() {
                // A run directory as written by `craft analyze --trace=DIR`:
                // digest whatever artifacts it holds and note the rest, so a
                // partial (crashed, rsynced, pruned) directory still reports.
                let dir = Path::new(path);
                let mut reported = false;
                let mut absent: Vec<&str> = Vec::new();
                match load_run_manifest(dir) {
                    Some(m) => {
                        print_run_line(&m);
                        println!("wall time   : {:.2}s", m.wall_us as f64 / 1e6);
                        if let Some(s) = &m.summary {
                            println!(
                                "summary     : {} tested / {} candidates, static {:.1}%, \
                                 dynamic {:.1}%, final {}",
                                s.tested,
                                s.candidates,
                                s.static_pct,
                                s.dynamic_pct,
                                if s.final_pass { "pass" } else { "fail" }
                            );
                        }
                        reported = true;
                    }
                    None => absent.push("manifest.json"),
                }
                let events = dir.join("events.jsonl");
                if events.is_file() {
                    if reported {
                        println!();
                    }
                    match render_report(&events.display().to_string(), top) {
                        Ok(()) => reported = true,
                        Err(e) => eprintln!("craft: warning: {e}"),
                    }
                } else {
                    absent.push("events.jsonl");
                }
                // The trace is the fold of the live stream, whole or,
                // for a run that crashed mid-search, up to the crash.
                let live = dir.join(rundir::LIVE_FILE);
                if live.is_file() {
                    match load_run_snapshot(dir) {
                        Ok(run) => {
                            if reported {
                                println!();
                            }
                            render_trace_report(&live.display().to_string(), &run.snap, top);
                            reported = true;
                        }
                        Err(e) => eprintln!("craft: warning: {e}"),
                    }
                } else {
                    absent.push(rundir::LIVE_FILE);
                }
                if !absent.is_empty() {
                    println!("\n(absent from run directory: {})", absent.join(", "));
                }
                if !reported {
                    fail(format!(
                        "{path}: nothing reportable (no readable manifest.json, events.jsonl \
                         or live.jsonl)"
                    ));
                }
            } else {
                render_report(path, top).unwrap_or_else(|e| fail(e));
            }
        }
        "metrics" => {
            let path = positional.get(1).copied().unwrap_or_else(|| {
                usage("usage: craft metrics <run-dir|live.jsonl> [--prom=FILE] [--folded=FILE]")
            });
            let snap = load_run_snapshot(Path::new(path)).unwrap_or_else(|e| fail(e)).snap;
            let prom_out = opt("--prom");
            let folded_out = opt("--folded");
            if let Some(f) = &folded_out {
                std::fs::write(f, sinks::folded(&snap))
                    .unwrap_or_else(|e| fail(format!("cannot write {f}: {e}")));
                eprintln!("folded stacks written to {f}");
            }
            match &prom_out {
                Some(f) => {
                    std::fs::write(f, sinks::prometheus(&snap))
                        .unwrap_or_else(|e| fail(format!("cannot write {f}: {e}")));
                    eprintln!("prometheus exposition written to {f}");
                }
                // default: exposition on stdout unless --folded alone was asked for
                None if folded_out.is_none() => print!("{}", sinks::prometheus(&snap)),
                None => {}
            }
        }
        "analyze" | "shadow" | "overhead" | "tree" | "config" => {
            let extras = match cmd {
                "analyze" => "--trace= --events= --registry= --inject-panic= --inject-timeout=",
                "shadow" => "--top= --out=",
                _ => "",
            };
            let spec = spec_from_flags(cmd, &positional, &args, extras);
            let mut sys = AnalysisSystem::with_options(
                spec.workload().unwrap_or_else(|e| usage(&e)),
                spec.options().unwrap_or_else(|e| usage(&e)),
            );
            let bench = format!("{}.{}", spec.bench, spec.class);
            match cmd {
                "analyze" => {
                    // --trace=DIR collects a full run directory (see
                    // `mixedprec::rundir`); --events=FILE logs an untraced
                    // run's events.
                    let trace_dir = opt("--trace");
                    let run = trace_dir.as_deref().map(|dir| {
                        if opt("--events").is_some() {
                            usage("--events and --trace are exclusive: a traced run logs DIR/events.jsonl");
                        }
                        RunDir::create(Path::new(dir), &mut sys).unwrap_or_else(|e| fail(e))
                    });
                    let events = opt("--events").map(|path| {
                        EventLog::to_file(&path).unwrap_or_else(|e| {
                            fail(format!("cannot create event log {path}: {e}"))
                        })
                    });
                    let faults = FaultPlan {
                        panic_at: opt("--inject-panic")
                            .map(|s| parse_indices(&s))
                            .unwrap_or_default(),
                        timeout_at: opt("--inject-timeout")
                            .map(|s| parse_indices(&s))
                            .unwrap_or_default(),
                        ..Default::default()
                    };
                    let hooks = match &run {
                        Some(run) => SearchHooks { faults, ..run.hooks(bench.clone()) },
                        None => SearchHooks {
                            bench: bench.clone(),
                            faults,
                            events: events.as_ref(),
                            ..Default::default()
                        },
                    };
                    let rec = sys.recommend_with(&hooks);
                    let r = &rec.report;
                    println!("benchmark            : {bench}");
                    println!("candidates           : {}", r.candidates);
                    println!("configurations tested: {}", r.configs_tested);
                    println!("replaced (static)    : {:.1}%", r.static_pct);
                    println!("replaced (dynamic)   : {:.1}%", r.dynamic_pct);
                    println!(
                        "final verification   : {}",
                        if r.final_pass { "pass" } else { "fail" }
                    );
                    println!("modelled speedup     : {:.2}x", rec.modelled_speedup);
                    println!("search wall time     : {:.2?}", r.elapsed);
                    if r.timeouts + r.crashes + r.retries + r.quarantined > 0 {
                        println!(
                            "executor faults      : {} timeouts, {} crashes, {} retries, {} quarantined",
                            r.timeouts, r.crashes, r.retries, r.quarantined
                        );
                    }
                    if r.pruned_by_shadow > 0 {
                        println!("shadow-pruned        : {}", r.pruned_by_shadow);
                    }
                    if r.guard_refused > 0 {
                        println!("guard-refused        : {}", r.guard_refused);
                    }
                    if !spec.lattice.is_empty() {
                        let rows: Vec<String> = r
                            .format_breakdown(sys.tree())
                            .into_iter()
                            .map(|(tok, n)| format!("{tok}:{n}"))
                            .collect();
                        println!("precision breakdown  : {}", rows.join("  "));
                    }
                    println!("\n--- recommended configuration ---");
                    print!("{}", rec.config_text);
                    if let (Some(run), Some(dir)) = (run, trace_dir) {
                        let created = registry::unix_now();
                        // An in-process run has no cross-process trace id.
                        let stamp = RunManifest {
                            id: registry::new_run_id(&spec.bench, created),
                            git: git_describe(),
                            created_unix: created,
                            wall_us: r.elapsed.as_micros() as u64,
                            ..Default::default()
                        };
                        let done = run.finish(&spec, &sys, &rec, stamp);
                        eprintln!("trace written to {dir}/{}", rundir::LIVE_FILE);
                        // Neither the decisions nor the manifest and its
                        // registry record may fail the finished analysis.
                        for (err, what, file) in [
                            (done.decisions_error, "decisions", rundir::DECISIONS_FILE),
                            (done.manifest_error, "manifest", rundir::MANIFEST_FILE),
                        ] {
                            match err {
                                None => eprintln!("{what} written to {dir}/{file}"),
                                Some(e) => eprintln!("craft: warning: {e}"),
                            }
                        }
                        let manifest = done.manifest;
                        if let Some(reg) = open_registry(opt("--registry").as_deref()) {
                            match reg.record(&manifest, &dir) {
                                Ok(()) => eprintln!(
                                    "run {} recorded in {}",
                                    manifest.id,
                                    reg.dir().display()
                                ),
                                Err(e) => eprintln!("craft: warning: cannot record run: {e}"),
                            }
                        }
                    }
                }
                "shadow" => {
                    let profile = sys.shadow_profile();
                    let tree = sys.tree();
                    println!("benchmark            : {bench}");
                    println!("instructions shadowed: {}", profile.len());
                    println!(
                        "shadowed executions  : {}",
                        profile.insns.values().map(|s| s.count).sum::<u64>()
                    );
                    println!("cancellation events  : {}", profile.total_cancellations());

                    // label lookup: instruction id -> structure-tree position
                    let mut labels = HashMap::new();
                    for (mi, m) in tree.modules.iter().enumerate() {
                        for (fi, f) in m.funcs.iter().enumerate() {
                            for (bi, b) in f.blocks.iter().enumerate() {
                                for (ii, e) in b.insns.iter().enumerate() {
                                    labels.insert(e.id.0, mpconfig::NodeRef::Insn(mi, fi, bi, ii));
                                }
                            }
                        }
                    }
                    let top = opt("--top").and_then(|t| t.parse().ok()).unwrap_or(10);
                    let mut ranked: Vec<_> = profile.insns.iter().collect();
                    ranked.sort_by(|a, b| b.1.max_rel.total_cmp(&a.1.max_rel).then(a.0.cmp(b.0)));
                    println!("\ntop {} by max divergence:", top.min(ranked.len()));
                    println!(
                        "  {:>9}  {:>9}  {:>8}  {:>7}  insn",
                        "max_rel", "mean_rel", "count", "cancels"
                    );
                    for (id, s) in ranked.iter().take(top) {
                        let label = labels
                            .get(id)
                            .map(|&n| tree.label(n))
                            .unwrap_or_else(|| format!("insn {id}"));
                        println!(
                            "  {:>9.2e}  {:>9.2e}  {:>8}  {:>7}  {label}",
                            s.max_rel,
                            s.mean_rel(),
                            s.count,
                            s.cancels
                        );
                    }

                    let blocks = profile.block_aggregates(tree);
                    if !blocks.is_empty() {
                        println!("\nper-block aggregates:");
                        println!("  {:>9}  {:>8}  {:>7}  block", "max_rel", "count", "cancels");
                        for (node, agg) in &blocks {
                            println!(
                                "  {:>9.2e}  {:>8}  {:>7}  {}",
                                agg.max_rel,
                                agg.count,
                                agg.cancels,
                                tree.label(*node)
                            );
                        }
                    }

                    if let Some(path) = opt("--out") {
                        profile
                            .to_file(&path)
                            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
                        println!("\nprofile written to {path}");
                    }
                }
                "overhead" => {
                    let o = sys.overhead_all_double();
                    println!("benchmark    : {bench}");
                    println!("instrumented : {} candidates", o.instrumented);
                    println!("wall ratio   : {:.1}X", o.wall_x);
                    println!("steps ratio  : {:.1}X", o.steps_x);
                }
                "tree" => print!("{}", render_tree(sys.tree(), sys.base_config())),
                "config" => print!("{}", print_config(sys.tree(), sys.base_config())),
                _ => unreachable!(),
            }
        }
        "submit" => {
            let spec = spec_from_flags(cmd, &positional, &args, "--daemon= --follow");
            let addr = daemon_addr(opt("--daemon"));
            // Mint the cross-process trace id here, at the origin of the
            // request chain: it links this submit to the daemon's log,
            // the job record/manifest, and the run-dir spans.
            let trace = registry::new_run_id("tr", registry::unix_now());
            let mut client = Client::new(&addr);
            client.set_trace(&trace);
            let (code, body) =
                client.request("POST", "/jobs", Some(&spec.to_json())).unwrap_or_else(|e| fail(e));
            if code != 202 {
                fail(format!("daemon {addr} rejected the job ({code}): {}", daemon_error(&body)));
            }
            let id = json::parse(&body)
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
                .unwrap_or_else(|| fail(format!("daemon returned no job id: {body}")));
            if !flag("--follow") {
                // The id alone on stdout, for scripting; decoration on stderr.
                eprintln!("craft: job {id} queued on {addr} (trace {trace})");
                println!("{id}");
            } else {
                eprintln!("craft: job {id} queued on {addr}, following live stream");
                let mut records = 0usize;
                let code = client
                    .stream("GET", &format!("/jobs/{id}/live"), None, &mut |piece| {
                        records += piece.lines().count()
                    })
                    .unwrap_or_else(|e| fail(e));
                if code != 200 {
                    fail(format!("daemon {addr} refused the live stream ({code})"));
                }
                eprintln!("craft: followed {records} live records to completion");
                let (code, body) =
                    client.request("GET", &format!("/jobs/{id}"), None).unwrap_or_else(|e| fail(e));
                if code != 200 {
                    fail(format!("daemon {addr} answered {code}: {}", daemon_error(&body)));
                }
                let v = json::parse(&body)
                    .unwrap_or_else(|e| fail(format!("malformed job record: {e}")));
                let rc = render_job_record(&v);
                if rc != 0 {
                    std::process::exit(rc);
                }
            }
        }
        "status" => {
            let id = positional
                .get(1)
                .copied()
                .unwrap_or_else(|| usage("usage: craft status <job-id> [--daemon=HOST:PORT]"));
            let addr = daemon_addr(opt("--daemon"));
            let (code, body) = http::request(&addr, "GET", &format!("/jobs/{id}"), None)
                .unwrap_or_else(|e| fail(e));
            if code != 200 {
                fail(format!("daemon {addr} answered {code}: {}", daemon_error(&body)));
            }
            let v =
                json::parse(&body).unwrap_or_else(|e| fail(format!("malformed job record: {e}")));
            let rc = render_job_record(&v);
            if rc != 0 {
                std::process::exit(rc);
            }
        }
        "jobs" => {
            let addr = daemon_addr(opt("--daemon"));
            let (code, body) =
                http::request(&addr, "GET", "/jobs", None).unwrap_or_else(|e| fail(e));
            if code != 200 {
                fail(format!("daemon {addr} answered {code}: {}", daemon_error(&body)));
            }
            let v = json::parse(&body).unwrap_or_else(|e| fail(format!("malformed job list: {e}")));
            let jobs = v.as_arr().unwrap_or(&[]);
            println!("daemon      : {addr}");
            if jobs.is_empty() {
                println!("(no jobs)");
            } else {
                println!(
                    "{:<34}  {:<8}  {:<10}  {:>9}  {:>6}",
                    "id", "state", "bench", "wall", "hits"
                );
                for j in jobs {
                    let s = |k: &str| j.get(k).and_then(Value::as_str).unwrap_or("");
                    println!(
                        "{:<34}  {:<8}  {:<10}  {:>8.2}s  {:>6}",
                        s("id"),
                        s("state"),
                        format!("{}.{}", s("bench"), s("class")),
                        j.get("wall_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6,
                        j.get("cache_hits").and_then(Value::as_u64).unwrap_or(0),
                    );
                }
            }
        }
        "top" => {
            let addr = daemon_addr(opt("--daemon"));
            let once = flag("--once");
            let interval = opt("--interval-ms").and_then(|v| v.parse().ok()).unwrap_or(1000u64);
            // The daemon's data directory, for tailing running jobs'
            // live streams; without it the dashboard degrades to the
            // HTTP-only view.
            let data_dir: Option<PathBuf> = opt("--data")
                .map(PathBuf::from)
                .or_else(|| {
                    std::env::var("CRAFTD_DATA").ok().filter(|s| !s.is_empty()).map(PathBuf::from)
                })
                .or_else(|| {
                    std::env::var_os("HOME")
                        .map(|h| PathBuf::from(h).join(".craft").join("craftd"))
                        .filter(|p| p.is_dir())
                });
            let mut client = Client::new(&addr);
            let mut tails: HashMap<String, LiveTail> = HashMap::new();
            let mut prev: Option<(f64, std::time::Instant)> = None;
            loop {
                let (code, metrics) =
                    client.request("GET", "/metrics", None).unwrap_or_else(|e| fail(e));
                if code != 200 {
                    fail(format!("daemon {addr} answered {code} for /metrics"));
                }
                let (code, jobs_body) =
                    client.request("GET", "/jobs", None).unwrap_or_else(|e| fail(e));
                if code != 200 {
                    fail(format!("daemon {addr} answered {code} for /jobs"));
                }
                let series = parse_prom(&metrics);
                let jobs_v = json::parse(&jobs_body)
                    .unwrap_or_else(|e| fail(format!("malformed job list: {e}")));
                if !once {
                    print!("\x1b[2J\x1b[H"); // clear screen between frames
                }
                prev = Some(render_top(
                    &addr,
                    &series,
                    jobs_v.as_arr().unwrap_or(&[]),
                    data_dir.as_deref(),
                    &mut tails,
                    prev,
                ));
                if once {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval));
            }
        }
        "runs" => {
            let reg = open_registry(opt("--registry").as_deref()).unwrap_or_else(|| {
                fail("no registry available (set --registry=DIR, $CRAFT_REGISTRY, or $HOME)".into())
            });
            let (mut entries, warn) = reg.entries().unwrap_or_else(|e| fail(e));
            if let Some(w) = warn {
                eprintln!("craft: warning: {}: {w}", reg.dir().display());
            }
            if let Some(b) = opt("--bench") {
                entries.retain(|e| e.bench == b);
            }
            println!("registry    : {}", reg.dir().display());
            if entries.is_empty() {
                println!("(no recorded runs)");
            } else {
                println!(
                    "{:<34}  {:<8}  {:>9}  {:<5}  {:<20}  path",
                    "id", "bench", "wall", "final", "trace"
                );
                for e in &entries {
                    // The index line itself carries no trace id; pull it
                    // from the run's manifest. Blank for legacy manifests
                    // (pre-trace-propagation) and unreadable run dirs.
                    let trace = load_run_manifest(&e.path).map(|m| m.trace_id).unwrap_or_default();
                    println!(
                        "{:<34}  {:<8}  {:>8.2}s  {:<5}  {:<20}  {}",
                        e.id,
                        e.bench,
                        e.wall_us as f64 / 1e6,
                        if e.final_pass { "pass" } else { "fail" },
                        trace,
                        e.path.display()
                    );
                }
            }
        }
        "explain" => {
            let arg = positional.get(1).copied().unwrap_or_else(|| {
                usage("usage: craft explain <run-dir|latest> [--insn=ADDR] [--func=NAME] [--top=N]")
            });
            let run = resolve_run_arg(arg, opt("--registry").as_deref());
            let dir = if run.is_dir() {
                run.clone()
            } else {
                run.parent().map(Path::to_path_buf).unwrap_or(run)
            };
            let dpath = dir.join("decisions.jsonl");
            if !dpath.is_file() {
                fail(format!(
                    "{}: no decisions.jsonl — record one with `craft analyze <bench> --trace={}`",
                    dir.display(),
                    dir.display()
                ));
            }
            let (records, warn) = mpsearch::decisions::load(&dpath).unwrap_or_else(|e| fail(e));
            if let Some(w) = warn {
                eprintln!("craft: warning: {}: {w}", dpath.display());
            }
            let insn_filter = opt("--insn").map(|s| {
                let s = s.trim().to_string();
                s.strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| s.parse())
                    .unwrap_or_else(|_| usage(&format!("--insn wants an address, got {s:?}")))
            });
            let top = opt("--top").and_then(|t| t.parse().ok()).unwrap_or(5);
            render_explain(&dir, &records, insn_filter, opt("--func").as_deref(), top);
        }
        "watch" => {
            let arg = positional.get(1).copied().unwrap_or("latest");
            let top = opt("--top").and_then(|t| t.parse().ok()).unwrap_or(5);
            let run = resolve_run_arg(arg, opt("--registry").as_deref());
            let live = if run.is_dir() { run.join("live.jsonl") } else { run.clone() };
            let manifest = load_run_manifest(&run);
            let follow = flag("--follow");
            if !live.is_file() {
                fail(format!("cannot read {}: no such file", live.display()));
            }
            // Tail by byte offset: each frame folds only the lines
            // appended since the last poll instead of re-reading the
            // whole stream, so following a long run stays O(delta).
            let mut tail = LiveTail::new(&live);
            loop {
                tail.poll().unwrap_or_else(|e| fail(e));
                let _ = tail.take_raw(); // unneeded here; keep the buffer empty
                render_watch(&run.display().to_string(), tail.log(), manifest.as_ref(), top);
                let done = tail.log().latest_progress().is_some_and(|p| p.progress.phase == "done");
                if !follow || done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
                println!();
            }
        }
        "compare" => {
            let a = positional.get(1).copied().unwrap_or_else(|| {
                usage("usage: craft compare <run-a> <run-b> [--warn-only] [--top=N]")
            });
            let b = positional.get(2).copied().unwrap_or_else(|| {
                usage("usage: craft compare <run-a> <run-b> [--warn-only] [--top=N]")
            });
            let reg_flag = opt("--registry");
            let pa = resolve_run_arg(a, reg_flag.as_deref());
            let pb = resolve_run_arg(b, reg_flag.as_deref());
            let sa = load_run_snapshot(&pa).unwrap_or_else(|e| fail(e)).snap;
            let sb = load_run_snapshot(&pb).unwrap_or_else(|e| fail(e)).snap;
            let ma = load_run_manifest(&pa);
            let mb = load_run_manifest(&pb);
            let mut copts = CompareOptions::default();
            if let Some(v) = opt("--counter-pct").and_then(|v| v.parse().ok()) {
                copts.counter_pct = v;
            }
            if let Some(v) = opt("--cycles-pct").and_then(|v| v.parse().ok()) {
                copts.cycles_pct = v;
            }
            if let Some(v) = opt("--quantile-pct").and_then(|v| v.parse().ok()) {
                copts.quantile_pct = v;
            }
            if let Some(v) = opt("--min-cycles").and_then(|v| v.parse().ok()) {
                copts.min_cycles = v;
            }
            if let Some(v) = opt("--top").and_then(|v| v.parse().ok()) {
                copts.top = v;
            }
            let rep = compare(
                &sa,
                &sb,
                &pa.display().to_string(),
                &pb.display().to_string(),
                ma.as_ref(),
                mb.as_ref(),
                &copts,
            );
            print!("{}", rep.text);
            if !rep.regressions.is_empty() && !flag("--warn-only") {
                std::process::exit(1);
            }
        }
        _ => {
            println!("craft — automatic mixed-precision analysis (paper reproduction)");
            println!();
            println!("usage:");
            println!("  craft list");
            println!("  craft analyze  <bench> [class] [job flags] [--events=FILE | --trace=DIR]");
            println!("                 [--registry=DIR] [--inject-panic=IDX[,IDX..]]");
            println!("                 [--inject-timeout=IDX[,IDX..]]");
            println!("  craft shadow   <bench> [class] [job flags] [--top=N] [--out=FILE]");
            println!("  craft overhead <bench> [class] [job flags]");
            println!("  craft tree     <bench> [class] [job flags]");
            println!("  craft config   <bench> [class] [job flags]");
            println!("  craft report   <events.jsonl|run-dir> [--top=N]");
            println!("  craft metrics  <run-dir|live.jsonl> [--prom=FILE] [--folded=FILE]");
            println!("  craft runs     [--registry=DIR] [--bench=NAME]");
            println!("  craft explain  <run-dir|latest> [--insn=ADDR] [--func=NAME] [--top=N]");
            println!("                 [--registry=DIR]");
            println!("  craft watch    [run-dir|latest] [--top=N] [--follow] [--registry=DIR]");
            println!("  craft compare  <run-a> <run-b> [--warn-only] [--top=N]");
            println!("                 [--counter-pct=P] [--cycles-pct=P] [--quantile-pct=P]");
            println!("                 [--min-cycles=N] [--registry=DIR]");
            println!(
                "  craft submit   <bench> [class] [job flags] [--daemon=HOST:PORT] [--follow]"
            );
            println!("  craft status   <job-id> [--daemon=HOST:PORT]");
            println!("  craft jobs     [--daemon=HOST:PORT]");
            println!("  craft top      [--daemon=HOST:PORT] [--data=DIR] [--once]");
            println!("                 [--interval-ms=N]");
            println!();
            println!(
                "job flags: [--second-phase] [--stop-depth=f|b|i] [--no-split] [--no-priority]"
            );
            println!(
                "  [--lean] [--threads=N] [--backend=interp|fast|compiled] [--lattice=s,h|s,b|...]"
            );
            println!(
                "  [--shadow-priority] [--shadow-prune] [--num-health] [--tol=T] [--max-tests=N]"
            );
            println!("  [--fuel-limit=N] [--wall-limit-ms=N]");
            println!();
            println!("daemon mode talks to a running `craftd` (default 127.0.0.1:7050,");
            println!("override with --daemon or $CRAFTD_ADDR).");
        }
    }
}

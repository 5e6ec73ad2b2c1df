//! CI bench-regression gate: compare freshly measured `BENCH_*.json`
//! files (written by the criterion stand-in) against committed
//! baselines and fail on excessive throughput regression.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [<baseline> <fresh> ...] [--threshold=PCT]
//!            [--registry=DIR] [--record] [--compiled-ratio=R] [--warn-only]
//! ```
//!
//! For every benchmark present in a baseline file, the gate prints a
//! comparison row and exits nonzero if the fresh measurement is more
//! than `PCT` percent slower (default 20). The comparison uses each
//! benchmark's *minimum* observed sample — the most noise-robust
//! estimator on shared CI runners — and the mean is shown alongside for
//! context. Benchmarks missing from the fresh file fail the gate;
//! benchmarks new in the fresh file are reported but do not fail it.
//!
//! Improvements beyond the threshold are also flagged (`STALE`,
//! warn-only): a baseline that much slower than reality no longer
//! guards against regressions of the same size, so the gate asks for
//! the committed `BENCH_*.json` to be refreshed without failing the
//! build.
//!
//! The fusion check is a real gate: on the all-double instrumented
//! rewrites (`<b>.instrumented`, the code searches run), the fused tier
//! (`.compiled`) must be at least `--compiled-ratio` times faster than
//! the threaded tier it is built on and falls back to (`.threaded`,
//! default 1.1) or the gate exits 1 — below that the fusion pass has
//! stopped paying for itself. The original programs' ratio is printed
//! but not gated: they fuse little, and it reads 0.8–1.7x run to run.
//! `--warn-only` downgrades *ratio* failures to warnings (bring-up on
//! new hardware); it does not touch the min_ns regression gate.
//!
//! The walk check is a count, not a time: a baseline row that records
//! `configs_tested` (the search rows do) fails the gate unless the fresh
//! row records the same count. A search that tests a different number of
//! configurations has changed its walk — the lattice's extra levels, the
//! cache, pruning — and the committed count is updated in the same
//! change, with its reason. Counts repeat exactly, so this check has no
//! noise to clear and no threshold.
//!
//! With `--registry=DIR` (or `$CRAFT_REGISTRY`), run-registry manifests
//! carrying `bench_min_ns` entries override the committed JSON baseline
//! per bench (newest manifest wins; rows say `[registry]`), so the gate
//! tracks the fleet's most recent recorded reality instead of a stale
//! checked-in file. `--record` writes the fresh measurements back as a
//! new registry manifest for future runs to gate against.

use mptrace::json::{self, Value};
use mptrace::registry::{self, Registry, RunManifest};
use std::collections::BTreeMap;

struct Bench {
    name: String,
    mean_ns: f64,
    min_ns: f64,
    /// Configurations the benchmarked search tested (search rows only).
    configs_tested: Option<u64>,
}

fn load(path: &str) -> Result<(String, Vec<Bench>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let group = v.get("group").and_then(Value::as_str).unwrap_or("?").to_string();
    let benches = v
        .get("benches")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing \"benches\" array"))?
        .iter()
        .map(|b| {
            Ok(Bench {
                name: b
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{path}: bench without name"))?
                    .to_string(),
                mean_ns: b.get("mean_ns").and_then(Value::as_f64).unwrap_or(f64::NAN),
                min_ns: b.get("min_ns").and_then(Value::as_f64).unwrap_or(f64::NAN),
                configs_tested: b.get("configs_tested").and_then(Value::as_u64),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((group, benches))
}

/// Fold every registry manifest's `bench_min_ns` map into one lookup,
/// newest manifest winning per bench name. Unreadable manifests are
/// skipped: a gate baseline must never be taken down by a torn write.
fn registry_baselines(reg: &Registry) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    match reg.entries() {
        Ok((entries, warn)) => {
            if let Some(w) = warn {
                eprintln!("bench_gate: warning: {}: {w}", reg.dir().display());
            }
            // The index is append-only, so iterating forward lets newer
            // manifests overwrite older values.
            for e in &entries {
                if let Ok(Some(m)) = RunManifest::load(&e.path) {
                    for (k, v) in &m.bench_min_ns {
                        map.insert(k.clone(), *v);
                    }
                }
            }
        }
        Err(e) => eprintln!("bench_gate: warning: {e}"),
    }
    map
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threshold: f64 = args
        .iter()
        .find_map(|a| a.strip_prefix("--threshold="))
        .and_then(|t| t.parse().ok())
        .unwrap_or(20.0);
    let registry_dir = args.iter().find_map(|a| a.strip_prefix("--registry=").map(str::to_string));
    let record = args.iter().any(|a| a == "--record");
    let compiled_ratio: f64 = args
        .iter()
        .find_map(|a| a.strip_prefix("--compiled-ratio="))
        .and_then(|t| t.parse().ok())
        .unwrap_or(1.1);
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() || !files.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_gate <baseline.json> <fresh.json> [...] [--threshold=PCT] \
             [--registry=DIR] [--record] [--compiled-ratio=R] [--warn-only]"
        );
        std::process::exit(2);
    }

    // Only an explicit flag or $CRAFT_REGISTRY opts the gate into the
    // registry; unlike `craft`, it never falls back to `~/.craft/runs`
    // (CI runners have a $HOME but no recorded history worth trusting).
    let reg = registry_dir.or_else(|| std::env::var("CRAFT_REGISTRY").ok()).and_then(|d| {
        match Registry::open(&d) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("bench_gate: warning: cannot open registry {d}: {e}");
                None
            }
        }
    });
    let reg_base = reg.as_ref().map(registry_baselines).unwrap_or_default();

    let mut failed = false;
    let mut stale = false;
    let mut fresh_mins: BTreeMap<String, f64> = BTreeMap::new();
    for pair in files.chunks(2) {
        let (base_path, fresh_path) = (pair[0], pair[1]);
        let (group, base) = load(base_path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let (_, fresh) = load(fresh_path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        println!("group `{group}` — {base_path} vs {fresh_path} (gate: min_ns +{threshold:.0}%)");
        println!(
            "  {:<28} {:>12} {:>12} {:>8}   {:>12} {:>12}",
            "bench", "base min", "fresh min", "delta", "base mean", "fresh mean"
        );
        for b in &base {
            let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
                println!("  {:<28} MISSING from fresh results", b.name);
                failed = true;
                continue;
            };
            let (base_min, src) = match reg_base.get(&b.name) {
                Some(v) => (*v, " [registry]"),
                None => (b.min_ns, ""),
            };
            let delta = (f.min_ns - base_min) / base_min * 100.0;
            let verdict = if delta > threshold {
                failed = true;
                "FAIL"
            } else if delta < -threshold {
                stale = true;
                "STALE"
            } else {
                ""
            };
            println!(
                "  {:<28} {:>10.0}ns {:>10.0}ns {:>+7.1}%   {:>10.0}ns {:>10.0}ns  {verdict}{src}",
                b.name, base_min, f.min_ns, delta, b.mean_ns, f.mean_ns
            );
            if let Some(want) = b.configs_tested {
                if f.configs_tested == Some(want) {
                    println!("  {:<28} configs tested: {want} (walk unchanged)", b.name);
                } else {
                    println!(
                        "  {:<28} configs tested: {want} committed, {} fresh: the search walk \
                         changed; update the committed count with its reason  FAIL",
                        b.name,
                        f.configs_tested.map_or("none".into(), |n| n.to_string())
                    );
                    failed = true;
                }
            }
        }
        for f in &fresh {
            fresh_mins.insert(f.name.clone(), f.min_ns);
        }
        for f in &fresh {
            if !base.iter().any(|b| b.name == f.name) {
                println!("  {:<28} new (no baseline, not gated)", f.name);
            }
        }
        println!();
    }
    // Fusion gate: the fused tier must beat the threaded tier by at
    // least `--compiled-ratio` on the instrumented rows every search
    // evaluation runs, or the fusion pass has stopped paying for itself.
    let mut ratio_failed = false;
    for (b, gated) in [
        ("ep.instrumented", true),
        ("cg.instrumented", true),
        ("ep.orig", false),
        ("cg.orig", false),
    ] {
        let threaded = fresh_mins.get(&format!("{b}.threaded"));
        let fused = fresh_mins.get(&format!("{b}.compiled"));
        let (Some(&threaded), Some(&fused)) = (threaded, fused) else { continue };
        let ratio = threaded / fused;
        let line = format!("{b}.compiled speedup over {b}.threaded: {ratio:.2}x");
        if !gated {
            println!("bench_gate: {line} (not gated)");
        } else if ratio >= compiled_ratio {
            println!("bench_gate: {line} (gate >={compiled_ratio:.2}x ok)");
        } else if warn_only {
            eprintln!("bench_gate: warning: {line} (gate >={compiled_ratio:.2}x; --warn-only)");
        } else {
            eprintln!("bench_gate: {line} (gate >={compiled_ratio:.2}x)");
            ratio_failed = true;
        }
    }
    if stale {
        eprintln!(
            "bench_gate: some benchmarks ran more than {threshold:.0}% FASTER than their \
             baseline (marked STALE above); refresh the committed BENCH_*.json so the gate \
             keeps guarding against regressions of that size (warn-only, not a failure)"
        );
    }
    if record {
        match &reg {
            Some(reg) => {
                let created = registry::unix_now();
                let manifest = RunManifest {
                    id: registry::new_run_id("bench", created),
                    bench: "bench".into(),
                    created_unix: created,
                    bench_min_ns: fresh_mins,
                    ..Default::default()
                };
                let dir = reg.dir().join(&manifest.id);
                let res = std::fs::create_dir_all(&dir)
                    .and_then(|()| manifest.save(&dir))
                    .and_then(|()| reg.record(&manifest, &dir));
                match res {
                    Ok(()) => println!(
                        "bench_gate: recorded {} fresh min_ns value(s) as {} in {}",
                        manifest.bench_min_ns.len(),
                        manifest.id,
                        reg.dir().display()
                    ),
                    Err(e) => eprintln!("bench_gate: warning: cannot record baselines: {e}"),
                }
            }
            None => eprintln!("bench_gate: warning: --record needs --registry=DIR (ignored)"),
        }
    }
    if failed {
        eprintln!(
            "bench_gate: throughput regression beyond {threshold:.0}% or a changed search walk \
             detected"
        );
    }
    if ratio_failed {
        eprintln!(
            "bench_gate: the fusion ratio gate failed (>={compiled_ratio:.2}x over the \
             threaded tier; --warn-only to bypass during bring-up)"
        );
    }
    if failed || ratio_failed {
        std::process::exit(1);
    }
    println!("bench_gate: all benchmarks within {threshold:.0}% of baseline");
}

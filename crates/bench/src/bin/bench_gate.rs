//! CI bench-regression gate: compare freshly measured `BENCH_*.json`
//! files (written by the criterion stand-in) against committed
//! baselines and fail on excessive throughput regression.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json> [<baseline> <fresh> ...] [--threshold=PCT]
//!            [--registry=DIR] [--record] [--compiled-ratio=R] [--lattice-ratio=R]
//!            [--warn-only]
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
//! The compiled-backend speedup check is a real gate: on benches where
//! both `<b>.<code>.fast` and `<b>.<code>.compiled` were measured, for
//! `<code>` the original program (`orig`) and its all-double
//! instrumented rewrite (`instrumented`, the code searches run), the
//! compiled tier must be at least `--compiled-ratio` times faster
//! (default 1.2) or the gate exits 1 — a compiled backend slower than
//! that has stopped paying for its fusion pass. Likewise the lattice
//! overhead check: on benches where both `<b>.s` and `<b>.s.lattice`
//! were measured, the full-lattice search may be at most
//! `--lattice-ratio` times slower than the classic two-format search
//! (default 6.0) — beyond that the wider format menu has blown up the
//! candidate walk and needs pruning. `--warn-only` downgrades *ratio*
//! failures to warnings (bring-up on new hardware); it does not touch
//! the min_ns regression gate.
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
        .unwrap_or(1.2);
    let lattice_ratio: f64 = args
        .iter()
        .find_map(|a| a.strip_prefix("--lattice-ratio="))
        .and_then(|t| t.parse().ok())
        .unwrap_or(6.0);
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() || !files.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_gate <baseline.json> <fresh.json> [...] [--threshold=PCT] \
             [--registry=DIR] [--record] [--compiled-ratio=R] [--lattice-ratio=R] \
             [--warn-only]"
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
    // Compiled-backend speedup gate: the fused tier must beat the
    // pre-decoded image path by at least `--compiled-ratio` on the
    // unobserved NAS rows, both on the original programs and on the
    // instrumented ones every search evaluation runs, or the
    // threaded-code tier has stopped paying for itself. The long-term 3x
    // target stays aspirational — ratios between the gate and the target
    // are printed so drift is visible without failing the build.
    let mut ratio_failed = false;
    for b in ["ep.orig", "cg.orig", "ep.instrumented", "cg.instrumented"] {
        let fast = fresh_mins.get(&format!("{b}.fast"));
        let comp = fresh_mins.get(&format!("{b}.compiled"));
        if let (Some(&fast), Some(&comp)) = (fast, comp) {
            let ratio = fast / comp;
            if ratio >= 3.0 {
                println!("bench_gate: {b}.compiled speedup over fast: {ratio:.2}x (3x target met)");
            } else if ratio >= compiled_ratio {
                println!(
                    "bench_gate: {b}.compiled speedup over fast: {ratio:.2}x \
                     (gate >={compiled_ratio:.2}x ok; 3x target not yet reached)"
                );
            } else if warn_only {
                eprintln!(
                    "bench_gate: warning: {b}.compiled is only {ratio:.2}x faster than \
                     {b}.fast (gate >={compiled_ratio:.2}x; --warn-only)"
                );
            } else {
                eprintln!(
                    "bench_gate: {b}.compiled is only {ratio:.2}x faster than \
                     {b}.fast (gate >={compiled_ratio:.2}x)"
                );
                ratio_failed = true;
            }
        }
    }
    // Lattice overhead gate: the full precision-lattice search walks a
    // wider format menu than the classic two-format search, so it is
    // allowed to be slower — but only by a bounded factor. Past
    // `--lattice-ratio` the extra formats have stopped buying insight
    // per cycle and the candidate walk needs pruning.
    for b in ["ep", "cg"] {
        let classic = fresh_mins.get(&format!("{b}.s"));
        let lattice = fresh_mins.get(&format!("{b}.s.lattice"));
        if let (Some(&classic), Some(&lattice)) = (classic, lattice) {
            let ratio = lattice / classic;
            if ratio <= lattice_ratio {
                println!(
                    "bench_gate: {b}.s.lattice overhead over {b}.s: {ratio:.2}x \
                     (gate <={lattice_ratio:.2}x ok)"
                );
            } else if warn_only {
                eprintln!(
                    "bench_gate: warning: {b}.s.lattice is {ratio:.2}x slower than \
                     {b}.s (gate <={lattice_ratio:.2}x; --warn-only)"
                );
            } else {
                eprintln!(
                    "bench_gate: {b}.s.lattice is {ratio:.2}x slower than \
                     {b}.s (gate <={lattice_ratio:.2}x)"
                );
                ratio_failed = true;
            }
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
        eprintln!("bench_gate: throughput regression beyond {threshold:.0}% detected");
    }
    if ratio_failed {
        eprintln!(
            "bench_gate: a backend ratio gate failed (compiled >={compiled_ratio:.2}x over \
             fast, lattice <={lattice_ratio:.2}x over classic; --warn-only to bypass \
             during bring-up)"
        );
    }
    if failed || ratio_failed {
        std::process::exit(1);
    }
    println!("bench_gate: all benchmarks within {threshold:.0}% of baseline");
}

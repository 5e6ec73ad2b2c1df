//! Fig. 10 (shadow variant) — baseline vs shadow-guided NAS search.
//!
//! For each NAS benchmark and class the search runs twice: once with the
//! plain breadth-first executor and once guided by a shadow-value
//! sensitivity profile (`--shadow-priority` + `--shadow-prune`
//! semantics). The table prints both runs side by side; the acceptance
//! criterion — checked by this binary, which exits non-zero on any
//! violation — is that the shadow-guided run reaches the *identical*
//! final configuration (same replaced-instruction set, hence identical
//! static/dynamic percentages) while testing **fewer or equally many**
//! configurations.
//!
//! On the hinted workloads the hand-written `ignore` flags already keep
//! unstable RNG instructions out of the candidate set, so pruning rarely
//! fires and the two runs coincide. The extra `ep*` row repeats EP with
//! an *empty* base configuration (no hints): there the shadow oracle
//! rediscovers on its own what the hints encode, pruning the unstable
//! units without evaluating them.
//!
//! Options:
//!
//! * `--class=S|W|A` — run a single class (default: W and A);
//! * `--profile-dir=DIR` — also write each workload's shadow
//!   sensitivity profile as JSONL under `DIR`.

use craft_bench::header;
use mixedprec::{AnalysisOptions, AnalysisSystem, ShadowOptions};
use mpconfig::{Config, StructureTree};
use mpsearch::{
    search_observed, SearchHooks, SearchOptions, SearchReport, ShadowOracle, VmEvaluator,
};
use workloads::{nas_all, Class, Workload};

struct Row {
    label: String,
    candidates: usize,
    tested_base: usize,
    tested_shadow: usize,
    pruned: usize,
    static_pct: f64,
    dynamic_pct: f64,
    identical: bool,
}

impl Row {
    fn print(&self) {
        println!(
            "{:<8} {:>10} {:>12} {:>14} {:>7} {:>8.1}% {:>8.1}% {:>10}",
            self.label,
            self.candidates,
            self.tested_base,
            self.tested_shadow,
            self.pruned,
            self.static_pct,
            self.dynamic_pct,
            if self.identical { "identical" } else { "DIVERGED" }
        );
    }

    fn ok(&self) -> bool {
        self.identical && self.tested_shadow <= self.tested_base
    }
}

fn row_header() -> String {
    format!(
        "{:<8} {:>10} {:>12} {:>14} {:>7} {:>9} {:>9} {:>10}",
        "bench",
        "candidates",
        "tested(base)",
        "tested(shadow)",
        "pruned",
        "static",
        "dynamic",
        "result"
    )
}

/// Compare a baseline and a shadow-guided report over (possibly distinct
/// but structurally identical) trees.
fn compare(
    label: &str,
    base: &SearchReport,
    tb: &StructureTree,
    shadow: &SearchReport,
    ts: &StructureTree,
) -> Row {
    Row {
        label: label.to_string(),
        candidates: base.candidates,
        tested_base: base.configs_tested,
        tested_shadow: shadow.configs_tested,
        pruned: shadow.pruned_by_shadow,
        static_pct: shadow.static_pct,
        dynamic_pct: shadow.dynamic_pct,
        identical: base.final_config.replaced_insns(tb) == shadow.final_config.replaced_insns(ts)
            && base.static_pct == shadow.static_pct
            && base.dynamic_pct == shadow.dynamic_pct,
    }
}

/// Baseline + shadow-guided searches through the full analysis system
/// (hinted base configuration, as `craft analyze` would run them).
fn hinted_row(wb: Workload, ws: Workload, threads: usize, profile_dir: Option<&str>) -> Row {
    let label = format!("{}.{}", wb.name, wb.class.letter().to_uppercase());
    let search = SearchOptions { threads, ..Default::default() };
    let sys_b = AnalysisSystem::with_options(
        wb,
        AnalysisOptions { search: search.clone(), ..Default::default() },
    );
    let rb = sys_b.run_search_with(&SearchHooks { bench: label.clone(), ..Default::default() });
    let sys_s = AnalysisSystem::with_options(
        ws,
        AnalysisOptions {
            search,
            shadow: ShadowOptions { prioritize: true, prune: true, ..Default::default() },
            ..Default::default()
        },
    );
    let rs = sys_s.run_search_with(&SearchHooks { bench: label.clone(), ..Default::default() });
    if let Some(dir) = profile_dir {
        let path = format!("{dir}/{label}.shadow.jsonl");
        if let Err(e) = sys_s.shadow_profile().to_file(&path) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    compare(&label, &rb, sys_b.tree(), &rs, sys_s.tree())
}

/// EP with an *empty* base configuration: no `ignore` hints, so the
/// unstable RNG units are real candidates and the shadow oracle must
/// discover them itself.
fn unhinted_ep_row(class: Class, threads: usize) -> Row {
    let w = workloads::nas::ep(class);
    let prog = w.program();
    let tree = StructureTree::build(prog);
    let base = Config::new();
    let eval =
        VmEvaluator::with_options(prog, &tree, w.vm_opts(), Default::default(), w.verifier());
    let profile = w.profile();
    let opts = SearchOptions { threads, ..Default::default() };
    let rb = search_observed(&tree, &base, Some(profile), &eval, &opts, &SearchHooks::default());
    let sprof = mpshadow::shadow_run(prog, w.vm_opts()).profile;
    let hooks = SearchHooks {
        shadow: Some(ShadowOracle {
            profile: &sprof,
            prioritize: true,
            prune_threshold: Some(w.tol * ShadowOptions::default().prune_margin),
        }),
        ..Default::default()
    };
    let rs = search_observed(&tree, &base, Some(profile), &eval, &opts, &hooks);
    let label = format!("ep*.{}", class.letter().to_uppercase());
    compare(&label, &rb, &tree, &rs, &tree)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        args.iter().find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
    };
    let classes: Vec<Class> = match opt("--class").as_deref() {
        None => vec![Class::W, Class::A],
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "s" => vec![Class::S],
            "w" => vec![Class::W],
            "a" => vec![Class::A],
            other => {
                eprintln!("unknown class {other:?} (expected S, W, or A)");
                std::process::exit(2);
            }
        },
    };
    let profile_dir = opt("--profile-dir");
    if let Some(dir) = &profile_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        }
    }
    let threads = SearchOptions::default_threads();
    println!("Figure 10 (shadow variant): baseline vs shadow-guided search\n");
    header(&row_header());
    let mut rows = Vec::new();
    for &class in &classes {
        let iter = nas_all(class).into_iter().zip(nas_all(class));
        for (wb, ws) in iter {
            let row = hinted_row(wb, ws, threads, profile_dir.as_deref());
            row.print();
            rows.push(row);
        }
        // The unhinted demonstration: shadow pruning stands in for the
        // hand-written hints.
        let row = unhinted_ep_row(class, threads);
        row.print();
        rows.push(row);
    }
    println!("\n(ep* = EP searched from an empty base configuration, i.e. without");
    println!(" the hand-written `ignore` hints; the shadow oracle prunes the");
    println!(" unstable RNG units the hints would have excluded)");
    let bad: Vec<&Row> = rows.iter().filter(|r| !r.ok()).collect();
    if !bad.is_empty() {
        for r in &bad {
            eprintln!(
                "ACCEPTANCE VIOLATION: {} — identical={}, tested(shadow)={} vs tested(base)={}",
                r.label, r.identical, r.tested_shadow, r.tested_base
            );
        }
        std::process::exit(1);
    }
    println!("\nall rows identical; shadow-guided runs tested <= baseline everywhere");
}

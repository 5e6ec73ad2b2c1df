//! Ablation of the two search optimizations (§2.2): binary splitting of
//! failed aggregates, and profile-count prioritization. Reports the
//! number of configurations each variant tests on the NAS class-W
//! analogues — the paper's "pruning effectiveness" claim, quantified.

use craft_bench::header;
use instrument::RewriteOptions;
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::events::EventLog;
use mpsearch::{search_observed, SearchHooks, SearchOptions, VmEvaluator};
use workloads::{nas_all, Class};

fn main() {
    let threads = SearchOptions::default_threads();
    let events = std::env::args().skip(1).find_map(|a| {
        a.strip_prefix("--events=").map(|path| {
            EventLog::to_file(path).unwrap_or_else(|e| {
                eprintln!("cannot create event log {path}: {e}");
                std::process::exit(2);
            })
        })
    });
    println!("Search-optimization ablation (configurations tested, class W)\n");
    let h = format!(
        "{:<8} {:>10} {:>10} {:>12} {:>10} {:>9}",
        "bench", "both", "no-split", "no-priority", "neither", "static%"
    );
    header(&h);
    for w in nas_all(Class::W) {
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let mut base = Config::new();
        for name in w.ignore_funcs() {
            for m in &tree.modules {
                for fun in &m.funcs {
                    if fun.name == name {
                        base.set_func(fun.id, Flag::Ignore);
                    }
                }
            }
        }
        let profile = w.profile();
        let run = |binary_split: bool, prioritize: bool| {
            let eval = VmEvaluator::with_options(
                prog,
                &tree,
                w.vm_opts(),
                RewriteOptions::default(),
                w.verifier(),
            );
            let hooks = SearchHooks {
                bench: format!("{}.abl[split={binary_split},prio={prioritize}]", w.name),
                events: events.as_ref(),
                ..Default::default()
            };
            search_observed(
                &tree,
                &base,
                Some(profile),
                &eval,
                &SearchOptions { binary_split, prioritize, threads, ..Default::default() },
                &hooks,
            )
        };
        let both = run(true, true);
        let nosplit = run(false, true);
        let noprio = run(true, false);
        let neither = run(false, false);
        println!(
            "{:<8} {:>10} {:>10} {:>12} {:>10} {:>8.1}%",
            w.name,
            both.configs_tested,
            nosplit.configs_tested,
            noprio.configs_tested,
            neither.configs_tested,
            both.static_pct
        );
    }
    println!("\n(binary splitting matters when failures are sparse; prioritization");
    println!(" mainly affects time-to-first-result, not the final test count)");
}

//! End-to-end pipeline integration tests: the full Fig.-2 flow on real
//! workloads, plus cross-crate config round-trips.

use mixedprec::{AnalysisOptions, AnalysisSystem};
use mpconfig::{parse_config, print_config, Flag};
use mpsearch::{SearchOptions, StopDepth};
use workloads::{nas, Class};

fn opts(threads: usize) -> AnalysisOptions {
    AnalysisOptions {
        search: SearchOptions { threads, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn cg_search_produces_consistent_report() {
    let sys = AnalysisSystem::with_options(nas::cg(Class::S), opts(2));
    let report = sys.run_search();
    assert!(report.candidates > 0);
    assert!(report.configs_tested >= 1);
    assert!(report.static_pct >= 0.0 && report.static_pct <= 100.0);
    assert!(report.dynamic_pct >= 0.0 && report.dynamic_pct <= 100.0);
    // replaced instructions reported = static pct of candidates
    let replaced = report.final_config.replaced_insns(sys.tree()).len();
    assert_eq!(report.failed_insns, report.candidates - replaced);
    // every passing unit's config must re-verify individually
    for u in report.passing.iter().take(3) {
        let mut cfg = sys.base_config().clone();
        for id in sys.tree().insns_under(u.node) {
            cfg.set_insn(id, Flag::Single);
        }
        // only exact unit configs (not split partitions) re-verify this way
        if u.insns == sys.tree().insns_under(u.node).len() {
            assert!(sys.evaluate(&cfg), "passing unit {} failed re-verification", u.label);
        }
    }
}

#[test]
fn final_config_round_trips_through_the_exchange_format() {
    let sys = AnalysisSystem::with_options(nas::mg(Class::S), opts(2));
    let report = sys.run_search();
    let text = print_config(sys.tree(), &report.final_config);
    let parsed = parse_config(sys.tree(), &text).expect("parse failure");
    assert_eq!(parsed, report.final_config);
}

#[test]
fn recommendation_config_text_mentions_all_functions() {
    let sys = AnalysisSystem::with_options(nas::bt(Class::S), opts(2));
    let rec = sys.recommend();
    for m in &sys.tree().modules {
        for fun in &m.funcs {
            assert!(
                rec.config_text.contains(&format!("{}()", fun.name)),
                "config text missing {}",
                fun.name
            );
        }
    }
    assert!(rec.modelled_speedup >= 1.0);
}

#[test]
fn stop_depth_trades_granularity_for_tests() {
    let fine = AnalysisSystem::with_options(
        nas::sp(Class::S),
        AnalysisOptions {
            search: SearchOptions { threads: 2, ..Default::default() },
            ..Default::default()
        },
    );
    let coarse = AnalysisSystem::with_options(
        nas::sp(Class::S),
        AnalysisOptions {
            search: SearchOptions {
                threads: 2,
                stop_depth: StopDepth::Function,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let rf = fine.run_search();
    let rc = coarse.run_search();
    assert!(rc.configs_tested <= rf.configs_tested);
    assert!(rc.static_pct <= rf.static_pct + 1e-9);
}

#[test]
fn evaluate_empty_config_always_passes() {
    // the un-instrumented program trivially verifies against itself
    let sys = AnalysisSystem::with_options(nas::ft(Class::S), opts(1));
    assert!(sys.evaluate(sys.base_config()));
}

#[test]
fn overhead_report_is_sane_across_workloads() {
    for w in [nas::bt(Class::S), nas::lu(Class::S), nas::sp(Class::S)] {
        let name = w.name.clone();
        let sys = AnalysisSystem::new(w);
        let o = sys.overhead_all_double();
        assert!(o.steps_x > 1.0, "{name}: no overhead measured");
        assert!(o.steps_x < 200.0, "{name}: overhead out of range: {}", o.steps_x);
    }
}

/// Acceptance: a lattice search on ep.S settles on a mixed
/// double/single/bf16 configuration that meets the tolerance (the
/// second composition phase backs out the failing pieces), with at
/// least one instruction demoted below single precision — and the
/// whole outcome is identical across the `interp` and `compiled`
/// backends. EP's default 1e-6 tolerance is too tight for any bf16
/// survivor on the tiny class-S sample, so this runs at the slightly
/// looser 1.5e-6 a user would pass with `--tol`.
#[test]
fn ep_lattice_search_demotes_below_single_identically_on_both_backends() {
    let run = |backend: fpvm::Backend| {
        let mut w = nas::ep(Class::S);
        w.tol = 1.5e-6;
        let sys = AnalysisSystem::with_options(
            w,
            AnalysisOptions {
                search: SearchOptions {
                    threads: 2,
                    second_phase: true,
                    lattice: vec![Flag::Single, Flag::Bf16],
                    ..Default::default()
                },
                backend,
                ..Default::default()
            },
        );
        let rec = sys.recommend();
        (rec.report.format_breakdown(sys.tree()), rec)
    };
    let (breakdown, rec) = run(fpvm::Backend::Interp);

    // The composed configuration meets the tolerance...
    assert!(rec.report.final_pass, "lattice recommendation does not verify");
    // ...and the executed program is genuinely mixed-precision:
    // something runs in double (a candidate left at `d`, or EP's
    // ignore-flagged RNG instructions, which always execute in
    // double), something went single, and at least one instruction
    // settled below single precision (bf16's 8-bit mantissa).
    let count = |tok: &str| breakdown.iter().find(|(t, _)| t == tok).map(|(_, n)| *n).unwrap_or(0);
    assert!(count("d") + count("i") >= 1, "nothing executes in double: {breakdown:?}");
    assert!(count("s") >= 1, "no instruction at single: {breakdown:?}");
    assert!(count("b") >= 1, "no instruction demoted below single: {breakdown:?}");

    // The search outcome must not depend on the execution backend.
    let (breakdown2, rec2) = run(fpvm::Backend::Compiled);
    assert_eq!(breakdown, breakdown2);
    assert_eq!(rec.report.candidates, rec2.report.candidates);
    assert_eq!(rec.report.configs_tested, rec2.report.configs_tested);
    assert_eq!(rec.report.static_pct, rec2.report.static_pct);
    assert_eq!(rec.report.dynamic_pct, rec2.report.dynamic_pct);
    assert_eq!(rec.report.final_pass, rec2.report.final_pass);
    assert_eq!(rec.config_text, rec2.config_text);
}

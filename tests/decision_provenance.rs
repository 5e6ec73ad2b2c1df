//! Properties of the precision-decision provenance records
//! (`mpsearch::decisions`):
//!
//! - the JSONL wire format round-trips *byte-exactly* over arbitrary
//!   records — hostile strings, non-finite floats, every event kind —
//!   so a re-serialized `decisions.jsonl` is the same bytes;
//! - a torn final line (a writer killed mid-append) degrades to the
//!   parsed prefix plus a warning, never an error or silent data loss
//!   beyond the torn record;
//! - [`decisions::fold`] gives one record per tree instruction for any
//!   event log — evidence for ids outside the tree, `u32::MAX`,
//!   duplicates, an empty log — and keeps each instruction's evidence
//!   in log order;
//! - end to end, the records folded from a real lattice search's event
//!   log are consistent
//!   with its own `format_breakdown`: one record per instruction, the
//!   per-format counts agree, every replaced instruction carries a
//!   `passed` event at its final format, and every guard refusal names
//!   an observed range that actually violates the bound it cites.

use mixedprec::{jobspec, AnalysisOptions, AnalysisSystem, ShadowOptions};
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::decisions::{self, DecisionEvent, DecisionRecord};
use mpsearch::events::{Event, EventLog, Record};
use mpsearch::{SearchHooks, SearchOptions, Verdict};
use mptrace::json;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Printable-ASCII strings including quotes and backslashes, so the
/// escaper is exercised.
fn any_text() -> impl Strategy<Value = String> {
    vec(0u8..95, 0..14).prop_map(|bs| bs.into_iter().map(|b| char::from(b + 0x20)).collect())
}

/// Floats including the non-finite values the wire format spells as
/// strings.
fn any_num() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(0.0f64),
        -1.0e12f64..1.0e12,
    ]
}

fn any_event() -> impl Strategy<Value = DecisionEvent> {
    prop_oneof![
        (0u32..4, any_text(), any_text()).prop_map(|(level, format, unit)| DecisionEvent::Passed {
            level,
            format,
            unit
        }),
        ((0u32..4, any_text(), any_text()), (0u8..5, any_num(), any::<bool>())).prop_map(
            |((level, format, unit), (v, err, has_err))| DecisionEvent::Failed {
                level,
                format,
                verdict: match v {
                    0 => Verdict::Pass,
                    1 => Verdict::Fail,
                    2 => Verdict::Timeout,
                    3 => Verdict::Crashed,
                    _ => Verdict::Quarantined,
                },
                unit,
                shadow_err: has_err.then_some(err),
            }
        ),
        ((any_text(), any_text()), (any_num(), any_num(), any_num())).prop_map(
            |((format, class), (max_abs, min_abs, bound))| DecisionEvent::GuardRefused {
                format,
                class,
                max_abs,
                min_abs,
                bound,
            }
        ),
        ((0u32..4, any_text()), (any_num(), any_num(), any_text())).prop_map(
            |((level, format), (err, threshold, unit))| DecisionEvent::ShadowPruned {
                level,
                format,
                err,
                threshold,
                unit,
            }
        ),
        any_text().prop_map(|unit| DecisionEvent::Dropped { unit }),
        Just(DecisionEvent::Ignored),
    ]
}

fn any_record() -> impl Strategy<Value = DecisionRecord> {
    ((0u32..1_000_000, 0u64..1 << 48), (any_text(), any_text(), any_text()), vec(any_event(), 0..5))
        .prop_map(|((insn, addr), (func, label, final_format), events)| DecisionRecord {
            insn,
            addr,
            func,
            label,
            final_format,
            events,
        })
}

/// `ep.S`'s structure tree and base configuration (which ignores
/// `randlc`), built once for every fold case.
fn ep_tree() -> &'static (StructureTree, Config) {
    static EP: OnceLock<(StructureTree, Config)> = OnceLock::new();
    EP.get_or_init(|| {
        let workload = jobspec::build_workload("ep", jobspec::parse_class("s").unwrap()).unwrap();
        let sys = AnalysisSystem::new(workload);
        (sys.tree().clone(), sys.base_config().clone())
    })
}

/// Instruction ids in and around `ep.S`'s tree, plus the extremes.
fn any_insn() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..400, Just(u32::MAX), proptest::num::u32::ANY]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fold_gives_one_record_per_tree_insn_for_any_log(
        evidence in vec((any_insn(), any_event()), 0..40),
        at_single in any::<bool>(),
    ) {
        let (tree, base) = ep_tree();
        let mut records: Vec<Record> = evidence
            .iter()
            .map(|(insn, what)| Record {
                t_us: 0,
                event: Event::Decision { insn: *insn, what: what.clone() },
            })
            .collect();
        records.push(Record { t_us: 0, event: Event::PhaseStarted { phase: "bfs".into() } });
        let mut final_config = base.clone();
        if at_single {
            for i in tree.all_insns() {
                final_config.set_insn(i, Flag::Single);
            }
        }
        let folded = decisions::fold(tree, base, &final_config, records);
        let ids: Vec<u32> = tree.all_insns().iter().map(|i| i.0).collect();
        prop_assert_eq!(folded.iter().map(|r| r.insn).collect::<Vec<_>>(), ids);
        for (r, id) in folded.iter().zip(tree.all_insns()) {
            prop_assert_eq!(&r.final_format, &final_config.effective(tree, id).token());
            // Compared as wire bytes: the evidence may carry NaN.
            let want: Vec<String> = if base.effective(tree, id) == Flag::Ignore {
                vec![DecisionEvent::Ignored.to_json()]
            } else {
                evidence.iter().filter(|(i, _)| *i == r.insn).map(|(_, e)| e.to_json()).collect()
            };
            prop_assert_eq!(r.events.iter().map(|e| e.to_json()).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn jsonl_round_trip_is_byte_exact(records in vec(any_record(), 0..6)) {
        let text = decisions::to_jsonl(&records);
        let (parsed, warn) = json::read_jsonl::<DecisionRecord>(&text).unwrap();
        prop_assert!(warn.is_none(), "clean text produced a warning: {warn:?}");
        prop_assert_eq!(parsed.len(), records.len());
        prop_assert_eq!(decisions::to_jsonl(&parsed), text);
    }

    #[test]
    fn torn_final_line_degrades_to_prefix_plus_warning(
        records in vec(any_record(), 1..5),
        cut in 1usize..20,
    ) {
        let text = decisions::to_jsonl(&records);
        // The wire format is pure ASCII (the escaper \u-escapes
        // everything else), so byte truncation is char-safe. A cut this
        // small can tear at most the final record.
        let torn = &text[..text.len().saturating_sub(cut)];
        let (parsed, warn) = json::read_jsonl::<DecisionRecord>(torn).unwrap();
        if parsed.len() == records.len() {
            // Only the trailing newline was lost: nothing is torn.
            prop_assert!(warn.is_none(), "complete records warned: {warn:?}");
        } else {
            prop_assert_eq!(parsed.len(), records.len() - 1);
            prop_assert!(warn.is_some(), "lost a record without warning");
        }
        // The surviving prefix is byte-exact.
        prop_assert!(text.starts_with(&decisions::to_jsonl(&parsed)));
    }
}

/// End to end: run the real lattice search on `ep.S` at `--lattice=s,b`
/// (with the shadow oracle armed so range guards can refuse) and check
/// the decision records against the report's own summary of itself.
#[test]
fn ep_lattice_decisions_are_consistent_with_format_breakdown() {
    let workload = jobspec::build_workload("ep", jobspec::parse_class("s").unwrap()).unwrap();
    let opts = AnalysisOptions {
        search: SearchOptions {
            lattice: mpconfig::parse_lattice("s,b").unwrap(),
            threads: 2,
            ..Default::default()
        },
        shadow: ShadowOptions { prune: true, ..Default::default() },
        ..Default::default()
    };
    let sys = AnalysisSystem::with_options(workload, opts);
    let (log, buf) = EventLog::in_memory();
    let report = sys.run_search_with(&SearchHooks { events: Some(&log), ..Default::default() });
    let tree = sys.tree();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let records = text.lines().map(|l| Record::parse(l).unwrap());
    let decisions = decisions::fold(tree, sys.base_config(), &report.final_config, records);

    // One record per structure-tree instruction, in tree order.
    assert_eq!(decisions.len(), tree.all_insns().len());

    // Per-format counts agree with the report's own breakdown.
    for (tok, count) in report.format_breakdown(tree) {
        let got = decisions.iter().filter(|r| r.final_format == tok).count();
        assert_eq!(got, count, "decision records disagree with breakdown for {tok:?}");
    }

    for r in &decisions {
        // Every replaced instruction can prove it: a `passed` event at
        // exactly the format it ended up in.
        if r.final_format != "d" && r.final_format != "i" {
            assert!(
                r.events.iter().any(
                    |e| matches!(e, DecisionEvent::Passed { format, .. } if *format == r.final_format)
                ),
                "insn {} is {} with no passed evidence: {:?}",
                r.insn,
                r.final_format,
                r.events
            );
        }
        // Every guard refusal names a range envelope that actually
        // violates the bound it cites.
        for e in &r.events {
            if let DecisionEvent::GuardRefused { format, class, max_abs, min_abs, bound } = e {
                assert!(!format.is_empty() && !class.is_empty(), "refusal lacks format/class");
                assert!(*bound > 0.0, "refusal with non-positive bound {bound}");
                assert!(
                    *max_abs > *bound || *min_abs < *bound,
                    "insn {}: refusal range [{min_abs}, {max_abs}] does not violate bound {bound}",
                    r.insn
                );
            }
        }
    }

    // The aggregate counter and the per-insn evidence tell one story.
    let refusal_events = decisions
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| matches!(e, DecisionEvent::GuardRefused { .. }))
        .count();
    if report.guard_refused == 0 {
        assert_eq!(refusal_events, 0, "refusal events without a guard_refused count");
    } else {
        assert!(refusal_events > 0, "guard_refused counted but no per-insn evidence");
    }
}

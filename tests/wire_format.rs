//! Pins the on-disk bytes of the run records:
//!
//! - every line of the committed `results/baseline/ep-s/events.jsonl`
//!   re-serializes to the same bytes, and that directory's manifest
//!   (written before the `backend`/`lattice`/`trace_id` keys existed)
//!   still parses;
//! - arbitrary [`Record`]s and [`RunManifest`]s — hostile strings,
//!   extreme and non-finite floats, every event kind, every kind of
//!   decision evidence — round-trip byte-exactly.

use mpsearch::events::{Event, Record};
use mpsearch::{DecisionEvent, Verdict};
use mptrace::registry::{RunManifest, RunSummary};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

fn baseline() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results/baseline/ep-s"))
}

#[test]
fn committed_baseline_event_log_reserializes_byte_for_byte() {
    let text = std::fs::read_to_string(baseline().join("events.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 24);
    for line in lines {
        let rec = Record::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(rec.to_json(), line);
    }
}

#[test]
fn committed_legacy_manifest_parses_with_empty_new_keys() {
    let m = RunManifest::load(baseline()).unwrap().expect("baseline manifest exists");
    assert_eq!((m.bench.as_str(), m.class.as_str(), m.threads), ("ep", "s", 1));
    assert_eq!((m.backend.as_str(), m.lattice.as_str(), m.trace_id.as_str()), ("", "", ""));
    let summary = m.summary.expect("baseline run reported a summary");
    assert_eq!((summary.candidates, summary.tested), (21, 5));
    assert!(m.bench_min_ns.is_empty());
}

/// Strings built from quotes, backslashes, control characters, DEL and
/// multi-byte characters, so both the escaper and the UTF-8 path of the
/// parser are exercised.
fn hostile_text() -> impl Strategy<Value = String> {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '{', '}', '[', ']', ':', ',', '\n', '\r', '\t',
        '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '\u{2028}', '\u{fffd}', '😀',
    ];
    vec(0..POOL.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

/// Floats at the edges of the shortest-form printer, the non-finite
/// values the wire spells as strings, and random bit patterns.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324f64),
        proptest::num::f64::ANY.prop_filter("finite", |x| x.is_finite()),
    ]
}

/// Integers the JSON number type carries exactly.
fn any_int() -> impl Strategy<Value = u64> {
    0u64..1 << 53
}

/// Every kind of decision evidence, with hostile strings and edge floats.
fn any_decision() -> impl Strategy<Value = DecisionEvent> {
    let level = || any_int().prop_map(|n| n as u32);
    prop_oneof![
        (level(), hostile_text(), hostile_text())
            .prop_map(|(level, format, unit)| DecisionEvent::Passed { level, format, unit }),
        (
            (level(), hostile_text(), hostile_text()),
            (0..Verdict::ALL.len(), any_float(), any::<bool>())
        )
            .prop_map(|((level, format, unit), (v, err, has_err))| {
                DecisionEvent::Failed {
                    level,
                    format,
                    verdict: Verdict::ALL[v],
                    unit,
                    shadow_err: has_err.then_some(err),
                }
            }),
        ((hostile_text(), hostile_text()), (any_float(), any_float(), any_float())).prop_map(
            |((format, class), (max_abs, min_abs, bound))| DecisionEvent::GuardRefused {
                format,
                class,
                max_abs,
                min_abs,
                bound,
            }
        ),
        ((level(), hostile_text(), hostile_text()), (any_float(), any_float())).prop_map(
            |((level, format, unit), (err, threshold))| DecisionEvent::ShadowPruned {
                level,
                format,
                err,
                threshold,
                unit,
            }
        ),
        hostile_text().prop_map(|unit| DecisionEvent::Dropped { unit }),
        Just(DecisionEvent::Ignored),
    ]
}

fn any_event() -> impl Strategy<Value = Event> {
    let n = || any_int().prop_map(|n| n as usize);
    prop_oneof![
        (hostile_text(), n(), n()).prop_map(|(bench, candidates, threads)| {
            Event::SearchStarted { bench, candidates, threads }
        }),
        (hostile_text(), n(), any_int(), n()).prop_map(|(label, insns, priority, depth)| {
            Event::ConfigEnqueued { label, insns, priority, depth }
        }),
        (any_int(), hostile_text(), n()).prop_map(|(idx, label, insns)| Event::EvalStarted {
            idx,
            label,
            insns
        }),
        (
            (any_int(), hostile_text(), n()),
            (0..Verdict::ALL.len(), any_int(), any_int(), any::<bool>())
        )
            .prop_map(|((idx, label, attempt), (v, steps, wall_us, cache_hit))| {
                Event::EvalFinished {
                    idx,
                    label,
                    attempt,
                    verdict: Verdict::ALL[v],
                    steps,
                    wall_us,
                    cache_hit,
                }
            }),
        (any_int(), n(), any_int()).prop_map(|(idx, attempt, backoff_us)| Event::Retry {
            idx,
            attempt,
            backoff_us
        }),
        (hostile_text(), any_float(), any_float())
            .prop_map(|(label, err, threshold)| Event::ShadowPruned { label, err, threshold }),
        (hostile_text(), n()).prop_map(|(label, wedged)| Event::Quarantined { label, wedged }),
        (n(), n()).prop_map(|(depth, in_flight)| Event::QueueDepth { depth, in_flight }),
        hostile_text().prop_map(|phase| Event::PhaseStarted { phase }),
        (hostile_text(), any_int())
            .prop_map(|(phase, wall_us)| Event::PhaseFinished { phase, wall_us }),
        ((n(), n(), n(), n()), (n(), n(), n(), any_int())).prop_map(
            |(
                (tested, passing, timeouts, crashes),
                (retries, quarantined, cache_hits, wall_us),
            )| {
                Event::SearchFinished {
                    tested,
                    passing,
                    timeouts,
                    crashes,
                    retries,
                    quarantined,
                    cache_hits,
                    wall_us,
                }
            }
        ),
        (prop_oneof![any_int().prop_map(|n| n as u32), Just(u32::MAX)], any_decision())
            .prop_map(|(insn, what)| Event::Decision { insn, what }),
    ]
}

fn any_summary() -> impl Strategy<Value = Option<RunSummary>> {
    let n = || any_int().prop_map(|n| n as usize);
    (any::<bool>(), (n(), n(), any_float(), any_float(), any::<bool>()), (n(), n(), n(), n(), n()))
        .prop_map(
            |(
                present,
                (candidates, tested, static_pct, dynamic_pct, final_pass),
                (timeouts, crashes, retries, quarantined, pruned_by_shadow),
            )| {
                present.then_some(RunSummary {
                    candidates,
                    tested,
                    static_pct,
                    dynamic_pct,
                    final_pass,
                    timeouts,
                    crashes,
                    retries,
                    quarantined,
                    pruned_by_shadow,
                })
            },
        )
}

fn any_manifest() -> impl Strategy<Value = RunManifest> {
    (
        vec(hostile_text(), 8),
        (any_float(), any_int(), any_int(), any_int()),
        any_summary(),
        vec((hostile_text(), any_float()), 0..4),
    )
        .prop_map(|(s, (tol, threads, created_unix, wall_us), summary, mins)| RunManifest {
            id: s[0].clone(),
            bench: s[1].clone(),
            class: s[2].clone(),
            backend: s[3].clone(),
            lattice: s[4].clone(),
            trace_id: s[5].clone(),
            config_hash: s[6].clone(),
            tol,
            threads: threads as usize,
            git: s[7].clone(),
            created_unix,
            wall_us,
            summary,
            bench_min_ns: mins.into_iter().collect::<BTreeMap<_, _>>(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_records_round_trip_byte_exactly(event in any_event(), t_us in any_int()) {
        let rec = Record { t_us, event };
        let line = rec.to_json();
        prop_assert!(!line.contains('\n'), "JSONL record must be one line: {line:?}");
        let back = Record::parse(&line).map_err(|e| format!("{line:?}: {e}"))?;
        prop_assert_eq!(back.to_json(), line);
    }

    #[test]
    fn manifests_round_trip_byte_exactly(m in any_manifest()) {
        let text = m.to_json();
        prop_assert!(!text.contains('\n'), "manifest must be one line: {text:?}");
        let back = RunManifest::parse(&text).map_err(|e| format!("{text:?}: {e}"))?;
        prop_assert_eq!(back.to_json(), text);
    }
}

//! Decision provenance: one record per instruction explaining *why* it ended
//! up at its final format.
//!
//! The search logs each [`DecisionEvent`] as a `decision` line of
//! `events.jsonl` as it tests, prunes, and refuses candidate subsets;
//! [`fold`] turns that log into one [`DecisionRecord`] per instruction in
//! the structure tree, carrying its final flag token plus the full evidence
//! chain, and a run directory writes the fold as `decisions.jsonl` at
//! finish. Both types are declared once through [`mptrace::record!`], and
//! records serialize one-per-line, so the file round-trips byte-exactly
//! through [`DecisionRecord::parse`] / [`DecisionRecord::to_json`];
//! [`load`] tolerates a torn final line (a crashed run loses at most the
//! record being written).
//!
//! Event vocabulary (the `"ev"` tag on the wire):
//!
//! | tag               | meaning                                                      |
//! |-------------------|--------------------------------------------------------------|
//! | `passed`          | unit containing the insn passed verification at a level      |
//! | `failed`          | unit failed at a level (verdict + shadow error when sampled) |
//! | `guard_refused`   | range guard vetoed the demotion, with the observed envelope  |
//! | `shadow_pruned`   | shadow oracle error exceeded threshold; never executed       |
//! | `dropped`         | removed in the second phase (least-executed passing unit)    |
//! | `ignored`         | base config marks the insn `Ignore`; never a candidate       |
//!
//! Per-insn event order is log order, which is causal: the search logs
//! evidence under the lock that decided it. The interleaving *between*
//! units is scheduling dependent.

use std::collections::HashMap;
use std::path::Path;

use crate::events::{Event, Record};
use crate::executor::Verdict;
use mpconfig::{Config, Flag, StructureTree};
use mptrace::json;

mptrace::record! {
    /// One piece of evidence in an instruction's decision timeline.
    #[derive(Debug, Clone, PartialEq)]
    pub enum DecisionEvent {
        /// The unit covering this insn passed verification at a lattice level.
        Passed = "passed" {
            /// Lattice level the trial ran at (0 = widest replacement).
            level: u32,
            /// Flag token of the trial format (`s`/`h`/`b`/`m<M>e<E>`).
            format: String,
            /// Tree label of the subset that was tested.
            unit: String,
        },
        /// The unit failed verification at a lattice level.
        Failed = "failed" {
            /// Lattice level the trial ran at.
            level: u32,
            /// Flag token of the trial format.
            format: String,
            /// Executor verdict (`fail`, `timeout`, `crashed`, `quarantined`).
            verdict: Verdict,
            /// Tree label of the subset that was tested.
            unit: String,
            /// Instruction-local shadow error when a shadow oracle was
            /// attached, absent otherwise.
            shadow_err: Option<f64> [omit_none],
        },
        /// The range guard vetoed demoting this insn without an evaluation.
        GuardRefused = "guard_refused" {
            /// Target format name (`half`/`bf16`/`m<M>e<E>`).
            format: String,
            /// Operation class (`Exp`/`Log`/`Div`/`Other`).
            class: String,
            /// Largest observed operand magnitude ([`mpfmt::guard::RangeObs`]).
            max_abs: f64,
            /// Smallest observed nonzero operand magnitude.
            min_abs: f64,
            /// The format limit the envelope violated.
            bound: f64,
        },
        /// Shadow-oracle error exceeded the prune threshold, so the subset
        /// was discarded without an evaluation.
        ShadowPruned = "shadow_pruned" {
            /// Lattice level the pruned trial would have run at.
            level: u32,
            /// Flag token of the pruned trial format.
            format: String,
            /// Worst instruction-local shadow error over the subset.
            err: f64,
            /// The configured prune threshold that was exceeded.
            threshold: f64,
            /// Tree label of the discarded subset.
            unit: String,
        },
        /// The insn's unit passed but was removed in the second phase as a
        /// least-executed passing unit.
        Dropped = "dropped" {
            /// Tree label of the removed unit.
            unit: String,
        },
        /// The base configuration marks this insn `Ignore`; it was never a
        /// candidate.
        Ignored = "ignored",
    }
}

mptrace::record! {
    /// Full decision provenance for one instruction.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DecisionRecord {
        /// Instruction id (index into the structure tree).
        pub insn: u32,
        /// Instruction address in the image.
        pub addr: u64,
        /// Enclosing function name (for `craft explain --func`).
        pub func: String,
        /// Human label: `module/func/b<block>@<addr>: <disasm>`.
        pub label: String,
        /// Final flag token (`d`/`s`/`h`/`b`/`i`/`m<M>e<E>`) after the search.
        pub final_format: String [rename = "final"],
        /// Evidence chain, in recording order.
        pub events: Vec<DecisionEvent>,
    }
}

/// Folds the `decision` lines of an event log into one record per
/// instruction of `tree`, in tree order. An instruction `base` ignores
/// gets a single `Ignored` event; every other one gets its logged
/// evidence in log order, and `final_config` names its final format.
/// Evidence for an id outside the tree is dropped.
pub fn fold(
    tree: &StructureTree,
    base: &Config,
    final_config: &Config,
    records: impl IntoIterator<Item = Record>,
) -> Vec<DecisionRecord> {
    let mut evidence: HashMap<u32, Vec<DecisionEvent>> = HashMap::new();
    for r in records {
        if let Event::Decision { insn, what } = r.event {
            evidence.entry(insn).or_default().push(what);
        }
    }
    tree.insn_paths()
        .map(|(f, e, label)| DecisionRecord {
            insn: e.id.0,
            addr: e.addr,
            func: f.name.clone(),
            label,
            final_format: final_config.effective(tree, e.id).token(),
            events: if base.effective(tree, e.id) == Flag::Ignore {
                vec![DecisionEvent::Ignored]
            } else {
                evidence.remove(&e.id.0).unwrap_or_default()
            },
        })
        .collect()
}

/// Serializes `records` as JSONL (one record per line, trailing newline).
pub fn to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Loads a `decisions.jsonl` file, tolerating a torn final line.
pub fn load(path: &Path) -> Result<(Vec<DecisionRecord>, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::read_jsonl(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DecisionRecord> {
        vec![
            DecisionRecord {
                insn: 3,
                addr: 0x401_0a4,
                func: "mulpd_loop".into(),
                label: "ep/mulpd_loop/b1@0x4010a4: mulsd xmm0, xmm1".into(),
                final_format: "b".into(),
                events: vec![
                    DecisionEvent::Passed { level: 0, format: "s".into(), unit: "ep".into() },
                    DecisionEvent::Passed {
                        level: 1,
                        format: "b".into(),
                        unit: "ep/mulpd_loop".into(),
                    },
                ],
            },
            DecisionRecord {
                insn: 7,
                addr: 0x401_0b0,
                func: "vranlc".into(),
                label: "ep/vranlc/b0@0x4010b0: divsd xmm2, xmm3".into(),
                final_format: "d".into(),
                events: vec![
                    DecisionEvent::Failed {
                        level: 0,
                        format: "s".into(),
                        verdict: Verdict::Fail,
                        unit: "ep/vranlc".into(),
                        shadow_err: Some(3.5e-4),
                    },
                    DecisionEvent::GuardRefused {
                        format: "half".into(),
                        class: "Div".into(),
                        max_abs: 70000.0,
                        min_abs: 1.5e-9,
                        bound: 65504.0,
                    },
                    DecisionEvent::ShadowPruned {
                        level: 1,
                        format: "b".into(),
                        err: 0.25,
                        threshold: 1e-6,
                        unit: "ep/vranlc".into(),
                    },
                ],
            },
            DecisionRecord {
                insn: 9,
                addr: 0x401_0c0,
                func: "timer".into(),
                label: "ep/timer/b0@0x4010c0: addsd xmm0, xmm1".into(),
                final_format: "i".into(),
                events: vec![DecisionEvent::Ignored],
            },
        ]
    }

    #[test]
    fn round_trips_byte_exactly() {
        for r in sample() {
            let line = r.to_json();
            let back = DecisionRecord::parse(&line).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn jsonl_round_trip_and_torn_final_line() {
        let records = sample();
        let text = to_jsonl(&records);
        let (back, warn) = json::read_jsonl::<DecisionRecord>(&text).unwrap();
        assert_eq!(back, records);
        assert!(warn.is_none());

        // A crash mid-write leaves a torn final line: tolerated with a warning.
        let torn = &text[..text.len() - 10];
        let (back, warn) = json::read_jsonl::<DecisionRecord>(torn).unwrap();
        assert_eq!(back.len(), records.len() - 1);
        assert_eq!(back, records[..2]);
        assert!(warn.is_some(), "torn final line must produce a warning");

        // Corruption before the final line stays a hard error.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[0] = "{\"insn\":";
        let corrupt = lines.join("\n");
        assert!(json::read_jsonl::<DecisionRecord>(&corrupt).is_err());
    }

    #[test]
    fn non_finite_range_evidence_survives() {
        let r = DecisionRecord {
            insn: 0,
            addr: 0,
            func: "f".into(),
            label: "m/f/b0@0x0: sqrtsd".into(),
            final_format: "d".into(),
            events: vec![DecisionEvent::GuardRefused {
                format: "bf16".into(),
                class: "Other".into(),
                max_abs: f64::INFINITY,
                min_abs: 0.0,
                bound: 3.3895313892515355e38,
            }],
        };
        let line = r.to_json();
        let back = DecisionRecord::parse(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn integer_fields_reject_fractions_and_overflow() {
        let ok = DecisionRecord {
            insn: 1,
            addr: 0,
            func: "f".into(),
            label: "l".into(),
            final_format: "d".into(),
            events: vec![DecisionEvent::Passed { level: 1, format: "s".into(), unit: "u".into() }],
        }
        .to_json();
        let fraction = ok.replace("\"insn\":1,", "\"insn\":1.5,");
        assert!(DecisionRecord::parse(&fraction).unwrap_err().contains("\"insn\""));
        let overflow = ok.replace("\"level\":1,", "\"level\":4294967297,");
        assert!(DecisionRecord::parse(&overflow).unwrap_err().contains("\"events\""));
        let negative = ok.replace("\"addr\":0,", "\"addr\":-1,");
        assert!(DecisionRecord::parse(&negative).is_err());
        // Both at once, as a line of decisions.jsonl: this once parsed as
        // insn 1, level 1.
        let hostile = fraction.replace("\"level\":1,", "\"level\":4294967297,");
        let err = json::read_jsonl::<DecisionRecord>(&format!("{ok}\n{hostile}\n{ok}\n"));
        assert!(err.unwrap_err().starts_with("line 2: "));
    }

    #[test]
    fn dropped_and_failed_without_shadow_err() {
        let r = DecisionRecord {
            insn: 1,
            addr: 16,
            func: "g".into(),
            label: "m/g/b0@0x10: subsd".into(),
            final_format: "s".into(),
            events: vec![
                DecisionEvent::Failed {
                    level: 1,
                    format: "h".into(),
                    verdict: Verdict::Timeout,
                    unit: "m/g".into(),
                    shadow_err: None,
                },
                DecisionEvent::Dropped { unit: "m/g".into() },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains("shadow_err"));
        let back = DecisionRecord::parse(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), line);
    }
}

//! Sensitivity profiles: the persistent artifact of a shadowed run.
//!
//! A [`SensitivityProfile`] maps instruction ids to accumulated error
//! statistics and aggregates them at any level of the `mpconfig`
//! structure tree. It persists as line-oriented JSON (JSONL): one
//! `shadow_profile` header line followed by one `insn` line per
//! instruction, each a [`ProfileLine`] declared once through
//! [`mptrace::record!`], with floats in Rust's shortest round-trip form —
//! parsing a profile back yields an equal value.

use fpvm::isa::InsnId;
use mpconfig::{NodeRef, StructureTree};
use std::collections::BTreeMap;
use std::io::Write;

mptrace::record! {
    /// Accumulated shadow-error statistics for one instruction.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct InsnSensitivity {
        /// Times the instruction produced a shadowed result.
        pub count: u64,
        /// Sum of relative divergences (clamped to `f64::MAX`).
        pub sum_rel: f64,
        /// Maximum relative divergence observed.
        pub max_rel: f64,
        /// Maximum *instruction-local* relative error: the result of the
        /// operation applied to the primary operands truncated to `f32`,
        /// against the primary result. Unlike [`max_rel`](Self::max_rel)
        /// this excludes error propagated from upstream truncations, so it
        /// isolates what replacing *this one instruction* would introduce —
        /// the quantity search pruning is allowed to act on.
        pub max_local: f64,
        /// Catastrophic-cancellation events (additive exponent drop ≥ 24
        /// bits).
        pub cancels: u64,
        /// Largest primary operand/result magnitude observed. Feeds the
        /// per-format range guards (`mpfmt::guard`) that decide whether a
        /// demotion below single can survive the format's dynamic range.
        /// Profiles from before the precision lattice lack it: 0.
        pub max_abs: f64 [default],
        /// Smallest *nonzero* primary operand/result magnitude observed;
        /// `f64::INFINITY` when only zeros (or nothing) were seen, which
        /// the profile leaves off the line (as do profiles from before
        /// the precision lattice).
        pub min_abs: f64 [omit_eq = f64::INFINITY],
    }
}

mptrace::record! {
    /// One line of a sensitivity profile, tagged by its `"type"`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProfileLine [tag = "type"] {
        /// The header, the profile's first line.
        Header = "shadow_profile" {
            /// The format's version, 1.
            version: u32,
            /// How many `insn` lines follow.
            insns: usize,
        },
        /// One instruction's statistics.
        Insn = "insn" {
            /// The instruction id.
            id: u32,
            /// Its statistics, their keys inline in the line.
            stats: InsnSensitivity [flatten],
        },
    }
}

impl Default for InsnSensitivity {
    fn default() -> Self {
        InsnSensitivity {
            count: 0,
            sum_rel: 0.0,
            max_rel: 0.0,
            max_local: 0.0,
            cancels: 0,
            max_abs: 0.0,
            min_abs: f64::INFINITY,
        }
    }
}

impl InsnSensitivity {
    /// Mean relative divergence (0 when never executed).
    pub fn mean_rel(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_rel / self.count as f64
        }
    }

    fn absorb(&mut self, other: &InsnSensitivity) {
        self.count += other.count;
        self.sum_rel = (self.sum_rel + other.sum_rel).min(f64::MAX);
        self.max_rel = self.max_rel.max(other.max_rel);
        self.max_local = self.max_local.max(other.max_local);
        self.cancels += other.cancels;
        self.max_abs = self.max_abs.max(other.max_abs);
        self.min_abs = self.min_abs.min(other.min_abs);
    }

    /// Fold one primary magnitude into the range envelope (NaNs are
    /// skipped; zeros count toward `max_abs` only).
    pub fn observe_range(&mut self, x: f64) {
        let a = x.abs();
        if a.is_nan() {
            return;
        }
        if a > self.max_abs {
            self.max_abs = a;
        }
        if a > 0.0 && a < self.min_abs {
            self.min_abs = a;
        }
    }
}

/// Coarse error class of a relative divergence, for priority encoding:
/// `15` for no observed divergence (or none possible — the item never
/// executed), otherwise `clamp(⌊−log10(err)⌋, 0, 15)`. Higher class ⇒
/// smaller error ⇒ more likely to survive truncation.
pub fn error_class(err: f64) -> u64 {
    if err <= 0.0 {
        return 15;
    }
    let c = -err.log10();
    if c.is_nan() {
        return 0;
    }
    (c.floor() as i64).clamp(0, 15) as u64
}

/// Per-instruction shadow-error statistics of one run, keyed by
/// instruction id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensitivityProfile {
    /// Statistics for every instruction that produced at least one
    /// shadowed result (or cancellation event).
    pub insns: BTreeMap<u32, InsnSensitivity>,
}

impl SensitivityProfile {
    /// Statistics for one instruction, if it executed.
    pub fn get(&self, id: InsnId) -> Option<&InsnSensitivity> {
        self.insns.get(&id.0)
    }

    /// Number of instructions with recorded statistics.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Total cancellation events across the run.
    pub fn total_cancellations(&self) -> u64 {
        self.insns.values().map(|s| s.cancels).sum()
    }

    /// Worst-case (maximum) relative divergence over a set of
    /// instructions. Instructions with no recorded statistics never
    /// executed in the shadowed run and contribute zero — replacing them
    /// cannot move the observed outputs.
    pub fn max_rel_over(&self, ids: impl IntoIterator<Item = InsnId>) -> f64 {
        ids.into_iter().filter_map(|i| self.insns.get(&i.0)).fold(0.0f64, |m, s| m.max(s.max_rel))
    }

    /// Worst-case *instruction-local* relative error over a set of
    /// instructions (see [`InsnSensitivity::max_local`]); absent
    /// instructions contribute zero. This — not the propagated
    /// divergence — is the metric pruning decisions must use: propagated
    /// divergence reflects a run with *everything* truncated at once and
    /// wildly overestimates the error of replacing one unit.
    pub fn max_local_over(&self, ids: impl IntoIterator<Item = InsnId>) -> f64 {
        ids.into_iter().filter_map(|i| self.insns.get(&i.0)).fold(0.0f64, |m, s| m.max(s.max_local))
    }

    /// Observed magnitude envelope over a set of instructions, in the
    /// shape the per-format range guards consume. Instructions with no
    /// recorded statistics contribute nothing, so an unexecuted (or
    /// unprofiled) set yields the default envelope — which admits every
    /// demotion, preserving the try-it-and-verify behavior when no
    /// shadow data exists.
    pub fn range_over(&self, ids: impl IntoIterator<Item = InsnId>) -> mpfmt::guard::RangeObs {
        let mut obs = mpfmt::guard::RangeObs::default();
        for s in ids.into_iter().filter_map(|i| self.insns.get(&i.0)) {
            obs.merge(&mpfmt::guard::RangeObs { max_abs: s.max_abs, min_abs: s.min_abs });
        }
        obs
    }

    /// Aggregate statistics under one structure-tree node.
    pub fn aggregate_under(&self, tree: &StructureTree, node: NodeRef) -> InsnSensitivity {
        let mut agg = InsnSensitivity::default();
        for id in tree.insns_under(node) {
            if let Some(s) = self.insns.get(&id.0) {
                agg.absorb(s);
            }
        }
        agg
    }

    /// Per-block aggregates, keyed by the same structure tree `mpconfig`
    /// configurations use; blocks with no recorded statistics are
    /// skipped. Returned in tree order.
    pub fn block_aggregates(&self, tree: &StructureTree) -> Vec<(NodeRef, InsnSensitivity)> {
        let mut rows = Vec::new();
        for (mi, m) in tree.modules.iter().enumerate() {
            for (fi, f) in m.funcs.iter().enumerate() {
                for bi in 0..f.blocks.len() {
                    let node = NodeRef::Block(mi, fi, bi);
                    let agg = self.aggregate_under(tree, node);
                    if agg.count > 0 || agg.cancels > 0 {
                        rows.push((node, agg));
                    }
                }
            }
        }
        rows
    }

    /// Serialize to JSONL: a header line followed by one line per
    /// instruction. Floats use Rust's shortest exact round-trip form.
    pub fn to_jsonl(&self) -> String {
        let header = ProfileLine::Header { version: 1, insns: self.insns.len() };
        let mut out = header.to_json() + "\n";
        for (&id, &stats) in &self.insns {
            out += &ProfileLine::Insn { id, stats }.to_json();
            out.push('\n');
        }
        out
    }

    /// Write the JSONL form to a file.
    pub fn to_file(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Parse a profile back from its JSONL form. Tolerates unknown
    /// fields; rejects structural damage (missing header, bad record
    /// count, malformed lines, a torn last line).
    pub fn parse(text: &str) -> Result<SensitivityProfile, String> {
        let (lines, torn) = mptrace::json::read_jsonl::<ProfileLine>(text)?;
        if let Some(torn) = torn {
            return Err(torn);
        }
        let mut lines = lines.into_iter();
        let declared = match lines.next() {
            Some(ProfileLine::Header { insns, .. }) => insns,
            Some(_) => return Err("not a shadow profile (bad header)".into()),
            None => return Err("empty profile".into()),
        };
        let mut insns = BTreeMap::new();
        for line in lines {
            match line {
                ProfileLine::Insn { id, stats } => insns.insert(id, stats),
                ProfileLine::Header { .. } => return Err("a second profile header".into()),
            };
        }
        if insns.len() != declared {
            return Err(format!("header declares {declared} instructions, found {}", insns.len()));
        }
        Ok(SensitivityProfile { insns })
    }

    /// Read and parse a profile file.
    pub fn from_file(path: &str) -> Result<SensitivityProfile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SensitivityProfile {
        let mut insns = BTreeMap::new();
        insns.insert(
            3,
            InsnSensitivity {
                count: 100,
                sum_rel: 1.25e-7,
                max_rel: 3.0e-8,
                max_local: 1.0e-8,
                cancels: 0,
                max_abs: 2.5e3,
                min_abs: 0.125,
            },
        );
        insns.insert(
            7,
            InsnSensitivity {
                count: 2,
                sum_rel: f64::MAX,
                max_rel: f64::MAX,
                max_local: 0.25,
                cancels: 2,
                // empty envelope: only zeros seen → min_abs stays infinite
                max_abs: 0.0,
                min_abs: f64::INFINITY,
            },
        );
        SensitivityProfile { insns }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let p = sample();
        assert_eq!(SensitivityProfile::parse(&p.to_jsonl()).unwrap(), p);
        // empty profile too
        let empty = SensitivityProfile::default();
        assert_eq!(SensitivityProfile::parse(&empty.to_jsonl()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_damage() {
        let p = sample().to_jsonl();
        assert!(SensitivityProfile::parse("").is_err());
        assert!(SensitivityProfile::parse("{\"type\":\"other\"}").is_err());
        // drop a record: count mismatch
        let truncated: Vec<&str> = p.lines().take(2).collect();
        assert!(SensitivityProfile::parse(&truncated.join("\n")).is_err());
        // a torn last line, as a killed writer leaves it
        assert!(SensitivityProfile::parse(&p[..p.len() - 20]).is_err());
        // a second header, or a record that is not an insn line
        let twice = format!("{p}{}", p.lines().next().unwrap());
        assert!(SensitivityProfile::parse(&twice).is_err());
        assert!(SensitivityProfile::parse(&p.replacen("\"insn\"", "\"isn\"", 1)).is_err());
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let mut p = sample();
        p.insns.get_mut(&7).unwrap().max_rel = f64::INFINITY;
        assert_eq!(
            p.to_jsonl(),
            "{\"type\":\"shadow_profile\",\"version\":1,\"insns\":2}\n\
             {\"type\":\"insn\",\"id\":3,\"count\":100,\"sum_rel\":1.25e-7,\"max_rel\":3e-8,\
             \"max_local\":1e-8,\"cancels\":0,\"max_abs\":2500.0,\"min_abs\":0.125}\n\
             {\"type\":\"insn\",\"id\":7,\"count\":2,\"sum_rel\":1.7976931348623157e308,\
             \"max_rel\":\"inf\",\"max_local\":0.25,\"cancels\":2,\"max_abs\":0.0}\n"
        );
        assert_eq!(SensitivityProfile::parse(&p.to_jsonl()).unwrap(), p);
    }

    #[test]
    fn error_classes_order_by_magnitude() {
        assert_eq!(error_class(0.0), 15);
        assert_eq!(error_class(1e-20), 15);
        assert_eq!(error_class(1.5e-7), 6);
        assert_eq!(error_class(0.5), 0);
        assert_eq!(error_class(1e9), 0);
        assert_eq!(error_class(f64::MAX), 0);
    }

    #[test]
    fn max_rel_over_treats_missing_as_zero() {
        let p = sample();
        assert_eq!(p.max_rel_over([InsnId(99)]), 0.0);
        assert_eq!(p.max_rel_over([InsnId(3), InsnId(99)]), 3.0e-8);
        assert_eq!(p.max_rel_over([InsnId(3), InsnId(7)]), f64::MAX);
        assert_eq!(p.max_local_over([InsnId(3), InsnId(7)]), 0.25);
        assert_eq!(p.max_local_over([InsnId(99)]), 0.0);
    }

    #[test]
    fn legacy_profiles_without_range_fields_still_parse() {
        // A profile written before the precision lattice: no
        // max_abs/min_abs fields. It must parse with the empty-envelope
        // defaults, which admit every demotion.
        let text = "{\"type\":\"shadow_profile\",\"version\":1,\"insns\":1}\n\
                    {\"type\":\"insn\",\"id\":4,\"count\":9,\"sum_rel\":0.5,\
                    \"max_rel\":0.25,\"max_local\":0.125,\"cancels\":1}\n";
        let p = SensitivityProfile::parse(text).unwrap();
        let s = p.get(InsnId(4)).unwrap();
        assert_eq!(s.count, 9);
        assert_eq!(s.max_abs, 0.0);
        assert_eq!(s.min_abs, f64::INFINITY);
        let obs = p.range_over([InsnId(4)]);
        assert_eq!(obs, mpfmt::guard::RangeObs::default());
    }

    #[test]
    fn range_over_merges_envelopes() {
        let p = sample();
        let obs = p.range_over([InsnId(3), InsnId(7), InsnId(99)]);
        assert_eq!(obs.max_abs, 2.5e3);
        assert_eq!(obs.min_abs, 0.125);
        // missing instructions alone: the admit-everything default
        assert_eq!(p.range_over([InsnId(99)]), mpfmt::guard::RangeObs::default());
    }
}

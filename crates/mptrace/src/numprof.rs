//! Per-instruction numerical-health profiling via the const-gated
//! FP-result hooks of [`Observer`].
//!
//! [`NumProfiler`] classifies every scalar FP result and reduced-format
//! quantize a run produces ([`fpvm::Vm::run_image_with`]) into the
//! events that make a mixed-precision result trustworthy — or not:
//! NaN produced, Inf produced, underflow to zero, subnormal results,
//! and per-format quantize saturation/flush. Because the hook is gated
//! on an associated `const`, the unarmed loop monomorphizes without any
//! trace of it — zero cost when disabled, enforced bit-identical by
//! `tests/numhealth_differential.rs`.
//!
//! [`NumProfiler::fold_into`] turns the accumulators into the `fp.*`
//! counter family of a [`Tracer`]: totals (`fp.nan`,
//! `fp.sat.bf16`, …) plus per-instruction series (`fp.nan.i12`,
//! `fp.sat.bf16.i12`, …) that the Prometheus sink renders with real
//! `insn`/`format` labels.

use crate::Tracer;
use fpvm::exec::Observer;
use fpvm::InsnId;
use mpfmt::Format;
use std::collections::BTreeMap;

/// One instruction's scalar-result event accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumEvents {
    /// Scalar FP results observed at this instruction.
    pub total: u64,
    /// Results that were NaN while no operand was (NaN *produced*, not
    /// propagated).
    pub nan: u64,
    /// Infinite results from finite operands (overflow or pole).
    pub inf: u64,
    /// Exact-zero results from two nonzero operands: gradual underflow
    /// hitting zero, or exact cancellation.
    pub underflow: u64,
    /// Subnormal results, classified at the operation's native width
    /// (an `f32` subnormal counts even though it widens to a normal
    /// `f64`).
    pub subnormal: u64,
}

impl NumEvents {
    /// True when no abnormal event was recorded.
    pub fn is_clean(&self) -> bool {
        self.nan == 0 && self.inf == 0 && self.underflow == 0 && self.subnormal == 0
    }
}

/// One `(instruction, reduced format)` pair's quantize accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantEvents {
    /// Quantize operations observed.
    pub total: u64,
    /// Finite payloads that saturated to the format's infinity.
    pub sat: u64,
    /// Nonzero payloads flushed to zero (below the format's smallest
    /// subnormal).
    pub flush: u64,
}

/// Dense per-instruction numerical-health accumulators, plus sparse
/// per-`(instruction, format)` quantize accumulators.
///
/// Mirrors [`InsnProfiler`](crate::profiler::InsnProfiler): the slot
/// vector carries one discard bucket past the id bound, and the hooks
/// clamp into it instead of branching on the sentinel id.
#[derive(Debug, Clone, Default)]
pub struct NumProfiler {
    slots: Vec<NumEvents>,
    quant: BTreeMap<(u32, (u8, u8)), QuantEvents>,
}

impl NumProfiler {
    /// A profiler sized for a program with `insn_id_bound() == bound`.
    pub fn new(bound: usize) -> NumProfiler {
        NumProfiler { slots: vec![NumEvents::default(); bound + 1], quant: BTreeMap::new() }
    }

    /// Ids strictly below this are attributed; the rest are discarded.
    fn bound(&self) -> usize {
        self.slots.len().saturating_sub(1)
    }

    /// The scalar-result events attributed to instruction `id`
    /// (all-zero when out of range).
    pub fn events(&self, id: u32) -> NumEvents {
        if (id as usize) < self.bound() {
            self.slots[id as usize]
        } else {
            NumEvents::default()
        }
    }

    /// Iterate `(id, events)` over every instruction with any scalar
    /// result attributed.
    pub fn iter(&self) -> impl Iterator<Item = (u32, NumEvents)> + '_ {
        self.slots[..self.bound()]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.total != 0)
            .map(|(i, &s)| (i as u32, s))
    }

    /// Iterate `(id, format, events)` over every `(instruction, reduced
    /// format)` pair with any quantize attributed.
    pub fn iter_quant(&self) -> impl Iterator<Item = (u32, Format, QuantEvents)> + '_ {
        self.quant.iter().map(|(&(i, (m, e)), &q)| {
            let fmt = match (m, e) {
                (10, 5) => Format::Half,
                (7, 8) => Format::Bf16,
                _ => Format::Custom { mantissa_bits: m, exp_bits: e },
            };
            (i, fmt, q)
        })
    }

    /// Re-attribute the accumulators through an id map (instrumented
    /// snippet insn → origin insn), mirroring
    /// [`InsnProfiler::fold_into`](crate::profiler::InsnProfiler::fold_into):
    /// every id's events merge into `map(id)`'s slot of a profiler sized
    /// for `bound`.
    pub fn fold_ids(&self, bound: usize, map: impl Fn(u32) -> u32) -> NumProfiler {
        let mut out = NumProfiler::new(bound);
        for (i, s) in self.iter() {
            let j = (map(i) as usize).min(out.slots.len() - 1);
            let d = &mut out.slots[j];
            d.total += s.total;
            d.nan += s.nan;
            d.inf += s.inf;
            d.underflow += s.underflow;
            d.subnormal += s.subnormal;
        }
        for (&(i, fe), &q) in &self.quant {
            let j = map(i);
            if (j as usize) < out.bound() {
                let d = out.quant.entry((j, fe)).or_default();
                d.total += q.total;
                d.sat += q.sat;
                d.flush += q.flush;
            }
        }
        out
    }

    /// Fold the accumulators into `t` as the `fp.*` counter family:
    /// family totals (`fp.result`, `fp.nan`, `fp.inf`, `fp.underflow`,
    /// `fp.subnormal`, `fp.quantize.<fmt>`, `fp.sat.<fmt>`,
    /// `fp.flush.<fmt>`), per-instruction series with an `.i<id>`
    /// suffix for every abnormal event, and one histogram
    /// (`fp.insn_events`) of abnormal-event counts per affected
    /// instruction.
    pub fn fold_into(&self, t: &Tracer) {
        let mut totals = NumEvents::default();
        for (i, s) in self.iter() {
            totals.total += s.total;
            totals.nan += s.nan;
            totals.inf += s.inf;
            totals.underflow += s.underflow;
            totals.subnormal += s.subnormal;
            for (name, n) in [
                ("fp.nan", s.nan),
                ("fp.inf", s.inf),
                ("fp.underflow", s.underflow),
                ("fp.subnormal", s.subnormal),
            ] {
                if n > 0 {
                    t.incr(&format!("{name}.i{i}"), n);
                }
            }
            let abnormal = s.nan + s.inf + s.underflow + s.subnormal;
            if abnormal > 0 {
                t.observe("fp.insn_events", abnormal);
            }
        }
        for (name, n) in [
            ("fp.result", totals.total),
            ("fp.nan", totals.nan),
            ("fp.inf", totals.inf),
            ("fp.underflow", totals.underflow),
            ("fp.subnormal", totals.subnormal),
        ] {
            if n > 0 {
                t.incr(name, n);
            }
        }
        for (i, fmt, q) in self.iter_quant() {
            t.incr(&format!("fp.quantize.{fmt}"), q.total);
            if q.sat > 0 {
                t.incr(&format!("fp.sat.{fmt}"), q.sat);
                t.incr(&format!("fp.sat.{fmt}.i{i}"), q.sat);
            }
            if q.flush > 0 {
                t.incr(&format!("fp.flush.{fmt}"), q.flush);
                t.incr(&format!("fp.flush.{fmt}.i{i}"), q.flush);
            }
        }
    }

    #[inline(always)]
    fn classify(
        s: &mut NumEvents,
        a_nan: bool,
        b_nan: bool,
        zero_ops: bool,
        fin_ops: bool,
        r: f64,
    ) {
        s.total += 1;
        if r.is_nan() {
            s.nan += (!a_nan && !b_nan) as u64;
            return;
        }
        s.inf += (r.is_infinite() && fin_ops) as u64;
        s.underflow += (r == 0.0 && !zero_ops && fin_ops) as u64;
    }
}

impl Observer for NumProfiler {
    const FP_RESULTS: bool = true;

    #[inline(always)]
    fn fp_result_f64(&mut self, insn: InsnId, a: f64, b: f64, r: f64) {
        if self.slots.is_empty() {
            return;
        }
        let i = (insn.0 as usize).min(self.slots.len() - 1);
        let s = &mut self.slots[i];
        Self::classify(
            s,
            a.is_nan(),
            b.is_nan(),
            a == 0.0 || b == 0.0,
            a.is_finite() && b.is_finite(),
            r,
        );
        s.subnormal += r.is_subnormal() as u64;
    }

    #[inline(always)]
    fn fp_result_f32(&mut self, insn: InsnId, a: f32, b: f32, r: f32) {
        if self.slots.is_empty() {
            return;
        }
        let i = (insn.0 as usize).min(self.slots.len() - 1);
        let s = &mut self.slots[i];
        Self::classify(
            s,
            a.is_nan(),
            b.is_nan(),
            a == 0.0 || b == 0.0,
            a.is_finite() && b.is_finite(),
            r as f64,
        );
        // Subnormality is width-dependent: classify before widening.
        s.subnormal += r.is_subnormal() as u64;
    }

    #[inline(always)]
    fn quantize(&mut self, insn: InsnId, mant: u8, exp: u8, before: u32, after: u32) {
        if self.slots.is_empty() || insn.0 as usize >= self.bound() {
            return;
        }
        let q = self.quant.entry((insn.0, (mant, exp))).or_default();
        q.total += 1;
        let (bf, af) = (f32::from_bits(before), f32::from_bits(after));
        q.sat += (af.is_infinite() && bf.is_finite()) as u64;
        q.flush += (af == 0.0 && bf != 0.0 && !bf.is_nan()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_results_classify_produced_events_only() {
        let mut p = NumProfiler::new(4);
        // NaN produced (0/0-style) vs NaN propagated.
        p.fp_result_f64(InsnId(0), 0.0, 0.0, f64::NAN);
        p.fp_result_f64(InsnId(0), f64::NAN, 1.0, f64::NAN);
        // Inf produced vs propagated.
        p.fp_result_f64(InsnId(1), 1.0e308, 1.0e308, f64::INFINITY);
        p.fp_result_f64(InsnId(1), f64::INFINITY, 2.0, f64::INFINITY);
        // Underflow to zero vs an operand that was already zero.
        p.fp_result_f64(InsnId(2), 1.0e-200, 1.0e-200, 0.0);
        p.fp_result_f64(InsnId(2), 0.0, 5.0, 0.0);
        // Subnormal result.
        p.fp_result_f64(InsnId(3), 1.0e-160, 1.0e-160, 1.0e-320);
        let (e0, e1, e2, e3) = (p.events(0), p.events(1), p.events(2), p.events(3));
        assert_eq!((e0.nan, e0.total), (1, 2));
        assert_eq!((e1.inf, e1.total), (1, 2));
        assert_eq!((e2.underflow, e2.total), (1, 2));
        assert_eq!((e3.subnormal, e3.total), (1, 1));
        assert!(!e3.is_clean() && p.events(99).is_clean());
    }

    #[test]
    fn f32_subnormals_classify_at_native_width() {
        let mut p = NumProfiler::new(2);
        // 1e-40 is subnormal in f32 but normal once widened to f64.
        p.fp_result_f32(InsnId(0), 1.0e-20, 1.0e-20, 1.0e-40);
        assert_eq!(p.events(0).subnormal, 1);
        assert_eq!(p.events(0).underflow, 0);
    }

    #[test]
    fn quantize_counts_saturation_and_flush_per_format() {
        let mut p = NumProfiler::new(2);
        let sat = Format::Half.quantize_bits(1.0e6f32.to_bits());
        p.quantize(InsnId(0), 10, 5, 1.0e6f32.to_bits(), sat);
        let flush = Format::Half.quantize_bits(1.0e-30f32.to_bits());
        p.quantize(InsnId(0), 10, 5, 1.0e-30f32.to_bits(), flush);
        p.quantize(InsnId(0), 10, 5, 1.5f32.to_bits(), 1.5f32.to_bits());
        let all: Vec<_> = p.iter_quant().collect();
        assert_eq!(all.len(), 1);
        let (i, fmt, q) = all[0];
        assert_eq!((i, fmt), (0, Format::Half));
        assert_eq!((q.total, q.sat, q.flush), (3, 1, 1));
    }

    #[test]
    fn fold_ids_reattributes_snippet_events_to_origins() {
        let mut p = NumProfiler::new(8);
        p.fp_result_f64(InsnId(5), 0.0, 0.0, f64::NAN);
        p.fp_result_f64(InsnId(6), 1.0e308, 1.0e308, f64::INFINITY);
        let sat = Format::Half.quantize_bits(1.0e6f32.to_bits());
        p.quantize(InsnId(6), 10, 5, 1.0e6f32.to_bits(), sat);
        // Snippet insns 5 and 6 both expand origin insn 2.
        let folded = p.fold_ids(4, |i| if i >= 5 { 2 } else { i });
        let e = folded.events(2);
        assert_eq!((e.nan, e.inf, e.total), (1, 1, 2));
        let all: Vec<_> = folded.iter_quant().collect();
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].0, all[0].1), (2, Format::Half));
    }

    #[test]
    fn fold_into_emits_fp_counter_family() {
        let mut p = NumProfiler::new(4);
        p.fp_result_f64(InsnId(2), 0.0, 0.0, f64::NAN);
        p.fp_result_f64(InsnId(2), 1.0, 1.0, 2.0);
        let sat = Format::Bf16.quantize_bits(f32::MAX.to_bits());
        p.quantize(InsnId(3), 7, 8, f32::MAX.to_bits(), sat);
        let t = Tracer::new();
        p.fold_into(&t);
        let counters = t.snapshot().counters;
        for name in [
            "fp.result",
            "fp.nan",
            "fp.nan.i2",
            "fp.quantize.bf16",
            "fp.sat.bf16.i3",
            "fp.sat.bf16",
        ] {
            assert!(counters.contains_key(name), "missing {name} in {counters:?}");
        }
        assert!(
            !counters.keys().any(|k| k.starts_with("fp.inf")),
            "clean families must not be emitted: {counters:?}"
        );
    }
}

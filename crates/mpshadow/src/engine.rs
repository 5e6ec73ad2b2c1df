//! The shadow-value engine: an [`Observer`] that mirrors every
//! scalar-double operation in single precision.
//!
//! ## Shadow state
//!
//! * one `f32` shadow per XMM register's scalar (low-64) slot, with a
//!   validity bitmask;
//! * one `f32` shadow per 64-bit memory slot the run touches, keyed by
//!   absolute address.
//!
//! A shadow is **seeded lazily**: the first time an untracked operand is
//! consumed, its shadow is the primary double truncated to `f32` — from
//! then on the twin evolves through genuine single-precision arithmetic.
//! Any write the engine cannot track as a scalar double (low-32 writes,
//! packed results, 128-bit moves, integer stores) *invalidates* the
//! shadows it overlaps, so a stale twin is never consumed.
//!
//! ## What is recorded
//!
//! After every scalar-double arithmetic, square-root, or math-library
//! instruction, the engine records the relative divergence between the
//! shadow result and the primary result — `|s − r| / max(|r|, 1)`, the
//! same metric the workloads' verification routines use, clamped to
//! `f64::MAX` when non-finite. Additive operations additionally run
//! exponent-drop cancellation detection: if the result's binary exponent
//! sits ≥ 24 bits (the full `f32` significand) below the larger
//! operand's, or nonzero operands produce an exact zero, the instruction
//! logs one catastrophic-cancellation event.

use crate::profile::{InsnSensitivity, SensitivityProfile};
use fpvm::exec::{FpEvent, FpLocV, Observer};
use fpvm::isa::{FpAluOp, InsnId};
use fpvm::Vm;
use std::collections::HashMap;

/// Shadow-value execution engine; attach with
/// [`Vm::run_observed`](fpvm::Vm::run_observed).
#[derive(Debug)]
pub struct ShadowEngine {
    /// Per-register shadow of the scalar (low-64) slot.
    reg: [f32; 16],
    /// Validity bitmask for `reg`.
    reg_ok: u16,
    /// Shadows of 64-bit memory slots, by absolute address.
    mem: HashMap<u64, f32>,
    /// Per-instruction statistics, indexed by instruction id.
    stats: Vec<InsnSensitivity>,
}

/// Relative divergence of a shadow result from the primary result:
/// `|s − r| / max(|r|, 1)` (the workloads' verification metric), with
/// non-finite divergence clamped to `f64::MAX` so sums stay orderable.
fn divergence(shadow: f64, primary: f64) -> f64 {
    let e = (shadow - primary).abs() / primary.abs().max(1.0);
    if e.is_finite() {
        e
    } else {
        f64::MAX
    }
}

#[inline]
fn biased_exp(x: f64) -> i64 {
    ((x.to_bits() >> 52) & 0x7ff) as i64
}

/// Is `x` faithfully representable in `f32` — i.e. does truncation land
/// on a *normal* `f32` (or preserve an exact zero)? When a primary
/// operand under- or overflows the `f32` range — including the
/// subnormal range, where `f32` keeps only a few significand bits — the
/// one-step local model's *input* is already garbage, and its output
/// says nothing about what a replaced run (whose trajectory
/// self-stabilizes at `f32` scale) would actually compute — so such
/// samples must not feed the local-error statistic.
fn faithful(x: f64) -> bool {
    let t = x as f32;
    t.is_normal() || (t == 0.0 && x == 0.0)
}

/// Exponent-drop cancellation test for `r = a ± b`: true when finite
/// nonzero operands produce a result whose binary exponent is at least
/// 24 bits — the full `f32` significand — below the larger operand's,
/// or an exact zero.
fn cancellation(a: f64, b: f64, r: f64) -> bool {
    if a == 0.0 || b == 0.0 || !a.is_finite() || !b.is_finite() {
        return false;
    }
    if r == 0.0 {
        return true;
    }
    if !r.is_finite() {
        return false;
    }
    biased_exp(a).max(biased_exp(b)) - biased_exp(r) >= 24
}

impl ShadowEngine {
    /// Create an engine for a program with the given instruction-id
    /// bound ([`fpvm::Program::insn_id_bound`]).
    pub fn new(insn_bound: usize) -> Self {
        ShadowEngine {
            reg: [0.0; 16],
            reg_ok: 0,
            mem: HashMap::new(),
            stats: vec![InsnSensitivity::default(); insn_bound],
        }
    }

    /// Consume the engine into its [`SensitivityProfile`].
    pub fn into_profile(self) -> SensitivityProfile {
        SensitivityProfile {
            insns: self
                .stats
                .iter()
                .enumerate()
                .filter(|(_, s)| s.count > 0 || s.cancels > 0)
                .map(|(i, s)| (i as u32, *s))
                .collect(),
        }
    }

    /// Number of memory slots currently shadowed (diagnostics).
    pub fn tracked_mem_slots(&self) -> usize {
        self.mem.len()
    }

    fn reg_shadow(&mut self, x: u8, primary: f64) -> f32 {
        let i = x as usize;
        if self.reg_ok & (1 << i) == 0 {
            self.reg[i] = primary as f32;
            self.reg_ok |= 1 << i;
        }
        self.reg[i]
    }

    fn operand(&mut self, loc: FpLocV, primary: f64) -> f32 {
        match loc {
            FpLocV::Reg(x) => self.reg_shadow(x, primary),
            FpLocV::Mem(a) => *self.mem.entry(a).or_insert(primary as f32),
        }
    }

    fn set_reg(&mut self, x: u8, v: f32) {
        self.reg[x as usize] = v;
        self.reg_ok |= 1 << x;
    }

    /// Drop every tracked slot overlapping `width` bytes at `a`
    /// (tracked slots are 8 bytes wide, so the scan extends 7 bytes
    /// below the write).
    fn clobber_mem(&mut self, a: u64, width: u64) {
        if self.mem.is_empty() {
            return;
        }
        for k in a.saturating_sub(7)..a.saturating_add(width) {
            self.mem.remove(&k);
        }
    }

    fn write(&mut self, loc: FpLocV, v: f32) {
        match loc {
            FpLocV::Reg(x) => self.set_reg(x, v),
            FpLocV::Mem(a) => {
                self.clobber_mem(a, 8);
                self.mem.insert(a, v);
            }
        }
    }

    /// Record one shadowed result: `shadow` is the propagated twin,
    /// `local` the result of the same operation on freshly-truncated
    /// primary operands (isolating this instruction's own contribution),
    /// or `None` when an operand was outside the `f32` range and the
    /// local model therefore has nothing valid to say. `range` holds the
    /// primary operands and result whose magnitudes feed the
    /// per-instruction range envelope (the input to `mpfmt`'s demotion
    /// guards).
    fn record(
        &mut self,
        insn: InsnId,
        primary: f64,
        shadow: f32,
        local: Option<f32>,
        cancel: bool,
        range: &[f64],
    ) {
        let s = &mut self.stats[insn.0 as usize];
        s.count += 1;
        let rel = divergence(shadow as f64, primary);
        s.sum_rel = (s.sum_rel + rel).min(f64::MAX);
        s.max_rel = s.max_rel.max(rel);
        if let Some(local) = local {
            s.max_local = s.max_local.max(divergence(local as f64, primary));
        }
        s.cancels += cancel as u64;
        for &x in range {
            s.observe_range(x);
        }
    }
}

impl Observer for ShadowEngine {
    const FP_EVENTS: bool = true;

    fn trace(&mut self, ev: &FpEvent) {
        match *ev {
            FpEvent::Arith64 { insn, op, dst, src, a, b, r } => {
                let sa = self.reg_shadow(dst, a);
                let sb = self.operand(src, b);
                let sr = Vm::fp_alu_f32(op, sa, sb);
                self.set_reg(dst, sr);
                let lr =
                    (faithful(a) && faithful(b)).then(|| Vm::fp_alu_f32(op, a as f32, b as f32));
                let cancel = matches!(op, FpAluOp::Add | FpAluOp::Sub) && cancellation(a, b, r);
                self.record(insn, r, sr, lr, cancel, &[a, b, r]);
            }
            FpEvent::Sqrt64 { insn, dst, src, b, r } => {
                let sr = self.operand(src, b).sqrt();
                self.set_reg(dst, sr);
                self.record(insn, r, sr, faithful(b).then(|| (b as f32).sqrt()), false, &[b, r]);
            }
            FpEvent::Math64 { insn, fun, dst, src, b, r } => {
                let sr = Vm::math_f32(fun, self.operand(src, b));
                self.set_reg(dst, sr);
                self.record(
                    insn,
                    r,
                    sr,
                    faithful(b).then(|| Vm::math_f32(fun, b as f32)),
                    false,
                    &[b, r],
                );
            }
            // Conversions seed the shadow exactly: the double result of a
            // widen is representable in f32, and an i64→f64 truncates the
            // same way the shadow's i64→f32 does relative to it.
            FpEvent::Widen64 { dst, value, .. } => self.set_reg(dst, value),
            FpEvent::Int64 { dst, v, .. } => self.set_reg(dst, v as f32),
            FpEvent::Mov64 { dst, src, bits } => {
                let s = match src {
                    FpLocV::Reg(x) => (self.reg_ok & (1 << x) != 0).then(|| self.reg[x as usize]),
                    FpLocV::Mem(a) => self.mem.get(&a).copied(),
                }
                .unwrap_or(f64::from_bits(bits) as f32);
                self.write(dst, s);
            }
            FpEvent::Clobber { loc, width } => match loc {
                FpLocV::Reg(x) => self.reg_ok &= !(1 << x),
                FpLocV::Mem(a) => self.clobber_mem(a, width as u64),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_detects_exponent_drop() {
        // 1.0 + (-1.0 + 2^-30): drop of ~30 bits.
        let a = 1.0f64;
        let b = -1.0 + 2f64.powi(-30);
        assert!(cancellation(a, b, a + b));
        // benign addition: no drop
        assert!(!cancellation(1.0, 2.0, 3.0));
        // exact zero from nonzero operands
        assert!(cancellation(5.0, -5.0, 0.0));
        // zeros and non-finite operands never count
        assert!(!cancellation(0.0, 1.0, 1.0));
        assert!(!cancellation(f64::INFINITY, 1.0, f64::INFINITY));
    }

    #[test]
    fn divergence_matches_verification_metric_and_clamps() {
        assert_eq!(divergence(1.5, 1.0), 0.5);
        assert_eq!(divergence(3.0, 2.0), 0.5);
        assert_eq!(divergence(f64::NAN, 1.0), f64::MAX);
        assert_eq!(divergence(f64::INFINITY, 1.0), f64::MAX);
    }

    #[test]
    fn lazy_seed_then_track() {
        let mut e = ShadowEngine::new(4);
        // first use seeds from the primary
        let s = e.operand(FpLocV::Reg(3), 1.5);
        assert_eq!(s, 1.5f32);
        // engine-written values persist
        e.set_reg(3, 7.25);
        assert_eq!(e.operand(FpLocV::Reg(3), 999.0), 7.25);
        // clobber invalidates: next use re-seeds
        e.trace(&FpEvent::Clobber { loc: FpLocV::Reg(3), width: 4 });
        assert_eq!(e.operand(FpLocV::Reg(3), 2.0), 2.0f32);
    }

    #[test]
    fn arith_events_feed_the_range_envelope() {
        let mut e = ShadowEngine::new(2);
        for (a, b) in [(3.0f64, 4.0f64), (0.5, 0.0), (-2.0e4, 1.0)] {
            e.trace(&FpEvent::Arith64 {
                insn: InsnId(1),
                op: FpAluOp::Add,
                dst: 0,
                src: FpLocV::Reg(1),
                a,
                b,
                r: a + b,
            });
        }
        let p = e.into_profile();
        let s = p.get(InsnId(1)).unwrap();
        assert_eq!(s.max_abs, 2.0e4);
        assert_eq!(s.min_abs, 0.5); // zero operand does not set the minimum
    }

    #[test]
    fn mem_clobber_removes_overlapping_slots() {
        let mut e = ShadowEngine::new(1);
        e.write(FpLocV::Mem(64), 1.0);
        e.write(FpLocV::Mem(80), 2.0);
        assert_eq!(e.tracked_mem_slots(), 2);
        // a 4-byte write at 68 overlaps the slot at 64 but not 80
        e.trace(&FpEvent::Clobber { loc: FpLocV::Mem(68), width: 4 });
        assert_eq!(e.tracked_mem_slots(), 1);
        assert_eq!(e.operand(FpLocV::Mem(80), 0.0), 2.0);
    }
}

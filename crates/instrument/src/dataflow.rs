//! Intra-block forward dataflow for the *lean* snippet mode — the
//! paper's §2.5 third optimization: "static data flow analysis could
//! improve overheads by detecting instructions that never encounter
//! replaced double-precision numbers under a given configuration".
//!
//! The analysis tracks, within one basic block, which 64-bit XMM lanes
//! are statically known to hold *plain* (unflagged) doubles and which are
//! known to hold *flagged* (replaced) values. Block entry is all-unknown
//! (the conservative choice: values may arrive either way from
//! predecessors or memory), so only locally-proven facts are used. Two
//! rules keep the facts true of the rewritten code:
//!
//! * **Facts are per lane.** A scalar write touches lane 0 only, so it
//!   says nothing about lane 1; a packed operand is known only if both of
//!   its lanes are known the same way.
//! * **Snippets convert their register inputs in place.** A single or
//!   reduced snippet downcasts-and-flags every input lane, so those lanes
//!   become flagged along with its output's; a double snippet upcasts a
//!   flagged input lane, which becomes plain.
//!
//! Flagged facts only arise from single and reduced snippets, so an
//! all-double rewrite sees plain facts alone.

use crate::snippets::{Known, OperandFacts, SnippetPrec};
use fpvm::isa::{FpLoc, Insn, InstKind, Prec, Width, Xmm, RM};

/// Lane mask of a scalar operand: lane 0.
const LANE0: u32 = 0b01;
/// Lane mask of a packed operand: both lanes.
const BOTH: u32 = 0b11;

fn lanes(packed: bool) -> u32 {
    if packed {
        BOTH
    } else {
        LANE0
    }
}

/// What is statically known of each XMM lane's replacement flag: bit
/// `2 * reg + lane` of `plain` or of `flagged` (never both).
#[derive(Debug, Clone, Default)]
pub struct FlagState {
    plain: u32,
    flagged: u32,
}

impl FlagState {
    /// Empty (all unknown) — the state at block entry.
    pub fn new() -> Self {
        FlagState::default()
    }

    /// What is known of lanes `mask` (bit 0 = lane 0, bit 1 = lane 1) of
    /// `reg`: plain or flagged only if every one of them is.
    pub fn known(&self, reg: u8, mask: u32) -> Known {
        let m = mask << (2 * reg);
        if self.plain & m == m {
            Known::Plain
        } else if self.flagged & m == m {
            Known::Flagged
        } else {
            Known::Unknown
        }
    }

    fn set(&mut self, reg: u8, mask: u32, known: Known) {
        let m = mask << (2 * reg);
        self.plain &= !m;
        self.flagged &= !m;
        match known {
            Known::Plain => self.plain |= m,
            Known::Flagged => self.flagged |= m,
            Known::Unknown => {}
        }
    }

    /// Facts for a candidate instruction about to be instrumented.
    pub fn facts(&self, insn: &Insn) -> OperandFacts {
        let (dst, src, mask) = match &insn.kind {
            InstKind::FpArith { packed, dst, src, .. } => {
                (Some(dst.0), reg_of(src), lanes(*packed))
            }
            InstKind::FpUcomi { lhs, src, .. } => (Some(lhs.0), reg_of(src), LANE0),
            InstKind::FpSqrt { packed, src, .. } => (None, reg_of(src), lanes(*packed)),
            InstKind::FpMath { src, .. }
            | InstKind::CvtF2I { src, .. }
            | InstKind::CvtF2F { src, .. } => (None, reg_of(src), LANE0),
            _ => (None, None, 0),
        };
        let known = |r: Option<u8>| r.map_or(Known::Unknown, |r| self.known(r, mask));
        OperandFacts { dst: known(dst), src: known(src) }
    }

    /// A snippet's effect on an input it converts in place. A memory
    /// operand is first copied, flag intact, into `%xmm15`.
    fn convert_input(&mut self, src: &RM, mask: u32, instrumented: Option<SnippetPrec>) {
        match (src, instrumented) {
            (_, None) => {}
            (RM::Mem(_), Some(_)) => self.set(Xmm::SCRATCH.0, BOTH, Known::Unknown),
            // upcast in place: a flagged lane becomes plain
            (RM::Reg(x), Some(SnippetPrec::Double)) => {
                let flagged = (self.flagged >> (2 * x.0)) & mask;
                self.set(x.0, flagged, Known::Plain);
            }
            // downcast-and-flag in place
            (RM::Reg(x), Some(_)) => self.set(x.0, mask, Known::Flagged),
        }
    }

    /// Update the state after executing `insn`, given how (or whether) it
    /// was instrumented: `Some(Single | Reduced)` flags its output and its
    /// register inputs, `Some(Double)` produces a plain double and
    /// unflags its register inputs, `None` means copied untouched.
    pub fn step(&mut self, insn: &Insn, instrumented: Option<SnippetPrec>) {
        match &insn.kind {
            InstKind::FpArith { packed, dst, src, .. } => {
                let m = lanes(*packed);
                self.convert_input(src, m, instrumented);
                self.convert_input(&RM::Reg(*dst), m, instrumented);
                self.write_result(dst.0, m, instrumented);
            }
            InstKind::FpSqrt { packed, dst, src, .. } => {
                let m = lanes(*packed);
                self.convert_input(src, m, instrumented);
                self.write_result(dst.0, m, instrumented);
            }
            InstKind::FpMath { dst, src, .. } => {
                self.convert_input(src, LANE0, instrumented);
                self.write_result(dst.0, LANE0, instrumented);
            }
            InstKind::FpUcomi { lhs, src, .. } => {
                self.convert_input(src, LANE0, instrumented);
                self.convert_input(&RM::Reg(*lhs), LANE0, instrumented);
            }
            InstKind::CvtF2I { src, .. } => self.convert_input(src, LANE0, instrumented),
            InstKind::CvtF2F { to: Prec::Single, dst, src } => {
                // The narrowing snippet only tests its input, never
                // converts it; a memory input still passes through %xmm15.
                if let RM::Mem(_) = src {
                    self.convert_input(src, LANE0, instrumented);
                }
                self.set(dst.0, LANE0, Known::Unknown);
            }
            InstKind::CvtF2F { to: Prec::Double, dst, .. }
            | InstKind::CvtI2F { to: Prec::Double, dst, .. } => {
                self.set(dst.0, LANE0, Known::Plain)
            }
            InstKind::CvtI2F { dst, .. } => self.set(dst.0, LANE0, Known::Unknown),
            InstKind::MovF { width, dst: FpLoc::Reg(d), src } => {
                let m = if *width == Width::W128 { BOTH } else { LANE0 };
                match (width, src) {
                    (Width::W64 | Width::W128, FpLoc::Reg(s)) => {
                        let (plain, flagged) =
                            ((self.plain >> (2 * s.0)) & m, (self.flagged >> (2 * s.0)) & m);
                        self.set(d.0, m, Known::Unknown);
                        self.set(d.0, plain, Known::Plain);
                        self.set(d.0, flagged, Known::Flagged);
                    }
                    _ => self.set(d.0, m, Known::Unknown),
                }
            }
            InstKind::FpTrunc { dst, lane, .. } => self.set(dst.0, 1 << lane, Known::Flagged),
            InstKind::PInsrQ { dst, lane, .. } => self.set(dst.0, 1 << lane, Known::Unknown),
            InstKind::Call { .. } => {
                // callee may clobber anything
                *self = FlagState::new();
            }
            _ => {}
        }
    }

    /// The destination lanes `mask` of `reg` after the operation: plain
    /// from a double snippet, flagged from a single or reduced one, and
    /// unknown when copied untouched (an ignored double op on unknown
    /// inputs, or a single-precision original).
    fn write_result(&mut self, reg: u8, mask: u32, instrumented: Option<SnippetPrec>) {
        let known = match instrumented {
            Some(SnippetPrec::Double) => Known::Plain,
            Some(SnippetPrec::Single | SnippetPrec::Reduced { .. }) => Known::Flagged,
            None => Known::Unknown,
        };
        self.set(reg, mask, known);
    }
}

fn reg_of(src: &RM) -> Option<u8> {
    match src {
        RM::Reg(x) => Some(x.0),
        RM::Mem(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm::isa::*;
    use fpvm::program::Program;

    fn insn(kind: InstKind) -> Insn {
        let mut p = Program::new(64);
        p.mk_insn(kind)
    }

    fn add(packed: bool, dst: u8, src: u8) -> Insn {
        insn(InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed,
            dst: Xmm(dst),
            src: RM::Reg(Xmm(src)),
        })
    }

    fn cvt(dst: u8) -> Insn {
        insn(InstKind::CvtI2F { to: Prec::Double, dst: Xmm(dst), src: GMI::Imm(7) })
    }

    const LANE1: u32 = 0b10;

    #[test]
    fn cvt_from_int_is_plain_in_lane_0_only() {
        let mut s = FlagState::new();
        s.step(&cvt(3), None);
        assert_eq!(s.known(3, LANE0), Known::Plain);
        assert_eq!(s.known(3, LANE1), Known::Unknown);
        assert_eq!(s.known(2, LANE0), Known::Unknown);
    }

    #[test]
    fn double_snippet_output_is_plain_single_is_flagged() {
        let mut s = FlagState::new();
        s.step(&add(false, 0, 1), Some(SnippetPrec::Double));
        assert_eq!(s.known(0, LANE0), Known::Plain);
        s.step(&add(false, 0, 1), Some(SnippetPrec::Single));
        assert_eq!(s.known(0, LANE0), Known::Flagged);
        s.step(&add(false, 0, 1), None);
        assert_eq!(s.known(0, LANE0), Known::Unknown);
    }

    #[test]
    fn snippets_convert_their_register_inputs() {
        let mut s = FlagState::new();
        s.step(&cvt(1), None);
        s.step(&add(false, 0, 1), Some(SnippetPrec::Reduced { mant: 7, exp: 8 }));
        assert_eq!(s.known(1, LANE0), Known::Flagged);
        // A double snippet upcasts a flagged input but learns nothing
        // about an unknown one.
        s.step(&add(false, 2, 1), Some(SnippetPrec::Double));
        assert_eq!(s.known(1, LANE0), Known::Plain);
        let ucomi =
            insn(InstKind::FpUcomi { prec: Prec::Double, lhs: Xmm(3), src: RM::Reg(Xmm(1)) });
        s.step(&ucomi, Some(SnippetPrec::Double));
        assert_eq!(s.known(3, LANE0), Known::Unknown);
        s.step(&ucomi, Some(SnippetPrec::Single));
        assert_eq!((s.known(3, LANE0), s.known(1, LANE0)), (Known::Flagged, Known::Flagged));
    }

    #[test]
    fn packed_operands_need_both_lanes() {
        let mut s = FlagState::new();
        s.step(&add(true, 1, 2), Some(SnippetPrec::Double));
        assert_eq!(s.facts(&add(true, 0, 1)).src, Known::Plain);
        // A scalar write leaves lane 1 as it was.
        s.step(&add(true, 1, 2), Some(SnippetPrec::Single));
        s.step(&cvt(1), None);
        assert_eq!((s.known(1, LANE0), s.known(1, LANE1)), (Known::Plain, Known::Flagged));
        assert_eq!(s.facts(&add(true, 0, 1)).src, Known::Unknown);
        assert_eq!(s.facts(&add(false, 0, 1)).src, Known::Plain);
    }

    #[test]
    fn moves_copy_facts_per_lane() {
        let mv = |width, dst: u8, src: FpLoc| {
            insn(InstKind::MovF { width, dst: FpLoc::Reg(Xmm(dst)), src })
        };
        let mut s = FlagState::new();
        s.step(&add(true, 1, 0), Some(SnippetPrec::Single));
        s.step(&cvt(1), None);
        s.step(&mv(Width::W64, 2, FpLoc::Reg(Xmm(1))), None);
        assert_eq!((s.known(2, LANE0), s.known(2, LANE1)), (Known::Plain, Known::Unknown));
        s.step(&mv(Width::W128, 3, FpLoc::Reg(Xmm(1))), None);
        assert_eq!((s.known(3, LANE0), s.known(3, LANE1)), (Known::Plain, Known::Flagged));
        // W32 moves and loads make the lanes they write unknown again
        s.step(&mv(Width::W32, 3, FpLoc::Reg(Xmm(1))), None);
        assert_eq!((s.known(3, LANE0), s.known(3, LANE1)), (Known::Unknown, Known::Flagged));
        s.step(&mv(Width::W64, 2, FpLoc::Mem(MemRef::abs(0))), None);
        assert_eq!(s.known(2, LANE0), Known::Unknown);
        s.step(&mv(Width::W128, 1, FpLoc::Mem(MemRef::abs(0))), None);
        assert_eq!(s.known(1, BOTH), Known::Unknown);
    }

    #[test]
    fn calls_clobber_everything() {
        let mut s = FlagState::new();
        s.step(&cvt(1), None);
        s.step(&add(false, 2, 1), Some(SnippetPrec::Single));
        s.step(&insn(InstKind::Call { func: FuncId(0) }), None);
        assert_eq!(s.known(1, LANE0), Known::Unknown);
        assert_eq!(s.known(2, LANE0), Known::Unknown);
    }

    #[test]
    fn facts_reflect_state() {
        let mut s = FlagState::new();
        s.step(&cvt(0), None);
        let f = s.facts(&add(false, 0, 1));
        assert_eq!((f.dst, f.src), (Known::Plain, Known::Unknown));
    }
}

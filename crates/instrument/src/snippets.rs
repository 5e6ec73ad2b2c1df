//! The snippet mini-compiler (paper §2.3, Fig. 6).
//!
//! For every instrumented floating-point instruction we emit a
//! "streamlined binary blob" of real VIS instructions that
//!
//! 1. copies any memory operand into the reserved scratch register
//!    (`%xmm15`) so the replaced instruction uses only register operands,
//! 2. saves `%rax`/`%rbx`,
//! 3. for each input operand (and each 64-bit lane when packed), tests the
//!    high word against the `0x7FF4DEAD` replacement flag and converts the
//!    operand in place — a *downcast-and-flag* for single-precision
//!    snippets, an *upcast-and-unflag* for double-precision snippets,
//! 4. executes the operation at the requested precision,
//! 5. re-establishes the output flag on single results (including both
//!    lanes of packed outputs),
//! 6. restores the saved registers.
//!
//! Because these are genuine interpreted instructions, snippet overhead is
//! real and measurable, which is what the paper's Figs. 8–9 measure.

use fpvm::isa::*;
use fpvm::program::Program;
use fpvm::value::{FLAG_HI64, HI_MASK};

const RAX: Gpr = Gpr::RAX;
const RBX: Gpr = Gpr::RBX;

/// The precision a snippet executes its instruction in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnippetPrec {
    /// Replace the opcode with its single-precision equivalent.
    Single,
    /// Keep the double-precision opcode but guard (and upcast) inputs.
    Double,
    /// Emulate a reduced format narrower than single (half, bf16, or a
    /// custom mantissa/exponent split): execute the single-precision
    /// opcode, then round-to-nearest-even quantize the result onto the
    /// reduced grid with an `FpTrunc`. Inputs are handled exactly like
    /// `Single` — reduced values arriving from other snippets are already
    /// on their grid, so they pass the flag test untouched.
    Reduced {
        /// Stored mantissa bits of the target format (≤ 23).
        mant: u8,
        /// Exponent field width of the target format (≤ 8).
        exp: u8,
    },
}

/// What the lean dataflow knows about an input's replacement flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Known {
    /// Not known: the snippet tests the flag at run time.
    #[default]
    Unknown,
    /// Statically unflagged: a plain double.
    Plain,
    /// Statically flagged: a replaced value.
    Flagged,
}

/// Dataflow facts about an instruction's register inputs, used by the
/// *lean* mode (the paper's §2.5 "static data flow analysis" optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OperandFacts {
    /// What is known of the destination/lhs register.
    pub dst: Known,
    /// What is known of the source register.
    pub src: Known,
}

impl OperandFacts {
    /// The snippet inputs of `dst op src`, where `sreg` holds the source
    /// (`%xmm15` for a memory operand, of which nothing is known). A
    /// register used as both operands is converted once.
    fn inputs(self, dst: Xmm, src: &RM, sreg: Xmm) -> Vec<(Xmm, Known)> {
        let src_known = self.src_known(src);
        if sreg == dst {
            vec![(dst, if self.dst == src_known { src_known } else { Known::Unknown })]
        } else {
            vec![(dst, self.dst), (sreg, src_known)]
        }
    }

    fn src_known(self, src: &RM) -> Known {
        match src {
            RM::Reg(_) => self.src,
            RM::Mem(_) => Known::Unknown,
        }
    }
}

/// Emission context: appends snippet instructions (attributed to an
/// original instruction) to the current block of a program under
/// construction, creating internal branch blocks as needed.
pub struct Emitter<'a> {
    /// The program being built.
    pub prog: &'a mut Program,
    /// The function owning the blocks.
    pub func: FuncId,
    /// The block instructions are currently appended to.
    pub cur: BlockId,
    /// The original instruction this snippet implements.
    pub origin: InsnId,
}

impl<'a> Emitter<'a> {
    /// Append one snippet instruction.
    pub fn ins(&mut self, kind: InstKind) {
        let i = self.prog.mk_snippet_insn(kind, self.origin);
        self.prog.blocks[self.cur.0 as usize].insns.push(i);
    }

    fn new_block(&mut self) -> BlockId {
        self.prog.add_block(self.func)
    }

    fn seal_jmp(&mut self, to: BlockId) {
        self.prog.block_mut(self.cur).term = Terminator::Jmp(to);
    }

    fn seal_br(&mut self, cond: Cond, then_: BlockId, else_: BlockId) {
        self.prog.block_mut(self.cur).term = Terminator::Br { cond, then_, else_ };
    }

    /// Copy a memory operand into `%xmm15` (raw bits, flag intact) and
    /// return the register form. Register operands pass through.
    fn prepare_src(&mut self, src: &RM, packed: bool) -> Xmm {
        match src {
            RM::Reg(x) => *x,
            RM::Mem(m) => {
                let w = if packed { Width::W128 } else { Width::W64 };
                self.ins(InstKind::MovF {
                    width: w,
                    dst: FpLoc::Reg(Xmm::SCRATCH),
                    src: FpLoc::Mem(*m),
                });
                Xmm::SCRATCH
            }
        }
    }

    fn push_scratch(&mut self) {
        self.ins(InstKind::Push { src: RAX });
        self.ins(InstKind::Push { src: RBX });
    }

    fn pop_scratch(&mut self) {
        self.ins(InstKind::Pop { dst: RBX });
        self.ins(InstKind::Pop { dst: RAX });
    }

    /// Emit the flag test for lane `lane` of `reg`: leaves the comparison
    /// in the machine flags (`Eq` ⇔ the lane is replaced).
    fn emit_flag_test(&mut self, reg: Xmm, lane: u8) {
        self.ins(InstKind::PExtrQ { dst: RAX, src: reg, lane });
        self.ins(InstKind::MovI { dst: GM::Reg(RBX), src: GMI::Imm(HI_MASK as i64) });
        self.ins(InstKind::IntAlu { op: IntOp::And, dst: RAX, src: GMI::Reg(RBX) });
        self.ins(InstKind::MovI { dst: GM::Reg(RBX), src: GMI::Imm(FLAG_HI64 as i64) });
        self.ins(InstKind::Cmp { lhs: RAX, src: GMI::Reg(RBX) });
    }

    /// Set the replacement flag on lane `lane` of `reg` (payload kept).
    fn emit_set_flag(&mut self, reg: Xmm, lane: u8) {
        self.ins(InstKind::PExtrQ { dst: RAX, src: reg, lane });
        self.ins(InstKind::MovI { dst: GM::Reg(RBX), src: GMI::Imm(0xFFFF_FFFF) });
        self.ins(InstKind::IntAlu { op: IntOp::And, dst: RAX, src: GMI::Reg(RBX) });
        self.ins(InstKind::MovI { dst: GM::Reg(RBX), src: GMI::Imm(FLAG_HI64 as i64) });
        self.ins(InstKind::IntAlu { op: IntOp::Or, dst: RAX, src: GMI::Reg(RBX) });
        self.ins(InstKind::PInsrQ { dst: reg, src: RAX, lane });
    }

    /// Flag the output lane of a replacement snippet: plain flagging for
    /// `Single`, quantize-and-flag (`FpTrunc`) for reduced formats.
    fn emit_flag_output(&mut self, reg: Xmm, lane: u8, prec: SnippetPrec) {
        match prec {
            SnippetPrec::Reduced { mant, exp } => {
                self.ins(InstKind::FpTrunc { mant, exp, dst: reg, lane });
            }
            _ => self.emit_set_flag(reg, lane),
        }
    }

    /// Downcast lane `lane` of `reg` in place: `[f64] → [flag | f32]`.
    fn emit_downcast(&mut self, reg: Xmm, lane: u8) {
        if lane == 0 {
            self.ins(InstKind::CvtF2F { to: Prec::Single, dst: reg, src: RM::Reg(reg) });
            self.emit_set_flag(reg, 0);
        } else {
            // Swap the lane down, convert, flag, swap back.
            self.ins(InstKind::PExtrQ { dst: RAX, src: reg, lane: 0 }); // save lane 0
            self.ins(InstKind::PExtrQ { dst: RBX, src: reg, lane: 1 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RBX, lane: 0 });
            self.ins(InstKind::CvtF2F { to: Prec::Single, dst: reg, src: RM::Reg(reg) });
            self.ins(InstKind::Push { src: RAX });
            self.emit_set_flag(reg, 0);
            self.ins(InstKind::Pop { dst: RAX });
            self.ins(InstKind::PExtrQ { dst: RBX, src: reg, lane: 0 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RBX, lane: 1 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RAX, lane: 0 });
        }
    }

    /// Upcast lane `lane` of `reg` in place: `[flag | f32] → [f64]`.
    fn emit_upcast(&mut self, reg: Xmm, lane: u8) {
        if lane == 0 {
            self.ins(InstKind::CvtF2F { to: Prec::Double, dst: reg, src: RM::Reg(reg) });
        } else {
            self.ins(InstKind::PExtrQ { dst: RAX, src: reg, lane: 0 });
            self.ins(InstKind::PExtrQ { dst: RBX, src: reg, lane: 1 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RBX, lane: 0 });
            self.ins(InstKind::CvtF2F { to: Prec::Double, dst: reg, src: RM::Reg(reg) });
            self.ins(InstKind::PExtrQ { dst: RBX, src: reg, lane: 0 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RBX, lane: 1 });
            self.ins(InstKind::PInsrQ { dst: reg, src: RAX, lane: 0 });
        }
    }

    /// Check-and-convert one input lane: for `Single` snippets, downcast
    /// when *not* yet flagged; for `Double` snippets, upcast when flagged.
    /// Continues emission in a fresh join block.
    fn emit_check_convert(&mut self, reg: Xmm, lane: u8, prec: SnippetPrec) {
        self.emit_flag_test(reg, lane);
        let conv = self.new_block();
        let next = self.new_block();
        match prec {
            // flagged (Eq) → needs the upcast
            SnippetPrec::Double => self.seal_br(Cond::Eq, conv, next),
            // flagged (Eq) → already single/reduced, skip the downcast
            _ => self.seal_br(Cond::Eq, next, conv),
        }
        self.cur = conv;
        match prec {
            SnippetPrec::Double => self.emit_upcast(reg, lane),
            _ => self.emit_downcast(reg, lane),
        }
        self.seal_jmp(next);
        self.cur = next;
    }

    /// Convert all lanes of an input register per the snippet precision,
    /// honouring lean-mode facts: an input whose flag is statically known
    /// skips the runtime test, and also the conversion when it already
    /// has the snippet's precision.
    fn emit_inputs(&mut self, regs: &[(Xmm, Known)], lanes: u8, prec: SnippetPrec) {
        for &(reg, known) in regs {
            for lane in 0..lanes {
                match (prec, known) {
                    (_, Known::Unknown) => self.emit_check_convert(reg, lane, prec),
                    (SnippetPrec::Double, Known::Plain) => {}
                    (SnippetPrec::Double, Known::Flagged) => self.emit_upcast(reg, lane),
                    (_, Known::Plain) => self.emit_downcast(reg, lane),
                    (_, Known::Flagged) => {}
                }
            }
        }
    }
}

/// Emit the full replacement snippet for `insn` at precision `prec`,
/// appending to `e.cur` and leaving `e.cur` at the join block where the
/// original instruction stream continues. Panics if `insn` is not a
/// replacement candidate.
pub fn emit_snippet(e: &mut Emitter<'_>, insn: &Insn, prec: SnippetPrec, facts: OperandFacts) {
    match &insn.kind {
        InstKind::FpArith { op, prec: Prec::Double, packed, dst, src } => {
            let sreg = e.prepare_src(src, *packed);
            let lanes = if *packed { 2 } else { 1 };
            e.push_scratch();
            e.emit_inputs(&facts.inputs(*dst, src, sreg), lanes, prec);
            match prec {
                SnippetPrec::Double => {
                    e.ins(InstKind::FpArith {
                        op: *op,
                        prec: Prec::Double,
                        packed: *packed,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                }
                _ => {
                    e.ins(InstKind::FpArith {
                        op: *op,
                        prec: Prec::Single,
                        packed: *packed,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                    for lane in 0..lanes {
                        e.emit_flag_output(*dst, lane, prec);
                    }
                }
            }
            e.pop_scratch();
        }
        InstKind::FpSqrt { prec: Prec::Double, packed, dst, src } => {
            let sreg = e.prepare_src(src, *packed);
            let lanes = if *packed { 2 } else { 1 };
            e.push_scratch();
            e.emit_inputs(&[(sreg, facts.src_known(src))], lanes, prec);
            match prec {
                SnippetPrec::Double => {
                    e.ins(InstKind::FpSqrt {
                        prec: Prec::Double,
                        packed: *packed,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                }
                _ => {
                    e.ins(InstKind::FpSqrt {
                        prec: Prec::Single,
                        packed: *packed,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                    for lane in 0..lanes {
                        e.emit_flag_output(*dst, lane, prec);
                    }
                }
            }
            e.pop_scratch();
        }
        InstKind::FpMath { fun, prec: Prec::Double, dst, src } => {
            let sreg = e.prepare_src(src, false);
            e.push_scratch();
            e.emit_inputs(&[(sreg, facts.src_known(src))], 1, prec);
            match prec {
                SnippetPrec::Double => {
                    e.ins(InstKind::FpMath {
                        fun: *fun,
                        prec: Prec::Double,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                }
                _ => {
                    e.ins(InstKind::FpMath {
                        fun: *fun,
                        prec: Prec::Single,
                        dst: *dst,
                        src: RM::Reg(sreg),
                    });
                    e.emit_flag_output(*dst, 0, prec);
                }
            }
            e.pop_scratch();
        }
        InstKind::FpUcomi { prec: Prec::Double, lhs, src } => {
            let sreg = e.prepare_src(src, false);
            e.push_scratch();
            e.emit_inputs(&facts.inputs(*lhs, src, sreg), 1, prec);
            // The compare must be the last flag-writing instruction: the
            // pops below do not touch flags, so the original branch still
            // observes the compare result.
            match prec {
                SnippetPrec::Double => {
                    e.ins(InstKind::FpUcomi { prec: Prec::Double, lhs: *lhs, src: RM::Reg(sreg) });
                }
                // Reduced compares like single: both operands are on (a
                // superset of) the f32 grid, and comparison is exact.
                _ => {
                    e.ins(InstKind::FpUcomi { prec: Prec::Single, lhs: *lhs, src: RM::Reg(sreg) });
                }
            }
            e.pop_scratch();
        }
        InstKind::CvtF2I { from: Prec::Double, dst, src } => {
            assert!(
                *dst != RAX && *dst != RBX,
                "CvtF2I destination collides with snippet scratch registers"
            );
            let sreg = e.prepare_src(src, false);
            e.push_scratch();
            e.emit_inputs(&[(sreg, facts.src_known(src))], 1, prec);
            match prec {
                SnippetPrec::Double => {
                    e.ins(InstKind::CvtF2I { from: Prec::Double, dst: *dst, src: RM::Reg(sreg) });
                }
                // Reduced converts like single: the payload is an exact f32.
                _ => {
                    e.ins(InstKind::CvtF2I { from: Prec::Single, dst: *dst, src: RM::Reg(sreg) });
                }
            }
            e.pop_scratch();
        }
        InstKind::CvtF2F { to: Prec::Single, dst, src } => {
            // A narrowing conversion: the result is a true single-typed
            // value either way; a flagged input's payload is copied as-is.
            let sreg = e.prepare_src(src, false);
            e.push_scratch();
            e.emit_flag_test(sreg, 0);
            let flagged = e.new_block();
            let plain = e.new_block();
            let join = e.new_block();
            e.seal_br(Cond::Eq, flagged, plain);
            e.cur = flagged;
            e.ins(InstKind::MovF {
                width: Width::W32,
                dst: FpLoc::Reg(*dst),
                src: FpLoc::Reg(sreg),
            });
            e.seal_jmp(join);
            e.cur = plain;
            e.ins(InstKind::CvtF2F { to: Prec::Single, dst: *dst, src: RM::Reg(sreg) });
            e.seal_jmp(join);
            e.cur = join;
            e.pop_scratch();
        }
        other => panic!("not a replacement candidate: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm::program::Program;
    use fpvm::value::{is_replaced, replace};
    use fpvm::{Vm, VmOptions};

    /// Build a one-instruction harness: xmm0 = mem[0], xmm1 = mem[8],
    /// snippet(op), store xmm0 (raw) to mem[16]; returns final slot bits.
    fn run_snippet(
        a_bits: u64,
        b_bits: u64,
        op: FpAluOp,
        prec: SnippetPrec,
    ) -> (u64, Result<(), fpvm::Trap>) {
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = vec![0u8; 24];
        p.globals[..8].copy_from_slice(&a_bits.to_le_bytes());
        p.globals[8..16].copy_from_slice(&b_bits.to_le_bytes());
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(1)),
                src: FpLoc::Mem(MemRef::abs(8)),
            },
        );
        let victim = p.mk_insn(InstKind::FpArith {
            op,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, prec, OperandFacts::default());
        let tail = e.cur;
        e.prog.push_insn(
            tail,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(16)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(tail).term = Terminator::Halt;
        p.validate().unwrap();
        let mut vm = Vm::new(&p, VmOptions::default());
        let out = vm.run();
        (vm.mem.load_u64(16).unwrap(), out.result)
    }

    #[test]
    fn single_snippet_plain_inputs() {
        // 1.1 + 2.2 in single precision from plain doubles.
        let (bits, r) =
            run_snippet(1.1f64.to_bits(), 2.2f64.to_bits(), FpAluOp::Add, SnippetPrec::Single);
        r.unwrap();
        assert!(is_replaced(bits));
        assert_eq!(f32::from_bits(bits as u32), 1.1f32 + 2.2f32);
    }

    #[test]
    fn single_snippet_mixed_inputs() {
        // One input already replaced: no double rounding of that input.
        let (bits, r) =
            run_snippet(replace(1.1), 2.2f64.to_bits(), FpAluOp::Mul, SnippetPrec::Single);
        r.unwrap();
        assert!(is_replaced(bits));
        assert_eq!(f32::from_bits(bits as u32), 1.1f32 * 2.2f32);
    }

    #[test]
    fn reduced_snippet_quantizes_and_flags() {
        // 1.1 + 2.2 at half precision: single-precision add, then RNE
        // quantize onto the m10e5 grid, flag preserved.
        let (bits, r) = run_snippet(
            1.1f64.to_bits(),
            2.2f64.to_bits(),
            FpAluOp::Add,
            SnippetPrec::Reduced { mant: 10, exp: 5 },
        );
        r.unwrap();
        assert!(is_replaced(bits));
        let want = fpvm::value::quantize_f32_bits((1.1f32 + 2.2f32).to_bits(), 10, 5);
        assert_eq!(bits as u32, want);
        // the half result really is coarser than the single result
        assert_ne!(bits as u32, (1.1f32 + 2.2f32).to_bits());
    }

    #[test]
    fn reduced_snippet_accepts_replaced_inputs() {
        // A flagged f32 input flows through the reduced snippet unchanged
        // (no downcast) before the bf16 quantize of the product.
        let (bits, r) = run_snippet(
            replace(1.5),
            2.25f64.to_bits(),
            FpAluOp::Mul,
            SnippetPrec::Reduced { mant: 7, exp: 8 },
        );
        r.unwrap();
        assert!(is_replaced(bits));
        let want = fpvm::value::quantize_f32_bits((1.5f32 * 2.25f32).to_bits(), 7, 8);
        assert_eq!(bits as u32, want);
    }

    #[test]
    fn double_snippet_preserves_exact_double_result() {
        let (bits, r) =
            run_snippet(1.1f64.to_bits(), 2.2f64.to_bits(), FpAluOp::Add, SnippetPrec::Double);
        r.unwrap();
        assert!(!is_replaced(bits));
        assert_eq!(f64::from_bits(bits), 1.1f64 + 2.2f64);
    }

    #[test]
    fn double_snippet_upcasts_replaced_inputs() {
        let (bits, r) = run_snippet(replace(1.5), replace(2.25), FpAluOp::Sub, SnippetPrec::Double);
        r.unwrap();
        assert!(!is_replaced(bits));
        assert_eq!(f64::from_bits(bits), (1.5f32 as f64) - (2.25f32 as f64));
    }

    #[test]
    fn snippets_never_trip_the_crash_on_miss_trap() {
        // trap_on_flag is on by default in run_snippet: all four flag
        // combinations must execute cleanly.
        for a in [1.25f64.to_bits(), replace(1.25)] {
            for b in [3.5f64.to_bits(), replace(3.5)] {
                for prec in [SnippetPrec::Single, SnippetPrec::Double] {
                    let (_, r) = run_snippet(a, b, FpAluOp::Div, prec);
                    r.unwrap();
                }
            }
        }
    }

    #[test]
    fn same_register_both_operands() {
        // mulsd %xmm0, %xmm0 — squared, converted once.
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = 3.0f64.to_bits().to_le_bytes().to_vec();
        p.globals.extend_from_slice(&[0u8; 8]);
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        let victim = p.mk_insn(InstKind::FpArith {
            op: FpAluOp::Mul,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(0)),
        });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, SnippetPrec::Single, OperandFacts::default());
        let tail = e.cur;
        p.push_insn(
            tail,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(8)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(tail).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        vm.run().result.unwrap();
        let bits = vm.mem.load_u64(8).unwrap();
        assert!(is_replaced(bits));
        assert_eq!(f32::from_bits(bits as u32), 9.0);
    }

    #[test]
    fn memory_operand_is_copied_not_modified() {
        // addsd %xmm0, 8(mem): memory must remain bit-identical after the
        // snippet (operands are copied to a temp, per the paper).
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = vec![0u8; 24];
        p.globals[..8].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        p.globals[8..16].copy_from_slice(&1.25f64.to_bits().to_le_bytes());
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        let victim = p.mk_insn(InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Mem(MemRef::abs(8)),
        });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, SnippetPrec::Single, OperandFacts::default());
        let tail = e.cur;
        p.push_insn(
            tail,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(16)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(tail).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        vm.run().result.unwrap();
        assert_eq!(vm.mem.load_u64(8).unwrap(), 1.25f64.to_bits(), "memory operand modified");
        let bits = vm.mem.load_u64(16).unwrap();
        assert_eq!(f32::from_bits(bits as u32), 2.5f32 + 1.25f32);
    }

    #[test]
    fn packed_single_snippet_converts_both_lanes() {
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = vec![0u8; 48];
        for (k, x) in [1.5f64, 2.5, 3.0, 4.0].iter().enumerate() {
            p.globals[8 * k..8 * k + 8].copy_from_slice(&x.to_bits().to_le_bytes());
        }
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        let victim = p.mk_insn(InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: true,
            dst: Xmm(0),
            src: RM::Mem(MemRef::abs(16)),
        });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, SnippetPrec::Single, OperandFacts::default());
        let tail = e.cur;
        p.push_insn(
            tail,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Mem(MemRef::abs(32)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(tail).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        vm.run().result.unwrap();
        let lo = vm.mem.load_u64(32).unwrap();
        let hi = vm.mem.load_u64(40).unwrap();
        assert!(is_replaced(lo) && is_replaced(hi));
        assert_eq!(f32::from_bits(lo as u32), 1.5f32 + 3.0f32);
        assert_eq!(f32::from_bits(hi as u32), 2.5f32 + 4.0f32);
    }

    #[test]
    fn packed_double_snippet_upcasts_lanes_independently() {
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = vec![0u8; 48];
        // lane0 replaced, lane1 plain
        p.globals[..8].copy_from_slice(&replace(1.5).to_le_bytes());
        p.globals[8..16].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        p.globals[16..24].copy_from_slice(&10.0f64.to_bits().to_le_bytes());
        p.globals[24..32].copy_from_slice(&replace(20.0).to_le_bytes());
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        let victim = p.mk_insn(InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: true,
            dst: Xmm(0),
            src: RM::Mem(MemRef::abs(16)),
        });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, SnippetPrec::Double, OperandFacts::default());
        let tail = e.cur;
        p.push_insn(
            tail,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Mem(MemRef::abs(32)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(tail).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        vm.run().result.unwrap();
        let v = vm.mem.read_f64_slice(32, 2).unwrap();
        assert_eq!(v[0], 1.5 + 10.0);
        assert_eq!(v[1], 2.5 + 20.0);
    }

    #[test]
    fn ucomi_snippet_preserves_branch_flags() {
        // compare 1.5 (replaced) vs 2.0 (plain) in single: Below must hold
        // after the snippet's internal pops.
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = vec![0u8; 24];
        p.globals[..8].copy_from_slice(&replace(1.5).to_le_bytes());
        p.globals[8..16].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        p.push_insn(
            b0,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(1)),
                src: FpLoc::Mem(MemRef::abs(8)),
            },
        );
        let victim =
            p.mk_insn(InstKind::FpUcomi { prec: Prec::Double, lhs: Xmm(0), src: RM::Reg(Xmm(1)) });
        let origin = victim.id;
        let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
        emit_snippet(&mut e, &victim, SnippetPrec::Single, OperandFacts::default());
        let tail = e.cur;
        let t = p.add_block(f);
        let el = p.add_block(f);
        p.block_mut(tail).term = Terminator::Br { cond: Cond::Below, then_: t, else_: el };
        p.push_insn(t, InstKind::MovI { dst: GM::Mem(MemRef::abs(16)), src: GMI::Imm(1) });
        p.block_mut(t).term = Terminator::Halt;
        p.push_insn(el, InstKind::MovI { dst: GM::Mem(MemRef::abs(16)), src: GMI::Imm(0) });
        p.block_mut(el).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        vm.run().result.unwrap();
        assert_eq!(vm.mem.load_u64(16).unwrap(), 1);
    }

    #[test]
    fn lean_facts_shrink_snippets() {
        // With dst/src statically plain, a double snippet is just the op;
        // with both flagged, a single snippet is just the op and its
        // output flagging, and a double one converts without testing.
        let mk = |prec: SnippetPrec, facts: OperandFacts| {
            let mut p = Program::new(1 << 14);
            let m = p.add_module("t");
            let f = p.add_function(m, "main");
            let b0 = p.add_block(f);
            p.funcs[f.0 as usize].entry = b0;
            p.entry = f;
            let victim = p.mk_insn(InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(0),
                src: RM::Reg(Xmm(1)),
            });
            let origin = victim.id;
            let mut e = Emitter { prog: &mut p, func: f, cur: b0, origin };
            emit_snippet(&mut e, &victim, prec, facts);
            p.iter_insns().count()
        };
        let (plain, flagged) = (Known::Plain, Known::Flagged);
        for (prec, known) in [
            (SnippetPrec::Double, plain),
            (SnippetPrec::Double, flagged),
            (SnippetPrec::Single, flagged),
        ] {
            let full = mk(prec, OperandFacts::default());
            let lean = mk(prec, OperandFacts { dst: known, src: known });
            assert!(lean < full, "{prec:?} {known:?}: lean {lean} not smaller than full {full}");
        }
    }
}

//! Pre-decoded execution images: the interpreter fast path.
//!
//! [`ExecImage::compile`] lowers a [`Program`] into a flat array of
//! pre-decoded operations: blocks are laid out contiguously, terminators
//! become explicit ops, branch and call targets are direct indices into
//! the array, operand forms ([`crate::isa::RM`]/[`crate::isa::GMI`]/
//! [`crate::isa::MemRef`]) are resolved into compact fixed-size
//! descriptors, and each op carries its pre-computed cycle cost, fp-op
//! flag, and instruction id. [`Vm::run_image`] then executes the image
//! with one dispatch per instruction — no per-step instruction cloning,
//! cost-model matching, or nested operand decoding.
//!
//! The fast path is required to be *bit-identical* to the reference
//! interpreter ([`Vm::run`]): same [`RunStats`](crate::interp::RunStats), same trap (including the
//! trapping instruction id), same final machine state, same profile. The
//! differential tests in `tests/exec_differential.rs` and the assertions
//! in the `interp_throughput` bench enforce this.

use crate::cost::CostModel;
use crate::interp::{RunOutcome, Vm};
use crate::isa::*;
use crate::program::Program;
use crate::trap::Trap;

/// A resolved floating-point location observed on the fast path: an XMM
/// register's low lanes, or an absolute memory address (operand address
/// computation already applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpLocV {
    /// XMM register index (the low 64 bits hold the scalar).
    Reg(u8),
    /// Absolute byte address of a 64-bit slot.
    Mem(u64),
}

/// One floating-point-relevant machine event, reported to an
/// [`Observer`] that sets [`Observer::FP_EVENTS`] *after* the primary
/// architectural effect has been applied. Observers receive copies of
/// the values involved and can never influence the primary execution.
#[derive(Debug, Clone, Copy)]
pub enum FpEvent {
    /// Scalar double arithmetic `dst ← op(dst, src)`.
    Arith64 {
        /// Instruction id.
        insn: InsnId,
        /// The ALU operation.
        op: FpAluOp,
        /// Destination XMM register.
        dst: u8,
        /// Resolved source location.
        src: FpLocV,
        /// First (destination) operand value.
        a: f64,
        /// Second (source) operand value.
        b: f64,
        /// Result written to `dst`.
        r: f64,
    },
    /// Scalar double square root `dst ← sqrt(src)`.
    Sqrt64 {
        /// Instruction id.
        insn: InsnId,
        /// Destination XMM register.
        dst: u8,
        /// Resolved source location.
        src: FpLocV,
        /// Operand value.
        b: f64,
        /// Result written to `dst`.
        r: f64,
    },
    /// Scalar double math-library call `dst ← fun(src)`.
    Math64 {
        /// Instruction id.
        insn: InsnId,
        /// The math function.
        fun: MathFun,
        /// Destination XMM register.
        dst: u8,
        /// Resolved source location.
        src: FpLocV,
        /// Operand value.
        b: f64,
        /// Result written to `dst`.
        r: f64,
    },
    /// Widening convert `dst ← f64(value)` (`cvtss2sd`): the double result
    /// is exactly representable in single precision.
    Widen64 {
        /// Instruction id.
        insn: InsnId,
        /// Destination XMM register.
        dst: u8,
        /// The single-precision source value.
        value: f32,
    },
    /// Integer-to-double convert `dst ← f64(v)` (`cvtsi2sd`).
    Int64 {
        /// Instruction id.
        insn: InsnId,
        /// Destination XMM register.
        dst: u8,
        /// The integer source value.
        v: i64,
    },
    /// A 64-bit FP move of `bits` from `src` to `dst` (`movsd`).
    Mov64 {
        /// Resolved destination location.
        dst: FpLocV,
        /// Resolved source location.
        src: FpLocV,
        /// The moved bit pattern.
        bits: u64,
    },
    /// A write that overwrites `width` bytes at `loc` with data the
    /// observer cannot track as a scalar double: low-32 writes, packed
    /// results, 128-bit moves, integer stores. Any tracked value
    /// overlapping the written range is no longer valid.
    Clobber {
        /// Resolved written location.
        loc: FpLocV,
        /// Bytes written (4, 8, or 16).
        width: u8,
    },
}

/// An observer of a run: the one hook through which the shadow engine
/// and the numerical-health counters watch values as they are computed.
///
/// Each hook family is statically gated by an associated `const` that
/// defaults to `false`; every hook call in the dispatch loop sits behind
/// its flag, so the unobserved case `()` (what [`Vm::run_image`] passes)
/// monomorphizes to the exact unobserved hot loop — zero cost and
/// bit-identical by construction. Observers only ever receive copies of
/// values; they cannot affect the primary execution. Per-instruction
/// counts are not an observer: they are the VM's own `profile: true`
/// option, which every engine supports, the compiled one without
/// leaving its fused tier.
pub trait Observer {
    /// Enables [`Observer::trace`]: value-tracking [`FpEvent`]s for the
    /// shadow subsystem.
    const FP_EVENTS: bool = false;
    /// Enables [`Observer::fp_result_f64`], [`Observer::fp_result_f32`]
    /// and [`Observer::quantize`]: every scalar FP result at native
    /// width (so an `f32` subnormal is classified at `f32` width, not
    /// after widening) plus every reduced-format quantize
    /// ([`InstKind::FpTrunc`]). A counter like `mptrace`'s `NumProfiler`
    /// classifies these into NaN/Inf/underflow/subnormal/saturation/
    /// flush events per instruction. Packed lanes are not reported: the
    /// rewriter only emits scalar replacements.
    const FP_RESULTS: bool = false;

    /// Called once per FP-relevant event, after the primary
    /// architectural effect of the instruction has been applied.
    #[inline(always)]
    fn trace(&mut self, _ev: &FpEvent) {}

    /// A scalar double result `r = op(a, b)` was produced at `insn`.
    /// Unary ops (sqrt, math-library calls) pass the operand as both
    /// `a` and `b`.
    #[inline(always)]
    fn fp_result_f64(&mut self, _insn: InsnId, _a: f64, _b: f64, _r: f64) {}

    /// A scalar single result `r = op(a, b)` was produced at `insn`, at
    /// native `f32` width. Unary ops pass the operand as both `a` and
    /// `b`.
    #[inline(always)]
    fn fp_result_f32(&mut self, _insn: InsnId, _a: f32, _b: f32, _r: f32) {}

    /// A reduced-format quantize at `insn`: the `f32` payload `before`
    /// was rounded to a `mant`/`exp`-bit format, producing `after`
    /// (both as `f32` bit patterns; see
    /// [`crate::value::quantize_f32_bits`]).
    #[inline(always)]
    fn quantize(&mut self, _insn: InsnId, _mant: u8, _exp: u8, _before: u32, _after: u32) {}
}

/// The unobserved run: every flag `false`.
impl Observer for () {}

/// Pre-resolved address mode of a memory operand.
///
/// [`MemRef`]'s optional base/index registers are discriminated here at
/// *decode* time, so the hot loop's address computation is a single match
/// on the (per-op constant, perfectly predicted) variant instead of two
/// data-dependent `NO_REG` tests per access. The compiled backend bakes
/// the variant into the selected handler function, eliminating even the
/// match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddrD {
    /// Absolute address (displacement only).
    Abs(u64),
    /// `gpr[base] + disp`.
    Base {
        /// Base register index.
        base: u8,
        /// Constant displacement.
        disp: i64,
    },
    /// `gpr[base] + gpr[index]*scale + disp`.
    BaseIdx {
        /// Base register index.
        base: u8,
        /// Index register index.
        index: u8,
        /// Scale factor (1, 2, 4, or 8).
        scale: u8,
        /// Constant displacement.
        disp: i64,
    },
    /// `gpr[index]*scale + disp` (no base register).
    Idx {
        /// Index register index.
        index: u8,
        /// Scale factor (1, 2, 4, or 8).
        scale: u8,
        /// Constant displacement.
        disp: i64,
    },
}

impl AddrD {
    pub(crate) fn from(m: &MemRef) -> AddrD {
        match (m.base, m.index) {
            (None, None) => AddrD::Abs(m.disp as u64),
            (Some(b), None) => AddrD::Base { base: b.0, disp: m.disp },
            (Some(b), Some((i, s))) => {
                AddrD::BaseIdx { base: b.0, index: i.0, scale: s, disp: m.disp }
            }
            (None, Some((i, s))) => AddrD::Idx { index: i.0, scale: s, disp: m.disp },
        }
    }
}

/// Pre-resolved XMM-or-memory operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RmD {
    Reg(u8),
    Mem(AddrD),
}

impl RmD {
    fn from(rm: &RM) -> RmD {
        match rm {
            RM::Reg(x) => RmD::Reg(x.0),
            RM::Mem(m) => RmD::Mem(AddrD::from(m)),
        }
    }
}

/// Pre-resolved GPR/memory/immediate operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GmiD {
    Reg(u8),
    Mem(AddrD),
    Imm(i64),
}

impl GmiD {
    fn from(g: &GMI) -> GmiD {
        match g {
            GMI::Reg(r) => GmiD::Reg(r.0),
            GMI::Mem(m) => GmiD::Mem(AddrD::from(m)),
            GMI::Imm(i) => GmiD::Imm(*i),
        }
    }
}

/// Pre-resolved FP location (XMM register or memory).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FpLocD {
    Reg(u8),
    Mem(AddrD),
}

impl FpLocD {
    fn from(l: &FpLoc) -> FpLocD {
        match l {
            FpLoc::Reg(x) => FpLocD::Reg(x.0),
            FpLoc::Mem(m) => FpLocD::Mem(AddrD::from(m)),
        }
    }
}

/// One pre-decoded operation. Precision and packing are folded into the
/// variant so the hot loop never re-matches them.
#[derive(Debug, Clone)]
pub(crate) enum OpK {
    ArithF64 {
        op: FpAluOp,
        dst: u8,
        src: RmD,
    },
    ArithF32 {
        op: FpAluOp,
        dst: u8,
        src: RmD,
    },
    ArithPd {
        op: FpAluOp,
        dst: u8,
        src: RmD,
    },
    ArithPs {
        op: FpAluOp,
        dst: u8,
        src: RmD,
    },
    SqrtF64 {
        dst: u8,
        src: RmD,
    },
    SqrtF32 {
        dst: u8,
        src: RmD,
    },
    SqrtPd {
        dst: u8,
        src: RmD,
    },
    SqrtPs {
        dst: u8,
        src: RmD,
    },
    MathF64 {
        fun: MathFun,
        dst: u8,
        src: RmD,
    },
    MathF32 {
        fun: MathFun,
        dst: u8,
        src: RmD,
    },
    UcomiF64 {
        lhs: u8,
        src: RmD,
    },
    UcomiF32 {
        lhs: u8,
        src: RmD,
    },
    CvtToF32 {
        dst: u8,
        src: RmD,
    },
    CvtToF64 {
        dst: u8,
        src: RmD,
    },
    CvtI2F64 {
        dst: u8,
        src: GmiD,
    },
    CvtI2F32 {
        dst: u8,
        src: GmiD,
    },
    CvtF64ToI {
        dst: u8,
        src: RmD,
    },
    CvtF32ToI {
        dst: u8,
        src: RmD,
    },
    MovF32 {
        dst: FpLocD,
        src: FpLocD,
    },
    MovF64 {
        dst: FpLocD,
        src: FpLocD,
    },
    MovF128 {
        dst: FpLocD,
        src: FpLocD,
    },
    FpTrunc {
        mant: u8,
        exp: u8,
        dst: u8,
        sh: u32,
    },
    PExtrQ {
        dst: u8,
        src: u8,
        sh: u32,
    },
    PInsrQ {
        dst: u8,
        src: u8,
        sh: u32,
    },
    IntAlu {
        op: IntOp,
        dst: u8,
        src: GmiD,
    },
    MovIR {
        dst: u8,
        src: GmiD,
    },
    MovIM {
        dst: AddrD,
        src: GmiD,
    },
    Cmp {
        lhs: u8,
        src: GmiD,
    },
    Test {
        lhs: u8,
        src: GmiD,
    },
    Lea {
        dst: u8,
        mem: AddrD,
    },
    Push {
        src: u8,
    },
    Pop {
        dst: u8,
    },
    /// Call with the callee's flattened entry index pre-resolved
    /// (`u32::MAX` = callee has no entry block).
    Call {
        entry: u32,
    },
    Nop,
    // Terminators, lowered to explicit ops so per-terminator step
    // accounting matches the reference interpreter exactly.
    Jmp {
        target: u32,
    },
    Br {
        cond: Cond,
        then_: u32,
        else_: u32,
    },
    Ret,
    Halt,
}

/// A pre-decoded op plus its per-step accounting, computed once at
/// compile time instead of on every dynamic execution.
#[derive(Debug, Clone)]
pub(crate) struct ExecOp {
    pub(crate) kind: OpK,
    /// Pre-computed [`CostModel::cost`] of the original instruction
    /// (0 for terminators).
    pub(crate) cost: u64,
    /// Whether the instruction counts as a dynamic fp-op.
    pub(crate) fp: bool,
    /// Original instruction id (`u32::MAX` for terminators, which have
    /// none and are never profiled).
    pub(crate) id: InsnId,
}

/// A linear execution image: the pre-decoded form of one [`Program`]
/// under one [`CostModel`]. Compile once, run many times.
#[derive(Debug, Clone)]
pub struct ExecImage {
    pub(crate) ops: Vec<ExecOp>,
    pub(crate) entry: u32,
    pub(crate) insn_bound: usize,
    pub(crate) cost: CostModel,
}

impl ExecImage {
    /// Lower `prog` to a linear image. The cost model must be the one the
    /// executing VM uses ([`Vm::run_image`] asserts this).
    pub fn compile(prog: &Program, cost: &CostModel) -> ExecImage {
        // Pass 1: assign every block a position in the flat array
        // (its instructions followed by one terminator op).
        let mut block_start = vec![u32::MAX; prog.blocks.len()];
        let mut pos: u32 = 0;
        for f in &prog.funcs {
            for &b in &f.blocks {
                block_start[b.0 as usize] = pos;
                pos += prog.block(b).insns.len() as u32 + 1;
            }
        }

        // Pass 2: emit pre-decoded ops with targets resolved to indices.
        let mut ops = Vec::with_capacity(pos as usize);
        for f in &prog.funcs {
            for &b in &f.blocks {
                let blk = prog.block(b);
                for insn in &blk.insns {
                    ops.push(ExecOp {
                        kind: Self::lower(prog, &insn.kind, &block_start),
                        cost: cost.cost(&insn.kind),
                        fp: insn.kind.is_fp_op(),
                        id: insn.id,
                    });
                }
                let kind = match &blk.term {
                    Terminator::Jmp(t) => OpK::Jmp { target: block_start[t.0 as usize] },
                    Terminator::Br { cond, then_, else_ } => OpK::Br {
                        cond: *cond,
                        then_: block_start[then_.0 as usize],
                        else_: block_start[else_.0 as usize],
                    },
                    Terminator::Ret => OpK::Ret,
                    Terminator::Halt => OpK::Halt,
                };
                ops.push(ExecOp { kind, cost: 0, fp: false, id: InsnId(u32::MAX) });
            }
        }

        let entry_block = prog.func(prog.entry).entry;
        ExecImage {
            ops,
            entry: block_start[entry_block.0 as usize],
            insn_bound: prog.insn_id_bound(),
            cost: cost.clone(),
        }
    }

    fn lower(prog: &Program, kind: &InstKind, block_start: &[u32]) -> OpK {
        match kind {
            InstKind::FpArith { op, prec, packed, dst, src } => {
                let (op, dst, src) = (*op, dst.0, RmD::from(src));
                match (prec, packed) {
                    (Prec::Double, false) => OpK::ArithF64 { op, dst, src },
                    (Prec::Single, false) => OpK::ArithF32 { op, dst, src },
                    (Prec::Double, true) => OpK::ArithPd { op, dst, src },
                    (Prec::Single, true) => OpK::ArithPs { op, dst, src },
                }
            }
            InstKind::FpSqrt { prec, packed, dst, src } => {
                let (dst, src) = (dst.0, RmD::from(src));
                match (prec, packed) {
                    (Prec::Double, false) => OpK::SqrtF64 { dst, src },
                    (Prec::Single, false) => OpK::SqrtF32 { dst, src },
                    (Prec::Double, true) => OpK::SqrtPd { dst, src },
                    (Prec::Single, true) => OpK::SqrtPs { dst, src },
                }
            }
            InstKind::FpMath { fun, prec, dst, src } => {
                let (fun, dst, src) = (*fun, dst.0, RmD::from(src));
                match prec {
                    Prec::Double => OpK::MathF64 { fun, dst, src },
                    Prec::Single => OpK::MathF32 { fun, dst, src },
                }
            }
            InstKind::FpUcomi { prec, lhs, src } => {
                let (lhs, src) = (lhs.0, RmD::from(src));
                match prec {
                    Prec::Double => OpK::UcomiF64 { lhs, src },
                    Prec::Single => OpK::UcomiF32 { lhs, src },
                }
            }
            InstKind::CvtF2F { to, dst, src } => {
                let (dst, src) = (dst.0, RmD::from(src));
                match to {
                    Prec::Single => OpK::CvtToF32 { dst, src },
                    Prec::Double => OpK::CvtToF64 { dst, src },
                }
            }
            InstKind::CvtI2F { to, dst, src } => {
                let (dst, src) = (dst.0, GmiD::from(src));
                match to {
                    Prec::Double => OpK::CvtI2F64 { dst, src },
                    Prec::Single => OpK::CvtI2F32 { dst, src },
                }
            }
            InstKind::CvtF2I { from, dst, src } => {
                let (dst, src) = (dst.0, RmD::from(src));
                match from {
                    Prec::Double => OpK::CvtF64ToI { dst, src },
                    Prec::Single => OpK::CvtF32ToI { dst, src },
                }
            }
            InstKind::MovF { width, dst, src } => {
                let (dst, src) = (FpLocD::from(dst), FpLocD::from(src));
                match width {
                    Width::W32 => OpK::MovF32 { dst, src },
                    Width::W64 => OpK::MovF64 { dst, src },
                    Width::W128 => OpK::MovF128 { dst, src },
                }
            }
            InstKind::FpTrunc { mant, exp, dst, lane } => {
                OpK::FpTrunc { mant: *mant, exp: *exp, dst: dst.0, sh: 64 * (*lane as u32 & 1) }
            }
            InstKind::PExtrQ { dst, src, lane } => {
                OpK::PExtrQ { dst: dst.0, src: src.0, sh: 64 * (*lane as u32 & 1) }
            }
            InstKind::PInsrQ { dst, src, lane } => {
                OpK::PInsrQ { dst: dst.0, src: src.0, sh: 64 * (*lane as u32 & 1) }
            }
            InstKind::IntAlu { op, dst, src } => {
                OpK::IntAlu { op: *op, dst: dst.0, src: GmiD::from(src) }
            }
            InstKind::MovI { dst, src } => match dst {
                GM::Reg(r) => OpK::MovIR { dst: r.0, src: GmiD::from(src) },
                GM::Mem(m) => OpK::MovIM { dst: AddrD::from(m), src: GmiD::from(src) },
            },
            InstKind::Cmp { lhs, src } => OpK::Cmp { lhs: lhs.0, src: GmiD::from(src) },
            InstKind::Test { lhs, src } => OpK::Test { lhs: lhs.0, src: GmiD::from(src) },
            InstKind::Lea { dst, mem } => OpK::Lea { dst: dst.0, mem: AddrD::from(mem) },
            InstKind::Push { src } => OpK::Push { src: src.0 },
            InstKind::Pop { dst } => OpK::Pop { dst: dst.0 },
            InstKind::Call { func } => {
                let entry = prog.func(*func).entry;
                let entry =
                    if entry.0 == u32::MAX { u32::MAX } else { block_start[entry.0 as usize] };
                OpK::Call { entry }
            }
            InstKind::Nop => OpK::Nop,
        }
    }

    /// Number of flattened ops (instructions + terminators).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the image contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl<'p> Vm<'p> {
    #[inline(always)]
    pub(crate) fn d_addr(&self, m: &AddrD) -> u64 {
        match m {
            AddrD::Abs(a) => *a,
            AddrD::Base { base, disp } => self.gpr[*base as usize].wrapping_add(*disp as u64),
            AddrD::BaseIdx { base, index, scale, disp } => self.gpr[*base as usize]
                .wrapping_add(self.gpr[*index as usize].wrapping_mul(*scale as u64))
                .wrapping_add(*disp as u64),
            AddrD::Idx { index, scale, disp } => {
                self.gpr[*index as usize].wrapping_mul(*scale as u64).wrapping_add(*disp as u64)
            }
        }
    }

    #[inline(always)]
    pub(crate) fn d_rm64(&self, src: &RmD) -> Result<u64, Trap> {
        match src {
            RmD::Reg(x) => Ok(self.xmm[*x as usize] as u64),
            RmD::Mem(m) => self.mem.load_u64(self.d_addr(m)),
        }
    }

    #[inline(always)]
    pub(crate) fn d_rm32(&self, src: &RmD) -> Result<u32, Trap> {
        match src {
            RmD::Reg(x) => Ok(self.xmm[*x as usize] as u32),
            RmD::Mem(m) => self.mem.load_u32(self.d_addr(m)),
        }
    }

    #[inline(always)]
    pub(crate) fn d_rm128(&self, src: &RmD) -> Result<u128, Trap> {
        match src {
            RmD::Reg(x) => Ok(self.xmm[*x as usize]),
            RmD::Mem(m) => self.mem.load_u128(self.d_addr(m)),
        }
    }

    #[inline(always)]
    pub(crate) fn d_gmi(&self, src: &GmiD) -> Result<u64, Trap> {
        match src {
            GmiD::Reg(r) => Ok(self.gpr[*r as usize]),
            GmiD::Mem(m) => self.mem.load_u64(self.d_addr(m)),
            GmiD::Imm(i) => Ok(*i as u64),
        }
    }

    #[inline(always)]
    pub(crate) fn set_lo64(&mut self, x: u8, v: u64) {
        let r = &mut self.xmm[x as usize];
        *r = (*r & !(u128::from(u64::MAX))) | u128::from(v);
    }

    #[inline(always)]
    pub(crate) fn set_lo32(&mut self, x: u8, v: u32) {
        let r = &mut self.xmm[x as usize];
        *r = (*r & !(u128::from(u32::MAX))) | u128::from(v);
    }

    /// Resolve a pre-decoded XMM-or-memory operand to an observer
    /// location (only called on the observed path).
    #[inline(always)]
    fn loc_of_rm(&self, src: &RmD) -> FpLocV {
        match src {
            RmD::Reg(x) => FpLocV::Reg(*x),
            RmD::Mem(m) => FpLocV::Mem(self.d_addr(m)),
        }
    }

    /// Resolve a pre-decoded FP location to an observer location (only
    /// called on the observed path).
    #[inline(always)]
    fn loc_of_fp(&self, l: &FpLocD) -> FpLocV {
        match l {
            FpLocD::Reg(x) => FpLocV::Reg(*x),
            FpLocD::Mem(m) => FpLocV::Mem(self.d_addr(m)),
        }
    }

    /// Run a pre-decoded image on this VM: the fast path equivalent of
    /// [`Vm::run`], bit-identical in results, stats, traps, and profile.
    ///
    /// `image` must have been compiled from the same program and cost
    /// model this VM was created with.
    pub fn run_image(&mut self, image: &ExecImage) -> RunOutcome {
        self.run_image_with(image, &mut ())
    }

    /// [`Vm::run_image`] with an [`Observer`] attached: each hook family
    /// the observer enables fires from the dispatch loop. The observer
    /// cannot change the execution, and with `()` this *is*
    /// [`Vm::run_image`] (the gates are compile-time constants).
    pub fn run_image_with<O: Observer>(&mut self, image: &ExecImage, obs: &mut O) -> RunOutcome {
        assert_eq!(
            image.insn_bound,
            self.prog.insn_id_bound(),
            "ExecImage does not match this VM's program"
        );
        assert_eq!(image.cost, self.opts.cost, "ExecImage compiled under a different cost model");
        let result = self.run_image_inner(image, obs);
        RunOutcome { stats: self.stats, result, profile: self.profile.take() }
    }

    fn run_image_inner<O: Observer>(&mut self, image: &ExecImage, obs: &mut O) -> Result<(), Trap> {
        let ops = &image.ops[..];
        let mut pc = image.entry as usize;
        let mut ret_stack: Vec<u32> = Vec::with_capacity(64);
        let fuel = self.opts.fuel;
        let max_call_depth = self.opts.max_call_depth;
        loop {
            if self.stats.steps >= fuel {
                return Err(Trap::FuelExhausted);
            }
            self.stats.steps += 1;
            let op = &ops[pc];
            self.stats.cycles += op.cost;
            self.stats.fp_ops += op.fp as u64;
            if let Some(p) = &mut self.profile {
                if op.id.0 != u32::MAX {
                    p.bump(op.id);
                }
            }
            match &op.kind {
                OpK::ArithF64 { op: o, dst, src } => {
                    let a = self.xmm[*dst as usize] as u64;
                    let b = self.d_rm64(src)?;
                    self.check_flag64(a, op.id)?;
                    self.check_flag64(b, op.id)?;
                    let r = Self::fp_alu_f64(*o, f64::from_bits(a), f64::from_bits(b));
                    self.set_lo64(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f64(op.id, f64::from_bits(a), f64::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Arith64 {
                            insn: op.id,
                            op: *o,
                            dst: *dst,
                            src: self.loc_of_rm(src),
                            a: f64::from_bits(a),
                            b: f64::from_bits(b),
                            r,
                        });
                    }
                }
                OpK::ArithF32 { op: o, dst, src } => {
                    let a = self.xmm[*dst as usize] as u32;
                    let b = self.d_rm32(src)?;
                    let r = Self::fp_alu_f32(*o, f32::from_bits(a), f32::from_bits(b));
                    self.set_lo32(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f32(op.id, f32::from_bits(a), f32::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 4 });
                    }
                }
                OpK::ArithPd { op: o, dst, src } => {
                    let a = self.xmm[*dst as usize];
                    let b = self.d_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..2 {
                        let ab = (a >> (64 * lane)) as u64;
                        let bb = (b >> (64 * lane)) as u64;
                        self.check_flag64(ab, op.id)?;
                        self.check_flag64(bb, op.id)?;
                        let r = Self::fp_alu_f64(*o, f64::from_bits(ab), f64::from_bits(bb));
                        out |= u128::from(r.to_bits()) << (64 * lane);
                    }
                    self.xmm[*dst as usize] = out;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 16 });
                    }
                }
                OpK::ArithPs { op: o, dst, src } => {
                    let a = self.xmm[*dst as usize];
                    let b = self.d_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..4 {
                        let ab = (a >> (32 * lane)) as u32;
                        let bb = (b >> (32 * lane)) as u32;
                        let r = Self::fp_alu_f32(*o, f32::from_bits(ab), f32::from_bits(bb));
                        out |= u128::from(r.to_bits()) << (32 * lane);
                    }
                    self.xmm[*dst as usize] = out;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 16 });
                    }
                }
                OpK::SqrtF64 { dst, src } => {
                    let b = self.d_rm64(src)?;
                    self.check_flag64(b, op.id)?;
                    let r = f64::from_bits(b).sqrt();
                    self.set_lo64(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f64(op.id, f64::from_bits(b), f64::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Sqrt64 {
                            insn: op.id,
                            dst: *dst,
                            src: self.loc_of_rm(src),
                            b: f64::from_bits(b),
                            r,
                        });
                    }
                }
                OpK::SqrtF32 { dst, src } => {
                    let b = self.d_rm32(src)?;
                    let r = f32::from_bits(b).sqrt();
                    self.set_lo32(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f32(op.id, f32::from_bits(b), f32::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 4 });
                    }
                }
                OpK::SqrtPd { dst, src } => {
                    let b = self.d_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..2 {
                        let bb = (b >> (64 * lane)) as u64;
                        self.check_flag64(bb, op.id)?;
                        out |= u128::from(f64::from_bits(bb).sqrt().to_bits()) << (64 * lane);
                    }
                    self.xmm[*dst as usize] = out;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 16 });
                    }
                }
                OpK::SqrtPs { dst, src } => {
                    let b = self.d_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..4 {
                        let bb = (b >> (32 * lane)) as u32;
                        out |= u128::from(f32::from_bits(bb).sqrt().to_bits()) << (32 * lane);
                    }
                    self.xmm[*dst as usize] = out;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 16 });
                    }
                }
                OpK::MathF64 { fun, dst, src } => {
                    let b = self.d_rm64(src)?;
                    self.check_flag64(b, op.id)?;
                    let r = Self::math_f64(*fun, f64::from_bits(b));
                    self.set_lo64(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f64(op.id, f64::from_bits(b), f64::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Math64 {
                            insn: op.id,
                            fun: *fun,
                            dst: *dst,
                            src: self.loc_of_rm(src),
                            b: f64::from_bits(b),
                            r,
                        });
                    }
                }
                OpK::MathF32 { fun, dst, src } => {
                    let b = self.d_rm32(src)?;
                    let r = Self::math_f32(*fun, f32::from_bits(b));
                    self.set_lo32(*dst, r.to_bits());
                    if O::FP_RESULTS {
                        obs.fp_result_f32(op.id, f32::from_bits(b), f32::from_bits(b), r);
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 4 });
                    }
                }
                OpK::UcomiF64 { lhs, src } => {
                    let a = self.xmm[*lhs as usize] as u64;
                    let b = self.d_rm64(src)?;
                    self.check_flag64(a, op.id)?;
                    self.check_flag64(b, op.id)?;
                    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                    self.set_ucomi_flags(fa, fb, fa.is_nan() || fb.is_nan());
                }
                OpK::UcomiF32 { lhs, src } => {
                    let a = f32::from_bits(self.xmm[*lhs as usize] as u32);
                    let b = f32::from_bits(self.d_rm32(src)?);
                    self.set_ucomi_flags(a as f64, b as f64, a.is_nan() || b.is_nan());
                }
                OpK::CvtToF32 { dst, src } => {
                    let b = self.d_rm64(src)?;
                    self.check_flag64(b, op.id)?;
                    self.set_lo32(*dst, (f64::from_bits(b) as f32).to_bits());
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 4 });
                    }
                }
                OpK::CvtToF64 { dst, src } => {
                    let b = self.d_rm32(src)?;
                    self.set_lo64(*dst, (f32::from_bits(b) as f64).to_bits());
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Widen64 {
                            insn: op.id,
                            dst: *dst,
                            value: f32::from_bits(b),
                        });
                    }
                }
                OpK::CvtI2F64 { dst, src } => {
                    let v = self.d_gmi(src)? as i64;
                    self.set_lo64(*dst, (v as f64).to_bits());
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Int64 { insn: op.id, dst: *dst, v });
                    }
                }
                OpK::CvtI2F32 { dst, src } => {
                    let v = self.d_gmi(src)? as i64;
                    self.set_lo32(*dst, (v as f32).to_bits());
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 4 });
                    }
                }
                OpK::CvtF64ToI { dst, src } => {
                    let b = self.d_rm64(src)?;
                    self.check_flag64(b, op.id)?;
                    self.gpr[*dst as usize] = (f64::from_bits(b) as i64) as u64;
                }
                OpK::CvtF32ToI { dst, src } => {
                    let b = self.d_rm32(src)?;
                    self.gpr[*dst as usize] = (f32::from_bits(b) as i64) as u64;
                }
                OpK::MovF32 { dst, src } => {
                    let v = match src {
                        FpLocD::Reg(x) => self.xmm[*x as usize] as u32,
                        FpLocD::Mem(m) => self.mem.load_u32(self.d_addr(m))?,
                    };
                    match dst {
                        FpLocD::Reg(x) => self.set_lo32(*x, v),
                        FpLocD::Mem(m) => self.mem.store_u32(self.d_addr(m), v)?,
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: self.loc_of_fp(dst), width: 4 });
                    }
                }
                OpK::MovF64 { dst, src } => {
                    let v = match src {
                        FpLocD::Reg(x) => self.xmm[*x as usize] as u64,
                        FpLocD::Mem(m) => self.mem.load_u64(self.d_addr(m))?,
                    };
                    match dst {
                        FpLocD::Reg(x) => self.set_lo64(*x, v),
                        FpLocD::Mem(m) => self.mem.store_u64(self.d_addr(m), v)?,
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Mov64 {
                            dst: self.loc_of_fp(dst),
                            src: self.loc_of_fp(src),
                            bits: v,
                        });
                    }
                }
                OpK::MovF128 { dst, src } => {
                    let v = match src {
                        FpLocD::Reg(x) => self.xmm[*x as usize],
                        FpLocD::Mem(m) => self.mem.load_u128(self.d_addr(m))?,
                    };
                    match dst {
                        FpLocD::Reg(x) => self.xmm[*x as usize] = v,
                        FpLocD::Mem(m) => self.mem.store_u128(self.d_addr(m), v)?,
                    }
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: self.loc_of_fp(dst), width: 16 });
                    }
                }
                OpK::FpTrunc { mant, exp, dst, sh } => {
                    let slot = (self.xmm[*dst as usize] >> sh) as u64;
                    let q = crate::value::quantize_f32_bits(slot as u32, *mant as u32, *exp as u32);
                    let r = &mut self.xmm[*dst as usize];
                    *r = (*r & !(u128::from(u64::MAX) << sh))
                        | (u128::from(crate::value::FLAG_HI64 | q as u64) << sh);
                    if O::FP_RESULTS {
                        obs.quantize(op.id, *mant, *exp, slot as u32, q);
                    }
                    // The lane now holds a re-flagged reduced payload.
                    if O::FP_EVENTS && *sh == 0 {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 8 });
                    }
                }
                OpK::PExtrQ { dst, src, sh } => {
                    self.gpr[*dst as usize] = (self.xmm[*src as usize] >> sh) as u64;
                }
                OpK::PInsrQ { dst, src, sh } => {
                    let v = self.gpr[*src as usize];
                    let r = &mut self.xmm[*dst as usize];
                    *r = (*r & !(u128::from(u64::MAX) << sh)) | (u128::from(v) << sh);
                    // Only a low-lane insert overwrites the scalar slot.
                    if O::FP_EVENTS && *sh == 0 {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Reg(*dst), width: 8 });
                    }
                }
                OpK::IntAlu { op: o, dst, src } => {
                    let a = self.gpr[*dst as usize];
                    let b = self.d_gmi(src)?;
                    let r = match o {
                        IntOp::Add => a.wrapping_add(b),
                        IntOp::Sub => a.wrapping_sub(b),
                        IntOp::Mul => a.wrapping_mul(b),
                        IntOp::Div => {
                            let (ai, bi) = (a as i64, b as i64);
                            if bi == 0 || (ai == i64::MIN && bi == -1) {
                                return Err(Trap::DivByZero);
                            }
                            (ai / bi) as u64
                        }
                        IntOp::Rem => {
                            let (ai, bi) = (a as i64, b as i64);
                            if bi == 0 || (ai == i64::MIN && bi == -1) {
                                return Err(Trap::DivByZero);
                            }
                            (ai % bi) as u64
                        }
                        IntOp::And => a & b,
                        IntOp::Or => a | b,
                        IntOp::Xor => a ^ b,
                        IntOp::Shl => a << (b & 63),
                        IntOp::Shr => a >> (b & 63),
                        IntOp::Sar => ((a as i64) >> (b & 63)) as u64,
                    };
                    self.gpr[*dst as usize] = r;
                }
                OpK::MovIR { dst, src } => {
                    self.gpr[*dst as usize] = self.d_gmi(src)?;
                }
                OpK::MovIM { dst, src } => {
                    let v = self.d_gmi(src)?;
                    self.mem.store_u64(self.d_addr(dst), v)?;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber {
                            loc: FpLocV::Mem(self.d_addr(dst)),
                            width: 8,
                        });
                    }
                }
                OpK::Cmp { lhs, src } => {
                    let a = self.gpr[*lhs as usize];
                    let b = self.d_gmi(src)?;
                    self.set_cmp_flags(a, b);
                }
                OpK::Test { lhs, src } => {
                    let r = self.gpr[*lhs as usize] & self.d_gmi(src)?;
                    self.set_test_flags(r);
                }
                OpK::Lea { dst, mem } => {
                    self.gpr[*dst as usize] = self.d_addr(mem);
                }
                OpK::Push { src } => {
                    let rsp = self.gpr[Gpr::RSP.0 as usize].wrapping_sub(8);
                    self.mem.store_u64(rsp, self.gpr[*src as usize])?;
                    self.gpr[Gpr::RSP.0 as usize] = rsp;
                    if O::FP_EVENTS {
                        obs.trace(&FpEvent::Clobber { loc: FpLocV::Mem(rsp), width: 8 });
                    }
                }
                OpK::Pop { dst } => {
                    let rsp = self.gpr[Gpr::RSP.0 as usize];
                    let v = self.mem.load_u64(rsp)?;
                    self.gpr[*dst as usize] = v;
                    self.gpr[Gpr::RSP.0 as usize] = rsp.wrapping_add(8);
                }
                OpK::Call { entry } => {
                    if ret_stack.len() >= max_call_depth {
                        return Err(Trap::CallDepth);
                    }
                    if *entry == u32::MAX {
                        return Err(Trap::NoEntry);
                    }
                    ret_stack.push(pc as u32 + 1);
                    pc = *entry as usize;
                    continue;
                }
                OpK::Nop => {}
                OpK::Jmp { target } => {
                    pc = *target as usize;
                    continue;
                }
                OpK::Br { cond, then_, else_ } => {
                    pc = if self.cond_holds(*cond) { *then_ } else { *else_ } as usize;
                    continue;
                }
                OpK::Ret => match ret_stack.pop() {
                    Some(r) => {
                        pc = r as usize;
                        continue;
                    }
                    None => return Err(Trap::ReturnFromEntry),
                },
                OpK::Halt => return Ok(()),
            }
            pc += 1;
        }
    }

    #[inline(always)]
    pub(crate) fn set_ucomi_flags(&mut self, a: f64, b: f64, unordered: bool) {
        self.flags = if unordered {
            crate::interp::Flags { eq: true, lt: false, ult: true, unordered: true }
        } else {
            crate::interp::Flags { eq: a == b, lt: a < b, ult: a < b, unordered: false }
        };
    }

    #[inline(always)]
    pub(crate) fn set_cmp_flags(&mut self, a: u64, b: u64) {
        self.flags = crate::interp::Flags {
            eq: a == b,
            lt: (a as i64) < (b as i64),
            ult: a < b,
            unordered: false,
        };
    }

    #[inline(always)]
    pub(crate) fn set_test_flags(&mut self, r: u64) {
        self.flags =
            crate::interp::Flags { eq: r == 0, lt: (r as i64) < 0, ult: false, unordered: false };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Vm, VmOptions};

    /// A small program covering arithmetic, control flow, and a call.
    fn demo_prog() -> Program {
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let fmain = p.add_function(m, "main");
        let fsq = p.add_function(m, "sq");
        let bs = p.add_block(fsq);
        p.funcs[fsq.0 as usize].entry = bs;
        p.push_insn(
            bs,
            InstKind::FpArith {
                op: FpAluOp::Mul,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(0),
                src: RM::Reg(Xmm(0)),
            },
        );
        p.block_mut(bs).term = Terminator::Ret;

        let head = p.add_block(fmain);
        let body = p.add_block(fmain);
        let done = p.add_block(fmain);
        p.funcs[fmain.0 as usize].entry = head;
        p.entry = fmain;
        p.globals = vec![0u8; 16];
        p.push_insn(head, InstKind::MovI { dst: GM::Reg(Gpr(2)), src: GMI::Imm(1) });
        p.push_insn(head, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(0) });
        p.block_mut(head).term = Terminator::Jmp(body);
        p.push_insn(
            body,
            InstKind::IntAlu { op: IntOp::Add, dst: Gpr::RAX, src: GMI::Reg(Gpr(2)) },
        );
        p.push_insn(body, InstKind::IntAlu { op: IntOp::Add, dst: Gpr(2), src: GMI::Imm(1) });
        p.push_insn(body, InstKind::Cmp { lhs: Gpr(2), src: GMI::Imm(10) });
        p.block_mut(body).term = Terminator::Br { cond: Cond::Le, then_: body, else_: done };
        p.push_insn(
            done,
            InstKind::CvtI2F { to: Prec::Double, dst: Xmm(0), src: GMI::Reg(Gpr::RAX) },
        );
        p.push_insn(done, InstKind::Call { func: fsq });
        p.push_insn(
            done,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(0)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(done).term = Terminator::Halt;
        p
    }

    #[test]
    fn image_matches_reference_on_demo_program() {
        let p = demo_prog();
        let image = ExecImage::compile(&p, &CostModel::default());

        let mut slow = Vm::new(&p, VmOptions { profile: true, ..Default::default() });
        let out_slow = slow.run();
        let mut fast = Vm::new(&p, VmOptions { profile: true, ..Default::default() });
        let out_fast = fast.run_image(&image);

        assert_eq!(out_slow.result, out_fast.result);
        assert_eq!(out_slow.stats.steps, out_fast.stats.steps);
        assert_eq!(out_slow.stats.fp_ops, out_fast.stats.fp_ops);
        assert_eq!(out_slow.stats.cycles, out_fast.stats.cycles);
        assert_eq!(slow.gpr, fast.gpr);
        assert_eq!(slow.xmm, fast.xmm);
        assert_eq!(slow.mem.load_u64(0).unwrap(), fast.mem.load_u64(0).unwrap());
        assert_eq!(fast.mem.read_f64_slice(0, 1).unwrap()[0], 55.0 * 55.0);
        let ps = out_slow.profile.unwrap();
        let pf = out_fast.profile.unwrap();
        for k in 0..p.insn_id_bound() {
            assert_eq!(ps.count(InsnId(k as u32)), pf.count(InsnId(k as u32)));
        }
    }

    #[test]
    fn fuel_exhaustion_matches() {
        let p = demo_prog();
        let image = ExecImage::compile(&p, &CostModel::default());
        for fuel in [0u64, 1, 5, 13, 17] {
            let o1 = Vm::new(&p, VmOptions { fuel, ..Default::default() }).run();
            let o2 = Vm::new(&p, VmOptions { fuel, ..Default::default() }).run_image(&image);
            assert_eq!(o1.result, o2.result, "fuel={fuel}");
            assert_eq!(o1.stats.steps, o2.stats.steps, "fuel={fuel}");
            assert_eq!(o1.stats.cycles, o2.stats.cycles, "fuel={fuel}");
        }
    }

    #[test]
    fn flagged_nan_trap_matches_with_insn_id() {
        let mut p = Program::new(1 << 12);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        p.globals = crate::value::replace(1.5).to_le_bytes().to_vec();
        p.push_insn(
            b,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        p.push_insn(
            b,
            InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(0),
                src: RM::Reg(Xmm(0)),
            },
        );
        p.block_mut(b).term = Terminator::Halt;
        let image = ExecImage::compile(&p, &CostModel::default());
        let o1 = Vm::new(&p, VmOptions::default()).run();
        let o2 = Vm::new(&p, VmOptions::default()).run_image(&image);
        assert!(matches!(o1.result, Err(Trap::FlaggedNanConsumed { .. })));
        assert_eq!(o1.result, o2.result);
        assert_eq!(o1.stats.cycles, o2.stats.cycles);
    }

    #[test]
    fn mismatched_cost_model_is_rejected() {
        let p = demo_prog();
        let image = ExecImage::compile(&p, &CostModel { call: 99, ..Default::default() });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Vm::new(&p, VmOptions::default()).run_image(&image)
        }));
        assert!(r.is_err());
    }
}

//! Pre-decoded execution images and the value-observer API.
//!
//! [`ExecImage::compile`] lowers a [`Program`] into a flat array of
//! pre-decoded operations: blocks are laid out contiguously, terminators
//! become explicit ops, branch and call targets are direct indices into
//! the array, operand forms ([`crate::isa::RM`]/[`crate::isa::GMI`]/
//! [`crate::isa::MemRef`]) are resolved into compact fixed-size
//! descriptors, and each op carries its pre-computed cycle cost, fp-op
//! flag, and instruction id. The image is not run as such:
//! [`CompiledImage::from_image`](crate::CompiledImage::from_image) binds
//! each op to a specialized handler, and the compiled backend runs
//! those. The per-op decoders are shared with
//! [`Chunk::lower`](crate::compiled::Chunk::lower), which decodes blocks
//! whose targets are resolved later, when a chunk is linked.
//!
//! [`Observer`] and [`FpEvent`] are how the shadow engine and the
//! numerical-health counters watch values as they are computed; an
//! observer attaches to a run through
//! [`Vm::run_observed`](crate::Vm::run_observed).

use crate::cost::CostModel;
use crate::isa::*;
use crate::program::Program;

/// A resolved floating-point location reported to an [`Observer`]: an
/// XMM register's low lanes, or an absolute memory address (operand address
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
/// defaults to `false`. The compiled backend's threaded loop, where
/// observers run ([`Vm::run_observed`](crate::Vm::run_observed)), is
/// generic over the observer and tests the flags at compile time, so the
/// unobserved case `()` monomorphizes to the exact unobserved loop —
/// zero cost and bit-identical by construction. Observers only ever receive copies of
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
    /// Pre-computed cycles the instruction is charged ([`Insn::cycles`];
    /// 0 for terminators).
    pub(crate) cost: u64,
    /// Dynamic fp-ops the instruction is charged ([`Insn::fp_ops`]).
    pub(crate) fp: u64,
    /// Steps the instruction is charged ([`Insn::steps`]; 1 for
    /// terminators).
    pub(crate) steps: u64,
    /// Original instruction id (`u32::MAX` for terminators, which have
    /// none and are never profiled).
    pub(crate) id: InsnId,
}

/// A linear execution image: the pre-decoded form of one [`Program`]
/// under one [`CostModel`], the input the compiled backend binds.
#[derive(Debug, Clone)]
pub struct ExecImage {
    pub(crate) ops: Vec<ExecOp>,
    pub(crate) entry: u32,
    pub(crate) insn_bound: usize,
    pub(crate) cost: CostModel,
}

impl ExecOp {
    /// Decode one instruction. `call` gives a callee's control target:
    /// its entry's position in a laid-out image, or its raw function id
    /// in a chunk that is still to be linked.
    #[inline]
    pub(crate) fn decode(insn: &Insn, cost: &CostModel, call: impl Fn(FuncId) -> u32) -> ExecOp {
        ExecOp {
            kind: lower(&insn.kind, call),
            cost: insn.cycles(cost),
            fp: insn.fp_ops(),
            steps: insn.steps(),
            id: insn.id,
        }
    }

    /// Decode a block's terminator into its explicit op. `block` gives a
    /// successor's control target, like `call` in [`ExecOp::decode`].
    pub(crate) fn terminator(term: &Terminator, block: impl Fn(BlockId) -> u32) -> ExecOp {
        let kind = match term {
            Terminator::Jmp(t) => OpK::Jmp { target: block(*t) },
            Terminator::Br { cond, then_, else_ } => {
                OpK::Br { cond: *cond, then_: block(*then_), else_: block(*else_) }
            }
            Terminator::Ret => OpK::Ret,
            Terminator::Halt => OpK::Halt,
        };
        ExecOp { kind, cost: 0, fp: 0, steps: 1, id: InsnId(u32::MAX) }
    }
}

impl ExecImage {
    /// Lower `prog` to a linear image. The cost model must be the one the
    /// executing VM uses (every compiled run asserts this).
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
        let block = |b: BlockId| block_start[b.0 as usize];
        let call = |f: FuncId| match prog.func(f).entry {
            e if e.0 == u32::MAX => u32::MAX,
            e => block(e),
        };
        let mut ops = Vec::with_capacity(pos as usize);
        for f in &prog.funcs {
            for &b in &f.blocks {
                let blk = prog.block(b);
                ops.extend(blk.insns.iter().map(|insn| ExecOp::decode(insn, cost, call)));
                ops.push(ExecOp::terminator(&blk.term, block));
            }
        }

        ExecImage {
            ops,
            entry: block(prog.func(prog.entry).entry),
            insn_bound: prog.insn_id_bound(),
            cost: cost.clone(),
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

/// Decode one instruction's operation; `call` resolves a callee (see
/// [`ExecOp::decode`]).
#[inline]
fn lower(kind: &InstKind, call: impl Fn(FuncId) -> u32) -> OpK {
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
        InstKind::Call { func } => OpK::Call { entry: call(*func) },
        InstKind::Nop => OpK::Nop,
    }
}

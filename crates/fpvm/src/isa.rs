//! The virtual instruction set (VIS).
//!
//! The VIS is deliberately modelled on the x86-64 SSE2 subset that the
//! paper's framework instruments: scalar and packed floating-point
//! arithmetic on 128-bit XMM registers, 64-bit general-purpose integer
//! registers, a flat byte-addressed memory, condition flags, and
//! block-structured control flow. Keeping the register/memory *bit-level*
//! semantics of SSE2 is what lets us implement the paper's in-place
//! downcast-and-flag replacement (Fig. 5) and its machine-code snippets
//! (Fig. 6) literally rather than as a semantic shortcut.

use std::fmt;

/// One of the sixteen 128-bit floating-point (XMM) registers.
///
/// Register 15 is reserved as scratch space for instrumentation snippets;
/// the `fpir` code generator never allocates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Xmm(pub u8);

impl Xmm {
    /// Number of XMM registers.
    pub const COUNT: usize = 16;
    /// Scratch register reserved for instrumentation snippets.
    pub const SCRATCH: Xmm = Xmm(15);
}

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%xmm{}", self.0)
    }
}

/// One of the sixteen 64-bit general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpr(pub u8);

impl Gpr {
    /// Number of general-purpose registers.
    pub const COUNT: usize = 16;
    /// Conventional accumulator, first integer argument / return register.
    pub const RAX: Gpr = Gpr(0);
    /// Conventional secondary scratch register.
    pub const RBX: Gpr = Gpr(1);
    /// Stack pointer. Pushes decrement it by 8; pops increment it.
    pub const RSP: Gpr = Gpr(15);
}

static GPR_NAMES: [&str; 16] = [
    "%rax", "%rbx", "%rcx", "%rdx", "%rsi", "%rdi", "%r6", "%r7", "%r8", "%r9", "%r10", "%r11",
    "%r12", "%r13", "%r14", "%rsp",
];

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(GPR_NAMES[self.0 as usize & 15])
    }
}

/// Floating-point precision of an operation, per IEEE 754 binary32/binary64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prec {
    /// 32-bit IEEE single precision.
    Single,
    /// 64-bit IEEE double precision.
    Double,
}

impl Prec {
    /// Width of one scalar of this precision, in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Prec::Single => 4,
            Prec::Double => 8,
        }
    }

    /// Number of lanes of this precision in a 128-bit register.
    pub fn lanes(self) -> usize {
        16 / self.bytes()
    }

    /// The x86-style opcode suffix (`ss`/`sd` scalar, `ps`/`pd` packed).
    pub fn suffix(self, packed: bool) -> &'static str {
        match (self, packed) {
            (Prec::Single, false) => "ss",
            (Prec::Double, false) => "sd",
            (Prec::Single, true) => "ps",
            (Prec::Double, true) => "pd",
        }
    }
}

/// A memory reference: `disp(base, index, scale)` in AT&T notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Gpr>,
    /// Index register and scale factor (1, 2, 4, or 8), if any.
    pub index: Option<(Gpr, u8)>,
    /// Constant displacement, added to base and scaled index.
    pub disp: i64,
}

impl MemRef {
    /// An absolute reference to a fixed address.
    pub fn abs(addr: u64) -> Self {
        MemRef { base: None, index: None, disp: addr as i64 }
    }

    /// `disp(base)`.
    pub fn base_disp(base: Gpr, disp: i64) -> Self {
        MemRef { base: Some(base), index: None, disp }
    }

    /// `disp(base, index, scale)`.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i64) -> Self {
        MemRef { base: Some(base), index: Some((index, scale)), disp }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disp != 0 || (self.base.is_none() && self.index.is_none()) {
            if self.disp < 0 {
                write!(f, "-{:#x}", self.disp.unsigned_abs())?;
            } else {
                write!(f, "{:#x}", self.disp)?;
            }
        }
        if self.base.is_some() || self.index.is_some() {
            write!(f, "(")?;
            if let Some(b) = self.base {
                write!(f, "{b}")?;
            }
            if let Some((i, s)) = self.index {
                write!(f, ",{i},{s}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A floating-point source operand: register or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RM {
    /// XMM register operand.
    Reg(Xmm),
    /// Memory operand.
    Mem(MemRef),
}

impl fmt::Display for RM {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RM::Reg(x) => write!(f, "{x}"),
            RM::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// A scalar floating-point location (destination or source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpLoc {
    /// XMM register (low lane for scalar widths).
    Reg(Xmm),
    /// Memory location.
    Mem(MemRef),
}

impl fmt::Display for FpLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpLoc::Reg(x) => write!(f, "{x}"),
            FpLoc::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// An integer source operand: register, memory, or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GMI {
    /// General-purpose register.
    Reg(Gpr),
    /// 64-bit memory operand.
    Mem(MemRef),
    /// Sign-extended immediate.
    Imm(i64),
}

impl fmt::Display for GMI {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GMI::Reg(r) => write!(f, "{r}"),
            GMI::Mem(m) => write!(f, "{m}"),
            GMI::Imm(i) => write!(f, "${i:#x}"),
        }
    }
}

/// An integer destination: register or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GM {
    /// General-purpose register.
    Reg(Gpr),
    /// 64-bit memory operand.
    Mem(MemRef),
}

impl fmt::Display for GM {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GM::Reg(r) => write!(f, "{r}"),
            GM::Mem(m) => write!(f, "{m}"),
        }
    }
}

/// Binary floating-point ALU operations (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpAluOp {
    /// Addition (`addss`/`addsd`/`addps`/`addpd`).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE minimum (x86 `min*` semantics: returns `src` if either is NaN).
    Min,
    /// IEEE maximum (x86 `max*` semantics).
    Max,
}

impl FpAluOp {
    /// Mnemonic stem (without precision suffix).
    pub fn stem(self) -> &'static str {
        match self {
            FpAluOp::Add => "add",
            FpAluOp::Sub => "sub",
            FpAluOp::Mul => "mul",
            FpAluOp::Div => "div",
            FpAluOp::Min => "min",
            FpAluOp::Max => "max",
        }
    }
}

/// Transcendental and unary math intrinsics.
///
/// Real binaries implement these with table lookups and bit manipulation
/// inside `libm`; the paper (§2.5) observes that special handling of such
/// functions both improves performance and increases the replaceable
/// fraction. We model that special handling as precision-typed intrinsic
/// instructions, and provide a software `libm` in `fpir` for the ablation
/// that instruments the bit-twiddling implementation instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFun {
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
}

impl MathFun {
    /// Mnemonic stem.
    pub fn stem(self) -> &'static str {
        match self {
            MathFun::Sin => "fsin",
            MathFun::Cos => "fcos",
            MathFun::Exp => "fexp",
            MathFun::Log => "flog",
            MathFun::Abs => "fabs",
            MathFun::Neg => "fneg",
        }
    }
}

/// Integer ALU operations (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping signed multiplication.
    Mul,
    /// Signed division (traps on divide-by-zero or overflow).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (count masked to 63).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl IntOp {
    /// Mnemonic.
    pub fn stem(self) -> &'static str {
        match self {
            IntOp::Add => "add",
            IntOp::Sub => "sub",
            IntOp::Mul => "imul",
            IntOp::Div => "idiv",
            IntOp::Rem => "irem",
            IntOp::And => "and",
            IntOp::Or => "or",
            IntOp::Xor => "xor",
            IntOp::Shl => "shl",
            IntOp::Shr => "shr",
            IntOp::Sar => "sar",
        }
    }
}

/// Width of an untyped data move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 32 bits (`movss`-style: low lane of an XMM register).
    W32,
    /// 64 bits (`movsd`-style).
    W64,
    /// 128 bits (`movdqu`-style: whole XMM register).
    W128,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Width::W32 => 4,
            Width::W64 => 8,
            Width::W128 => 16,
        }
    }
}

/// Branch conditions, evaluated against the machine's flag state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal / zero.
    Eq,
    /// Not equal / not zero.
    Ne,
    /// Signed less-than (integer compares).
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below — also "less than" for `ucomis*` FP compares.
    Below,
    /// Unsigned below-or-equal.
    BelowEq,
    /// Unsigned above.
    Above,
    /// Unsigned above-or-equal.
    AboveEq,
    /// FP compare was unordered (at least one NaN).
    Unordered,
    /// FP compare was ordered.
    Ordered,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "l",
            Cond::Le => "le",
            Cond::Gt => "g",
            Cond::Ge => "ge",
            Cond::Below => "b",
            Cond::BelowEq => "be",
            Cond::Above => "a",
            Cond::AboveEq => "ae",
            Cond::Unordered => "p",
            Cond::Ordered => "np",
        };
        f.write_str(s)
    }
}

/// Identifies a basic block within a [`crate::program::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Identifies a function within a [`crate::program::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

/// Identifies a module (compilation unit / shared object analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

/// Stable identity of an instruction in the *original* program.
///
/// Instruction ids survive patching: when the rewriter copies an original
/// instruction into a patched program it keeps the id, so precision
/// configurations and profiles (which are keyed by `InsnId`) remain valid
/// across binary modification — mirroring how the paper keys configurations
/// by instruction address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InsnId(pub u32);

/// An instruction operation, without its identity.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// Binary FP arithmetic: `dst = dst op src`, scalar or packed.
    FpArith {
        /// The arithmetic operation.
        op: FpAluOp,
        /// Operation precision.
        prec: Prec,
        /// If true, operate on all lanes of the 128-bit register.
        packed: bool,
        /// Destination (and left-hand) register.
        dst: Xmm,
        /// Right-hand source operand.
        src: RM,
    },
    /// Square root: `dst = sqrt(src)`.
    FpSqrt {
        /// Operation precision.
        prec: Prec,
        /// If true, per-lane square root.
        packed: bool,
        /// Destination register.
        dst: Xmm,
        /// Source operand.
        src: RM,
    },
    /// Unary math intrinsic: `dst = fun(src)` (scalar only).
    FpMath {
        /// The intrinsic function.
        fun: MathFun,
        /// Operation precision.
        prec: Prec,
        /// Destination register.
        dst: Xmm,
        /// Source operand.
        src: RM,
    },
    /// Unordered FP compare (`ucomiss`/`ucomisd`): sets flags.
    FpUcomi {
        /// Compare precision.
        prec: Prec,
        /// Left-hand register.
        lhs: Xmm,
        /// Right-hand operand.
        src: RM,
    },
    /// Precision conversion between FP formats (`cvtsd2ss`/`cvtss2sd`).
    CvtF2F {
        /// Target precision (source is the other one).
        to: Prec,
        /// Destination register.
        dst: Xmm,
        /// Source operand.
        src: RM,
    },
    /// Signed 64-bit integer to FP (`cvtsi2sd`/`cvtsi2ss`).
    CvtI2F {
        /// Target FP precision.
        to: Prec,
        /// Destination register.
        dst: Xmm,
        /// Integer source.
        src: GMI,
    },
    /// FP to signed 64-bit integer with truncation (`cvttsd2si`).
    CvtF2I {
        /// Source FP precision.
        from: Prec,
        /// Destination register.
        dst: Gpr,
        /// FP source operand.
        src: RM,
    },
    /// Untyped scalar/whole-register FP move (`movss`/`movsd`/`movdqu`).
    ///
    /// Moves copy bit patterns and never inspect replacement flags, exactly
    /// like real `mov` instructions: a flagged value travels intact.
    MovF {
        /// Move width.
        width: Width,
        /// Destination location.
        dst: FpLoc,
        /// Source location.
        src: FpLoc,
    },
    /// Quantize one 64-bit lane of an XMM register to a reduced
    /// floating-point format, in place.
    ///
    /// The lane's low 32 bits are read as an f32 payload, rounded to
    /// nearest-even into a format with `mant` explicit mantissa bits
    /// and `exp` exponent bits (see [`crate::value::quantize_f32_bits`]),
    /// and the lane is rewritten as a NaN-boxed replaced slot
    /// (`FLAG_HI64 | payload`). Instrumentation snippets emit this
    /// after the single-precision op that emulates a half/bfloat16/
    /// custom-format operation; it has no hardware analogue and is
    /// never a replacement candidate itself.
    FpTrunc {
        /// Explicit mantissa bits of the target format (≤ 23).
        mant: u8,
        /// Exponent bits of the target format (1..=8).
        exp: u8,
        /// Register whose lane is quantized and re-flagged.
        dst: Xmm,
        /// Lane index (0 or 1).
        lane: u8,
    },
    /// Extract a 64-bit lane of an XMM register into a GPR (`pextrq`).
    PExtrQ {
        /// Destination GPR.
        dst: Gpr,
        /// Source XMM register.
        src: Xmm,
        /// Lane index (0 or 1).
        lane: u8,
    },
    /// Insert a GPR into a 64-bit lane of an XMM register (`pinsrq`).
    PInsrQ {
        /// Destination XMM register.
        dst: Xmm,
        /// Source GPR.
        src: Gpr,
        /// Lane index (0 or 1).
        lane: u8,
    },
    /// Integer ALU operation: `dst = dst op src`.
    IntAlu {
        /// The operation.
        op: IntOp,
        /// Destination register.
        dst: Gpr,
        /// Source operand.
        src: GMI,
    },
    /// 64-bit integer move.
    MovI {
        /// Destination.
        dst: GM,
        /// Source.
        src: GMI,
    },
    /// Integer compare: sets flags from `lhs - src`.
    Cmp {
        /// Left-hand register.
        lhs: Gpr,
        /// Right-hand operand.
        src: GMI,
    },
    /// Integer test: sets flags from `lhs & src`.
    Test {
        /// Left-hand register.
        lhs: Gpr,
        /// Right-hand operand.
        src: GMI,
    },
    /// Load effective address.
    Lea {
        /// Destination register.
        dst: Gpr,
        /// Address expression.
        mem: MemRef,
    },
    /// Push a GPR onto the stack.
    Push {
        /// Source register.
        src: Gpr,
    },
    /// Pop a GPR from the stack.
    Pop {
        /// Destination register.
        dst: Gpr,
    },
    /// Call a function. Arguments and return values follow the `fpir`
    /// calling convention (integer args in GPR0..5, FP args in XMM0..7).
    Call {
        /// Callee.
        func: FuncId,
    },
    /// No operation.
    Nop,
}

impl InstKind {
    /// True if this instruction is a *replacement candidate* in the sense of
    /// §2.1: a double-precision floating-point operation whose opcode can be
    /// swapped for its single-precision equivalent.
    ///
    /// Moves are excluded (they are typeless bit copies); conversions from
    /// integers produce fresh unflagged doubles and are excluded; compares,
    /// arithmetic, square roots, math intrinsics and FP→int conversions all
    /// consume doubles and must be instrumented.
    pub fn is_candidate(&self) -> bool {
        matches!(
            self,
            InstKind::FpArith { prec: Prec::Double, .. }
                | InstKind::FpSqrt { prec: Prec::Double, .. }
                | InstKind::FpMath { prec: Prec::Double, .. }
                | InstKind::FpUcomi { prec: Prec::Double, .. }
                | InstKind::CvtF2I { from: Prec::Double, .. }
                | InstKind::CvtF2F { to: Prec::Single, .. }
        )
    }

    /// True for any floating-point operation (any precision), used for
    /// dynamic FP-operation counting.
    pub fn is_fp_op(&self) -> bool {
        matches!(
            self,
            InstKind::FpArith { .. }
                | InstKind::FpSqrt { .. }
                | InstKind::FpMath { .. }
                | InstKind::FpUcomi { .. }
                | InstKind::CvtF2F { .. }
                | InstKind::CvtI2F { .. }
                | InstKind::CvtF2I { .. }
                | InstKind::FpTrunc { .. }
        )
    }

    /// The memory reference this instruction reads or writes, if any.
    pub fn mem_ref(&self) -> Option<&MemRef> {
        fn rm(r: &RM) -> Option<&MemRef> {
            match r {
                RM::Mem(m) => Some(m),
                RM::Reg(_) => None,
            }
        }
        fn gmi(r: &GMI) -> Option<&MemRef> {
            match r {
                GMI::Mem(m) => Some(m),
                _ => None,
            }
        }
        match self {
            InstKind::FpArith { src, .. }
            | InstKind::FpSqrt { src, .. }
            | InstKind::FpMath { src, .. }
            | InstKind::FpUcomi { src, .. }
            | InstKind::CvtF2F { src, .. }
            | InstKind::CvtF2I { src, .. } => rm(src),
            InstKind::CvtI2F { src, .. } => gmi(src),
            InstKind::MovF { dst, src, .. } => match (dst, src) {
                (FpLoc::Mem(m), _) => Some(m),
                (_, FpLoc::Mem(m)) => Some(m),
                _ => None,
            },
            InstKind::IntAlu { src, .. }
            | InstKind::Cmp { src, .. }
            | InstKind::Test { src, .. } => gmi(src),
            InstKind::MovI { dst, src } => match (dst, src) {
                (GM::Mem(m), _) => Some(m),
                (_, GMI::Mem(m)) => Some(m),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for InstKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstKind::FpArith { op, prec, packed, dst, src } => {
                write!(f, "{}{} {src}, {dst}", op.stem(), prec.suffix(*packed))
            }
            InstKind::FpSqrt { prec, packed, dst, src } => {
                write!(f, "sqrt{} {src}, {dst}", prec.suffix(*packed))
            }
            InstKind::FpMath { fun, prec, dst, src } => {
                write!(f, "{}{} {src}, {dst}", fun.stem(), prec.suffix(false))
            }
            InstKind::FpUcomi { prec, lhs, src } => {
                write!(f, "ucomi{} {src}, {lhs}", prec.suffix(false))
            }
            InstKind::CvtF2F { to: Prec::Single, dst, src } => {
                write!(f, "cvtsd2ss {src}, {dst}")
            }
            InstKind::CvtF2F { to: Prec::Double, dst, src } => {
                write!(f, "cvtss2sd {src}, {dst}")
            }
            InstKind::CvtI2F { to, dst, src } => {
                write!(f, "cvtsi2{} {src}, {dst}", to.suffix(false))
            }
            InstKind::CvtF2I { from, dst, src } => {
                write!(f, "cvtt{}2si {src}, {dst}", from.suffix(false))
            }
            InstKind::MovF { width, dst, src } => {
                let m = match width {
                    Width::W32 => "movss",
                    Width::W64 => "movsd",
                    Width::W128 => "movdqu",
                };
                write!(f, "{m} {src}, {dst}")
            }
            InstKind::FpTrunc { mant, exp, dst, lane } => {
                write!(f, "fptrunc m{mant}e{exp} ${lane}, {dst}")
            }
            InstKind::PExtrQ { dst, src, lane } => write!(f, "pextrq ${lane}, {src}, {dst}"),
            InstKind::PInsrQ { dst, src, lane } => write!(f, "pinsrq ${lane}, {src}, {dst}"),
            InstKind::IntAlu { op, dst, src } => write!(f, "{} {src}, {dst}", op.stem()),
            InstKind::MovI { dst, src } => write!(f, "mov {src}, {dst}"),
            InstKind::Cmp { lhs, src } => write!(f, "cmp {src}, {lhs}"),
            InstKind::Test { lhs, src } => write!(f, "test {src}, {lhs}"),
            InstKind::Lea { dst, mem } => write!(f, "lea {mem}, {dst}"),
            InstKind::Push { src } => write!(f, "push {src}"),
            InstKind::Pop { dst } => write!(f, "pop {dst}"),
            InstKind::Call { func } => write!(f, "call f{}", func.0),
            InstKind::Nop => write!(f, "nop"),
        }
    }
}

/// A block terminator. Control flow only leaves a basic block here, which
/// is what makes the CFG-patching in [`crate::program`] well defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch on the current flags.
    Br {
        /// Branch condition.
        cond: Cond,
        /// Target when the condition holds.
        then_: BlockId,
        /// Target when it does not.
        else_: BlockId,
    },
    /// Return from the current function.
    Ret,
    /// Stop the whole program.
    Halt,
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(b) => vec![*b],
            Terminator::Br { then_, else_, .. } => vec![*then_, *else_],
            Terminator::Ret | Terminator::Halt => vec![],
        }
    }

    /// Rewrite successor ids through `f` (used by the block patcher).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jmp(b) => *b = f(*b),
            Terminator::Br { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            _ => {}
        }
    }
}

/// The accounting of an instruction that stands in for a longer path.
///
/// The rewriter leaves a candidate that no replaced value can reach
/// *bare*: the original instruction, with no snippet. A run of the
/// rewritten program still reports the accounting of the snippet the
/// candidate would have had, so a bare instruction carries the path
/// that snippet takes when none of its inputs is flagged, and every
/// engine charges that path instead of the instruction itself: its
/// steps, its cycles under the run's cost model, and its fp-ops. The
/// instruction's own execution (its result, its traps) is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// The instructions on the path, in execution order.
    pub path: Vec<InstKind>,
    /// The block terminators the path passes.
    pub terminators: u32,
}

impl Charge {
    /// Steps charged per execution: instructions and terminators.
    pub fn steps(&self) -> u64 {
        self.path.len() as u64 + u64::from(self.terminators)
    }

    /// Dynamic fp-ops charged per execution.
    pub fn fp_ops(&self) -> u64 {
        self.path.iter().filter(|k| k.is_fp_op()).count() as u64
    }

    /// Modelled cycles charged per execution under `cost`.
    pub fn cycles(&self, cost: &crate::CostModel) -> u64 {
        self.path.iter().map(|k| cost.cost(k)).sum()
    }
}

/// An instruction with its stable identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Insn {
    /// Stable id (preserved across patching for original instructions).
    pub id: InsnId,
    /// Synthetic code address, analogous to the instruction addresses in
    /// the paper's configuration files (Fig. 3).
    pub addr: u64,
    /// For snippet-generated instructions: the original instruction this
    /// snippet implements. `None` for original program instructions.
    pub origin: Option<InsnId>,
    /// The operation.
    pub kind: InstKind,
    /// For a bare candidate: the snippet path it is accounted as.
    /// `None` for every other instruction, which is accounted as itself.
    pub charge: Option<std::sync::Arc<Charge>>,
}

impl Insn {
    /// Steps one execution is charged: 1, or its charge's path.
    pub fn steps(&self) -> u64 {
        self.charge.as_ref().map_or(1, |c| c.steps())
    }

    /// Instructions one execution is charged, terminators excluded: 1,
    /// or the instructions of its charge's path.
    pub fn dispatches(&self) -> u64 {
        self.charge.as_ref().map_or(1, |c| c.path.len() as u64)
    }

    /// Dynamic fp-ops one execution is charged.
    pub fn fp_ops(&self) -> u64 {
        self.charge.as_ref().map_or(self.kind.is_fp_op() as u64, |c| c.fp_ops())
    }

    /// Modelled cycles one execution is charged under `cost`.
    pub fn cycles(&self, cost: &crate::CostModel) -> u64 {
        self.charge.as_ref().map_or_else(|| cost.cost(&self.kind), |c| c.cycles(cost))
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x} \"{}\"", self.addr, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disasm_matches_att_syntax() {
        let k = InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        };
        assert_eq!(k.to_string(), "addsd %xmm1, %xmm0");
        let k = InstKind::FpArith {
            op: FpAluOp::Mul,
            prec: Prec::Single,
            packed: true,
            dst: Xmm(2),
            src: RM::Mem(MemRef::base_disp(Gpr::RAX, 16)),
        };
        assert_eq!(k.to_string(), "mulps 0x10(%rax), %xmm2");
    }

    #[test]
    fn candidate_classification() {
        let add_d = InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        };
        assert!(add_d.is_candidate());
        let add_s = InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Single,
            packed: false,
            dst: Xmm(0),
            src: RM::Reg(Xmm(1)),
        };
        assert!(!add_s.is_candidate());
        let mov =
            InstKind::MovF { width: Width::W64, dst: FpLoc::Reg(Xmm(0)), src: FpLoc::Reg(Xmm(1)) };
        assert!(!mov.is_candidate());
        // int->fp conversions produce fresh doubles; not candidates.
        let cvt = InstKind::CvtI2F { to: Prec::Double, dst: Xmm(0), src: GMI::Reg(Gpr::RAX) };
        assert!(!cvt.is_candidate());
        assert!(cvt.is_fp_op());
    }

    #[test]
    fn terminator_successor_mapping() {
        let mut t = Terminator::Br { cond: Cond::Eq, then_: BlockId(1), else_: BlockId(2) };
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn memref_display() {
        assert_eq!(MemRef::abs(0x40).to_string(), "0x40");
        assert_eq!(MemRef::base_disp(Gpr::RSP, -8).to_string(), "-0x8(%rsp)");
        assert_eq!(MemRef::base_index(Gpr::RAX, Gpr::RBX, 8, 0).to_string(), "(%rax,%rbx,8)");
    }
}

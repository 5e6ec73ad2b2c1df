//! The compiled execution backend: threaded code + fused superinstructions.
//!
//! Code is lowered in one place, [`Chunk`]: a run of whole blocks, bound
//! and scheduled relative to its own start, with branch and call targets
//! left symbolic. A [`Linker`] assembles a [`CompiledImage`] from chunks
//! by copying and relocating them. [`CompiledImage::compile`] lowers a
//! [`Program`] (via the pre-decoded [`ExecImage`]) as one chunk; the
//! instrumentation rewriter keeps chunks per instrumented block and links
//! each configuration's image from them. An image has two cooperating
//! tiers:
//!
//! * **Threaded tier** — every op is bound at compile time to a
//!   *specialized handler function*, monomorphized per op kind ×
//!   precision × operand shape (register/absolute/base/base+index/…, ALU
//!   operation, branch condition). Operand fields are baked into a flat
//!   `CInst` record, and dispatch is one indirect call per op — no
//!   operand-form matching in the hot loop at all.
//! * **Fused tier** — maximal straight-line *regions* (runs of non-control
//!   ops ending in their control op) are recognized at compile time.
//!   Step/cycle/fp accounting is batched per region (one fuel check and
//!   three counter adds per region instead of per op), and the [`Idiom`]s
//!   execute as single fused *superinstruction kernels* with intermediate
//!   values kept in locals. Two families are recognized: idioms of
//!   original code (load→arith, arith→store, load→arith→store,
//!   compare→branch, add→compare→branch loop latches), and the fixed
//!   sequences the snippet emitter wraps around every replaced
//!   instruction (the input flag test and its branch, the output
//!   set-flag, and the scratch save and restore pairs), which make up
//!   most of the steps of an instrumented run. Anything unrecognized runs
//!   through a generic span kernel that chains the threaded handlers, so
//!   the fused tier is total.
//!
//! Both tiers are required to be **bit-identical** to the reference
//! interpreter [`Vm::run`]: same result (including the exact trap and
//! trapping instruction id), same [`RunStats`](crate::interp::RunStats),
//! same final machine state, same profile. `tests/exec_differential.rs`
//! proves this differentially on random and instrumented programs.
//!
//! **Observer contract**: value observers
//! ([`Observer::FP_EVENTS`], [`Observer::FP_RESULTS`]) run on the
//! threaded tier through [`Vm::run_observed`], their one entry point.
//! The loop is generic over the observer: with `()` it is the plain loop
//! the fused tier falls back to; with an observer, an op whose hook
//! fires goes through one observed step, a single `match` on a per-op
//! tag bound from the decoded op. The scalar value ops (arith, sqrt,
//! math) read their operands once and run the semantic functions their
//! handlers share; every other op reads what it overwrites, runs its
//! bound handler and reads back the rest; then the hooks fire, in the
//! order `tests/observer_stream.rs` pins. The fused tier exposes no
//! per-operation values and takes no observer. The VM's own
//! `profile: true` option stays on the fused tier: a region is
//! straight-line code, so each op's count is its region's entry count,
//! plus the exact prefix when a trap leaves the region early, plus its
//! per-op count in any threaded fallback. One counter add per region
//! entry replaces a profile bump per op, and the
//! counters expand into the [`Profile`](crate::Profile) when the run ends.

use crate::cost::CostModel;
use crate::exec::{AddrD, ExecImage, ExecOp, FpEvent, FpLocD, FpLocV, GmiD, Observer, OpK, RmD};
use crate::interp::{RunOutcome, Vm};
use crate::isa::{BlockId, Cond, FpAluOp, FuncId, Gpr, Insn, InsnId, IntOp, MathFun, Terminator};
use crate::program::Program;
use crate::trap::Trap;
use std::marker::PhantomData;

/// Which execution engine runs a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The reference tree-walking interpreter ([`Vm::run`]).
    Interp,
    /// The compiled backend ([`Vm::run_compiled`]): threaded code with
    /// fused superinstruction regions.
    #[default]
    Compiled,
}

impl Backend {
    /// Parse a backend name as used by `--backend=` CLI flags.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "interp" => Some(Backend::Interp),
            "compiled" => Some(Backend::Compiled),
            _ => None,
        }
    }

    /// The stable name of this backend (`interp`/`compiled`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A specialized op handler: executes one op's architectural effect and
/// returns the next pc (`u32::MAX` = halt). Accounting (fuel, steps,
/// cycles, fp, profile) is the caller's job, so the same handlers serve
/// the threaded loop, the fused span kernels, and the single-step
/// fallback identically.
pub(crate) type Handler = for<'p> fn(&mut Vm<'p>, &CInst, &mut Vec<u32>, u32) -> Result<u32, Trap>;

// Operand address-mode tags, kept in `CInst` for the fused kernels (the
// threaded handlers have the mode baked into their monomorphization and
// never read these).
const M_ABS: u8 = 0;
const M_BASE: u8 = 1;
const M_BIDX: u8 = 2;
const M_IDX: u8 = 3;
const M_REG: u8 = 4;
const M_IMM: u8 = 5;

/// One compiled instruction: a flat, fixed-size record with the bound
/// handler and all operand fields pre-resolved at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CInst {
    pub(crate) run: Handler,
    /// Destination / left-hand register index (GPR or XMM, per op).
    pub(crate) a: u8,
    /// Source register index (GPR or XMM, per op).
    pub(crate) b: u8,
    /// Source operand mode tag (`M_*`), for fused kernels.
    pub(crate) s_mode: u8,
    pub(crate) s_base: u8,
    pub(crate) s_index: u8,
    pub(crate) s_scale: u8,
    /// Destination memory operand mode tag (`M_*`).
    pub(crate) d_mode: u8,
    pub(crate) d_base: u8,
    pub(crate) d_index: u8,
    pub(crate) d_scale: u8,
    /// Raw discriminant of the op's ALU operation / math function /
    /// branch condition, for fused kernels and observed runs.
    pub(crate) aux: u8,
    /// What an observed run reports for the op, and whether it counts as
    /// a dynamic fp-op ([`Hook::is_fp`]).
    pub(crate) hook: Hook,
    pub(crate) id: InsnId,
    pub(crate) s_disp: i64,
    pub(crate) d_disp: i64,
    /// Immediate operand (also the `PExtrQ`/`PInsrQ` lane shift).
    pub(crate) imm: i64,
    /// Primary control target (jump target, branch-then, call entry).
    pub(crate) t0: u32,
    /// Secondary control target (branch-else).
    pub(crate) t1: u32,
    /// Pre-computed cycle charge.
    pub(crate) cost: u32,
    /// Steps charged per execution (1, or a bare candidate's path).
    pub(crate) steps: u16,
    /// Dynamic fp-ops charged per execution.
    pub(crate) fp: u16,
}

fn set_s(i: &mut CInst, a: &AddrD) -> u8 {
    match a {
        AddrD::Abs(d) => {
            i.s_disp = *d as i64;
            i.s_mode = M_ABS;
        }
        AddrD::Base { base, disp } => {
            i.s_base = *base;
            i.s_disp = *disp;
            i.s_mode = M_BASE;
        }
        AddrD::BaseIdx { base, index, scale, disp } => {
            i.s_base = *base;
            i.s_index = *index;
            i.s_scale = *scale;
            i.s_disp = *disp;
            i.s_mode = M_BIDX;
        }
        AddrD::Idx { index, scale, disp } => {
            i.s_index = *index;
            i.s_scale = *scale;
            i.s_disp = *disp;
            i.s_mode = M_IDX;
        }
    }
    i.s_mode
}

fn set_d(i: &mut CInst, a: &AddrD) -> u8 {
    match a {
        AddrD::Abs(d) => {
            i.d_disp = *d as i64;
            i.d_mode = M_ABS;
        }
        AddrD::Base { base, disp } => {
            i.d_base = *base;
            i.d_disp = *disp;
            i.d_mode = M_BASE;
        }
        AddrD::BaseIdx { base, index, scale, disp } => {
            i.d_base = *base;
            i.d_index = *index;
            i.d_scale = *scale;
            i.d_disp = *disp;
            i.d_mode = M_BIDX;
        }
        AddrD::Idx { index, scale, disp } => {
            i.d_index = *index;
            i.d_scale = *scale;
            i.d_disp = *disp;
            i.d_mode = M_IDX;
        }
    }
    i.d_mode
}

// ---------------------------------------------------------------------------
// ZST operand shapes: each combination monomorphizes a handler with the
// address computation and operand access baked in.
// ---------------------------------------------------------------------------

/// Effective-address computation, specialized per address mode. Must match
/// `Vm::mem_addr` bit-for-bit (wrapping arithmetic throughout).
pub(crate) trait Ea {
    fn ea(vm: &Vm<'_>, base: u8, index: u8, scale: u8, disp: i64) -> u64;
}

pub(crate) struct EAbs;
pub(crate) struct EBase;
pub(crate) struct EBaseIdx;
pub(crate) struct EIdx;

impl Ea for EAbs {
    #[inline(always)]
    fn ea(_vm: &Vm<'_>, _b: u8, _i: u8, _s: u8, disp: i64) -> u64 {
        disp as u64
    }
}

impl Ea for EBase {
    #[inline(always)]
    fn ea(vm: &Vm<'_>, b: u8, _i: u8, _s: u8, disp: i64) -> u64 {
        vm.gpr[b as usize].wrapping_add(disp as u64)
    }
}

impl Ea for EBaseIdx {
    #[inline(always)]
    fn ea(vm: &Vm<'_>, b: u8, i: u8, s: u8, disp: i64) -> u64 {
        vm.gpr[b as usize]
            .wrapping_add(vm.gpr[i as usize].wrapping_mul(s as u64))
            .wrapping_add(disp as u64)
    }
}

impl Ea for EIdx {
    #[inline(always)]
    fn ea(vm: &Vm<'_>, _b: u8, i: u8, s: u8, disp: i64) -> u64 {
        vm.gpr[i as usize].wrapping_mul(s as u64).wrapping_add(disp as u64)
    }
}

/// XMM-or-memory source operand (the pre-decoded `RmD` shape).
pub(crate) trait XS {
    fn lo64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap>;
    fn lo32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap>;
    fn full(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap>;
}

pub(crate) struct XsReg;
pub(crate) struct XsMem<A: Ea>(PhantomData<A>);

impl XS for XsReg {
    #[inline(always)]
    fn lo64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        Ok(vm.xmm[i.b as usize] as u64)
    }
    #[inline(always)]
    fn lo32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap> {
        Ok(vm.xmm[i.b as usize] as u32)
    }
    #[inline(always)]
    fn full(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap> {
        Ok(vm.xmm[i.b as usize])
    }
}

impl<A: Ea> XS for XsMem<A> {
    #[inline(always)]
    fn lo64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        vm.mem.load_u64(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
    #[inline(always)]
    fn lo32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap> {
        vm.mem.load_u32(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
    #[inline(always)]
    fn full(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap> {
        vm.mem.load_u128(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
}

/// GPR/memory/immediate source operand (the pre-decoded `GmiD` shape).
pub(crate) trait GS {
    fn val(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap>;
}

pub(crate) struct GsReg;
pub(crate) struct GsImm;
pub(crate) struct GsMem<A: Ea>(PhantomData<A>);

impl GS for GsReg {
    #[inline(always)]
    fn val(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        Ok(vm.gpr[i.b as usize])
    }
}

impl GS for GsImm {
    #[inline(always)]
    fn val(_vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        Ok(i.imm as u64)
    }
}

impl<A: Ea> GS for GsMem<A> {
    #[inline(always)]
    fn val(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        vm.mem.load_u64(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
}

/// FP-move source (XMM register or memory, all three widths).
pub(crate) trait FSrc {
    fn g32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap>;
    fn g64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap>;
    fn g128(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap>;
}

pub(crate) struct FsReg;
pub(crate) struct FsMem<A: Ea>(PhantomData<A>);

impl FSrc for FsReg {
    #[inline(always)]
    fn g32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap> {
        Ok(vm.xmm[i.b as usize] as u32)
    }
    #[inline(always)]
    fn g64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        Ok(vm.xmm[i.b as usize] as u64)
    }
    #[inline(always)]
    fn g128(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap> {
        Ok(vm.xmm[i.b as usize])
    }
}

impl<A: Ea> FSrc for FsMem<A> {
    #[inline(always)]
    fn g32(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap> {
        vm.mem.load_u32(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
    #[inline(always)]
    fn g64(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
        vm.mem.load_u64(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
    #[inline(always)]
    fn g128(vm: &Vm<'_>, i: &CInst) -> Result<u128, Trap> {
        vm.mem.load_u128(A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp))
    }
}

/// FP-move destination (XMM register or memory, all three widths).
pub(crate) trait FDst {
    fn p32(vm: &mut Vm<'_>, i: &CInst, v: u32) -> Result<(), Trap>;
    fn p64(vm: &mut Vm<'_>, i: &CInst, v: u64) -> Result<(), Trap>;
    fn p128(vm: &mut Vm<'_>, i: &CInst, v: u128) -> Result<(), Trap>;
}

pub(crate) struct FdReg;
pub(crate) struct FdMem<A: Ea>(PhantomData<A>);

impl FDst for FdReg {
    #[inline(always)]
    fn p32(vm: &mut Vm<'_>, i: &CInst, v: u32) -> Result<(), Trap> {
        vm.set_lo32(i.a, v);
        Ok(())
    }
    #[inline(always)]
    fn p64(vm: &mut Vm<'_>, i: &CInst, v: u64) -> Result<(), Trap> {
        vm.set_lo64(i.a, v);
        Ok(())
    }
    #[inline(always)]
    fn p128(vm: &mut Vm<'_>, i: &CInst, v: u128) -> Result<(), Trap> {
        vm.xmm[i.a as usize] = v;
        Ok(())
    }
}

impl<A: Ea> FDst for FdMem<A> {
    #[inline(always)]
    fn p32(vm: &mut Vm<'_>, i: &CInst, v: u32) -> Result<(), Trap> {
        vm.mem.store_u32(A::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp), v)
    }
    #[inline(always)]
    fn p64(vm: &mut Vm<'_>, i: &CInst, v: u64) -> Result<(), Trap> {
        vm.mem.store_u64(A::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp), v)
    }
    #[inline(always)]
    fn p128(vm: &mut Vm<'_>, i: &CInst, v: u128) -> Result<(), Trap> {
        vm.mem.store_u128(A::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp), v)
    }
}

// ---------------------------------------------------------------------------
// ZST operation selectors: the handler calls the interpreter's own
// semantic function with a *constant* discriminant, so the compiler folds
// the inner match away while the semantics stay shared (and therefore
// identical) by construction.
// ---------------------------------------------------------------------------

pub(crate) trait AluSel {
    const OP: FpAluOp;
}
pub(crate) trait MathSel {
    const FUN: MathFun;
}
pub(crate) trait IntSel {
    const OP: IntOp;
}
pub(crate) trait CondSel {
    const C: Cond;
}

macro_rules! sel {
    ($tr:ident, $assoc:ident, $ty:ident, $($z:ident => $v:ident),+ $(,)?) => {
        $(pub(crate) struct $z;
        impl $tr for $z {
            const $assoc: $ty = $ty::$v;
        })+
    };
}

sel!(AluSel, OP, FpAluOp, OAdd => Add, OSub => Sub, OMul => Mul, ODiv => Div, OMin => Min, OMax => Max);
sel!(MathSel, FUN, MathFun, MSin => Sin, MCos => Cos, MExp => Exp, MLog => Log, MAbs => Abs, MNeg => Neg);
sel!(
    IntSel, OP, IntOp,
    IAdd => Add, ISub => Sub, IMul => Mul, IDiv => Div, IRem => Rem,
    IAnd => And, IOr => Or, IXor => Xor, IShl => Shl, IShr => Shr, ISar => Sar,
);
sel!(
    CondSel, C, Cond,
    CEq => Eq, CNe => Ne, CLt => Lt, CLe => Le, CGt => Gt, CGe => Ge,
    CB => Below, CBe => BelowEq, CA => Above, CAe => AboveEq, CU => Unordered, CO => Ordered,
);

// Register and flag writes shared by the handlers and the kernels.
impl Vm<'_> {
    #[inline(always)]
    fn set_lo64(&mut self, x: u8, v: u64) {
        let r = &mut self.xmm[x as usize];
        *r = (*r & !(u128::from(u64::MAX))) | u128::from(v);
    }

    #[inline(always)]
    fn set_lo32(&mut self, x: u8, v: u32) {
        let r = &mut self.xmm[x as usize];
        *r = (*r & !(u128::from(u32::MAX))) | u128::from(v);
    }

    #[inline(always)]
    fn set_ucomi_flags(&mut self, a: f64, b: f64, unordered: bool) {
        self.flags = if unordered {
            crate::interp::Flags { eq: true, lt: false, ult: true, unordered: true }
        } else {
            crate::interp::Flags { eq: a == b, lt: a < b, ult: a < b, unordered: false }
        };
    }

    #[inline(always)]
    fn set_cmp_flags(&mut self, a: u64, b: u64) {
        self.flags = crate::interp::Flags {
            eq: a == b,
            lt: (a as i64) < (b as i64),
            ult: a < b,
            unordered: false,
        };
    }

    #[inline(always)]
    fn set_test_flags(&mut self, r: u64) {
        self.flags =
            crate::interp::Flags { eq: r == 0, lt: (r as i64) < 0, ult: false, unordered: false };
    }
}

/// Shared integer-ALU semantics (identical to the interpreter's match,
/// including the div/rem trap conditions).
#[inline(always)]
fn int_alu(op: IntOp, a: u64, b: u64) -> Result<u64, Trap> {
    Ok(match op {
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
    })
}

// ---------------------------------------------------------------------------
// Threaded-tier handlers. Each follows the reference interpreter's arm
// exactly (same read order, same trap points, same writes); only the
// operand decoding has been moved to compile time.
// ---------------------------------------------------------------------------

// Scalar-double semantics once the operands are read, flag checks
// included: shared by the handlers, the fused kernels and observed runs.

/// `dst ← op(a, b)` on the low lane.
#[inline(always)]
fn arith_f64(
    vm: &mut Vm<'_>,
    op: FpAluOp,
    dst: u8,
    a: u64,
    b: u64,
    id: InsnId,
) -> Result<f64, Trap> {
    vm.check_flag64(a, id)?;
    vm.check_flag64(b, id)?;
    let r = Vm::fp_alu_f64(op, f64::from_bits(a), f64::from_bits(b));
    vm.set_lo64(dst, r.to_bits());
    Ok(r)
}

/// `dst ← f(b)` on the low lane.
#[inline(always)]
fn unary_f64(
    vm: &mut Vm<'_>,
    dst: u8,
    b: u64,
    id: InsnId,
    f: impl FnOnce(f64) -> f64,
) -> Result<f64, Trap> {
    vm.check_flag64(b, id)?;
    let r = f(f64::from_bits(b));
    vm.set_lo64(dst, r.to_bits());
    Ok(r)
}

fn h_arith_f64<O: AluSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize] as u64;
    let b = S::lo64(vm, i)?;
    arith_f64(vm, O::OP, i.a, a, b, i.id)?;
    Ok(pc + 1)
}

fn h_arith_f32<O: AluSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize] as u32;
    let b = S::lo32(vm, i)?;
    let r = Vm::fp_alu_f32(O::OP, f32::from_bits(a), f32::from_bits(b));
    vm.set_lo32(i.a, r.to_bits());
    Ok(pc + 1)
}

fn h_arith_pd<O: AluSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize];
    let b = S::full(vm, i)?;
    let mut out = 0u128;
    for lane in 0..2 {
        let ab = (a >> (64 * lane)) as u64;
        let bb = (b >> (64 * lane)) as u64;
        vm.check_flag64(ab, i.id)?;
        vm.check_flag64(bb, i.id)?;
        let r = Vm::fp_alu_f64(O::OP, f64::from_bits(ab), f64::from_bits(bb));
        out |= u128::from(r.to_bits()) << (64 * lane);
    }
    vm.xmm[i.a as usize] = out;
    Ok(pc + 1)
}

fn h_arith_ps<O: AluSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize];
    let b = S::full(vm, i)?;
    let mut out = 0u128;
    for lane in 0..4 {
        let ab = (a >> (32 * lane)) as u32;
        let bb = (b >> (32 * lane)) as u32;
        let r = Vm::fp_alu_f32(O::OP, f32::from_bits(ab), f32::from_bits(bb));
        out |= u128::from(r.to_bits()) << (32 * lane);
    }
    vm.xmm[i.a as usize] = out;
    Ok(pc + 1)
}

fn h_sqrt_f64<S: XS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let b = S::lo64(vm, i)?;
    unary_f64(vm, i.a, b, i.id, f64::sqrt)?;
    Ok(pc + 1)
}

fn h_sqrt_f32<S: XS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let b = S::lo32(vm, i)?;
    vm.set_lo32(i.a, f32::from_bits(b).sqrt().to_bits());
    Ok(pc + 1)
}

fn h_sqrt_pd<S: XS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let b = S::full(vm, i)?;
    let mut out = 0u128;
    for lane in 0..2 {
        let bb = (b >> (64 * lane)) as u64;
        vm.check_flag64(bb, i.id)?;
        out |= u128::from(f64::from_bits(bb).sqrt().to_bits()) << (64 * lane);
    }
    vm.xmm[i.a as usize] = out;
    Ok(pc + 1)
}

fn h_sqrt_ps<S: XS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let b = S::full(vm, i)?;
    let mut out = 0u128;
    for lane in 0..4 {
        let bb = (b >> (32 * lane)) as u32;
        out |= u128::from(f32::from_bits(bb).sqrt().to_bits()) << (32 * lane);
    }
    vm.xmm[i.a as usize] = out;
    Ok(pc + 1)
}

fn h_math_f64<M: MathSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo64(vm, i)?;
    unary_f64(vm, i.a, b, i.id, |x| Vm::math_f64(M::FUN, x))?;
    Ok(pc + 1)
}

fn h_math_f32<M: MathSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo32(vm, i)?;
    vm.set_lo32(i.a, Vm::math_f32(M::FUN, f32::from_bits(b)).to_bits());
    Ok(pc + 1)
}

fn h_ucomi_f64<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize] as u64;
    let b = S::lo64(vm, i)?;
    vm.check_flag64(a, i.id)?;
    vm.check_flag64(b, i.id)?;
    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
    vm.set_ucomi_flags(fa, fb, fa.is_nan() || fb.is_nan());
    Ok(pc + 1)
}

fn h_ucomi_f32<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = f32::from_bits(vm.xmm[i.a as usize] as u32);
    let b = f32::from_bits(S::lo32(vm, i)?);
    vm.set_ucomi_flags(a as f64, b as f64, a.is_nan() || b.is_nan());
    Ok(pc + 1)
}

fn h_cvt_to_f32<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo64(vm, i)?;
    vm.check_flag64(b, i.id)?;
    vm.set_lo32(i.a, (f64::from_bits(b) as f32).to_bits());
    Ok(pc + 1)
}

fn h_cvt_to_f64<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo32(vm, i)?;
    vm.set_lo64(i.a, (f32::from_bits(b) as f64).to_bits());
    Ok(pc + 1)
}

fn h_cvt_i2f64<G: GS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = G::val(vm, i)? as i64;
    vm.set_lo64(i.a, (v as f64).to_bits());
    Ok(pc + 1)
}

fn h_cvt_i2f32<G: GS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = G::val(vm, i)? as i64;
    vm.set_lo32(i.a, (v as f32).to_bits());
    Ok(pc + 1)
}

fn h_cvt_f64_to_i<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo64(vm, i)?;
    vm.check_flag64(b, i.id)?;
    vm.gpr[i.a as usize] = (f64::from_bits(b) as i64) as u64;
    Ok(pc + 1)
}

fn h_cvt_f32_to_i<S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let b = S::lo32(vm, i)?;
    vm.gpr[i.a as usize] = (f32::from_bits(b) as i64) as u64;
    Ok(pc + 1)
}

fn h_mov32<S: FSrc, D: FDst>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = S::g32(vm, i)?;
    D::p32(vm, i, v)?;
    Ok(pc + 1)
}

fn h_mov64<S: FSrc, D: FDst>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = S::g64(vm, i)?;
    D::p64(vm, i, v)?;
    Ok(pc + 1)
}

fn h_mov128<S: FSrc, D: FDst>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = S::g128(vm, i)?;
    D::p128(vm, i, v)?;
    Ok(pc + 1)
}

// Lane moves and stack ops, shared by their handlers and the snippet
// kernels so both run one definition.

#[inline(always)]
fn pextrq(vm: &mut Vm<'_>, i: &CInst) {
    vm.gpr[i.a as usize] = (vm.xmm[i.b as usize] >> (i.imm as u32)) as u64;
}

#[inline(always)]
fn pinsrq(vm: &mut Vm<'_>, i: &CInst) {
    let sh = i.imm as u32;
    let v = vm.gpr[i.b as usize];
    let r = &mut vm.xmm[i.a as usize];
    *r = (*r & !(u128::from(u64::MAX) << sh)) | (u128::from(v) << sh);
}

#[inline(always)]
fn push(vm: &mut Vm<'_>, i: &CInst) -> Result<(), Trap> {
    let rsp = vm.gpr[Gpr::RSP.0 as usize].wrapping_sub(8);
    vm.mem.store_u64(rsp, vm.gpr[i.b as usize])?;
    vm.gpr[Gpr::RSP.0 as usize] = rsp;
    Ok(())
}

#[inline(always)]
fn pop(vm: &mut Vm<'_>, i: &CInst) -> Result<(), Trap> {
    let rsp = vm.gpr[Gpr::RSP.0 as usize];
    let v = vm.mem.load_u64(rsp)?;
    vm.gpr[i.a as usize] = v;
    vm.gpr[Gpr::RSP.0 as usize] = rsp.wrapping_add(8);
    Ok(())
}

fn h_pextrq(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    pextrq(vm, i);
    Ok(pc + 1)
}

fn h_pinsrq(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    pinsrq(vm, i);
    Ok(pc + 1)
}

fn h_fptrunc(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let sh = i.imm as u32;
    let slot = (vm.xmm[i.a as usize] >> sh) as u64;
    let q = crate::value::quantize_f32_bits(slot as u32, i.b as u32, i.aux as u32);
    let r = &mut vm.xmm[i.a as usize];
    *r = (*r & !(u128::from(u64::MAX) << sh))
        | (u128::from(crate::value::FLAG_HI64 | q as u64) << sh);
    Ok(pc + 1)
}

fn h_int_alu<I: IntSel, G: GS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.gpr[i.a as usize];
    let b = G::val(vm, i)?;
    vm.gpr[i.a as usize] = int_alu(I::OP, a, b)?;
    Ok(pc + 1)
}

fn h_mov_ir<G: GS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    vm.gpr[i.a as usize] = G::val(vm, i)?;
    Ok(pc + 1)
}

fn h_mov_im<A: Ea, G: GS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let v = G::val(vm, i)?;
    vm.mem.store_u64(A::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp), v)?;
    Ok(pc + 1)
}

fn h_cmp<G: GS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let a = vm.gpr[i.a as usize];
    let b = G::val(vm, i)?;
    vm.set_cmp_flags(a, b);
    Ok(pc + 1)
}

fn h_test<G: GS>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    let r = vm.gpr[i.a as usize] & G::val(vm, i)?;
    vm.set_test_flags(r);
    Ok(pc + 1)
}

fn h_lea<A: Ea>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    vm.gpr[i.a as usize] = A::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp);
    Ok(pc + 1)
}

fn h_push(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    push(vm, i)?;
    Ok(pc + 1)
}

fn h_pop(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    pop(vm, i)?;
    Ok(pc + 1)
}

fn h_call(vm: &mut Vm<'_>, i: &CInst, rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    if rs.len() >= vm.opts.max_call_depth {
        return Err(Trap::CallDepth);
    }
    if i.t0 == u32::MAX {
        return Err(Trap::NoEntry);
    }
    rs.push(pc + 1);
    Ok(i.t0)
}

fn h_nop(_vm: &mut Vm<'_>, _i: &CInst, _rs: &mut Vec<u32>, pc: u32) -> Result<u32, Trap> {
    Ok(pc + 1)
}

fn h_jmp(_vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, _pc: u32) -> Result<u32, Trap> {
    Ok(i.t0)
}

fn h_br<C: CondSel>(vm: &mut Vm<'_>, i: &CInst, _rs: &mut Vec<u32>, _pc: u32) -> Result<u32, Trap> {
    Ok(if vm.cond_holds(C::C) { i.t0 } else { i.t1 })
}

fn h_ret(_vm: &mut Vm<'_>, _i: &CInst, rs: &mut Vec<u32>, _pc: u32) -> Result<u32, Trap> {
    match rs.pop() {
        Some(r) => Ok(r),
        None => Err(Trap::ReturnFromEntry),
    }
}

fn h_halt(_vm: &mut Vm<'_>, _i: &CInst, _rs: &mut Vec<u32>, _pc: u32) -> Result<u32, Trap> {
    Ok(u32::MAX)
}

// ---------------------------------------------------------------------------
// Binding: pick the monomorphized handler for a decoded op and bake its
// operands into the `CInst`. The macros fan out over operand shapes;
// every arm yields a `Handler`.
// ---------------------------------------------------------------------------

macro_rules! xsrc {
    ($i:expr, $src:expr, $h:ident $(, $g:ty)*) => {
        match $src {
            RmD::Reg(x) => {
                $i.b = *x;
                $i.s_mode = M_REG;
                $h::<$($g,)* XsReg> as Handler
            }
            RmD::Mem(m) => match set_s(&mut $i, m) {
                M_ABS => $h::<$($g,)* XsMem<EAbs>> as Handler,
                M_BASE => $h::<$($g,)* XsMem<EBase>> as Handler,
                M_BIDX => $h::<$($g,)* XsMem<EBaseIdx>> as Handler,
                _ => $h::<$($g,)* XsMem<EIdx>> as Handler,
            },
        }
    };
}

macro_rules! gsrc {
    ($i:expr, $src:expr, $h:ident $(, $g:ty)*) => {
        match $src {
            GmiD::Reg(r) => {
                $i.b = *r;
                $i.s_mode = M_REG;
                $h::<$($g,)* GsReg> as Handler
            }
            GmiD::Imm(v) => {
                $i.imm = *v;
                $i.s_mode = M_IMM;
                $h::<$($g,)* GsImm> as Handler
            }
            GmiD::Mem(m) => match set_s(&mut $i, m) {
                M_ABS => $h::<$($g,)* GsMem<EAbs>> as Handler,
                M_BASE => $h::<$($g,)* GsMem<EBase>> as Handler,
                M_BIDX => $h::<$($g,)* GsMem<EBaseIdx>> as Handler,
                _ => $h::<$($g,)* GsMem<EIdx>> as Handler,
            },
        }
    };
}

macro_rules! alu {
    ($i:expr, $op:expr, $src:expr, $h:ident) => {
        match $op {
            FpAluOp::Add => xsrc!($i, $src, $h, OAdd),
            FpAluOp::Sub => xsrc!($i, $src, $h, OSub),
            FpAluOp::Mul => xsrc!($i, $src, $h, OMul),
            FpAluOp::Div => xsrc!($i, $src, $h, ODiv),
            FpAluOp::Min => xsrc!($i, $src, $h, OMin),
            FpAluOp::Max => xsrc!($i, $src, $h, OMax),
        }
    };
}

macro_rules! mth {
    ($i:expr, $fun:expr, $src:expr, $h:ident) => {
        match $fun {
            MathFun::Sin => xsrc!($i, $src, $h, MSin),
            MathFun::Cos => xsrc!($i, $src, $h, MCos),
            MathFun::Exp => xsrc!($i, $src, $h, MExp),
            MathFun::Log => xsrc!($i, $src, $h, MLog),
            MathFun::Abs => xsrc!($i, $src, $h, MAbs),
            MathFun::Neg => xsrc!($i, $src, $h, MNeg),
        }
    };
}

macro_rules! itm {
    ($i:expr, $op:expr, $src:expr) => {
        match $op {
            IntOp::Add => gsrc!($i, $src, h_int_alu, IAdd),
            IntOp::Sub => gsrc!($i, $src, h_int_alu, ISub),
            IntOp::Mul => gsrc!($i, $src, h_int_alu, IMul),
            IntOp::Div => gsrc!($i, $src, h_int_alu, IDiv),
            IntOp::Rem => gsrc!($i, $src, h_int_alu, IRem),
            IntOp::And => gsrc!($i, $src, h_int_alu, IAnd),
            IntOp::Or => gsrc!($i, $src, h_int_alu, IOr),
            IntOp::Xor => gsrc!($i, $src, h_int_alu, IXor),
            IntOp::Shl => gsrc!($i, $src, h_int_alu, IShl),
            IntOp::Shr => gsrc!($i, $src, h_int_alu, IShr),
            IntOp::Sar => gsrc!($i, $src, h_int_alu, ISar),
        }
    };
}

macro_rules! cnd {
    ($cond:expr) => {
        match $cond {
            Cond::Eq => h_br::<CEq> as Handler,
            Cond::Ne => h_br::<CNe> as Handler,
            Cond::Lt => h_br::<CLt> as Handler,
            Cond::Le => h_br::<CLe> as Handler,
            Cond::Gt => h_br::<CGt> as Handler,
            Cond::Ge => h_br::<CGe> as Handler,
            Cond::Below => h_br::<CB> as Handler,
            Cond::BelowEq => h_br::<CBe> as Handler,
            Cond::Above => h_br::<CA> as Handler,
            Cond::AboveEq => h_br::<CAe> as Handler,
            Cond::Unordered => h_br::<CU> as Handler,
            Cond::Ordered => h_br::<CO> as Handler,
        }
    };
}

macro_rules! fdst {
    ($i:expr, $dst:expr, $h:ident, $s:ty) => {
        match $dst {
            FpLocD::Reg(x) => {
                $i.a = *x;
                $i.d_mode = M_REG;
                $h::<$s, FdReg> as Handler
            }
            FpLocD::Mem(m) => match set_d(&mut $i, m) {
                M_ABS => $h::<$s, FdMem<EAbs>> as Handler,
                M_BASE => $h::<$s, FdMem<EBase>> as Handler,
                M_BIDX => $h::<$s, FdMem<EBaseIdx>> as Handler,
                _ => $h::<$s, FdMem<EIdx>> as Handler,
            },
        }
    };
}

macro_rules! fmov {
    ($i:expr, $dst:expr, $src:expr, $h:ident) => {
        match $src {
            FpLocD::Reg(x) => {
                $i.b = *x;
                $i.s_mode = M_REG;
                fdst!($i, $dst, $h, FsReg)
            }
            FpLocD::Mem(m) => match set_s(&mut $i, m) {
                M_ABS => fdst!($i, $dst, $h, FsMem<EAbs>),
                M_BASE => fdst!($i, $dst, $h, FsMem<EBase>),
                M_BIDX => fdst!($i, $dst, $h, FsMem<EBaseIdx>),
                _ => fdst!($i, $dst, $h, FsMem<EIdx>),
            },
        }
    };
}

macro_rules! movim {
    ($i:expr, $dm:expr, $src:expr) => {
        match set_d(&mut $i, $dm) {
            M_ABS => gsrc!($i, $src, h_mov_im, EAbs),
            M_BASE => gsrc!($i, $src, h_mov_im, EBase),
            M_BIDX => gsrc!($i, $src, h_mov_im, EBaseIdx),
            _ => gsrc!($i, $src, h_mov_im, EIdx),
        }
    };
}

/// Lower one decoded op into a bound `CInst`.
fn bind(op: &ExecOp) -> CInst {
    let mut i = CInst {
        run: h_nop,
        a: 0,
        b: 0,
        s_mode: 0,
        s_base: 0,
        s_index: 0,
        s_scale: 0,
        d_mode: 0,
        d_base: 0,
        d_index: 0,
        d_scale: 0,
        aux: 0,
        hook: Hook::of(&op.kind),
        id: op.id,
        s_disp: 0,
        d_disp: 0,
        imm: 0,
        t0: 0,
        t1: 0,
        cost: u32::try_from(op.cost).expect("an op's cycle charge fits in u32"),
        steps: u16::try_from(op.steps).expect("an op's step charge fits in u16"),
        fp: u16::try_from(op.fp).expect("an op's fp-op charge fits in u16"),
    };
    debug_assert!(op.steps > 1 || i.hook.is_fp() == (op.fp == 1), "fp-ops of {:?}", op.kind);
    i.run = match &op.kind {
        OpK::ArithF64 { op: o, dst, src } => {
            i.a = *dst;
            i.aux = *o as u8;
            alu!(i, o, src, h_arith_f64)
        }
        OpK::ArithF32 { op: o, dst, src } => {
            i.a = *dst;
            i.aux = *o as u8;
            alu!(i, o, src, h_arith_f32)
        }
        OpK::ArithPd { op: o, dst, src } => {
            i.a = *dst;
            i.aux = *o as u8;
            alu!(i, o, src, h_arith_pd)
        }
        OpK::ArithPs { op: o, dst, src } => {
            i.a = *dst;
            i.aux = *o as u8;
            alu!(i, o, src, h_arith_ps)
        }
        OpK::SqrtF64 { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_sqrt_f64)
        }
        OpK::SqrtF32 { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_sqrt_f32)
        }
        OpK::SqrtPd { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_sqrt_pd)
        }
        OpK::SqrtPs { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_sqrt_ps)
        }
        OpK::MathF64 { fun, dst, src } => {
            i.a = *dst;
            i.aux = *fun as u8;
            mth!(i, fun, src, h_math_f64)
        }
        OpK::MathF32 { fun, dst, src } => {
            i.a = *dst;
            i.aux = *fun as u8;
            mth!(i, fun, src, h_math_f32)
        }
        OpK::UcomiF64 { lhs, src } => {
            i.a = *lhs;
            xsrc!(i, src, h_ucomi_f64)
        }
        OpK::UcomiF32 { lhs, src } => {
            i.a = *lhs;
            xsrc!(i, src, h_ucomi_f32)
        }
        OpK::CvtToF32 { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_cvt_to_f32)
        }
        OpK::CvtToF64 { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_cvt_to_f64)
        }
        OpK::CvtI2F64 { dst, src } => {
            i.a = *dst;
            gsrc!(i, src, h_cvt_i2f64)
        }
        OpK::CvtI2F32 { dst, src } => {
            i.a = *dst;
            gsrc!(i, src, h_cvt_i2f32)
        }
        OpK::CvtF64ToI { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_cvt_f64_to_i)
        }
        OpK::CvtF32ToI { dst, src } => {
            i.a = *dst;
            xsrc!(i, src, h_cvt_f32_to_i)
        }
        OpK::MovF32 { dst, src } => fmov!(i, dst, src, h_mov32),
        OpK::MovF64 { dst, src } => fmov!(i, dst, src, h_mov64),
        OpK::MovF128 { dst, src } => fmov!(i, dst, src, h_mov128),
        OpK::PExtrQ { dst, src, sh } => {
            i.a = *dst;
            i.b = *src;
            i.imm = *sh as i64;
            h_pextrq
        }
        OpK::PInsrQ { dst, src, sh } => {
            i.a = *dst;
            i.b = *src;
            i.imm = *sh as i64;
            h_pinsrq
        }
        OpK::FpTrunc { mant, exp, dst, sh } => {
            i.a = *dst;
            i.b = *mant;
            i.aux = *exp;
            i.imm = *sh as i64;
            h_fptrunc
        }
        OpK::IntAlu { op: o, dst, src } => {
            i.a = *dst;
            i.aux = *o as u8;
            itm!(i, o, src)
        }
        OpK::MovIR { dst, src } => {
            i.a = *dst;
            gsrc!(i, src, h_mov_ir)
        }
        OpK::MovIM { dst, src } => movim!(i, dst, src),
        OpK::Cmp { lhs, src } => {
            i.a = *lhs;
            gsrc!(i, src, h_cmp)
        }
        OpK::Test { lhs, src } => {
            i.a = *lhs;
            gsrc!(i, src, h_test)
        }
        OpK::Lea { dst, mem } => {
            i.a = *dst;
            match set_s(&mut i, mem) {
                M_ABS => h_lea::<EAbs> as Handler,
                M_BASE => h_lea::<EBase> as Handler,
                M_BIDX => h_lea::<EBaseIdx> as Handler,
                _ => h_lea::<EIdx> as Handler,
            }
        }
        OpK::Push { src } => {
            i.b = *src;
            h_push
        }
        OpK::Pop { dst } => {
            i.a = *dst;
            h_pop
        }
        OpK::Call { entry } => {
            i.t0 = *entry;
            h_call
        }
        OpK::Nop => h_nop,
        OpK::Jmp { target } => {
            i.t0 = *target;
            h_jmp
        }
        OpK::Br { cond, then_, else_ } => {
            i.t0 = *then_;
            i.t1 = *else_;
            i.aux = *cond as u8;
            cnd!(cond)
        }
        OpK::Ret => h_ret,
        OpK::Halt => h_halt,
    };
    i
}

// ---------------------------------------------------------------------------
// Fused superinstruction kernels. A kernel executes a *window* of
// consecutive `CInst`s as one call; accounting for the whole region is
// batched by the caller, so kernels only perform architectural effects.
// On a trap they report the index of the trapping constituent within the
// window so the caller can roll accounting back precisely.
// ---------------------------------------------------------------------------

/// A fused kernel over `window` (= `insts[base..base+len]`): returns the
/// next pc (non-final kernels return `base + len`), or the trapping
/// constituent's window index plus the trap.
pub(crate) type KHandler =
    for<'p> fn(&mut Vm<'p>, &mut Vec<u32>, &[CInst], u32) -> Result<u32, (u16, Trap)>;

#[inline(always)]
fn ea_s(vm: &Vm<'_>, i: &CInst) -> u64 {
    match i.s_mode {
        M_ABS => EAbs::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp),
        M_BASE => EBase::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp),
        M_BIDX => EBaseIdx::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp),
        _ => EIdx::ea(vm, i.s_base, i.s_index, i.s_scale, i.s_disp),
    }
}

#[inline(always)]
fn ea_d(vm: &Vm<'_>, i: &CInst) -> u64 {
    match i.d_mode {
        M_ABS => EAbs::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp),
        M_BASE => EBase::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp),
        M_BIDX => EBaseIdx::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp),
        _ => EIdx::ea(vm, i.d_base, i.d_index, i.d_scale, i.d_disp),
    }
}

/// Read an `RmD` source's low 64 bits via the runtime mode tag.
#[inline(always)]
fn rm64_s(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
    if i.s_mode == M_REG {
        Ok(vm.xmm[i.b as usize] as u64)
    } else {
        vm.mem.load_u64(ea_s(vm, i))
    }
}

/// Read an `RmD` source's low 32 bits via the runtime mode tag.
#[inline(always)]
fn rm32_s(vm: &Vm<'_>, i: &CInst) -> Result<u32, Trap> {
    if i.s_mode == M_REG {
        Ok(vm.xmm[i.b as usize] as u32)
    } else {
        vm.mem.load_u32(ea_s(vm, i))
    }
}

/// The observer location of a source operand.
#[inline(always)]
fn loc_s(vm: &Vm<'_>, i: &CInst) -> FpLocV {
    if i.s_mode == M_REG {
        FpLocV::Reg(i.b)
    } else {
        FpLocV::Mem(ea_s(vm, i))
    }
}

/// The observer location of an FP move's destination.
#[inline(always)]
fn loc_d(vm: &Vm<'_>, i: &CInst) -> FpLocV {
    if i.d_mode == M_REG {
        FpLocV::Reg(i.a)
    } else {
        FpLocV::Mem(ea_d(vm, i))
    }
}

/// Read a `GmiD` source via the runtime mode tag.
#[inline(always)]
fn gmi_s(vm: &Vm<'_>, i: &CInst) -> Result<u64, Trap> {
    match i.s_mode {
        M_REG => Ok(vm.gpr[i.b as usize]),
        M_IMM => Ok(i.imm as u64),
        _ => vm.mem.load_u64(ea_s(vm, i)),
    }
}

#[inline(always)]
fn alu_of(aux: u8) -> FpAluOp {
    match aux {
        0 => FpAluOp::Add,
        1 => FpAluOp::Sub,
        2 => FpAluOp::Mul,
        3 => FpAluOp::Div,
        4 => FpAluOp::Min,
        _ => FpAluOp::Max,
    }
}

#[inline(always)]
fn math_of(aux: u8) -> MathFun {
    match aux {
        0 => MathFun::Sin,
        1 => MathFun::Cos,
        2 => MathFun::Exp,
        3 => MathFun::Log,
        4 => MathFun::Abs,
        _ => MathFun::Neg,
    }
}

#[inline(always)]
fn int_of(aux: u8) -> IntOp {
    match aux {
        0 => IntOp::Add,
        1 => IntOp::Sub,
        2 => IntOp::Mul,
        3 => IntOp::Div,
        4 => IntOp::Rem,
        5 => IntOp::And,
        6 => IntOp::Or,
        7 => IntOp::Xor,
        8 => IntOp::Shl,
        9 => IntOp::Shr,
        _ => IntOp::Sar,
    }
}

#[inline(always)]
fn cond_of(aux: u8) -> Cond {
    match aux {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Lt,
        3 => Cond::Le,
        4 => Cond::Gt,
        5 => Cond::Ge,
        6 => Cond::Below,
        7 => Cond::BelowEq,
        8 => Cond::Above,
        9 => Cond::AboveEq,
        10 => Cond::Unordered,
        _ => Cond::Ordered,
    }
}

/// Generic span kernel: chain the constituents' threaded handlers.
fn k_span(vm: &mut Vm<'_>, rs: &mut Vec<u32>, w: &[CInst], base: u32) -> Result<u32, (u16, Trap)> {
    let mut pc = base;
    for (j, i) in w.iter().enumerate() {
        pc = (i.run)(vm, i, rs, pc).map_err(|t| (j as u16, t))?;
    }
    Ok(pc)
}

/// `movsd xmm, mem; arith64 xmm2, xmm` — load feeding a scalar-double
/// arithmetic op, with the intermediate kept in a local.
fn k_ld_arith64(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let v = vm.mem.load_u64(ea_s(vm, &w[0])).map_err(|t| (0u16, t))?;
    vm.set_lo64(w[0].a, v);
    let a = vm.xmm[w[1].a as usize] as u64;
    arith_f64(vm, alu_of(w[1].aux), w[1].a, a, v, w[1].id).map_err(|t| (1u16, t))?;
    Ok(base + 2)
}

/// `arith64 xmm, src; movsd mem, xmm` — scalar-double arithmetic feeding
/// a store.
fn k_arith64_st(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let a = vm.xmm[w[0].a as usize] as u64;
    let b = rm64_s(vm, &w[0]).map_err(|t| (0u16, t))?;
    let r = arith_f64(vm, alu_of(w[0].aux), w[0].a, a, b, w[0].id).map_err(|t| (0u16, t))?;
    vm.mem.store_u64(ea_d(vm, &w[1]), r.to_bits()).map_err(|t| (1u16, t))?;
    Ok(base + 2)
}

/// `movsd xmm, mem; arith64 xmm2, xmm; movsd mem2, xmm2` — full
/// load-op-store idiom in one call.
fn k_ld_arith64_st(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let v = vm.mem.load_u64(ea_s(vm, &w[0])).map_err(|t| (0u16, t))?;
    vm.set_lo64(w[0].a, v);
    let a = vm.xmm[w[1].a as usize] as u64;
    let r = arith_f64(vm, alu_of(w[1].aux), w[1].a, a, v, w[1].id).map_err(|t| (1u16, t))?;
    vm.mem.store_u64(ea_d(vm, &w[2]), r.to_bits()).map_err(|t| (2u16, t))?;
    Ok(base + 3)
}

/// `intalu r, src; cmp r2, src2; br` — the canonical counted-loop latch.
fn k_alu_cmp_br(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    _base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let a = vm.gpr[w[0].a as usize];
    let b = gmi_s(vm, &w[0]).map_err(|t| (0u16, t))?;
    vm.gpr[w[0].a as usize] = int_alu(int_of(w[0].aux), a, b).map_err(|t| (0u16, t))?;
    let ca = vm.gpr[w[1].a as usize];
    let cb = gmi_s(vm, &w[1]).map_err(|t| (1u16, t))?;
    vm.set_cmp_flags(ca, cb);
    Ok(if vm.cond_holds(cond_of(w[2].aux)) { w[2].t0 } else { w[2].t1 })
}

/// `cmp r, src; br` — compare-branch fusion.
fn k_cmp_br(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    _base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let a = vm.gpr[w[0].a as usize];
    let b = gmi_s(vm, &w[0]).map_err(|t| (0u16, t))?;
    vm.set_cmp_flags(a, b);
    Ok(if vm.cond_holds(cond_of(w[1].aux)) { w[1].t0 } else { w[1].t1 })
}

/// `test r, src; br` — test-branch fusion.
fn k_test_br(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    _base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let a = vm.gpr[w[0].a as usize];
    let b = gmi_s(vm, &w[0]).map_err(|t| (0u16, t))?;
    vm.set_test_flags(a & b);
    Ok(if vm.cond_holds(cond_of(w[1].aux)) { w[1].t0 } else { w[1].t1 })
}

/// `ucomisd xmm, src; br` — float compare-branch fusion.
fn k_ucomi64_br(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    _base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    let a = vm.xmm[w[0].a as usize] as u64;
    let b = rm64_s(vm, &w[0]).map_err(|t| (0u16, t))?;
    vm.check_flag64(a, w[0].id).map_err(|t| (0u16, t))?;
    vm.check_flag64(b, w[0].id).map_err(|t| (0u16, t))?;
    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
    vm.set_ucomi_flags(fa, fb, fa.is_nan() || fb.is_nan());
    Ok(if vm.cond_holds(cond_of(w[1].aux)) { w[1].t0 } else { w[1].t1 })
}

// Snippet kernels: the fixed sequences `instrument::snippets` wraps
// around every replaced instruction (paper §2.3, Fig. 6). They run the
// same VIS ops in the same order; only the per-op dispatch is gone.

/// `pextrq r, x; mov r2, imm; and r, r2; mov r2, imm2` — the lane
/// extract, mask and flag load both flag sequences start with.
#[inline(always)]
fn flag_prefix(vm: &mut Vm<'_>, w: &[CInst]) {
    pextrq(vm, &w[0]);
    vm.gpr[w[1].a as usize] = w[1].imm as u64;
    let masked = vm.gpr[w[2].a as usize] & vm.gpr[w[2].b as usize];
    vm.gpr[w[2].a as usize] = masked;
    vm.gpr[w[3].a as usize] = w[3].imm as u64;
}

/// The flag prefix, then `cmp r, r2; br` — the replacement-flag test on
/// one input lane plus its branch. No constituent can trap.
fn k_flag_test_br(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    _base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    flag_prefix(vm, w);
    vm.set_cmp_flags(vm.gpr[w[4].a as usize], vm.gpr[w[4].b as usize]);
    Ok(if vm.cond_holds(cond_of(w[5].aux)) { w[5].t0 } else { w[5].t1 })
}

/// The flag prefix, then `or r, r2; pinsrq x, r` — set the replacement
/// flag on one output lane, payload kept. No constituent can trap.
fn k_set_flag(
    vm: &mut Vm<'_>,
    rs: &mut Vec<u32>,
    w: &[CInst],
    base: u32,
) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    flag_prefix(vm, w);
    let flagged = vm.gpr[w[4].a as usize] | vm.gpr[w[4].b as usize];
    vm.gpr[w[4].a as usize] = flagged;
    pinsrq(vm, &w[5]);
    Ok(base + 6)
}

/// `push r; push r2` — the snippet's scratch save. Either push can trap
/// at the stack bound.
fn k_push2(vm: &mut Vm<'_>, rs: &mut Vec<u32>, w: &[CInst], base: u32) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    push(vm, &w[0]).map_err(|t| (0u16, t))?;
    push(vm, &w[1]).map_err(|t| (1u16, t))?;
    Ok(base + 2)
}

/// `pop r; pop r2` — the snippet's scratch restore. Either pop can trap
/// at the stack bound.
fn k_pop2(vm: &mut Vm<'_>, rs: &mut Vec<u32>, w: &[CInst], base: u32) -> Result<u32, (u16, Trap)> {
    let _ = rs;
    pop(vm, &w[0]).map_err(|t| (0u16, t))?;
    pop(vm, &w[1]).map_err(|t| (1u16, t))?;
    Ok(base + 2)
}

// ---------------------------------------------------------------------------
// Regions and the compiled image.
// ---------------------------------------------------------------------------

/// One fused kernel instance inside a region.
#[derive(Debug, Clone, Copy)]
struct Kern {
    run: KHandler,
    /// Absolute pc of the kernel's first constituent.
    base: u32,
    /// Number of constituent ops.
    len: u16,
}

/// A maximal straight-line run of ops ending in its control op, with
/// batched accounting totals and a kernel schedule.
#[derive(Debug, Clone)]
struct Region {
    start: u32,
    len: u32,
    /// Accounting totals for executing the whole region once.
    steps: u64,
    cycles: u64,
    fp: u64,
    /// The region's kernels: `CompiledImage::kerns[kern_start..kern_end]`.
    kern_start: u32,
    kern_end: u32,
}

fn is_control(k: &OpK) -> bool {
    matches!(k, OpK::Call { .. } | OpK::Jmp { .. } | OpK::Br { .. } | OpK::Ret | OpK::Halt)
}

/// The fused idioms of the compiled tier. Each binds a run of ops to one
/// superinstruction kernel; [`CompiledImage::idiom_count`] reports how
/// many of each a program bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idiom {
    /// `movsd xmm, mem; arith64 xmm2, xmm`.
    LdArith64,
    /// `arith64 xmm, src; movsd mem, xmm`.
    Arith64St,
    /// `movsd xmm, mem; arith64 xmm2, xmm; movsd mem2, xmm2`.
    LdArith64St,
    /// `intalu r, src; cmp r2, src2; br` — the counted-loop latch.
    AluCmpBr,
    /// `cmp r, src; br`.
    CmpBr,
    /// `test r, src; br`.
    TestBr,
    /// `ucomisd xmm, src; br`.
    Ucomi64Br,
    /// A snippet's input flag test and its branch:
    /// `pextrq; mov r, imm; and r, r; mov r, imm; cmp r, r; br`.
    FlagTestBr,
    /// A snippet's output set-flag:
    /// `pextrq; mov r, imm; and r, r; mov r, imm; or r, r; pinsrq`.
    SetFlag,
    /// `push; push` — a snippet's scratch save.
    PushPair,
    /// `pop; pop` — a snippet's scratch restore.
    PopPair,
}

impl Idiom {
    /// Number of idioms (`PopPair` is the last).
    const COUNT: usize = Idiom::PopPair as usize + 1;

    fn kernel(self) -> KHandler {
        match self {
            Idiom::LdArith64 => k_ld_arith64,
            Idiom::Arith64St => k_arith64_st,
            Idiom::LdArith64St => k_ld_arith64_st,
            Idiom::AluCmpBr => k_alu_cmp_br,
            Idiom::CmpBr => k_cmp_br,
            Idiom::TestBr => k_test_br,
            Idiom::Ucomi64Br => k_ucomi64_br,
            Idiom::FlagTestBr => k_flag_test_br,
            Idiom::SetFlag => k_set_flag,
            Idiom::PushPair => k_push2,
            Idiom::PopPair => k_pop2,
        }
    }
}

/// Try to recognize a fused idiom starting at `j`; returns the idiom and
/// how many ops it consumes.
fn try_idiom(ops: &[ExecOp], j: usize) -> Option<(Idiom, usize)> {
    use OpK::*;
    let kind = |k: usize| ops.get(j + k).map(|o| &o.kind);
    // The two six-op snippet sequences share their first four ops.
    if let (
        Some(PExtrQ { .. }),
        Some(MovIR { src: GmiD::Imm(_), .. }),
        Some(IntAlu { op: IntOp::And, src: GmiD::Reg(_), .. }),
        Some(MovIR { src: GmiD::Imm(_), .. }),
    ) = (kind(0), kind(1), kind(2), kind(3))
    {
        match (kind(4), kind(5)) {
            (Some(Cmp { src: GmiD::Reg(_), .. }), Some(Br { .. })) => {
                return Some((Idiom::FlagTestBr, 6))
            }
            (Some(IntAlu { op: IntOp::Or, src: GmiD::Reg(_), .. }), Some(PInsrQ { .. })) => {
                return Some((Idiom::SetFlag, 6))
            }
            _ => {}
        }
    }
    match (kind(0), kind(1), kind(2)) {
        (
            Some(MovF64 { dst: FpLocD::Reg(r), src: FpLocD::Mem(_) }),
            Some(ArithF64 { dst, src: RmD::Reg(r2), .. }),
            Some(MovF64 { dst: FpLocD::Mem(_), src: FpLocD::Reg(s2) }),
        ) if r2 == r && s2 == dst => return Some((Idiom::LdArith64St, 3)),
        (Some(IntAlu { .. }), Some(Cmp { .. }), Some(Br { .. })) => {
            return Some((Idiom::AluCmpBr, 3))
        }
        _ => {}
    }
    match (kind(0), kind(1)) {
        (
            Some(MovF64 { dst: FpLocD::Reg(r), src: FpLocD::Mem(_) }),
            Some(ArithF64 { src: RmD::Reg(r2), .. }),
        ) if r2 == r => Some((Idiom::LdArith64, 2)),
        (Some(ArithF64 { dst, .. }), Some(MovF64 { dst: FpLocD::Mem(_), src: FpLocD::Reg(s) }))
            if s == dst =>
        {
            Some((Idiom::Arith64St, 2))
        }
        (Some(Cmp { .. }), Some(Br { .. })) => Some((Idiom::CmpBr, 2)),
        (Some(Test { .. }), Some(Br { .. })) => Some((Idiom::TestBr, 2)),
        (Some(UcomiF64 { .. }), Some(Br { .. })) => Some((Idiom::Ucomi64Br, 2)),
        (Some(Push { .. }), Some(Push { .. })) => Some((Idiom::PushPair, 2)),
        (Some(Pop { .. }), Some(Pop { .. })) => Some((Idiom::PopPair, 2)),
        _ => None,
    }
}

/// Greedy kernel schedule for one region, appended to `kerns`: fused
/// idioms where recognized, generic spans for everything between. Bumps
/// `counts` per idiom bound.
fn build_kernels(
    ops: &[ExecOp],
    base: u32,
    kerns: &mut Vec<Kern>,
    counts: &mut [u32; Idiom::COUNT],
) {
    fn flush(kerns: &mut Vec<Kern>, base: u32, from: usize, to: usize) {
        if to > from {
            kerns.push(Kern { run: k_span, base: base + from as u32, len: (to - from) as u16 });
        }
    }
    let mut span_start = 0usize;
    let mut j = 0usize;
    while j < ops.len() {
        if let Some((idiom, len)) = try_idiom(ops, j) {
            flush(kerns, base, span_start, j);
            kerns.push(Kern { run: idiom.kernel(), base: base + j as u32, len: len as u16 });
            counts[idiom as usize] += 1;
            j += len;
            span_start = j;
        } else {
            j += 1;
        }
    }
    flush(kerns, base, span_start, ops.len());
}

/// Where a chunk's control op goes before it is linked: a successor
/// block (`Jmp`/`Br`) or a callee (`Call`), by id. [`Linker::push`]
/// resolves each one to its position in the linked image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A block, in whatever id space the chunk's owner lowered it in.
    Block(BlockId),
    /// A function; it resolves to its entry block's position, or
    /// `u32::MAX` if it has none (the call then traps with `NoEntry`).
    Func(FuncId),
}

/// Which targets of a chunk's control op the linker relocates.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// A `Call`: `t0` holds a function id.
    Call,
    /// A `Jmp`: `t0` holds a block id.
    Jump,
    /// A `Br`: `t0` and `t1` hold block ids.
    Branch,
}

/// Code lowered for the compiled backend, position-independent: the
/// bound instructions of a run of whole blocks, their regions and their
/// kernel schedule, all relative to the chunk's start, with control
/// targets left symbolic until a [`Linker`] places the chunk. Lowering
/// (binding each op and scheduling each region's kernels) happens here
/// and nowhere else; linking only copies and relocates. Regions end at
/// control ops and every block ends in one, so a chunk's regions never
/// depend on what is placed around it.
#[derive(Debug, Clone)]
pub struct Chunk {
    insts: Vec<CInst>,
    regions: Vec<Region>,
    kerns: Vec<Kern>,
    /// Offset and kind of every control op with targets to relocate.
    exits: Vec<(u32, Exit)>,
    idioms: [u32; Idiom::COUNT],
}

impl Chunk {
    /// Lower basic blocks (instructions and terminator each) under
    /// `cost`, back to back in the order given. Successors and callees
    /// stay symbolic ([`Target`]).
    pub fn lower<'a>(
        blocks: impl IntoIterator<Item = (&'a [Insn], &'a Terminator)>,
        cost: &CostModel,
    ) -> Chunk {
        let mut ops: Vec<ExecOp> = Vec::new();
        for (insns, term) in blocks {
            ops.extend(insns.iter().map(|i| ExecOp::decode(i, cost, |f| f.0)));
            ops.push(ExecOp::terminator(term, |b| b.0));
        }
        Chunk::from_ops(&ops)
    }

    /// Bind `ops`, segment them into regions and schedule each region's
    /// kernels.
    fn from_ops(ops: &[ExecOp]) -> Chunk {
        let mut c = Chunk {
            insts: ops.iter().map(bind).collect(),
            regions: Vec::new(),
            kerns: Vec::new(),
            exits: Vec::new(),
            idioms: [0; Idiom::COUNT],
        };
        let n = ops.len();
        let mut start = 0usize;
        for (pc, op) in ops.iter().enumerate() {
            match op.kind {
                OpK::Call { .. } => c.exits.push((pc as u32, Exit::Call)),
                OpK::Jmp { .. } => c.exits.push((pc as u32, Exit::Jump)),
                OpK::Br { .. } => c.exits.push((pc as u32, Exit::Branch)),
                _ => {}
            }
            if is_control(&op.kind) || pc + 1 == n {
                let region = &ops[start..=pc];
                let kern_start = c.kerns.len() as u32;
                build_kernels(region, start as u32, &mut c.kerns, &mut c.idioms);
                c.regions.push(Region {
                    start: start as u32,
                    len: region.len() as u32,
                    steps: region.iter().map(|o| o.steps).sum(),
                    cycles: region.iter().map(|o| o.cost).sum(),
                    fp: region.iter().map(|o| o.fp).sum(),
                    kern_start,
                    kern_end: c.kerns.len() as u32,
                });
                start = pc + 1;
            }
        }
        c
    }

    /// Number of ops (instructions and terminators).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the chunk holds no ops.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Assembles a [`CompiledImage`] from [`Chunk`]s, in layout order: each
/// push copies a chunk to the image's end, offsets its regions and
/// kernels, relocates its control targets and fills `region_at`. No op
/// is lowered again.
pub struct Linker {
    img: CompiledImage,
}

impl Linker {
    /// An empty image for `insn_bound` instruction ids under `cost`,
    /// which must be the cost model every pushed chunk was lowered
    /// under. `ops` is the image's expected length.
    pub fn new(cost: &CostModel, insn_bound: usize, ops: usize) -> Linker {
        Linker {
            img: CompiledImage {
                insts: Vec::with_capacity(ops),
                regions: Vec::with_capacity(ops / 2),
                kerns: Vec::with_capacity(ops / 2),
                region_at: Vec::with_capacity(ops),
                entry: 0,
                insn_bound,
                cost: cost.clone(),
                idioms: [0; Idiom::COUNT],
            },
        }
    }

    /// Append `chunk`, resolving each of its targets to a position in
    /// the finished image through `resolve`, which also gets the offset
    /// of the op in the chunk.
    pub fn push(&mut self, chunk: &Chunk, resolve: impl Fn(u32, Target) -> u32) {
        let base = self.append(chunk) as usize;
        for &(off, exit) in &chunk.exits {
            let i = &mut self.img.insts[base + off as usize];
            match exit {
                Exit::Call => i.t0 = resolve(off, Target::Func(FuncId(i.t0))),
                Exit::Jump => i.t0 = resolve(off, Target::Block(BlockId(i.t0))),
                Exit::Branch => {
                    i.t0 = resolve(off, Target::Block(BlockId(i.t0)));
                    i.t1 = resolve(off, Target::Block(BlockId(i.t1)));
                }
            }
        }
    }

    /// Append `chunk` with its targets unresolved; returns where it
    /// starts.
    fn append(&mut self, chunk: &Chunk) -> u32 {
        let img = &mut self.img;
        let base = img.insts.len() as u32;
        let (r0, k0) = (img.regions.len() as u32, img.kerns.len() as u32);
        img.insts.extend_from_slice(&chunk.insts);
        img.kerns.extend(chunk.kerns.iter().map(|k| Kern { base: k.base + base, ..*k }));
        for (idx, r) in chunk.regions.iter().enumerate() {
            img.region_at.extend(std::iter::repeat_n(r0 + idx as u32, r.len as usize));
            img.regions.push(Region {
                start: r.start + base,
                kern_start: r.kern_start + k0,
                kern_end: r.kern_end + k0,
                ..*r
            });
        }
        for (n, add) in img.idioms.iter_mut().zip(&chunk.idioms) {
            *n += add;
        }
        base
    }

    /// The linked image, entered at `entry`.
    pub fn finish(mut self, entry: u32) -> CompiledImage {
        self.img.entry = entry;
        self.img
    }
}

/// A program lowered for the compiled backend: bound threaded
/// instructions plus the fused-region schedule over them.
#[derive(Debug, Clone)]
pub struct CompiledImage {
    insts: Vec<CInst>,
    regions: Vec<Region>,
    /// Every region's kernel schedule, back to back.
    kerns: Vec<Kern>,
    /// pc → index of the region containing it.
    region_at: Vec<u32>,
    entry: u32,
    insn_bound: usize,
    cost: CostModel,
    /// Number of kernels bound per idiom, indexed by `Idiom as usize`.
    idioms: [u32; Idiom::COUNT],
}

impl CompiledImage {
    /// Compile `prog` end-to-end (decode to an [`ExecImage`], then bind).
    pub fn compile(prog: &Program, cost: &CostModel) -> CompiledImage {
        CompiledImage::from_image(&ExecImage::compile(prog, cost))
    }

    /// Bind an already-decoded image: lower it as one chunk, whose
    /// targets are already positions, which is then the image.
    pub fn from_image(image: &ExecImage) -> CompiledImage {
        let Chunk { insts, regions, kerns, idioms, .. } = Chunk::from_ops(&image.ops);
        let mut region_at = Vec::with_capacity(insts.len());
        for (idx, r) in regions.iter().enumerate() {
            region_at.extend(std::iter::repeat_n(idx as u32, r.len as usize));
        }
        CompiledImage {
            insts,
            regions,
            kerns,
            region_at,
            entry: image.entry,
            insn_bound: image.insn_bound,
            cost: image.cost.clone(),
            idioms,
        }
    }

    /// Number of compiled instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of straight-line regions.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of fused idiom kernels (excluding generic spans).
    pub fn fused_kernels(&self) -> usize {
        self.idioms.iter().map(|&n| n as usize).sum()
    }

    /// Number of kernels bound to `idiom`.
    pub fn idiom_count(&self, idiom: Idiom) -> usize {
        self.idioms[idiom as usize] as usize
    }
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// What an observed run reports for one op: its decoded [`OpK`] reduced
/// to the hook calls it makes, bound into its `CInst`. Every tag up to
/// `Trunc` makes `FP_RESULTS` calls; every tag before `FpOnly` makes
/// `FP_EVENTS` calls. The tags up to `Int64`, and `FpOnly`, are the
/// ops that count as dynamic fp-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Hook {
    /// `ArithF64`: `dst ← op(dst, src)`.
    Arith64,
    /// `SqrtF64`: `dst ← sqrt(src)`.
    Sqrt64,
    /// `MathF64`: `dst ← fun(src)`.
    Math64,
    /// `ArithF32`: `dst ← op(dst, src)` on the low lane.
    Arith32,
    /// `SqrtF32`: `dst ← sqrt(src)` on the low lane.
    Sqrt32,
    /// `MathF32`: `dst ← fun(src)` on the low lane.
    Math32,
    /// `FpTrunc`: a reduced-format quantize of one lane.
    Trunc,
    /// A packed op: all of `dst` overwritten.
    Packed,
    /// `CvtToF32`/`CvtI2F32`: the low 32 bits of `dst` overwritten.
    Low32,
    /// `CvtToF64`: `dst ← f64(f32 src)`.
    Widen64,
    /// `CvtI2F64`: `dst ← f64(int src)`.
    Int64,
    /// `MovF32`: 4 bytes moved.
    Mov32,
    /// `MovF64`: a tracked 64-bit move.
    Mov64,
    /// `MovF128`: 16 bytes moved.
    Mov128,
    /// `PInsrQ` into the low lane, the scalar slot.
    PInsrLo,
    /// `MovIM`: an integer store.
    StoreInt,
    /// `Push`: an integer store at the new stack pointer.
    Push,
    /// An fp-op with nothing to report: `Ucomi*`, `Cvt*ToI`.
    FpOnly,
    /// Nothing to report.
    None,
}

impl Hook {
    fn of(kind: &OpK) -> Hook {
        use OpK::*;
        match kind {
            ArithF64 { .. } => Hook::Arith64,
            SqrtF64 { .. } => Hook::Sqrt64,
            MathF64 { .. } => Hook::Math64,
            ArithF32 { .. } => Hook::Arith32,
            SqrtF32 { .. } => Hook::Sqrt32,
            MathF32 { .. } => Hook::Math32,
            FpTrunc { .. } => Hook::Trunc,
            ArithPd { .. } | ArithPs { .. } | SqrtPd { .. } | SqrtPs { .. } => Hook::Packed,
            CvtToF32 { .. } | CvtI2F32 { .. } => Hook::Low32,
            CvtToF64 { .. } => Hook::Widen64,
            CvtI2F64 { .. } => Hook::Int64,
            MovF32 { .. } => Hook::Mov32,
            MovF64 { .. } => Hook::Mov64,
            MovF128 { .. } => Hook::Mov128,
            PInsrQ { sh: 0, .. } => Hook::PInsrLo,
            MovIM { .. } => Hook::StoreInt,
            Push { .. } => Hook::Push,
            UcomiF64 { .. } | UcomiF32 { .. } | CvtF64ToI { .. } | CvtF32ToI { .. } => Hook::FpOnly,
            _ => Hook::None,
        }
    }

    /// Whether an op with this tag makes a hook call `O` enables. The
    /// threaded loop tests this before [`Vm::observed_step`], so an op
    /// with nothing to report costs a compare, not a second dispatch.
    #[inline(always)]
    fn fires<O: Observer>(self) -> bool {
        (O::FP_RESULTS && self <= Hook::Trunc) || (O::FP_EVENTS && self < Hook::FpOnly)
    }

    /// Whether the op counts as a dynamic fp-op ([`InstKind::is_fp_op`]).
    ///
    /// [`InstKind::is_fp_op`]: crate::isa::InstKind::is_fp_op
    #[inline(always)]
    fn is_fp(self) -> bool {
        self <= Hook::Int64 || self == Hook::FpOnly
    }
}

impl<'p> Vm<'p> {
    fn check_compiled(&self, image: &CompiledImage) {
        assert_eq!(
            image.insn_bound,
            self.prog.insn_id_bound(),
            "CompiledImage does not match this VM's program"
        );
        assert_eq!(
            image.cost, self.opts.cost,
            "CompiledImage compiled under a different cost model"
        );
    }

    /// The threaded tier: exact per-op accounting (fuel, steps, cycles,
    /// fp, profile), dispatching through the bound handlers. With `()` it
    /// is the exact fallback for the fused tier; with an observer, every
    /// op whose hook fires takes [`Vm::observed_step`].
    fn threaded_from<O: Observer>(
        &mut self,
        img: &CompiledImage,
        mut pc: u32,
        rs: &mut Vec<u32>,
        obs: &mut O,
    ) -> Result<(), Trap> {
        let insts = &img.insts[..];
        let fuel = self.opts.fuel;
        loop {
            if pc == u32::MAX {
                return Ok(());
            }
            let i = &insts[pc as usize];
            // A charged op runs out of fuel where its path would: the
            // run ends with exactly `fuel` steps either way.
            if self.stats.steps + u64::from(i.steps) > fuel {
                self.stats.steps = fuel;
                return Err(Trap::FuelExhausted);
            }
            self.stats.steps += u64::from(i.steps);
            self.stats.cycles += u64::from(i.cost);
            self.stats.fp_ops += u64::from(i.fp);
            if let Some(p) = &mut self.profile {
                if i.id.0 != u32::MAX {
                    p.bump(i.id);
                }
            }
            let next = if i.hook.fires::<O>() {
                self.observed_step(i, rs, pc, obs)
            } else {
                (i.run)(self, i, rs, pc)
            };
            pc = next.inspect_err(|_| self.stats.steps -= u64::from(i.steps) - 1)?;
        }
    }

    /// One op whose hook fires for `obs`: run it, then report. Hooks
    /// fire only when the op completes, after its architectural effect,
    /// results before events. The scalar value ops (arith, sqrt and math
    /// at both widths) read their operands once and run the semantic
    /// functions their handlers share, so no operand is loaded twice;
    /// every other op reads what its hooks need from the state it
    /// overwrites, runs its bound handler, and reads back the rest.
    #[inline(always)]
    fn observed_step<O: Observer>(
        &mut self,
        i: &CInst,
        rs: &mut Vec<u32>,
        pc: u32,
        obs: &mut O,
    ) -> Result<u32, Trap> {
        let (hook, id, dst) = (i.hook, i.id, i.a);
        let clobber = |obs: &mut O, loc, width| {
            if O::FP_EVENTS {
                obs.trace(&FpEvent::Clobber { loc, width });
            }
        };
        match hook {
            Hook::Arith64 | Hook::Sqrt64 | Hook::Math64 => {
                let (a, b) = (self.xmm[dst as usize] as u64, rm64_s(self, i)?);
                let r = match hook {
                    Hook::Arith64 => arith_f64(self, alu_of(i.aux), dst, a, b, id)?,
                    Hook::Sqrt64 => unary_f64(self, dst, b, id, f64::sqrt)?,
                    _ => unary_f64(self, dst, b, id, |x| Vm::math_f64(math_of(i.aux), x))?,
                };
                // Unary ops report their operand as both `a` and `b`.
                let b = f64::from_bits(b);
                let a = if hook == Hook::Arith64 { f64::from_bits(a) } else { b };
                if O::FP_RESULTS {
                    obs.fp_result_f64(id, a, b, r);
                }
                if O::FP_EVENTS {
                    let src = loc_s(self, i);
                    obs.trace(&match hook {
                        Hook::Arith64 => {
                            FpEvent::Arith64 { insn: id, op: alu_of(i.aux), dst, src, a, b, r }
                        }
                        Hook::Sqrt64 => FpEvent::Sqrt64 { insn: id, dst, src, b, r },
                        _ => FpEvent::Math64 { insn: id, fun: math_of(i.aux), dst, src, b, r },
                    });
                }
                Ok(pc + 1)
            }
            Hook::Arith32 | Hook::Sqrt32 | Hook::Math32 => {
                let a = f32::from_bits(self.xmm[dst as usize] as u32);
                let b = f32::from_bits(rm32_s(self, i)?);
                let r = match hook {
                    Hook::Arith32 => Vm::fp_alu_f32(alu_of(i.aux), a, b),
                    Hook::Sqrt32 => b.sqrt(),
                    _ => Vm::math_f32(math_of(i.aux), b),
                };
                self.set_lo32(dst, r.to_bits());
                if O::FP_RESULTS {
                    let a = if hook == Hook::Arith32 { a } else { b };
                    obs.fp_result_f32(id, a, b, r);
                }
                clobber(obs, FpLocV::Reg(dst), 4);
                Ok(pc + 1)
            }
            Hook::Trunc => {
                let sh = i.imm as u32;
                let before = (self.xmm[dst as usize] >> sh) as u32;
                let np = (i.run)(self, i, rs, pc)?;
                if O::FP_RESULTS {
                    let after = (self.xmm[dst as usize] >> sh) as u32;
                    obs.quantize(id, i.b, i.aux, before, after);
                }
                // The lane now holds a re-flagged reduced payload.
                if sh == 0 {
                    clobber(obs, FpLocV::Reg(dst), 8);
                }
                Ok(np)
            }
            Hook::Widen64 => {
                let value = rm32_s(self, i);
                let np = (i.run)(self, i, rs, pc)?;
                obs.trace(&FpEvent::Widen64 { insn: id, dst, value: f32::from_bits(value?) });
                Ok(np)
            }
            Hook::Int64 => {
                let np = (i.run)(self, i, rs, pc)?;
                // A GPR, memory or an immediate: the convert left it as it was.
                let v = gmi_s(self, i)? as i64;
                obs.trace(&FpEvent::Int64 { insn: id, dst, v });
                Ok(np)
            }
            Hook::Mov64 => {
                let np = (i.run)(self, i, rs, pc)?;
                // The moved bits, from whichever side is a register.
                let bits = match (i.d_mode, i.s_mode) {
                    (M_REG, _) => self.xmm[dst as usize] as u64,
                    (_, M_REG) => self.xmm[i.b as usize] as u64,
                    _ => self.mem.load_u64(ea_d(self, i))?,
                };
                let (dst, src) = (loc_d(self, i), loc_s(self, i));
                obs.trace(&FpEvent::Mov64 { dst, src, bits });
                Ok(np)
            }
            _ => {
                let np = (i.run)(self, i, rs, pc)?;
                let (loc, width) = match hook {
                    Hook::Packed => (FpLocV::Reg(dst), 16),
                    Hook::Low32 => (FpLocV::Reg(dst), 4),
                    Hook::Mov32 => (loc_d(self, i), 4),
                    Hook::Mov128 => (loc_d(self, i), 16),
                    Hook::PInsrLo => (FpLocV::Reg(dst), 8),
                    Hook::StoreInt => (FpLocV::Mem(ea_d(self, i)), 8),
                    // `Push`: the store went to the new stack pointer.
                    _ => (FpLocV::Mem(self.gpr[Gpr::RSP.0 as usize]), 8),
                };
                clobber(obs, loc, width);
                Ok(np)
            }
        }
    }

    /// The fused tier: regions whose full execution fits in the fuel
    /// budget run with batched accounting and fused kernels; anything
    /// else (mid-region entry, fuel boundary) falls back to the exact
    /// threaded tier for the rest of the run. With `PROFILE`, every
    /// region entry that runs to the region's end adds one to
    /// `entries[region]`; a trap inside a region bumps the profile for
    /// its exact prefix instead, and the fallback bumps it per op.
    fn run_fused<const PROFILE: bool>(
        &mut self,
        img: &CompiledImage,
        entries: &mut [u64],
    ) -> Result<(), Trap> {
        let mut pc = img.entry;
        let mut rs: Vec<u32> = Vec::with_capacity(64);
        let fuel = self.opts.fuel;
        loop {
            if pc == u32::MAX {
                return Ok(());
            }
            let idx = img.region_at[pc as usize] as usize;
            let r = &img.regions[idx];
            if r.start != pc || self.stats.steps + r.steps > fuel {
                return self.threaded_from(img, pc, &mut rs, &mut ());
            }
            // Charge the whole region up front; per-op checks are
            // provably redundant inside it.
            self.stats.steps += r.steps;
            self.stats.cycles += r.cycles;
            self.stats.fp_ops += r.fp;
            for k in &img.kerns[r.kern_start as usize..r.kern_end as usize] {
                let w = &img.insts[k.base as usize..k.base as usize + k.len as usize];
                match (k.run)(self, &mut rs, w, k.base) {
                    Ok(np) => pc = np,
                    Err((j, trap)) => {
                        // Roll the batched accounting back to the
                        // trapping op's prefix (the trapping op itself
                        // stays charged, matching the interpreter's
                        // account-then-execute order; a charged op that
                        // traps counts one step, the first op of its
                        // path, which reads the same operands).
                        let abs = k.base as usize + j as usize;
                        let end = (r.start + r.len) as usize;
                        for q in &img.insts[abs + 1..end] {
                            self.stats.steps -= u64::from(q.steps);
                            self.stats.cycles -= u64::from(q.cost);
                            self.stats.fp_ops -= u64::from(q.fp);
                        }
                        self.stats.steps -= u64::from(img.insts[abs].steps) - 1;
                        if PROFILE {
                            let p = self.profile.as_mut().expect("a profiled run has a profile");
                            for q in &img.insts[r.start as usize..=abs] {
                                if q.id.0 != u32::MAX {
                                    p.bump(q.id);
                                }
                            }
                        }
                        return Err(trap);
                    }
                }
            }
            if PROFILE {
                entries[idx] += 1;
            }
        }
    }

    /// Run under the compiled backend. Every run takes the fused tier;
    /// with `profile: true` its region-entry counters expand into the
    /// per-instruction profile when the run ends, equal to the one the
    /// reference interpreter counts.
    ///
    /// The fused tier takes no observer: an [`Observer`] runs on
    /// [`Vm::run_observed`].
    pub fn run_compiled(&mut self, image: &CompiledImage) -> RunOutcome {
        self.check_compiled(image);
        let result = if self.profile.is_some() {
            let mut entries = vec![0u64; image.regions.len()];
            let result = self.run_fused::<true>(image, &mut entries);
            let p = self.profile.as_mut().expect("a profiled run has a profile");
            for (r, &n) in image.regions.iter().zip(&entries).filter(|(_, &n)| n != 0) {
                let ops = &image.insts[r.start as usize..(r.start + r.len) as usize];
                for i in ops.iter().filter(|i| i.id.0 != u32::MAX) {
                    p.add(i.id, n);
                }
            }
            result
        } else {
            self.run_fused::<false>(image, &mut [])
        };
        RunOutcome { stats: self.stats, result, profile: self.profile.take() }
    }

    /// Run on the threaded tier with `obs` attached: the one entry point
    /// for value observers. Each hook family the observer enables fires
    /// once per op that produces its values; the observer cannot change
    /// the execution, so the outcome (result, trap, stats, profile, final
    /// state) is [`Vm::run_compiled`]'s. With `()` this is a whole run on
    /// the plain threaded loop, the one the fused tier falls back to.
    pub fn run_observed<O: Observer>(&mut self, image: &CompiledImage, obs: &mut O) -> RunOutcome {
        self.check_compiled(image);
        let mut rs: Vec<u32> = Vec::with_capacity(64);
        let result = self.threaded_from(image, image.entry, &mut rs, obs);
        RunOutcome { stats: self.stats, result, profile: self.profile.take() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::VmOptions;
    use crate::isa::{BlockId, FpLoc, InstKind, MemRef, Prec, Terminator, Width, Xmm, GM, GMI, RM};
    use crate::value::{replace, FLAG_HI64, HI_MASK};

    /// A small program covering arithmetic, control flow, and a call —
    /// the same shape as the `exec` module's demo.
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
        p.globals = vec![0u8; 32];
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

    /// Run `p` through the reference interpreter and both compiled tiers
    /// and assert every observable is bit-identical.
    fn agree(p: &Program, opts: &VmOptions) {
        let cimg = CompiledImage::compile(p, &opts.cost);

        let mut reference = Vm::new(p, opts.clone());
        let ro = reference.run();
        let mut fused = Vm::new(p, opts.clone());
        let co = fused.run_compiled(&cimg);
        let mut thr = Vm::new(p, opts.clone());
        let to = thr.run_observed(&cimg, &mut ());

        for (name, vm, out) in [("fused", &fused, &co), ("threaded", &thr, &to)] {
            assert_eq!(ro.result, out.result, "{name}: result/trap diverges");
            assert_eq!(ro.stats.steps, out.stats.steps, "{name}: steps diverge");
            assert_eq!(ro.stats.cycles, out.stats.cycles, "{name}: cycles diverge");
            assert_eq!(ro.stats.fp_ops, out.stats.fp_ops, "{name}: fp_ops diverge");
            assert_eq!(reference.gpr, vm.gpr, "{name}: gpr diverges");
            assert_eq!(reference.xmm, vm.xmm, "{name}: xmm diverges");
            let words = reference.mem.len() / 8;
            assert_eq!(
                reference.mem.read_u64_slice(0, words).unwrap(),
                vm.mem.read_u64_slice(0, words).unwrap(),
                "{name}: memory diverges"
            );
            match (&ro.profile, &out.profile) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    for k in 0..p.insn_id_bound() {
                        let id = InsnId(k as u32);
                        assert_eq!(a.count(id), b.count(id), "{name}: profile at {id:?}");
                    }
                }
                _ => panic!("{name}: profile presence diverges"),
            }
        }
    }

    #[test]
    fn compiled_matches_the_interpreter_on_demo_program() {
        let p = demo_prog();
        agree(&p, &VmOptions::default());
        agree(&p, &VmOptions { profile: true, ..Default::default() });
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        let mut vm = Vm::new(&p, VmOptions::default());
        let out = vm.run_compiled(&cimg);
        assert!(out.result.is_ok());
        assert_eq!(vm.mem.read_f64_slice(0, 1).unwrap()[0], 55.0 * 55.0);
    }

    #[test]
    fn fused_tier_emits_idiom_kernels() {
        let p = demo_prog();
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        // The loop latch (add; cmp; br) must fuse.
        assert!(cimg.fused_kernels() > 0, "no idiom kernels on the demo loop");
        assert!(cimg.regions() > 1);
        assert!(!cimg.is_empty());
        assert_eq!(cimg.len(), ExecImage::compile(&p, &CostModel::default()).len());
    }

    #[test]
    fn fuel_exhaustion_matches_at_every_boundary() {
        let p = demo_prog();
        for fuel in 0..40u64 {
            agree(&p, &VmOptions { fuel, ..Default::default() });
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
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        let o1 = Vm::new(&p, VmOptions::default()).run();
        let o2 = Vm::new(&p, VmOptions::default()).run_compiled(&cimg);
        assert!(matches!(o1.result, Err(Trap::FlaggedNanConsumed { .. })));
        assert_eq!(o1.result, o2.result);
        assert_eq!(o1.stats.steps, o2.stats.steps);
        assert_eq!(o1.stats.cycles, o2.stats.cycles);
        assert_eq!(o1.stats.fp_ops, o2.stats.fp_ops);
        agree(&p, &VmOptions::default());
    }

    #[test]
    fn div_by_zero_mid_region_rolls_accounting_back() {
        let mut p = Program::new(1 << 12);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(7) });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(1)), src: GMI::Imm(0) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::Div, dst: Gpr::RAX, src: GMI::Reg(Gpr(1)) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::Add, dst: Gpr::RAX, src: GMI::Imm(1) });
        p.block_mut(b).term = Terminator::Halt;
        agree(&p, &VmOptions::default());
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        let o = Vm::new(&p, VmOptions::default()).run_compiled(&cimg);
        assert_eq!(o.result, Err(Trap::DivByZero));
    }

    /// The snippet emitter's flag test on lane `lane` of `x`, with `r`
    /// and `s` in the roles of `%rax` and `%rbx`.
    fn flag_test(p: &mut Program, b: BlockId, r: Gpr, s: Gpr, x: Xmm, lane: u8) {
        p.push_insn(b, InstKind::PExtrQ { dst: r, src: x, lane });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(s), src: GMI::Imm(HI_MASK as i64) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::And, dst: r, src: GMI::Reg(s) });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(s), src: GMI::Imm(FLAG_HI64 as i64) });
        p.push_insn(b, InstKind::Cmp { lhs: r, src: GMI::Reg(s) });
    }

    /// The snippet emitter's set-flag on lane `lane` of `x`.
    fn set_flag(p: &mut Program, b: BlockId, r: Gpr, s: Gpr, x: Xmm, lane: u8) {
        p.push_insn(b, InstKind::PExtrQ { dst: r, src: x, lane });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(s), src: GMI::Imm(0xFFFF_FFFF) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::And, dst: r, src: GMI::Reg(s) });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(s), src: GMI::Imm(FLAG_HI64 as i64) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::Or, dst: r, src: GMI::Reg(s) });
        p.push_insn(b, InstKind::PInsrQ { dst: x, src: r, lane });
    }

    /// Four snippet skeletons, one per (register, lane) with lane 0 of
    /// `xmm1` and lane 1 of `xmm2` flagged: save, flag test, branch, a
    /// set-flag on either side, restore. A taken branch adds `1 << k` to
    /// `%r12`, so the result records which way each test went.
    fn snippet_prog(r: Gpr, s: Gpr) -> Program {
        let mut p = Program::new(1 << 12);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let cases = [(Xmm(1), 0u8), (Xmm(1), 1), (Xmm(2), 0), (Xmm(2), 1)];
        let b0 = p.add_block(f);
        let heads: Vec<BlockId> = cases.iter().map(|_| p.add_block(f)).collect();
        let done = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        for v in [replace(1.5), 2.5f64.to_bits(), 3.0f64.to_bits(), replace(0.25)] {
            p.globals.extend_from_slice(&v.to_le_bytes());
        }
        for (x, at) in [(Xmm(1), 0), (Xmm(2), 16)] {
            let src = FpLoc::Mem(MemRef::abs(at));
            p.push_insn(b0, InstKind::MovF { width: Width::W128, dst: FpLoc::Reg(x), src });
        }
        p.push_insn(b0, InstKind::MovI { dst: GM::Reg(Gpr(12)), src: GMI::Imm(0) });
        p.block_mut(b0).term = Terminator::Jmp(heads[0]);
        for (k, &(x, lane)) in cases.iter().enumerate() {
            let next = heads.get(k + 1).copied().unwrap_or(done);
            let (hit, miss) = (p.add_block(f), p.add_block(f));
            p.push_insn(heads[k], InstKind::Push { src: Gpr::RAX });
            p.push_insn(heads[k], InstKind::Push { src: Gpr::RBX });
            flag_test(&mut p, heads[k], r, s, x, lane);
            p.block_mut(heads[k]).term = Terminator::Br { cond: Cond::Eq, then_: hit, else_: miss };
            p.push_insn(
                hit,
                InstKind::IntAlu { op: IntOp::Add, dst: Gpr(12), src: GMI::Imm(1 << k) },
            );
            for b in [hit, miss] {
                set_flag(&mut p, b, r, s, x, lane);
                p.push_insn(b, InstKind::Pop { dst: Gpr::RBX });
                p.push_insn(b, InstKind::Pop { dst: Gpr::RAX });
                p.block_mut(b).term = Terminator::Jmp(next);
            }
        }
        for (x, at) in [(Xmm(1), 32), (Xmm(2), 48)] {
            let dst = FpLoc::Mem(MemRef::abs(at));
            p.push_insn(done, InstKind::MovF { width: Width::W128, dst, src: FpLoc::Reg(x) });
        }
        p.block_mut(done).term = Terminator::Halt;
        p
    }

    #[test]
    fn snippet_kernels_match_the_interpreter() {
        // Distinct scratch registers, swapped ones, an aliased pair, and
        // a flag test that clobbers the stack pointer before the pops.
        for (r, s) in
            [(Gpr::RAX, Gpr::RBX), (Gpr::RBX, Gpr::RAX), (Gpr(3), Gpr(3)), (Gpr::RSP, Gpr(4))]
        {
            let p = snippet_prog(r, s);
            let cimg = CompiledImage::compile(&p, &CostModel::default());
            for (idiom, n) in [
                (Idiom::PushPair, 4),
                (Idiom::FlagTestBr, 4),
                (Idiom::SetFlag, 8),
                (Idiom::PopPair, 8),
            ] {
                assert_eq!(cimg.idiom_count(idiom), n, "{idiom:?} with {r:?}/{s:?}");
            }
            agree(&p, &VmOptions::default());
            agree(&p, &VmOptions { profile: true, ..Default::default() });
            let full = Vm::new(&p, VmOptions::default()).run().stats.steps;
            for fuel in 0..=full {
                agree(&p, &VmOptions { fuel, ..Default::default() });
            }
        }
        // Both directions of each test: lanes 0 of xmm1 and 1 of xmm2
        // are flagged and branch to `hit`, the other two fall to `miss`.
        let p = snippet_prog(Gpr::RAX, Gpr::RBX);
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run_compiled(&cimg).result.is_ok());
        assert_eq!(vm.gpr[12], 0b1001);
        // An aliased pair compares the flag with itself: always taken.
        let p = snippet_prog(Gpr(3), Gpr(3));
        let cimg = CompiledImage::compile(&p, &CostModel::default());
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run_compiled(&cimg).result.is_ok());
        assert_eq!(vm.gpr[12], 0b1111);
    }

    #[test]
    fn stack_pair_traps_roll_back_to_the_trapping_op() {
        // (pops?, initial %rsp, index of the op that traps) on a 4 KiB
        // image: the stack bound is hit on the pair's first or second op.
        for (pops, rsp, trapping) in
            [(false, 0, 2), (false, 8, 3), (true, 4096, 2), (true, 4088, 3)]
        {
            let mut p = Program::new(1 << 12);
            let m = p.add_module("t");
            let f = p.add_function(m, "main");
            let b = p.add_block(f);
            p.funcs[f.0 as usize].entry = b;
            p.entry = f;
            p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr::RSP), src: GMI::Imm(rsp) });
            p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(9)), src: GMI::Imm(1) });
            if pops {
                p.push_insn(b, InstKind::Pop { dst: Gpr::RBX });
                p.push_insn(b, InstKind::Pop { dst: Gpr::RAX });
            } else {
                p.push_insn(b, InstKind::Push { src: Gpr::RAX });
                p.push_insn(b, InstKind::Push { src: Gpr::RBX });
            }
            p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr(9)), src: GMI::Imm(2) });
            p.block_mut(b).term = Terminator::Halt;
            let cimg = CompiledImage::compile(&p, &CostModel::default());
            let pair = if pops { Idiom::PopPair } else { Idiom::PushPair };
            assert_eq!(cimg.idiom_count(pair), 1);
            agree(&p, &VmOptions::default());
            agree(&p, &VmOptions { profile: true, ..Default::default() });
            // The last op charged is the trapping one, on every engine.
            let opts = VmOptions { profile: true, ..Default::default() };
            let fo = Vm::new(&p, opts.clone()).run();
            let co = Vm::new(&p, opts).run_compiled(&cimg);
            assert!(matches!(co.result, Err(Trap::OutOfBounds { .. })), "{pops} {rsp}");
            assert_eq!(co.stats.steps, trapping as u64 + 1);
            let counts: Vec<u64> =
                p.block(b).insns.iter().map(|i| co.profile.as_ref().unwrap().count(i.id)).collect();
            let mut want = vec![1u64; trapping + 1];
            want.resize(counts.len(), 0);
            assert_eq!(counts, want, "{pops} {rsp}");
            assert_eq!((fo.stats.steps, fo.stats.cycles), (co.stats.steps, co.stats.cycles));
        }
    }

    /// One straight-line region that binds a load-arith-store kernel, a
    /// generic span and a push pair, with a variant per op that can
    /// trap: `trap = 0..6` traps at that op (an out-of-bounds load, a
    /// flagged operand, an out-of-bounds store, a division by zero, the
    /// first push, the second push); any other value runs to the end.
    fn trapping_region(trap: usize) -> Program {
        let mut p = Program::new(1 << 12);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let (b0, b1) = (p.add_block(f), p.add_block(f));
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        let loaded = if trap == 1 { replace(1.5) } else { 1.5f64.to_bits() };
        p.globals = loaded.to_le_bytes().to_vec();
        let far = 1i64 << 30;
        let set = |p: &mut Program, r: u8, v: i64| {
            p.push_insn(b0, InstKind::MovI { dst: GM::Reg(Gpr(r)), src: GMI::Imm(v) })
        };
        set(&mut p, 1, if trap == 0 { far } else { 0 });
        set(&mut p, 2, if trap == 2 { far } else { 64 });
        set(&mut p, 3, 10);
        set(&mut p, 4, if trap == 3 { 0 } else { 3 });
        set(&mut p, Gpr::RSP.0, [0, 8].get(trap.wrapping_sub(4)).copied().unwrap_or(4096));
        p.block_mut(b0).term = Terminator::Jmp(b1);
        let (ld, st) = (MemRef::base_disp(Gpr(1), 0), MemRef::base_disp(Gpr(2), 0));
        let mov = |dst, src| InstKind::MovF { width: Width::W64, dst, src };
        p.push_insn(b1, mov(FpLoc::Reg(Xmm(0)), FpLoc::Mem(ld)));
        p.push_insn(
            b1,
            InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(2),
                src: RM::Reg(Xmm(0)),
            },
        );
        p.push_insn(b1, mov(FpLoc::Mem(st), FpLoc::Reg(Xmm(2))));
        p.push_insn(b1, InstKind::IntAlu { op: IntOp::Div, dst: Gpr(3), src: GMI::Reg(Gpr(4)) });
        p.push_insn(b1, InstKind::Push { src: Gpr(3) });
        p.push_insn(b1, InstKind::Push { src: Gpr(4) });
        p.block_mut(b1).term = Terminator::Halt;
        p
    }

    #[test]
    fn fused_profiles_equal_threaded_at_every_fuel_boundary_and_trap() {
        let mut progs = vec![demo_prog(), snippet_prog(Gpr::RAX, Gpr::RBX)];
        progs.extend((0..7).map(trapping_region));
        let cimg = CompiledImage::compile(&progs[2], &CostModel::default());
        assert_eq!(cimg.idiom_count(Idiom::LdArith64St), 1);
        assert_eq!(cimg.idiom_count(Idiom::PushPair), 1);
        for (k, p) in progs.iter().enumerate() {
            let full = Vm::new(p, VmOptions::default()).run();
            if let Some(trap) = k.checked_sub(2) {
                // Five register loads and a jump, then the region.
                let at = (trap < 6).then_some(6 + trap as u64 + 1);
                assert_eq!(full.result.is_err().then_some(full.stats.steps), at, "variant {trap}");
            }
            for fuel in 0..=full.stats.steps + 1 {
                agree(p, &VmOptions { fuel, profile: true, ..Default::default() });
            }
        }
    }

    #[test]
    fn mismatched_cost_model_is_rejected() {
        let p = demo_prog();
        let cimg = CompiledImage::compile(&p, &CostModel { call: 99, ..Default::default() });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Vm::new(&p, VmOptions::default()).run_compiled(&cimg)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(Backend::default(), Backend::Compiled);
        for b in [Backend::Interp, Backend::Compiled] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(Backend::parse("fast"), None);
        assert_eq!(Backend::parse("jit"), None);
    }
}

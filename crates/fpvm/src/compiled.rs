//! The compiled execution backend: threaded code + fused superinstructions.
//!
//! [`CompiledImage::compile`] lowers a [`Program`] (via the pre-decoded
//! [`ExecImage`]) into two cooperating tiers:
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
//! Both tiers are required to be **bit-identical** to [`Vm::run`] and
//! [`Vm::run_image`]: same result (including the exact trap and trapping
//! instruction id), same [`RunStats`](crate::interp::RunStats), same final
//! machine state, same profile. `tests/exec_differential.rs` proves this
//! differentially on random and instrumented programs.
//!
//! **Observer contract**: fused kernels cannot attribute per-op profile
//! hits, and neither tier exposes per-operation values. So
//! [`Vm::run_compiled_with`] takes the fused tier only when nothing
//! watches per op; a step observer ([`Observer::STEPS`]) or the VM's own
//! `profile: true` option selects the threaded tier, which keeps exact
//! per-instruction attribution. Value observers ([`Observer::FP_EVENTS`],
//! [`Observer::FP_RESULTS`]) are a compile error there and run on
//! [`Vm::run_image_with`] instead — sound because the engines are
//! bit-identical.

use crate::cost::CostModel;
use crate::exec::{AddrD, ExecImage, ExecOp, FpLocD, GmiD, Observer, OpK, RmD};
use crate::interp::{RunOutcome, Vm};
use crate::isa::{Cond, FpAluOp, Gpr, InsnId, IntOp, MathFun};
use crate::program::Program;
use crate::trap::Trap;
use std::marker::PhantomData;

/// Which execution engine runs a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The reference tree-walking interpreter ([`Vm::run`]).
    Interp,
    /// The pre-decoded linear image ([`Vm::run_image`]).
    Fast,
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
            "fast" => Some(Backend::Fast),
            "compiled" => Some(Backend::Compiled),
            _ => None,
        }
    }

    /// The stable name of this backend (`interp`/`fast`/`compiled`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Fast => "fast",
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
    /// Raw discriminant of the op's ALU operation / branch condition,
    /// for fused kernels.
    pub(crate) aux: u8,
    /// Whether the op counts as a dynamic fp-op.
    pub(crate) fp: bool,
    pub(crate) id: InsnId,
    pub(crate) s_disp: i64,
    pub(crate) d_disp: i64,
    /// Immediate operand (also the `PExtrQ`/`PInsrQ` lane shift).
    pub(crate) imm: i64,
    /// Primary control target (jump target, branch-then, call entry).
    pub(crate) t0: u32,
    /// Secondary control target (branch-else).
    pub(crate) t1: u32,
    /// Pre-computed cycle cost.
    pub(crate) cost: u64,
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
/// `Vm::d_addr` bit-for-bit (wrapping arithmetic throughout).
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
// Threaded-tier handlers. Each replicates the corresponding `run_image`
// arm exactly (same read order, same trap points, same writes); only the
// operand decoding has been moved to compile time.
// ---------------------------------------------------------------------------

fn h_arith_f64<O: AluSel, S: XS>(
    vm: &mut Vm<'_>,
    i: &CInst,
    _rs: &mut Vec<u32>,
    pc: u32,
) -> Result<u32, Trap> {
    let a = vm.xmm[i.a as usize] as u64;
    let b = S::lo64(vm, i)?;
    vm.check_flag64(a, i.id)?;
    vm.check_flag64(b, i.id)?;
    let r = Vm::fp_alu_f64(O::OP, f64::from_bits(a), f64::from_bits(b));
    vm.set_lo64(i.a, r.to_bits());
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
    vm.check_flag64(b, i.id)?;
    vm.set_lo64(i.a, f64::from_bits(b).sqrt().to_bits());
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
    vm.check_flag64(b, i.id)?;
    vm.set_lo64(i.a, Vm::math_f64(M::FUN, f64::from_bits(b)).to_bits());
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
        fp: op.fp,
        id: op.id,
        s_disp: 0,
        d_disp: 0,
        imm: 0,
        t0: 0,
        t1: 0,
        cost: op.cost,
    };
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
            mth!(i, fun, src, h_math_f64)
        }
        OpK::MathF32 { fun, dst, src } => {
            i.a = *dst;
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
    vm.check_flag64(a, w[1].id).map_err(|t| (1u16, t))?;
    vm.check_flag64(v, w[1].id).map_err(|t| (1u16, t))?;
    let r = Vm::fp_alu_f64(alu_of(w[1].aux), f64::from_bits(a), f64::from_bits(v));
    vm.set_lo64(w[1].a, r.to_bits());
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
    vm.check_flag64(a, w[0].id).map_err(|t| (0u16, t))?;
    vm.check_flag64(b, w[0].id).map_err(|t| (0u16, t))?;
    let r = Vm::fp_alu_f64(alu_of(w[0].aux), f64::from_bits(a), f64::from_bits(b)).to_bits();
    vm.set_lo64(w[0].a, r);
    vm.mem.store_u64(ea_d(vm, &w[1]), r).map_err(|t| (1u16, t))?;
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
    vm.check_flag64(a, w[1].id).map_err(|t| (1u16, t))?;
    vm.check_flag64(v, w[1].id).map_err(|t| (1u16, t))?;
    let r = Vm::fp_alu_f64(alu_of(w[1].aux), f64::from_bits(a), f64::from_bits(v)).to_bits();
    vm.set_lo64(w[1].a, r);
    vm.mem.store_u64(ea_d(vm, &w[2]), r).map_err(|t| (2u16, t))?;
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

    /// Bind an already-decoded image.
    pub fn from_image(image: &ExecImage) -> CompiledImage {
        let insts: Vec<CInst> = image.ops.iter().map(bind).collect();
        let n = insts.len();
        let mut regions: Vec<Region> = Vec::new();
        let mut kerns: Vec<Kern> = Vec::new();
        let mut region_at = vec![0u32; n];
        let mut idioms = [0u32; Idiom::COUNT];
        let mut start = 0usize;
        for pc in 0..n {
            if is_control(&image.ops[pc].kind) || pc + 1 == n {
                let len = pc - start + 1;
                let ops = &image.ops[start..start + len];
                let mut cycles = 0u64;
                let mut fp = 0u64;
                for o in ops {
                    cycles += o.cost;
                    fp += o.fp as u64;
                }
                let kern_start = kerns.len() as u32;
                build_kernels(ops, start as u32, &mut kerns, &mut idioms);
                let idx = regions.len() as u32;
                for q in region_at.iter_mut().take(start + len).skip(start) {
                    *q = idx;
                }
                regions.push(Region {
                    start: start as u32,
                    len: len as u32,
                    steps: len as u64,
                    cycles,
                    fp,
                    kern_start,
                    kern_end: kerns.len() as u32,
                });
                start = pc + 1;
            }
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
    /// fp, profile, step hook), dispatching through the bound handlers.
    /// Also serves as the exact fallback for the fused tier.
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
            if self.stats.steps >= fuel {
                return Err(Trap::FuelExhausted);
            }
            let i = &insts[pc as usize];
            self.stats.steps += 1;
            self.stats.cycles += i.cost;
            self.stats.fp_ops += i.fp as u64;
            if let Some(p) = &mut self.profile {
                if i.id.0 != u32::MAX {
                    p.bump(i.id);
                }
            }
            if O::STEPS {
                obs.step(i.id, i.cost);
            }
            pc = (i.run)(self, i, rs, pc)?;
        }
    }

    /// The fused tier: regions whose full execution fits in the fuel
    /// budget run with batched accounting and fused kernels; anything
    /// else (mid-region entry, fuel boundary) falls back to the exact
    /// threaded tier for the rest of the run.
    fn run_fused(&mut self, img: &CompiledImage) -> Result<(), Trap> {
        let mut pc = img.entry;
        let mut rs: Vec<u32> = Vec::with_capacity(64);
        let fuel = self.opts.fuel;
        loop {
            if pc == u32::MAX {
                return Ok(());
            }
            let r = &img.regions[img.region_at[pc as usize] as usize];
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
                        // account-then-execute order).
                        let abs = k.base as usize + j as usize;
                        let end = (r.start + r.len) as usize;
                        for q in &img.insts[abs + 1..end] {
                            self.stats.cycles -= q.cost;
                            self.stats.fp_ops -= q.fp as u64;
                        }
                        self.stats.steps -= (end - (abs + 1)) as u64;
                        return Err(trap);
                    }
                }
            }
        }
    }

    /// Run under the compiled backend, unobserved:
    /// [`Vm::run_compiled_with`] with `()`.
    pub fn run_compiled(&mut self, image: &CompiledImage) -> RunOutcome {
        self.run_compiled_with(image, &mut ())
    }

    /// Run under the compiled backend with an [`Observer`] attached.
    /// Runs with [`Observer::STEPS`] or `profile: true` take the threaded
    /// tier, so per-instruction attribution stays exact; all others take
    /// the fused tier.
    ///
    /// Neither tier can expose per-operation values, so an observer that
    /// sets [`Observer::FP_EVENTS`] or [`Observer::FP_RESULTS`] does not
    /// compile here; run it with [`Vm::run_image_with`]:
    ///
    /// ```compile_fail,E0080
    /// use fpvm::{CompiledImage, CostModel, Observer, Program, Vm, VmOptions};
    /// struct Events;
    /// impl Observer for Events {
    ///     const FP_EVENTS: bool = true;
    /// }
    /// let p = Program::new(64);
    /// let img = CompiledImage::compile(&p, &CostModel::default());
    /// Vm::new(&p, VmOptions::default()).run_compiled_with(&img, &mut Events);
    /// ```
    ///
    /// ```compile_fail,E0080
    /// use fpvm::{CompiledImage, CostModel, Observer, Program, Vm, VmOptions};
    /// struct Results;
    /// impl Observer for Results {
    ///     const FP_RESULTS: bool = true;
    /// }
    /// let p = Program::new(64);
    /// let img = CompiledImage::compile(&p, &CostModel::default());
    /// Vm::new(&p, VmOptions::default()).run_compiled_with(&img, &mut Results);
    /// ```
    pub fn run_compiled_with<O: Observer>(
        &mut self,
        image: &CompiledImage,
        obs: &mut O,
    ) -> RunOutcome {
        const {
            assert!(
                !O::FP_EVENTS && !O::FP_RESULTS,
                "the compiled backend exposes no per-operation values: use run_image_with"
            )
        };
        self.check_compiled(image);
        let result = if O::STEPS || self.profile.is_some() {
            let mut rs: Vec<u32> = Vec::with_capacity(64);
            self.threaded_from(image, image.entry, &mut rs, obs)
        } else {
            self.run_fused(image)
        };
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

    /// A step-only observer recording every `(insn, cost)` dispatch; on
    /// [`Vm::run_compiled_with`] it selects the threaded tier.
    #[derive(Default)]
    struct Steps(Vec<(u32, u64)>);

    impl Observer for Steps {
        const STEPS: bool = true;
        fn step(&mut self, insn: InsnId, cost: u64) {
            self.0.push((insn.0, cost));
        }
    }

    /// Run `p` through the fast image and both compiled tiers and assert
    /// every observable is bit-identical.
    fn agree(p: &Program, opts: &VmOptions) {
        let image = ExecImage::compile(p, &opts.cost);
        let cimg = CompiledImage::from_image(&image);

        let mut fast = Vm::new(p, opts.clone());
        let fo = fast.run_image(&image);
        let mut fused = Vm::new(p, opts.clone());
        let co = fused.run_compiled(&cimg);
        let mut thr = Vm::new(p, opts.clone());
        let to = thr.run_compiled_with(&cimg, &mut Steps::default());

        for (name, vm, out) in [("fused", &fused, &co), ("threaded", &thr, &to)] {
            assert_eq!(fo.result, out.result, "{name}: result/trap diverges");
            assert_eq!(fo.stats.steps, out.stats.steps, "{name}: steps diverge");
            assert_eq!(fo.stats.cycles, out.stats.cycles, "{name}: cycles diverge");
            assert_eq!(fo.stats.fp_ops, out.stats.fp_ops, "{name}: fp_ops diverge");
            assert_eq!(fast.gpr, vm.gpr, "{name}: gpr diverges");
            assert_eq!(fast.xmm, vm.xmm, "{name}: xmm diverges");
            let words = fast.mem.len() / 8;
            assert_eq!(
                fast.mem.read_u64_slice(0, words).unwrap(),
                vm.mem.read_u64_slice(0, words).unwrap(),
                "{name}: memory diverges"
            );
            match (&fo.profile, &out.profile) {
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
    fn compiled_matches_fast_on_demo_program() {
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
    fn snippet_kernels_match_the_fast_image() {
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
            let image = ExecImage::compile(&p, &CostModel::default());
            let cimg = CompiledImage::from_image(&image);
            let pair = if pops { Idiom::PopPair } else { Idiom::PushPair };
            assert_eq!(cimg.idiom_count(pair), 1);
            agree(&p, &VmOptions::default());
            // The last op charged is the trapping one, on every engine.
            let mut seen = Steps::default();
            let fo = Vm::new(&p, VmOptions::default()).run_image_with(&image, &mut seen);
            let co = Vm::new(&p, VmOptions::default()).run_compiled(&cimg);
            assert!(matches!(co.result, Err(Trap::OutOfBounds { .. })), "{pops} {rsp}");
            assert_eq!(co.stats.steps, trapping as u64 + 1);
            assert_eq!(seen.0.last().unwrap().0, p.block(b).insns[trapping].id.0);
            assert_eq!((fo.stats.steps, fo.stats.cycles), (co.stats.steps, co.stats.cycles));
        }
    }

    #[test]
    fn step_only_observer_sees_the_same_stream_on_both_engines() {
        let p = demo_prog();
        let image = ExecImage::compile(&p, &CostModel::default());
        let cimg = CompiledImage::from_image(&image);
        let mut r1 = Steps::default();
        let o1 = Vm::new(&p, VmOptions::default()).run_image_with(&image, &mut r1);
        let mut r2 = Steps::default();
        let o2 = Vm::new(&p, VmOptions::default()).run_compiled_with(&cimg, &mut r2);
        assert_eq!(o1.result, o2.result);
        assert_eq!(o1.stats.cycles, o2.stats.cycles);
        assert_eq!(r1.0, r2.0, "per-step observer streams diverge");
        assert_eq!(r1.0.len() as u64, o1.stats.steps);
    }

    #[test]
    fn profiled_runs_fall_back_to_the_threaded_tier_exactly() {
        let p = demo_prog();
        let image = ExecImage::compile(&p, &CostModel::default());
        let cimg = CompiledImage::from_image(&image);
        let opts = VmOptions { profile: true, ..Default::default() };
        let a = Vm::new(&p, opts.clone()).run_image(&image).profile.unwrap();
        let b = Vm::new(&p, opts).run_compiled(&cimg).profile.unwrap();
        for k in 0..p.insn_id_bound() {
            let id = InsnId(k as u32);
            assert_eq!(a.count(id), b.count(id), "profile diverges at {id:?}");
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
        for b in [Backend::Interp, Backend::Fast, Backend::Compiled] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(Backend::parse("jit"), None);
    }
}

//! The interpreter: executes a [`Program`] with SSE2-faithful bit-level
//! semantics, optional profiling, a cycle cost model, and the
//! crash-on-miss trap for replaced values (§2.3).

use crate::cost::CostModel;
use crate::isa::*;
use crate::mem::Memory;
use crate::profile::Profile;
use crate::program::Program;
use crate::trap::Trap;
use crate::value::{FLAG_HI64, HI_MASK};

/// Interpreter options.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Maximum number of executed instructions before [`Trap::FuelExhausted`].
    pub fuel: u64,
    /// Trap when an uninstrumented double-precision operation consumes a
    /// replaced value (the paper's crash-on-miss property). When false the
    /// flagged NaN silently poisons the computation instead.
    pub trap_on_flag: bool,
    /// Collect a per-instruction execution profile.
    pub profile: bool,
    /// Cost model for the modelled cycle count.
    pub cost: CostModel,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel: 4_000_000_000,
            trap_on_flag: true,
            profile: false,
            cost: CostModel::default(),
            max_call_depth: 1024,
        }
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Dynamic instruction count (including terminators).
    pub steps: u64,
    /// Dynamic floating-point operation count.
    pub fp_ops: u64,
    /// Modelled cycle count under the configured [`CostModel`].
    pub cycles: u64,
}

/// The result of running a program to completion.
#[derive(Debug)]
pub struct RunOutcome {
    /// Execution statistics (valid even on trap).
    pub stats: RunStats,
    /// `Ok(())` on normal `Halt`, the trap otherwise.
    pub result: Result<(), Trap>,
    /// The execution profile, if requested.
    pub profile: Option<Profile>,
}

impl RunOutcome {
    /// True if the program halted normally.
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Fuel spent by the run: the dynamic instruction count, which is
    /// exactly what the fuel budget meters. Valid whether the run halted
    /// or trapped.
    pub fn fuel_spent(&self) -> u64 {
        self.stats.steps
    }

    /// Short stable identifier of the trap that ended the run, if any
    /// (see [`Trap::kind`]).
    pub fn trap_kind(&self) -> Option<&'static str> {
        self.result.as_ref().err().map(Trap::kind)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flags {
    pub(crate) eq: bool,
    pub(crate) lt: bool,
    pub(crate) ult: bool,
    pub(crate) unordered: bool,
}

/// A virtual machine executing one program.
pub struct Vm<'p> {
    pub(crate) prog: &'p Program,
    /// General-purpose registers.
    pub gpr: [u64; Gpr::COUNT],
    /// 128-bit floating-point registers.
    pub xmm: [u128; Xmm::COUNT],
    pub(crate) flags: Flags,
    /// Memory (data + heap + stack).
    pub mem: Memory,
    ret_stack: Vec<(BlockId, usize)>,
    pub(crate) opts: VmOptions,
    pub(crate) profile: Option<Profile>,
    pub(crate) stats: RunStats,
}

impl<'p> Vm<'p> {
    /// Create a VM for `prog` with the given options. The stack pointer is
    /// initialized to the top of memory.
    pub fn new(prog: &'p Program, opts: VmOptions) -> Self {
        Self::with_memory(prog, opts, Memory::new(prog.mem_size, &prog.globals))
    }

    /// Like [`Vm::new`], but recycles a caller-provided [`Memory`] buffer
    /// (re-initialized for `prog`) instead of allocating a fresh one —
    /// evaluation loops use this to avoid one large allocation per run.
    pub fn with_memory(prog: &'p Program, opts: VmOptions, mut mem: Memory) -> Self {
        mem.reset(prog.mem_size, &prog.globals);
        let mut gpr = [0u64; Gpr::COUNT];
        gpr[Gpr::RSP.0 as usize] = prog.mem_size as u64;
        let profile = opts.profile.then(|| Profile::new(prog.insn_id_bound()));
        Vm {
            prog,
            gpr,
            xmm: [0; Xmm::COUNT],
            flags: Flags::default(),
            mem,
            ret_stack: Vec::new(),
            opts,
            profile,
            stats: RunStats::default(),
        }
    }

    /// Convenience: run `prog` with `opts` from its entry function.
    pub fn run_program(prog: &Program, opts: VmOptions) -> RunOutcome {
        let mut vm = Vm::new(prog, opts);
        vm.run()
    }

    #[inline]
    pub(crate) fn mem_addr(&self, m: &MemRef) -> u64 {
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.gpr[b.0 as usize]);
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.gpr[i.0 as usize].wrapping_mul(s as u64));
        }
        a
    }

    #[inline]
    pub(crate) fn xmm_lo64(&self, x: Xmm) -> u64 {
        self.xmm[x.0 as usize] as u64
    }

    #[inline]
    pub(crate) fn set_xmm_lo64(&mut self, x: Xmm, v: u64) {
        let r = &mut self.xmm[x.0 as usize];
        *r = (*r & !(u128::from(u64::MAX))) | u128::from(v);
    }

    #[inline]
    pub(crate) fn xmm_lo32(&self, x: Xmm) -> u32 {
        self.xmm[x.0 as usize] as u32
    }

    #[inline]
    pub(crate) fn set_xmm_lo32(&mut self, x: Xmm, v: u32) {
        let r = &mut self.xmm[x.0 as usize];
        *r = (*r & !(u128::from(u32::MAX))) | u128::from(v);
    }

    fn read_rm64(&self, src: &RM) -> Result<u64, Trap> {
        match src {
            RM::Reg(x) => Ok(self.xmm_lo64(*x)),
            RM::Mem(m) => self.mem.load_u64(self.mem_addr(m)),
        }
    }

    fn read_rm32(&self, src: &RM) -> Result<u32, Trap> {
        match src {
            RM::Reg(x) => Ok(self.xmm_lo32(*x)),
            RM::Mem(m) => self.mem.load_u32(self.mem_addr(m)),
        }
    }

    fn read_rm128(&self, src: &RM) -> Result<u128, Trap> {
        match src {
            RM::Reg(x) => Ok(self.xmm[x.0 as usize]),
            RM::Mem(m) => self.mem.load_u128(self.mem_addr(m)),
        }
    }

    fn read_gmi(&self, src: &GMI) -> Result<u64, Trap> {
        match src {
            GMI::Reg(r) => Ok(self.gpr[r.0 as usize]),
            GMI::Mem(m) => self.mem.load_u64(self.mem_addr(m)),
            GMI::Imm(i) => Ok(*i as u64),
        }
    }

    /// Crash-on-miss check: trap if a double bit pattern carries the
    /// replacement flag (only called for double-precision consumers).
    #[inline]
    pub(crate) fn check_flag64(&self, bits: u64, insn: InsnId) -> Result<(), Trap> {
        if self.opts.trap_on_flag && bits & HI_MASK == FLAG_HI64 {
            Err(Trap::FlaggedNanConsumed { insn })
        } else {
            Ok(())
        }
    }

    pub(crate) fn fp_alu_f64(op: FpAluOp, a: f64, b: f64) -> f64 {
        // x86 propagates the first operand's NaN (quieted) when both are
        // NaN. Rust leaves that NaN unspecified, and the compiler may
        // commute `a + b` differently in each engine, so it is explicit.
        let nan_first = |r: f64| {
            if r.is_nan() && a.is_nan() {
                f64::from_bits(a.to_bits() | 1 << 51)
            } else {
                r
            }
        };
        match op {
            FpAluOp::Add => nan_first(a + b),
            FpAluOp::Sub => nan_first(a - b),
            FpAluOp::Mul => nan_first(a * b),
            FpAluOp::Div => nan_first(a / b),
            // x86 min/max semantics: return the second source unless the
            // first compares strictly less/greater.
            FpAluOp::Min => {
                if a < b {
                    a
                } else {
                    b
                }
            }
            FpAluOp::Max => {
                if a > b {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// Scalar single-precision ALU semantics (x86 `min`/`max` source
    /// preference included). Public so shadow-value analyses apply the
    /// exact operation the interpreter would.
    pub fn fp_alu_f32(op: FpAluOp, a: f32, b: f32) -> f32 {
        // The first operand's NaN wins, as in `fp_alu_f64`.
        let nan_first = |r: f32| {
            if r.is_nan() && a.is_nan() {
                f32::from_bits(a.to_bits() | 1 << 22)
            } else {
                r
            }
        };
        match op {
            FpAluOp::Add => nan_first(a + b),
            FpAluOp::Sub => nan_first(a - b),
            FpAluOp::Mul => nan_first(a * b),
            FpAluOp::Div => nan_first(a / b),
            FpAluOp::Min => {
                if a < b {
                    a
                } else {
                    b
                }
            }
            FpAluOp::Max => {
                if a > b {
                    a
                } else {
                    b
                }
            }
        }
    }

    pub(crate) fn math_f64(fun: MathFun, x: f64) -> f64 {
        match fun {
            MathFun::Sin => x.sin(),
            MathFun::Cos => x.cos(),
            MathFun::Exp => x.exp(),
            MathFun::Log => x.ln(),
            MathFun::Abs => x.abs(),
            MathFun::Neg => -x,
        }
    }

    /// Scalar single-precision math-library semantics. Public for the
    /// same reason as [`Vm::fp_alu_f32`].
    pub fn math_f32(fun: MathFun, x: f32) -> f32 {
        match fun {
            MathFun::Sin => x.sin(),
            MathFun::Cos => x.cos(),
            MathFun::Exp => x.exp(),
            MathFun::Log => x.ln(),
            MathFun::Abs => x.abs(),
            MathFun::Neg => -x,
        }
    }

    fn exec_insn(&mut self, insn: &Insn) -> Result<(), Trap> {
        if let Some(p) = &mut self.profile {
            p.bump(insn.id);
        }
        self.stats.cycles += insn.cycles(&self.opts.cost);
        self.stats.fp_ops += insn.fp_ops();
        match &insn.kind {
            InstKind::FpArith { op, prec, packed, dst, src } => match (prec, packed) {
                (Prec::Double, false) => {
                    let a = self.xmm_lo64(*dst);
                    let b = self.read_rm64(src)?;
                    self.check_flag64(a, insn.id)?;
                    self.check_flag64(b, insn.id)?;
                    let r = Self::fp_alu_f64(*op, f64::from_bits(a), f64::from_bits(b));
                    self.set_xmm_lo64(*dst, r.to_bits());
                }
                (Prec::Single, false) => {
                    let a = self.xmm_lo32(*dst);
                    let b = self.read_rm32(src)?;
                    let r = Self::fp_alu_f32(*op, f32::from_bits(a), f32::from_bits(b));
                    self.set_xmm_lo32(*dst, r.to_bits());
                }
                (Prec::Double, true) => {
                    let a = self.xmm[dst.0 as usize];
                    let b = self.read_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..2 {
                        let ab = (a >> (64 * lane)) as u64;
                        let bb = (b >> (64 * lane)) as u64;
                        self.check_flag64(ab, insn.id)?;
                        self.check_flag64(bb, insn.id)?;
                        let r = Self::fp_alu_f64(*op, f64::from_bits(ab), f64::from_bits(bb));
                        out |= u128::from(r.to_bits()) << (64 * lane);
                    }
                    self.xmm[dst.0 as usize] = out;
                }
                (Prec::Single, true) => {
                    let a = self.xmm[dst.0 as usize];
                    let b = self.read_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..4 {
                        let ab = (a >> (32 * lane)) as u32;
                        let bb = (b >> (32 * lane)) as u32;
                        let r = Self::fp_alu_f32(*op, f32::from_bits(ab), f32::from_bits(bb));
                        out |= u128::from(r.to_bits()) << (32 * lane);
                    }
                    self.xmm[dst.0 as usize] = out;
                }
            },
            InstKind::FpSqrt { prec, packed, dst, src } => match (prec, packed) {
                (Prec::Double, false) => {
                    let b = self.read_rm64(src)?;
                    self.check_flag64(b, insn.id)?;
                    self.set_xmm_lo64(*dst, f64::from_bits(b).sqrt().to_bits());
                }
                (Prec::Single, false) => {
                    let b = self.read_rm32(src)?;
                    self.set_xmm_lo32(*dst, f32::from_bits(b).sqrt().to_bits());
                }
                (Prec::Double, true) => {
                    let b = self.read_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..2 {
                        let bb = (b >> (64 * lane)) as u64;
                        self.check_flag64(bb, insn.id)?;
                        out |= u128::from(f64::from_bits(bb).sqrt().to_bits()) << (64 * lane);
                    }
                    self.xmm[dst.0 as usize] = out;
                }
                (Prec::Single, true) => {
                    let b = self.read_rm128(src)?;
                    let mut out = 0u128;
                    for lane in 0..4 {
                        let bb = (b >> (32 * lane)) as u32;
                        out |= u128::from(f32::from_bits(bb).sqrt().to_bits()) << (32 * lane);
                    }
                    self.xmm[dst.0 as usize] = out;
                }
            },
            InstKind::FpMath { fun, prec, dst, src } => match prec {
                Prec::Double => {
                    let b = self.read_rm64(src)?;
                    self.check_flag64(b, insn.id)?;
                    self.set_xmm_lo64(*dst, Self::math_f64(*fun, f64::from_bits(b)).to_bits());
                }
                Prec::Single => {
                    let b = self.read_rm32(src)?;
                    self.set_xmm_lo32(*dst, Self::math_f32(*fun, f32::from_bits(b)).to_bits());
                }
            },
            InstKind::FpUcomi { prec, lhs, src } => {
                let (a, b, unordered) = match prec {
                    Prec::Double => {
                        let a = self.xmm_lo64(*lhs);
                        let b = self.read_rm64(src)?;
                        self.check_flag64(a, insn.id)?;
                        self.check_flag64(b, insn.id)?;
                        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                        (fa, fb, fa.is_nan() || fb.is_nan())
                    }
                    Prec::Single => {
                        let a = f32::from_bits(self.xmm_lo32(*lhs));
                        let b = f32::from_bits(self.read_rm32(src)?);
                        (a as f64, b as f64, a.is_nan() || b.is_nan())
                    }
                };
                // x86 ucomis*: unordered sets ZF=PF=CF=1.
                self.flags = if unordered {
                    Flags { eq: true, lt: false, ult: true, unordered: true }
                } else {
                    Flags { eq: a == b, lt: a < b, ult: a < b, unordered: false }
                };
            }
            InstKind::CvtF2F { to, dst, src } => match to {
                Prec::Single => {
                    let b = self.read_rm64(src)?;
                    self.check_flag64(b, insn.id)?;
                    self.set_xmm_lo32(*dst, (f64::from_bits(b) as f32).to_bits());
                }
                Prec::Double => {
                    let b = self.read_rm32(src)?;
                    self.set_xmm_lo64(*dst, (f32::from_bits(b) as f64).to_bits());
                }
            },
            InstKind::CvtI2F { to, dst, src } => {
                let v = self.read_gmi(src)? as i64;
                match to {
                    Prec::Double => self.set_xmm_lo64(*dst, (v as f64).to_bits()),
                    Prec::Single => self.set_xmm_lo32(*dst, (v as f32).to_bits()),
                }
            }
            InstKind::CvtF2I { from, dst, src } => {
                let v = match from {
                    Prec::Double => {
                        let b = self.read_rm64(src)?;
                        self.check_flag64(b, insn.id)?;
                        f64::from_bits(b) as i64
                    }
                    Prec::Single => f32::from_bits(self.read_rm32(src)?) as i64,
                };
                self.gpr[dst.0 as usize] = v as u64;
            }
            InstKind::MovF { width, dst, src } => match width {
                Width::W32 => {
                    let v = match src {
                        FpLoc::Reg(x) => self.xmm_lo32(*x),
                        FpLoc::Mem(m) => self.mem.load_u32(self.mem_addr(m))?,
                    };
                    match dst {
                        FpLoc::Reg(x) => self.set_xmm_lo32(*x, v),
                        FpLoc::Mem(m) => self.mem.store_u32(self.mem_addr(m), v)?,
                    }
                }
                Width::W64 => {
                    let v = match src {
                        FpLoc::Reg(x) => self.xmm_lo64(*x),
                        FpLoc::Mem(m) => self.mem.load_u64(self.mem_addr(m))?,
                    };
                    match dst {
                        FpLoc::Reg(x) => self.set_xmm_lo64(*x, v),
                        FpLoc::Mem(m) => self.mem.store_u64(self.mem_addr(m), v)?,
                    }
                }
                Width::W128 => {
                    let v = match src {
                        FpLoc::Reg(x) => self.xmm[x.0 as usize],
                        FpLoc::Mem(m) => self.mem.load_u128(self.mem_addr(m))?,
                    };
                    match dst {
                        FpLoc::Reg(x) => self.xmm[x.0 as usize] = v,
                        FpLoc::Mem(m) => self.mem.store_u128(self.mem_addr(m), v)?,
                    }
                }
            },
            InstKind::FpTrunc { mant, exp, dst, lane } => {
                let sh = 64 * (*lane as u32 & 1);
                let slot = (self.xmm[dst.0 as usize] >> sh) as u64;
                let q = crate::value::quantize_f32_bits(slot as u32, *mant as u32, *exp as u32);
                let r = &mut self.xmm[dst.0 as usize];
                *r =
                    (*r & !(u128::from(u64::MAX) << sh)) | (u128::from(FLAG_HI64 | q as u64) << sh);
            }
            InstKind::PExtrQ { dst, src, lane } => {
                self.gpr[dst.0 as usize] =
                    (self.xmm[src.0 as usize] >> (64 * (*lane as u32 & 1))) as u64;
            }
            InstKind::PInsrQ { dst, src, lane } => {
                let sh = 64 * (*lane as u32 & 1);
                let r = &mut self.xmm[dst.0 as usize];
                *r = (*r & !(u128::from(u64::MAX) << sh))
                    | (u128::from(self.gpr[src.0 as usize]) << sh);
            }
            InstKind::IntAlu { op, dst, src } => {
                let a = self.gpr[dst.0 as usize];
                let b = self.read_gmi(src)?;
                let r = match op {
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
                self.gpr[dst.0 as usize] = r;
            }
            InstKind::MovI { dst, src } => {
                let v = self.read_gmi(src)?;
                match dst {
                    GM::Reg(r) => self.gpr[r.0 as usize] = v,
                    GM::Mem(m) => self.mem.store_u64(self.mem_addr(m), v)?,
                }
            }
            InstKind::Cmp { lhs, src } => {
                let a = self.gpr[lhs.0 as usize];
                let b = self.read_gmi(src)?;
                self.flags =
                    Flags { eq: a == b, lt: (a as i64) < (b as i64), ult: a < b, unordered: false };
            }
            InstKind::Test { lhs, src } => {
                let r = self.gpr[lhs.0 as usize] & self.read_gmi(src)?;
                self.flags = Flags { eq: r == 0, lt: (r as i64) < 0, ult: false, unordered: false };
            }
            InstKind::Lea { dst, mem } => {
                self.gpr[dst.0 as usize] = self.mem_addr(mem);
            }
            InstKind::Push { src } => {
                let rsp = self.gpr[Gpr::RSP.0 as usize].wrapping_sub(8);
                self.mem.store_u64(rsp, self.gpr[src.0 as usize])?;
                self.gpr[Gpr::RSP.0 as usize] = rsp;
            }
            InstKind::Pop { dst } => {
                let rsp = self.gpr[Gpr::RSP.0 as usize];
                let v = self.mem.load_u64(rsp)?;
                self.gpr[dst.0 as usize] = v;
                self.gpr[Gpr::RSP.0 as usize] = rsp.wrapping_add(8);
            }
            InstKind::Call { .. } | InstKind::Nop => {}
        }
        Ok(())
    }

    pub(crate) fn cond_holds(&self, c: Cond) -> bool {
        let f = self.flags;
        match c {
            Cond::Eq => f.eq,
            Cond::Ne => !f.eq,
            Cond::Lt => f.lt,
            Cond::Le => f.lt || f.eq,
            Cond::Gt => !(f.lt || f.eq),
            Cond::Ge => !f.lt,
            Cond::Below => f.ult,
            Cond::BelowEq => f.ult || f.eq,
            Cond::Above => !(f.ult || f.eq),
            Cond::AboveEq => !f.ult,
            Cond::Unordered => f.unordered,
            Cond::Ordered => !f.unordered,
        }
    }

    /// Run from the program's entry function to `Halt`, a trap, or fuel
    /// exhaustion.
    pub fn run(&mut self) -> RunOutcome {
        let entry = self.prog.func(self.prog.entry).entry;
        let result = self.run_from(entry);
        RunOutcome { stats: self.stats, result, profile: self.profile.take() }
    }

    fn run_from(&mut self, entry: BlockId) -> Result<(), Trap> {
        let prog = self.prog;
        let mut block = entry;
        let mut idx = 0usize;
        loop {
            if self.stats.steps >= self.opts.fuel {
                return Err(Trap::FuelExhausted);
            }
            self.stats.steps += 1;
            let blk = prog.block(block);
            if idx < blk.insns.len() {
                let insn = &blk.insns[idx];
                if let InstKind::Call { func } = insn.kind {
                    if let Some(p) = &mut self.profile {
                        p.bump(insn.id);
                    }
                    self.stats.cycles += self.opts.cost.call;
                    if self.ret_stack.len() >= self.opts.max_call_depth {
                        return Err(Trap::CallDepth);
                    }
                    let callee = prog.func(func);
                    if callee.entry.0 == u32::MAX {
                        return Err(Trap::NoEntry);
                    }
                    self.ret_stack.push((block, idx + 1));
                    block = callee.entry;
                    idx = 0;
                    continue;
                }
                // The loop counted one step. A charged instruction runs
                // out of fuel where its path would, with exactly `fuel`
                // steps, and when it traps it counts one step, the first
                // instruction of its path, which reads the same operands.
                let extra = insn.steps() - 1;
                if self.stats.steps + extra > self.opts.fuel {
                    self.stats.steps = self.opts.fuel;
                    return Err(Trap::FuelExhausted);
                }
                self.stats.steps += extra;
                self.exec_insn(insn).inspect_err(|_| self.stats.steps -= extra)?;
                idx += 1;
            } else {
                match &blk.term {
                    Terminator::Jmp(b) => {
                        block = *b;
                        idx = 0;
                    }
                    Terminator::Br { cond, then_, else_ } => {
                        block = if self.cond_holds(*cond) { *then_ } else { *else_ };
                        idx = 0;
                    }
                    Terminator::Ret => match self.ret_stack.pop() {
                        Some((b, i)) => {
                            block = b;
                            idx = i;
                        }
                        None => return Err(Trap::ReturnFromEntry),
                    },
                    Terminator::Halt => return Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn prog1() -> Program {
        Program::new(1 << 16)
    }

    /// Build: main() { xmm0 = g[0]; xmm1 = g[1]; xmm0 += xmm1; store g[2]; }
    fn make_add_prog(a: f64, b: f64) -> Program {
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let blk = p.add_block(f);
        p.funcs[f.0 as usize].entry = blk;
        p.entry = f;
        p.globals = Vec::new();
        p.globals.extend_from_slice(&a.to_bits().to_le_bytes());
        p.globals.extend_from_slice(&b.to_bits().to_le_bytes());
        p.globals.extend_from_slice(&[0u8; 8]);
        p.symbols.insert("out".into(), 16);
        p.push_insn(
            blk,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        p.push_insn(
            blk,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Reg(Xmm(1)),
                src: FpLoc::Mem(MemRef::abs(8)),
            },
        );
        p.push_insn(
            blk,
            InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(0),
                src: RM::Reg(Xmm(1)),
            },
        );
        p.push_insn(
            blk,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(16)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(blk).term = Terminator::Halt;
        p
    }

    #[test]
    fn scalar_double_add() {
        let p = make_add_prog(1.25, 2.5);
        let out = Vm::run_program(&p, VmOptions::default());
        assert!(out.ok());
        let m = Memory::new(1, &[]);
        let _ = m; // silence
        let mut vm = Vm::new(&p, VmOptions::default());
        let o = vm.run();
        assert!(o.ok());
        assert_eq!(vm.mem.read_f64_slice(16, 1).unwrap()[0], 3.75);
        assert!(o.stats.steps > 0 && o.stats.cycles > 0);
    }

    #[test]
    fn loop_with_counter() {
        // sum 1..=10 with integer ops, convert to double, store.
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let head = p.add_block(f);
        let body = p.add_block(f);
        let done = p.add_block(f);
        p.funcs[f.0 as usize].entry = head;
        p.entry = f;
        p.globals = vec![0u8; 8];
        // rcx = counter (Gpr 2), rax = sum
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
        p.push_insn(
            done,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(0)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(done).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run().ok());
        assert_eq!(vm.mem.read_f64_slice(0, 1).unwrap()[0], 55.0);
    }

    #[test]
    fn call_and_ret() {
        // main calls sq(x) which squares xmm0.
        let mut p = prog1();
        let m = p.add_module("t");
        let fmain = p.add_function(m, "main");
        let fsq = p.add_function(m, "sq");
        let bm = p.add_block(fmain);
        let bs = p.add_block(fsq);
        p.funcs[fmain.0 as usize].entry = bm;
        p.funcs[fsq.0 as usize].entry = bs;
        p.entry = fmain;
        p.globals = vec![0u8; 8];
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
        p.push_insn(bm, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(7) });
        p.push_insn(
            bm,
            InstKind::CvtI2F { to: Prec::Double, dst: Xmm(0), src: GMI::Reg(Gpr::RAX) },
        );
        p.push_insn(bm, InstKind::Call { func: fsq });
        p.push_insn(
            bm,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(0)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(bm).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run().ok());
        assert_eq!(vm.mem.read_f64_slice(0, 1).unwrap()[0], 49.0);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        p.block_mut(b).term = Terminator::Jmp(b);
        let out = Vm::run_program(&p, VmOptions { fuel: 100, ..Default::default() });
        assert_eq!(out.result, Err(Trap::FuelExhausted));
    }

    #[test]
    fn flagged_value_traps_uninstrumented_consumer() {
        let mut p = make_add_prog(0.0, 0.0);
        // poison g[0] with a replaced value
        let r = crate::value::replace(1.5);
        p.globals[..8].copy_from_slice(&r.to_le_bytes());
        let out = Vm::run_program(&p, VmOptions::default());
        assert!(matches!(out.result, Err(Trap::FlaggedNanConsumed { .. })));
        // without the trap, the NaN propagates silently
        let out = Vm::run_program(&p, VmOptions { trap_on_flag: false, ..Default::default() });
        assert!(out.ok());
        let mut vm = Vm::new(&p, VmOptions { trap_on_flag: false, ..Default::default() });
        vm.run();
        assert!(vm.mem.read_f64_slice(16, 1).unwrap()[0].is_nan());
    }

    #[test]
    fn single_ops_ignore_flags() {
        // addss on a flagged slot operates on the low 32 bits (the payload).
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        let ra = crate::value::replace(1.5);
        let rb = crate::value::replace(2.25);
        p.globals.extend_from_slice(&ra.to_le_bytes());
        p.globals.extend_from_slice(&rb.to_le_bytes());
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
                prec: Prec::Single,
                packed: false,
                dst: Xmm(0),
                src: RM::Mem(MemRef::abs(8)),
            },
        );
        p.push_insn(
            b,
            InstKind::MovF {
                width: Width::W64,
                dst: FpLoc::Mem(MemRef::abs(0)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(b).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run().ok());
        let bits = vm.mem.load_u64(0).unwrap();
        // result payload is 3.75f32; high half still carries xmm0's old flag
        assert_eq!(f32::from_bits(bits as u32), 3.75);
        assert!(crate::value::is_replaced(bits));
    }

    #[test]
    fn profile_counts_executions() {
        let p = make_add_prog(1.0, 2.0);
        let out = Vm::run_program(&p, VmOptions { profile: true, ..Default::default() });
        let prof = out.profile.unwrap();
        assert_eq!(prof.total(), 4); // four instructions, once each
    }

    #[test]
    fn packed_double_roundtrip() {
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        for v in [1.5f64, 2.5, 10.0, 20.0] {
            p.globals.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        p.push_insn(
            b,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Reg(Xmm(0)),
                src: FpLoc::Mem(MemRef::abs(0)),
            },
        );
        p.push_insn(
            b,
            InstKind::FpArith {
                op: FpAluOp::Mul,
                prec: Prec::Double,
                packed: true,
                dst: Xmm(0),
                src: RM::Mem(MemRef::abs(16)),
            },
        );
        p.push_insn(
            b,
            InstKind::MovF {
                width: Width::W128,
                dst: FpLoc::Mem(MemRef::abs(0)),
                src: FpLoc::Reg(Xmm(0)),
            },
        );
        p.block_mut(b).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        assert!(vm.run().ok());
        assert_eq!(vm.mem.read_f64_slice(0, 2).unwrap(), vec![15.0, 50.0]);
    }

    #[test]
    fn ucomi_sets_flags_for_branches() {
        for (a, b, cond, taken) in [
            (1.0f64, 2.0f64, Cond::Below, true),
            (2.0, 1.0, Cond::Below, false),
            (2.0, 2.0, Cond::Eq, true),
            (f64::NAN, 1.0, Cond::Unordered, true),
        ] {
            let mut p = prog1();
            let m = p.add_module("t");
            let f = p.add_function(m, "main");
            let blk = p.add_block(f);
            let t = p.add_block(f);
            let e = p.add_block(f);
            p.funcs[f.0 as usize].entry = blk;
            p.entry = f;
            p.globals = vec![0u8; 24];
            p.globals[..8].copy_from_slice(&a.to_bits().to_le_bytes());
            p.globals[8..16].copy_from_slice(&b.to_bits().to_le_bytes());
            p.push_insn(
                blk,
                InstKind::MovF {
                    width: Width::W64,
                    dst: FpLoc::Reg(Xmm(0)),
                    src: FpLoc::Mem(MemRef::abs(0)),
                },
            );
            p.push_insn(
                blk,
                InstKind::FpUcomi { prec: Prec::Double, lhs: Xmm(0), src: RM::Mem(MemRef::abs(8)) },
            );
            p.block_mut(blk).term = Terminator::Br { cond, then_: t, else_: e };
            p.push_insn(t, InstKind::MovI { dst: GM::Mem(MemRef::abs(16)), src: GMI::Imm(1) });
            p.block_mut(t).term = Terminator::Halt;
            p.push_insn(e, InstKind::MovI { dst: GM::Mem(MemRef::abs(16)), src: GMI::Imm(0) });
            p.block_mut(e).term = Terminator::Halt;
            let mut vm = Vm::new(&p, VmOptions::default());
            assert!(vm.run().ok());
            assert_eq!(vm.mem.load_u64(16).unwrap() == 1, taken, "a={a} b={b} cond={cond:?}");
        }
    }

    #[test]
    fn push_pop_stack_discipline() {
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        p.globals = vec![0u8; 8];
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(42) });
        p.push_insn(b, InstKind::Push { src: Gpr::RAX });
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(0) });
        p.push_insn(b, InstKind::Pop { dst: Gpr::RBX });
        p.push_insn(b, InstKind::MovI { dst: GM::Mem(MemRef::abs(0)), src: GMI::Reg(Gpr::RBX) });
        p.block_mut(b).term = Terminator::Halt;
        let mut vm = Vm::new(&p, VmOptions::default());
        let rsp0 = vm.gpr[Gpr::RSP.0 as usize];
        assert!(vm.run().ok());
        assert_eq!(vm.mem.load_u64(0).unwrap(), 42);
        assert_eq!(vm.gpr[Gpr::RSP.0 as usize], rsp0);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut p = prog1();
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        p.push_insn(b, InstKind::MovI { dst: GM::Reg(Gpr::RAX), src: GMI::Imm(5) });
        p.push_insn(b, InstKind::IntAlu { op: IntOp::Div, dst: Gpr::RAX, src: GMI::Imm(0) });
        p.block_mut(b).term = Terminator::Halt;
        assert_eq!(Vm::run_program(&p, VmOptions::default()).result, Err(Trap::DivByZero));
    }
}

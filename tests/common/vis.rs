//! Random VIS programs for differential checks of the rewriter's
//! analyses (lean snippet facts, the reach analysis).
//!
//! A program has three functions over a small data segment: three global
//! arrays of twelve doubles and a constant pool no instruction stores
//! to. `f0` is the entry; `f1` and `f2` are helpers, and a function only
//! calls later ones, so every run ends. Each function opens with a fixed
//! 64-byte frame whose slots it zeroes, runs a random body, and closes the
//! frame; `f0` then writes `%xmm0..%xmm5` to the last array, so the data
//! segment holds every register's final bits.
//!
//! Bodies mix, on six shared XMM registers: scalar and packed double
//! arithmetic, square roots, math calls and compares (the candidates);
//! `cvtsd2ss`/`cvtss2sd`/`cvtsi2sd`/`cvttsd2si` conversions; W32, W64 and
//! W128 moves between registers, array elements, `%rsp` slots and
//! constants; `pextrq`/`pinsrq` through four data GPRs, with integer
//! arithmetic, loads and stores on them; stores and loads through a base
//! register the reach analysis cannot resolve (in some programs, every
//! array store); calls; counted loops; and
//! if/else on a compare. Every branch is right after its compare, so the
//! machine flags a snippet clobbers are never read; indices stay in
//! bounds, and there is no integer division, so the only trap a program
//! can hit is a replaced value reaching an ignored candidate.

use fpvm::{
    BlockId, Cond, FpAluOp, FpLoc, FuncId, Gpr, InstKind, IntOp, MathFun, MemRef, Prec, Program,
    Terminator, Width, Xmm, GM, GMI, RM,
};
use proptest::TestRng;

/// Bytes of each global array (12 doubles).
const ARRAY: u64 = 96;
/// Number of global arrays.
const ARRAYS: u64 = 3;
/// Start of the constant pool (8 doubles).
const CONSTS: u64 = ARRAYS * ARRAY;
/// Bytes of every function's frame.
const FRAME: i64 = 64;
/// XMM registers the bodies use.
const XMMS: u8 = 6;
/// Functions per program.
const FUNCS: u32 = 3;
/// The register that holds an array index.
const IDX: Gpr = Gpr(7);
/// The base register of accesses the analysis cannot resolve.
const BASE: Gpr = Gpr(14);

struct Gen {
    rng: TestRng,
    /// Percent of array stores made through a base register (a fifth of
    /// the array loads are).
    base_pct: usize,
    p: Program,
    func: FuncId,
    cur: BlockId,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn emit(&mut self, kind: InstKind) {
        self.p.push_insn(self.cur, kind);
    }

    fn block(&mut self) -> BlockId {
        self.p.add_block(self.func)
    }

    fn seal(&mut self, term: Terminator) {
        self.p.block_mut(self.cur).term = term;
    }

    fn xmm(&mut self) -> Xmm {
        Xmm(self.below(XMMS as usize) as u8)
    }

    /// A data GPR: `%rcx`..`%rsi`.
    fn gpr(&mut self) -> Gpr {
        Gpr(2 + self.below(4) as u8)
    }

    fn alu(&mut self) -> FpAluOp {
        [FpAluOp::Add, FpAluOp::Sub, FpAluOp::Mul, FpAluOp::Div, FpAluOp::Min, FpAluOp::Max]
            [self.below(6)]
    }

    /// An element of a global array for an access of `width` bytes: most
    /// accesses go to the first two, so loads often read what a store
    /// wrote.
    fn element(&mut self, width: u64) -> i64 {
        let n = if self.chance(75) { 2 } else { (ARRAY - width) as usize / 8 + 1 };
        self.below(n) as i64
    }

    /// A memory operand of `width` bytes that is safe to read (`store`:
    /// to write, so never the constant pool). Emits what sets up its
    /// index or base register.
    fn mem(&mut self, width: u64, store: bool) -> MemRef {
        let slots = (FRAME as u64 - width) / 8 + 1;
        let array_via_base = self.chance(if store { self.base_pct } else { 20 });
        match self.below(if store { 2 } else { 3 }) {
            // An array element by index: the array's base in `disp`.
            0 if !array_via_base => {
                let array = self.below(ARRAYS as usize) as u64 * ARRAY;
                let k = self.element(width);
                self.emit(InstKind::MovI { dst: GM::Reg(IDX), src: GMI::Imm(k) });
                MemRef { base: None, index: Some((IDX, 8)), disp: array as i64 }
            }
            1 => MemRef::base_disp(Gpr::RSP, 8 * self.below(slots as usize) as i64),
            // Through a base register the analysis cannot resolve.
            0 => {
                let array = self.below(ARRAYS as usize) as u64 * ARRAY;
                self.emit(InstKind::Lea { dst: BASE, mem: MemRef::abs(array) });
                let k = self.element(width);
                MemRef::base_disp(BASE, 8 * k)
            }
            _ => MemRef::abs(CONSTS + 8 * self.below((64 - width) as usize / 8 + 1) as u64),
        }
    }

    fn rm(&mut self, width: u64) -> RM {
        if self.chance(50) {
            RM::Reg(self.xmm())
        } else {
            RM::Mem(self.mem(width, false))
        }
    }

    /// One straight-line operation.
    fn op(&mut self) {
        let k = match self.below(22) {
            0..=3 => {
                let src = self.rm(8);
                let (op, dst) = (self.alu(), self.xmm());
                InstKind::FpArith { op, prec: Prec::Double, packed: false, dst, src }
            }
            4 | 5 => {
                let src = self.rm(16);
                let (op, dst) = (self.alu(), self.xmm());
                InstKind::FpArith { op, prec: Prec::Double, packed: true, dst, src }
            }
            6 => {
                let packed = self.chance(30);
                let src = self.rm(if packed { 16 } else { 8 });
                InstKind::FpSqrt { prec: Prec::Double, packed, dst: self.xmm(), src }
            }
            7 => {
                let src = self.rm(8);
                let fun = [MathFun::Abs, MathFun::Neg, MathFun::Sin][self.below(3)];
                InstKind::FpMath { fun, prec: Prec::Double, dst: self.xmm(), src }
            }
            8 => {
                let src = self.rm(8);
                InstKind::FpUcomi { prec: Prec::Double, lhs: self.xmm(), src }
            }
            9 => {
                let src = self.rm(8);
                InstKind::CvtF2I { from: Prec::Double, dst: self.gpr(), src }
            }
            10 => {
                let src = self.rm(8);
                InstKind::CvtF2F { to: Prec::Single, dst: self.xmm(), src }
            }
            11 => {
                let src = RM::Reg(self.xmm());
                InstKind::CvtF2F { to: Prec::Double, dst: self.xmm(), src }
            }
            12 => {
                let src = if self.chance(50) {
                    GMI::Reg(self.gpr())
                } else {
                    GMI::Imm(self.below(9) as i64 - 4)
                };
                InstKind::CvtI2F { to: Prec::Double, dst: self.xmm(), src }
            }
            13..=15 => {
                let width = [Width::W32, Width::W64, Width::W128][self.below(3)];
                let bytes = width.bytes() as u64;
                match self.below(3) {
                    0 => InstKind::MovF {
                        width,
                        dst: FpLoc::Reg(self.xmm()),
                        src: FpLoc::Reg(self.xmm()),
                    },
                    1 => {
                        let src = FpLoc::Mem(self.mem(bytes, false));
                        InstKind::MovF { width, dst: FpLoc::Reg(self.xmm()), src }
                    }
                    _ => {
                        let dst = FpLoc::Mem(self.mem(bytes, true));
                        InstKind::MovF { width, dst, src: FpLoc::Reg(self.xmm()) }
                    }
                }
            }
            16 => InstKind::PExtrQ { dst: self.gpr(), src: self.xmm(), lane: self.below(2) as u8 },
            17 => InstKind::PInsrQ { dst: self.xmm(), src: self.gpr(), lane: self.below(2) as u8 },
            18 => {
                let dst = GM::Mem(self.mem(8, true));
                InstKind::MovI { dst, src: GMI::Reg(self.gpr()) }
            }
            19 => {
                let src = GMI::Mem(self.mem(8, false));
                InstKind::MovI { dst: GM::Reg(self.gpr()), src }
            }
            20 => {
                let op = [IntOp::Add, IntOp::Xor, IntOp::And, IntOp::Or][self.below(4)];
                let src = if self.chance(50) {
                    GMI::Reg(self.gpr())
                } else {
                    GMI::Imm(self.below(256) as i64)
                };
                InstKind::IntAlu { op, dst: self.gpr(), src }
            }
            _ => InstKind::MovI { dst: GM::Reg(self.gpr()), src: GMI::Imm(self.below(64) as i64) },
        };
        self.emit(k);
    }

    /// A random body of `n` statements at loop depth `depth`.
    fn body(&mut self, n: usize, depth: u8) {
        for _ in 0..n {
            match self.below(20) {
                0 | 1 if self.func.0 + 1 < FUNCS => {
                    let callee =
                        self.func.0 + 1 + self.below((FUNCS - self.func.0 - 1) as usize) as u32;
                    self.emit(InstKind::Call { func: FuncId(callee) });
                }
                2 if depth < 2 => {
                    // A counted loop on a counter of this function's own.
                    let ctr = Gpr(8 + 2 * self.func.0 as u8 + depth);
                    let iters = 1 + self.below(3) as i64;
                    self.emit(InstKind::MovI { dst: GM::Reg(ctr), src: GMI::Imm(0) });
                    let (head, body, exit) = (self.block(), self.block(), self.block());
                    self.seal(Terminator::Jmp(head));
                    self.cur = head;
                    self.emit(InstKind::Cmp { lhs: ctr, src: GMI::Imm(iters) });
                    self.seal(Terminator::Br { cond: Cond::Lt, then_: body, else_: exit });
                    self.cur = body;
                    let n = 2 + self.below(5);
                    self.body(n, depth + 1);
                    self.emit(InstKind::IntAlu { op: IntOp::Add, dst: ctr, src: GMI::Imm(1) });
                    self.seal(Terminator::Jmp(head));
                    self.cur = exit;
                }
                3 if depth < 2 => {
                    // if/else on a double compare, right before its branch.
                    let (lhs, src) = (self.xmm(), self.rm(8));
                    self.emit(InstKind::FpUcomi { prec: Prec::Double, lhs, src });
                    let (then_, else_, join) = (self.block(), self.block(), self.block());
                    let cond = [Cond::Below, Cond::AboveEq, Cond::Eq][self.below(3)];
                    self.seal(Terminator::Br { cond, then_, else_ });
                    for b in [then_, else_] {
                        self.cur = b;
                        let n = 1 + self.below(4);
                        self.body(n, depth + 1);
                        self.seal(Terminator::Jmp(join));
                    }
                    self.cur = join;
                }
                _ => self.op(),
            }
        }
    }
}

/// A random program from `seed` (see the module docs).
pub fn random_program(seed: u64) -> Program {
    let mut rng = TestRng::new(seed);
    let base_pct = [0, 50, 100][rng.below(3)];
    let mut g = Gen { rng, base_pct, p: Program::new(1 << 14), func: FuncId(0), cur: BlockId(0) };
    let words = (CONSTS / 8 + 8) as usize;
    let mut data = Vec::with_capacity(words * 8);
    for _ in 0..words {
        let x = (g.below(33) as f64 - 16.0) / 4.0 + g.rng.f64_unit() / 7.0;
        data.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    g.p.globals = data;
    for a in 0..ARRAYS {
        g.p.symbols.insert(format!("a{a}"), a * ARRAY);
    }
    let m = g.p.add_module("rand");
    let funcs: Vec<FuncId> = (0..FUNCS).map(|k| g.p.add_function(m, format!("f{k}"))).collect();
    g.p.entry = funcs[0];
    // Helpers first, so a caller's blocks come after its callees'.
    for &f in funcs.iter().rev() {
        g.func = f;
        g.cur = g.block();
        g.p.funcs[f.0 as usize].entry = g.cur;
        g.emit(InstKind::IntAlu { op: IntOp::Sub, dst: Gpr::RSP, src: GMI::Imm(FRAME) });
        for k in 0..FRAME / 8 {
            let slot = GM::Mem(MemRef::base_disp(Gpr::RSP, 8 * k));
            g.emit(InstKind::MovI { dst: slot, src: GMI::Imm(0) });
        }
        let n = 4 + g.below(if f.0 == 0 { 14 } else { 8 });
        g.body(n, 0);
        if f.0 == 0 {
            for x in 0..XMMS {
                let dst = FpLoc::Mem(MemRef::abs((ARRAYS - 1) * ARRAY + 16 * x as u64));
                g.emit(InstKind::MovF { width: Width::W128, dst, src: FpLoc::Reg(Xmm(x)) });
            }
        }
        g.emit(InstKind::IntAlu { op: IntOp::Add, dst: Gpr::RSP, src: GMI::Imm(FRAME) });
        g.seal(if f.0 == 0 { Terminator::Halt } else { Terminator::Ret });
    }
    g.p.validate().expect("generated program is valid");
    g.p
}

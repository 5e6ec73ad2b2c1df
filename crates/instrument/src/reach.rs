//! Static reach analysis: which candidates a replaced value may reach.
//!
//! Paper §2.3 gives every candidate a snippet once a configuration
//! replaces anything, because a replaced (flagged) value may arrive at
//! any double-precision instruction. §2.5 names static data flow as the
//! way to do better. This module finds, for one configuration, the
//! candidates that may consume a flagged value; the rewriter leaves every
//! other double candidate *bare* (the original instruction, no snippet).
//!
//! It is a Kildall-style may-flagged analysis over the original program:
//!
//! * **Sources** are the candidates a configuration replaces (single or
//!   reduced): their snippets flag their output and also their register
//!   inputs, which are downcast in place (see
//!   [`crate::dataflow::FlagState`]). A double snippet unflags its inputs
//!   and produces a plain output.
//! * **Flags travel** through moves; through XMM registers per 64-bit
//!   lane, like `FlagState`; through GPRs (`pextrq`/`pinsrq`, 64-bit
//!   integer loads and stores, integer arithmetic); through call
//!   arguments and returns, context-insensitively (every call site joins
//!   into its callee's entry state and the callee's exit state joins into
//!   every post-call state); and through memory by region. A global array
//!   is keyed by its displacement base (up to the next symbol), a scalar
//!   global or constant by its bytes, and a `%rsp` slot by its function's
//!   frame and offset. An access whose base is unknown reads and taints
//!   one *any* region that overlaps every other. Memory is
//!   flow-insensitive: a region is flagged everywhere once anything may
//!   store a flagged value to it, and data that no instruction stores to
//!   never carries a flag.
//! * `%xmm15` is the snippets' scratch register; a program instruction
//!   that reads it counts as reading a flagged value.
//!
//! Everything that does not depend on the configuration is built once per
//! program ([`Reach::new`]): the CFG, the call graph, each block's transfer
//! function as a list of lane-mask operations, and the memory-region map
//! with its overlaps. Each configuration then runs a worklist fixpoint
//! ([`Reach::run`]) that starts from the blocks holding its sources.
//!
//! The analysis is what lets the rewriter prune, not what makes pruning
//! safe: a bare candidate that consumes a flagged value traps
//! `FlaggedNanConsumed` (paper §2.3's crash-on-miss), and the evaluator
//! reruns such a trial with every candidate instrumented.

use fpvm::isa::{FpLoc, FuncId, Gpr, InstKind, MemRef, Prec, Terminator, Width, Xmm, GM, GMI, RM};
use fpvm::program::Program;
use fpvm::value::{FLAG_HI64, HI_MASK};

/// How a configuration instruments one candidate, as the analysis sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A single or reduced snippet: a source of flagged values.
    Replaced,
    /// A double snippet: it unflags its inputs and its output is plain.
    Double,
    /// Copied untouched (the ignore flag).
    Copied,
}

/// Lane bits of XMM register `x`: bit `2 * x + lane` for each lane in
/// `mask` (bit 0 = lane 0, bit 1 = lane 1).
fn lanes(x: Xmm, mask: u64) -> u64 {
    mask << (2 * x.0)
}

/// The bit of GPR `g`.
fn gpr(g: Gpr) -> u64 {
    1 << (32 + g.0)
}

const LANE0: u64 = 0b01;
const BOTH: u64 = 0b11;
const XMM15: u64 = BOTH << (2 * Xmm::SCRATCH.0 as u64);

/// Where a value comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Registers: flagged if any of these bits is.
    Bits(u64),
    /// Memory region `key`.
    Key(u32),
    /// Statically known.
    Const(bool),
}

/// One step of a block's transfer function.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Every bit of `dst` becomes `src`'s flag.
    Assign { dst: u64, src: Src },
    /// Every bit of `dst` joins `src`'s flag.
    Join { dst: u64, src: Src },
    /// Region `key` is tainted if `src` may be flagged.
    Store { key: u32, src: Src },
    /// A call: the state joins the callee's entry and becomes its exit.
    Call { func: u32 },
    /// Candidate `cand` (see [`Cand`]).
    Cand { cand: u32 },
}

/// A candidate's static effect, by [`Class`].
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Register lanes it reads as doubles.
    uses: u64,
    /// Its memory operand's region, if any.
    mem: Option<u32>,
    /// Whether it reads `%xmm15`.
    scratch_read: bool,
    /// Register input lanes its snippet converts in place.
    conv: u64,
    /// Output lanes: flagged by a replaced snippet, plain otherwise.
    out: u64,
    /// Bits it always makes plain (an integer result).
    kill: u64,
}

struct Block {
    /// `ops[from..to]` of [`Reach::ops`].
    ops: (u32, u32),
    /// Successor blocks.
    succ: Vec<u32>,
    /// Ends in `Ret`: its exit state joins its function's exit.
    ret: bool,
    func: u32,
}

/// A memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Region {
    /// Bytes `lo..hi` of the data segment.
    Global { lo: u64, hi: u64 },
    /// Bytes `lo..hi` from `%rsp` in a function whose `%rsp` is fixed
    /// between its prologue and epilogue.
    Slot { func: u32, lo: i64, hi: i64 },
    /// Anywhere in a function's frame.
    Frame { func: u32 },
    /// Anywhere.
    Any,
}

impl Region {
    fn overlaps(self, o: Region) -> bool {
        use Region::*;
        match (self, o) {
            (Any, _) | (_, Any) => true,
            (Global { lo, hi }, Global { lo: l2, hi: h2 }) => lo < h2 && l2 < hi,
            (Slot { func, lo, hi }, Slot { func: f2, lo: l2, hi: h2 }) => {
                func == f2 && lo < h2 && l2 < hi
            }
            (Slot { func, .. } | Frame { func }, Slot { func: f2, .. } | Frame { func: f2 }) => {
                func == f2
            }
            _ => false,
        }
    }
}

/// The configuration-independent part of the analysis for one program.
pub struct Reach {
    blocks: Vec<Block>,
    ops: Vec<Op>,
    cands: Vec<Cand>,
    /// Per function: its entry block (`u32::MAX` if none) and the blocks
    /// that call it.
    entry: Vec<u32>,
    callers: Vec<Vec<u32>>,
    /// Per region: the regions it overlaps, itself included.
    overlaps: Vec<Vec<u32>>,
    /// Per region: the blocks to revisit once it is tainted (every block
    /// that reads a region overlapping it).
    wake: Vec<Vec<u32>>,
    /// Per candidate, in layout order: its block.
    cand_block: Vec<u32>,
    /// Blocks whose transfer makes a flag out of nothing but constants.
    static_sources: Vec<u32>,
}

/// Whether `%rsp` is only moved by an immediate `sub` opening `f`'s entry
/// block and an immediate `add` closing a returning block, with no push
/// or pop: then every `disp(%rsp)` access of the body names one slot.
fn frame_is_fixed(prog: &Program, f: FuncId) -> bool {
    let func = prog.func(f);
    if func.entry.0 == u32::MAX {
        return true;
    }
    let rsp = Gpr::RSP;
    for &b in &func.blocks {
        let blk = prog.block(b);
        if blk.term.successors().contains(&func.entry) {
            return false;
        }
        let n = blk.insns.len();
        for (k, insn) in blk.insns.iter().enumerate() {
            let writes_rsp = match &insn.kind {
                InstKind::IntAlu { dst, op, src } if *dst == rsp => {
                    let prologue = b == func.entry && k == 0;
                    let epilogue =
                        k + 1 == n && matches!(blk.term, Terminator::Ret | Terminator::Halt);
                    let imm = matches!(src, GMI::Imm(_));
                    let ok = imm
                        && ((prologue && *op == fpvm::IntOp::Sub)
                            || (epilogue && *op == fpvm::IntOp::Add));
                    !ok
                }
                InstKind::MovI { dst: GM::Reg(d), .. }
                | InstKind::Lea { dst: d, .. }
                | InstKind::PExtrQ { dst: d, .. }
                | InstKind::CvtF2I { dst: d, .. } => *d == rsp,
                InstKind::Push { .. } | InstKind::Pop { .. } => true,
                _ => false,
            };
            if writes_rsp {
                return false;
            }
        }
    }
    true
}

/// Builds the static part: regions are interned as they are met.
struct Builder<'p> {
    prog: &'p Program,
    /// Symbol addresses, sorted: the extents of global arrays.
    symbols: Vec<u64>,
    /// Per function: [`frame_is_fixed`].
    fixed: Vec<bool>,
    order: Vec<Region>,
    func: u32,
}

impl Builder<'_> {
    fn intern(&mut self, r: Region) -> u32 {
        match self.order.iter().position(|&o| o == r) {
            Some(k) => k as u32,
            None => {
                self.order.push(r);
                self.order.len() as u32 - 1
            }
        }
    }

    /// The region an access of `width` bytes at `m` touches.
    fn region(&mut self, m: &MemRef, width: u64) -> u32 {
        let data = self.prog.globals.len() as u64;
        let r = match (m.base, m.index) {
            (Some(b), None) if b == Gpr::RSP => {
                if self.fixed[self.func as usize] {
                    Region::Slot { func: self.func, lo: m.disp, hi: m.disp + width as i64 }
                } else {
                    Region::Frame { func: self.func }
                }
            }
            (Some(b), Some(_)) if b == Gpr::RSP => Region::Frame { func: self.func },
            (None, None) if m.disp >= 0 && m.disp as u64 + width <= data => {
                Region::Global { lo: m.disp as u64, hi: m.disp as u64 + width }
            }
            // `disp(,%index,scale)` into a global array: the array's
            // extent, up to the next symbol or the end of the data.
            (None, Some(_)) if self.symbols.binary_search(&(m.disp as u64)).is_ok() => {
                let lo = m.disp as u64;
                let next = self.symbols.iter().find(|&&a| a > lo).copied();
                Region::Global { lo, hi: next.unwrap_or(data).max(lo + 1) }
            }
            _ => Region::Any,
        };
        self.intern(r)
    }

    fn fp_src(&mut self, src: &RM, m: u64, width: u64) -> Src {
        match src {
            RM::Reg(x) => bits(lanes(*x, m)),
            RM::Mem(mm) => Src::Key(self.region(mm, width)),
        }
    }

    fn int_src(&mut self, src: &GMI) -> Src {
        match src {
            GMI::Reg(g) => Src::Bits(gpr(*g)),
            GMI::Mem(m) => Src::Key(self.region(m, 8)),
            GMI::Imm(i) => Src::Const(*i as u64 & HI_MASK == FLAG_HI64),
        }
    }

    /// The transfer of one non-candidate instruction.
    fn op(&mut self, kind: &InstKind, ops: &mut Vec<Op>) {
        let assign = |dst: u64, src: Src| Op::Assign { dst, src };
        match kind {
            // A packed single op writes every lane from both operands; a
            // scalar single op writes the low 32 bits, leaving the lane's
            // flag word as it was.
            InstKind::FpArith { prec: Prec::Single, packed: true, dst, src, .. } => {
                let s = self.fp_src(src, BOTH, 16);
                ops.push(Op::Join { dst: lanes(*dst, BOTH), src: s });
            }
            InstKind::FpSqrt { prec: Prec::Single, packed: true, dst, src } => {
                let s = self.fp_src(src, BOTH, 16);
                ops.push(assign(lanes(*dst, BOTH), s));
            }
            InstKind::CvtF2F { to: Prec::Double, dst, .. }
            | InstKind::CvtI2F { to: Prec::Double, dst, .. } => {
                ops.push(assign(lanes(*dst, LANE0), Src::Const(false)))
            }
            InstKind::CvtF2I { dst, .. } => ops.push(assign(gpr(*dst), Src::Const(false))),
            InstKind::MovF { width, dst, src } => {
                let (m, bytes) = match width {
                    Width::W32 => (LANE0, 4),
                    Width::W64 => (LANE0, 8),
                    Width::W128 => (BOTH, 16),
                };
                match (dst, src) {
                    // A 32-bit write keeps the lane's flag word.
                    (FpLoc::Reg(_), _) if *width == Width::W32 => {}
                    (FpLoc::Reg(d), FpLoc::Reg(s)) => {
                        for l in 0..=(m >> 1) {
                            let (dl, sl) = (lanes(*d, 1 << l), lanes(*s, 1 << l));
                            ops.push(assign(dl, bits(sl)));
                        }
                    }
                    (FpLoc::Reg(d), FpLoc::Mem(mm)) => {
                        let key = self.region(mm, bytes);
                        ops.push(assign(lanes(*d, m), Src::Key(key)));
                    }
                    (FpLoc::Mem(mm), s) => {
                        let src = match s {
                            FpLoc::Reg(x) => bits(lanes(*x, m)),
                            FpLoc::Mem(sm) => Src::Key(self.region(sm, bytes)),
                        };
                        let key = self.region(mm, bytes);
                        ops.push(Op::Store { key, src });
                    }
                }
            }
            InstKind::FpTrunc { dst, lane, .. } => {
                ops.push(assign(lanes(*dst, 1 << (lane & 1)), Src::Const(true)))
            }
            InstKind::PExtrQ { dst, src, lane } => {
                ops.push(assign(gpr(*dst), bits(lanes(*src, 1 << (lane & 1)))))
            }
            InstKind::PInsrQ { dst, src, lane } => {
                ops.push(assign(lanes(*dst, 1 << (lane & 1)), Src::Bits(gpr(*src))))
            }
            InstKind::IntAlu { dst, src, .. } => {
                let s = self.int_src(src);
                ops.push(Op::Join { dst: gpr(*dst), src: s });
            }
            InstKind::MovI { dst, src } => {
                let s = self.int_src(src);
                match dst {
                    GM::Reg(d) => ops.push(assign(gpr(*d), s)),
                    GM::Mem(m) => {
                        let key = self.region(m, 8);
                        ops.push(Op::Store { key, src: s });
                    }
                }
            }
            InstKind::Lea { dst, mem } => {
                let from = mem.base.map_or(0, gpr) | mem.index.map_or(0, |(i, _)| gpr(i));
                ops.push(assign(gpr(*dst), Src::Bits(from)));
            }
            InstKind::Push { src } => {
                let key = self.intern(Region::Frame { func: self.func });
                ops.push(Op::Store { key, src: Src::Bits(gpr(*src)) });
            }
            InstKind::Pop { dst } => {
                let key = self.intern(Region::Frame { func: self.func });
                ops.push(assign(gpr(*dst), Src::Key(key)));
            }
            InstKind::Call { func } => ops.push(Op::Call { func: func.0 }),
            // Scalar single ops and conversions write the low 32 bits
            // only; compares and the rest write no flag.
            _ => {}
        }
    }

    /// A candidate's static effect.
    fn cand(&mut self, kind: &InstKind) -> Cand {
        let mut c = Cand { uses: 0, mem: None, scratch_read: false, conv: 0, out: 0, kill: 0 };
        let mut input = |b: &mut Self, src: &RM, m: u64, width: u64| match src {
            RM::Reg(x) => c.uses |= lanes(*x, m),
            RM::Mem(mm) => c.mem = Some(b.region(mm, width)),
        };
        let lanes_of = |packed: bool| if packed { BOTH } else { LANE0 };
        match kind {
            InstKind::FpArith { packed, dst, src, .. } => {
                let m = lanes_of(*packed);
                input(self, src, m, 8 * m.count_ones() as u64);
                c.uses |= lanes(*dst, m);
                c.conv = c.uses;
                c.out = lanes(*dst, m);
            }
            InstKind::FpSqrt { packed, dst, src, .. } => {
                let m = lanes_of(*packed);
                input(self, src, m, 8 * m.count_ones() as u64);
                c.conv = c.uses;
                c.out = lanes(*dst, m);
            }
            InstKind::FpMath { dst, src, .. } => {
                input(self, src, LANE0, 8);
                c.conv = c.uses;
                c.out = lanes(*dst, LANE0);
            }
            InstKind::FpUcomi { lhs, src, .. } => {
                input(self, src, LANE0, 8);
                c.uses |= lanes(*lhs, LANE0);
                c.conv = c.uses;
            }
            InstKind::CvtF2I { dst, src, .. } => {
                input(self, src, LANE0, 8);
                c.conv = c.uses;
                c.kill = gpr(*dst);
            }
            // The narrowing snippet only tests its input and writes the
            // low 32 bits of its output, leaving both flag words alone.
            InstKind::CvtF2F { src, .. } => input(self, src, LANE0, 8),
            other => unreachable!("not a candidate: {other}"),
        }
        c.scratch_read = c.uses & XMM15 != 0;
        c
    }
}

/// Registers as a source: `%xmm15` always counts as flagged.
fn bits(b: u64) -> Src {
    if b & XMM15 != 0 {
        Src::Const(true)
    } else {
        Src::Bits(b)
    }
}

/// One configuration's fixpoint state.
struct State<'r> {
    reach: &'r Reach,
    entry: Vec<u64>,
    fn_out: Vec<u64>,
    tainted: Vec<bool>,
    queued: Vec<bool>,
    queue: Vec<u32>,
}

impl State<'_> {
    fn push(&mut self, b: u32) {
        if !std::mem::replace(&mut self.queued[b as usize], true) {
            self.queue.push(b);
        }
    }

    fn flag(&self, s: u64, src: Src) -> bool {
        match src {
            Src::Bits(b) => s & b != 0,
            Src::Const(c) => c,
            Src::Key(k) => {
                self.reach.overlaps[k as usize].iter().any(|&o| self.tainted[o as usize])
            }
        }
    }

    fn taint(&mut self, key: u32) {
        if !std::mem::replace(&mut self.tainted[key as usize], true) {
            let reach = self.reach;
            for &b in &reach.wake[key as usize] {
                self.push(b);
            }
        }
    }
}

impl Reach {
    /// Build the configuration-independent part of the analysis of `prog`.
    pub fn new(prog: &Program) -> Reach {
        let mut symbols: Vec<u64> = prog.symbols.values().copied().collect();
        symbols.sort_unstable();
        symbols.dedup();
        let fixed = prog.funcs.iter().map(|f| frame_is_fixed(prog, f.id)).collect();
        let mut b = Builder { prog, symbols, fixed, order: Vec::new(), func: 0 };
        // Region 0 is *any*, which every access may alias.
        b.intern(Region::Any);

        let mut blocks: Vec<Option<Block>> = (0..prog.blocks.len()).map(|_| None).collect();
        let (mut ops, mut cands, mut cand_block) = (Vec::new(), Vec::new(), Vec::new());
        let mut static_sources = Vec::new();
        let mut callers = vec![Vec::new(); prog.funcs.len()];
        for f in &prog.funcs {
            b.func = f.id.0;
            for &ob in &f.blocks {
                let from = ops.len() as u32;
                let blk = prog.block(ob);
                for insn in &blk.insns {
                    if insn.kind.is_candidate() && insn.origin.is_none() {
                        ops.push(Op::Cand { cand: cands.len() as u32 });
                        cands.push(b.cand(&insn.kind));
                        cand_block.push(ob.0);
                    } else {
                        b.op(&insn.kind, &mut ops);
                    }
                }
                let body = &ops[from as usize..];
                for op in body {
                    if let Op::Call { func } = op {
                        callers[*func as usize].push(ob.0);
                    }
                }
                let makes_flags = body.iter().any(|op| match op {
                    Op::Assign { src: Src::Const(true), .. }
                    | Op::Join { src: Src::Const(true), .. }
                    | Op::Store { src: Src::Const(true), .. } => true,
                    Op::Cand { cand } => cands[*cand as usize].scratch_read,
                    _ => false,
                });
                if makes_flags {
                    static_sources.push(ob.0);
                }
                blocks[ob.0 as usize] = Some(Block {
                    ops: (from, ops.len() as u32),
                    succ: blk.term.successors().iter().map(|s| s.0).collect(),
                    ret: blk.term == Terminator::Ret,
                    func: f.id.0,
                });
            }
        }
        let blocks: Vec<Block> = blocks
            .into_iter()
            .map(|b| b.unwrap_or(Block { ops: (0, 0), succ: Vec::new(), ret: false, func: 0 }))
            .collect();
        for c in &mut callers {
            c.dedup();
        }

        // Overlaps, and the blocks each region's taint wakes.
        let regions = b.order;

        let overlaps: Vec<Vec<u32>> = regions
            .iter()
            .map(|&r| {
                let all = regions.iter().enumerate();
                all.filter(|(_, &o)| r.overlaps(o)).map(|(k, _)| k as u32).collect()
            })
            .collect();
        let mut readers = vec![Vec::new(); regions.len()];
        for (bi, blk) in blocks.iter().enumerate() {
            for op in &ops[blk.ops.0 as usize..blk.ops.1 as usize] {
                let key = match op {
                    Op::Assign { src: Src::Key(k), .. }
                    | Op::Join { src: Src::Key(k), .. }
                    | Op::Store { src: Src::Key(k), .. } => Some(*k),
                    Op::Cand { cand } => cands[*cand as usize].mem,
                    _ => None,
                };
                if let Some(k) = key {
                    for &o in &overlaps[k as usize] {
                        readers[o as usize].push(bi as u32);
                    }
                }
            }
        }
        for r in &mut readers {
            r.sort_unstable();
            r.dedup();
        }

        let entry = prog
            .funcs
            .iter()
            .map(|f| if f.entry.0 == u32::MAX { u32::MAX } else { f.entry.0 })
            .collect();
        Reach {
            blocks,
            ops,
            cands,
            entry,
            callers,
            overlaps,
            wake: readers,
            cand_block,
            static_sources,
        }
    }

    /// Which candidates may consume a flagged value when candidate `c`
    /// (in layout order: functions, their blocks, their instructions) is
    /// instrumented as `class[c]`. A candidate that is not reached never
    /// reads a flagged value in any run of the configuration, as long as
    /// every replaced value starts from a source the analysis models.
    pub fn run(&self, class: &[Class]) -> Vec<bool> {
        assert_eq!(class.len(), self.cands.len(), "one class per candidate");
        let n = self.blocks.len();
        let mut st = State {
            reach: self,
            entry: vec![0; n],
            fn_out: vec![0; self.entry.len()],
            tainted: vec![false; self.overlaps.len()],
            queued: vec![false; n],
            queue: Vec::new(),
        };
        let mut reached = vec![false; self.cands.len()];
        for (c, _) in class.iter().enumerate().filter(|(_, &k)| k == Class::Replaced) {
            st.push(self.cand_block[c]);
        }
        for &b in &self.static_sources {
            st.push(b);
        }
        while let Some(b) = st.queue.pop() {
            st.queued[b as usize] = false;
            let blk = &self.blocks[b as usize];
            let mut s = st.entry[b as usize];
            for op in &self.ops[blk.ops.0 as usize..blk.ops.1 as usize] {
                match *op {
                    Op::Assign { dst, src } => {
                        s = if st.flag(s, src) { s | dst } else { s & !dst };
                    }
                    Op::Join { dst, src } => {
                        if st.flag(s, src) {
                            s |= dst;
                        }
                    }
                    Op::Store { key, src } => {
                        if st.flag(s, src) {
                            st.taint(key);
                        }
                    }
                    Op::Call { func } => {
                        let (f, e) = (func as usize, self.entry[func as usize]);
                        if e != u32::MAX && s & !st.entry[e as usize] != 0 {
                            st.entry[e as usize] |= s;
                            st.push(e);
                        }
                        s = st.fn_out[f];
                    }
                    Op::Cand { cand } => {
                        let c = &self.cands[cand as usize];
                        let k = class[cand as usize];
                        let fed = c.scratch_read
                            || s & c.uses != 0
                            || c.mem.is_some_and(|m| st.flag(s, Src::Key(m)));
                        if fed {
                            reached[cand as usize] = true;
                        }
                        s &= !c.kill;
                        match k {
                            Class::Replaced => s |= c.conv | c.out,
                            Class::Double => s &= !(c.conv | c.out),
                            Class::Copied => s &= !c.out,
                        }
                    }
                }
            }
            if blk.ret {
                let f = blk.func as usize;
                if s & !st.fn_out[f] != 0 {
                    st.fn_out[f] |= s;
                    for &caller in &self.callers[f] {
                        st.push(caller);
                    }
                }
            }
            for &succ in &blk.succ {
                let e = &mut st.entry[succ as usize];
                if s & !*e != 0 {
                    *e |= s;
                    st.push(succ);
                }
            }
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm::isa::{FpAluOp, MemRef};

    fn add(dst: u8, src: RM) -> InstKind {
        InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: false,
            dst: Xmm(dst),
            src,
        }
    }

    fn mov(width: Width, dst: FpLoc, src: FpLoc) -> InstKind {
        InstKind::MovF { width, dst, src }
    }

    fn reg(x: u8) -> FpLoc {
        FpLoc::Reg(Xmm(x))
    }

    fn mem(a: u64) -> FpLoc {
        FpLoc::Mem(MemRef::abs(a))
    }

    /// One function of one block per body, the first calling the others
    /// in order, over 64 bytes of data.
    fn prog(bodies: Vec<Vec<InstKind>>) -> Program {
        let mut p = Program::new(1 << 12);
        p.globals = vec![0; 64];
        let m = p.add_module("t");
        let fs: Vec<_> = (0..bodies.len()).map(|k| p.add_function(m, format!("f{k}"))).collect();
        for (k, body) in bodies.into_iter().enumerate() {
            let b = p.add_block(fs[k]);
            p.funcs[fs[k].0 as usize].entry = b;
            for kind in body {
                p.push_insn(b, kind);
            }
            p.block_mut(b).term = if k == 0 { Terminator::Halt } else { Terminator::Ret };
        }
        p.entry = fs[0];
        p
    }

    use Class::{Copied as C, Double as D, Replaced as S};

    #[test]
    fn nothing_replaced_reaches_nothing() {
        let p = prog(vec![vec![add(0, RM::Reg(Xmm(1))), add(1, RM::Reg(Xmm(0)))]]);
        assert_eq!(Reach::new(&p).run(&[D, D]), vec![false, false]);
    }

    #[test]
    fn a_replaced_output_reaches_its_readers_and_a_double_snippet_stops_it() {
        // addsd %xmm1,%xmm0 [s]; addsd %xmm0,%xmm2 [d]; addsd %xmm2,%xmm3 [d];
        // addsd %xmm1,%xmm4 [d]: the single add flags %xmm0 and, in place,
        // %xmm1; the double add on %xmm2 leaves it plain.
        let body = vec![
            add(0, RM::Reg(Xmm(1))),
            add(2, RM::Reg(Xmm(0))),
            add(3, RM::Reg(Xmm(2))),
            add(4, RM::Reg(Xmm(1))),
        ];
        let got = Reach::new(&prog(vec![body])).run(&[S, D, D, D]);
        assert_eq!(got, vec![false, true, false, true]);
    }

    #[test]
    fn flags_travel_through_memory_calls_and_gprs_but_not_to_other_regions() {
        // f0: s-add %xmm1,%xmm0; store %xmm0 → [0]; call f1; d-add [16],%xmm5
        // f1: load [0] → %xmm2; pextrq → %rax; pinsrq %rax → %xmm3 lane 1;
        //     d-add (packed) %xmm3,%xmm4; d-add [8],%xmm6
        let pd = InstKind::FpArith {
            op: FpAluOp::Add,
            prec: Prec::Double,
            packed: true,
            dst: Xmm(4),
            src: RM::Reg(Xmm(3)),
        };
        let p = prog(vec![
            vec![
                add(0, RM::Reg(Xmm(1))),
                mov(Width::W64, mem(0), reg(0)),
                InstKind::Call { func: FuncId(1) },
                add(5, RM::Mem(MemRef::abs(16))),
            ],
            vec![
                mov(Width::W64, reg(2), mem(0)),
                InstKind::PExtrQ { dst: Gpr::RAX, src: Xmm(2), lane: 0 },
                InstKind::PInsrQ { dst: Xmm(3), src: Gpr::RAX, lane: 1 },
                pd,
                add(6, RM::Mem(MemRef::abs(8))),
            ],
        ]);
        let got = Reach::new(&p).run(&[S, D, D, D]);
        assert_eq!(got, vec![false, false, true, false]);
        // With the source copied, the chain stays plain.
        assert_eq!(Reach::new(&p).run(&[C, D, D, D]), vec![false; 4]);
    }

    #[test]
    fn an_unknown_base_store_taints_every_region() {
        let store_any = mov(Width::W64, FpLoc::Mem(MemRef::base_disp(Gpr(3), 0)), reg(0));
        let p =
            prog(vec![vec![add(0, RM::Reg(Xmm(1))), store_any, add(2, RM::Mem(MemRef::abs(40)))]]);
        assert_eq!(Reach::new(&p).run(&[S, D]), vec![false, true]);
    }

    #[test]
    fn scalar_single_writes_keep_the_flag_word() {
        // A 32-bit move into a flagged lane leaves it flagged.
        let p = prog(vec![vec![
            add(0, RM::Reg(Xmm(1))),
            mov(Width::W32, reg(0), reg(2)),
            add(3, RM::Reg(Xmm(0))),
        ]]);
        assert_eq!(Reach::new(&p).run(&[S, D]), vec![false, true]);
    }
}

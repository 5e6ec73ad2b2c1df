//! Program images: modules, functions, basic blocks, and the CFG-editing
//! operations (block splitting, edge rewiring) that the instrumentation
//! layer relies on — the analogue of the Dyninst patching API the paper
//! uses (§2.4).

use crate::isa::{BlockId, FuncId, Insn, InsnId, InstKind, ModuleId, Terminator};
use std::collections::BTreeMap;

/// A module: the unit the search descends from first (compilation unit or
/// shared library analogue).
#[derive(Debug, Clone)]
pub struct Module {
    /// Module id.
    pub id: ModuleId,
    /// Human-readable name (e.g. `"cg"` or `"libmath"`).
    pub name: String,
    /// Functions contained in this module.
    pub funcs: Vec<FuncId>,
}

/// A function: an entry block plus the set of blocks it owns.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function id.
    pub id: FuncId,
    /// Human-readable name (e.g. `"main"` or `"solve"`).
    pub name: String,
    /// Owning module.
    pub module: ModuleId,
    /// Entry block.
    pub entry: BlockId,
    /// All blocks of this function, in layout order.
    pub blocks: Vec<BlockId>,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Block id.
    pub id: BlockId,
    /// Straight-line instruction sequence.
    pub insns: Vec<Insn>,
    /// The single exit point.
    pub term: Terminator,
}

/// A complete program image: code, initial data, memory layout, and the
/// symbol table harnesses use to locate input/output arrays.
#[derive(Debug, Clone)]
pub struct Program {
    /// Modules, indexed by [`ModuleId`].
    pub modules: Vec<Module>,
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Block arena, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// Initial contents of the data segment, loaded at address 0.
    pub globals: Vec<u8>,
    /// Total memory size in bytes (data + heap + stack).
    pub mem_size: usize,
    /// Program entry function.
    pub entry: FuncId,
    /// Named addresses in the data segment.
    pub symbols: BTreeMap<String, u64>,
    next_insn: u32,
    next_addr: u64,
}

/// Base synthetic code address; purely cosmetic, chosen to resemble the
/// addresses in the paper's example configuration (Fig. 3).
pub const CODE_BASE: u64 = 0x6f_0000;

impl Program {
    /// Create an empty program. `mem_size` must be large enough for the
    /// data segment plus stack; the default is usually set by the builder.
    pub fn new(mem_size: usize) -> Self {
        Program {
            modules: Vec::new(),
            funcs: Vec::new(),
            blocks: Vec::new(),
            globals: Vec::new(),
            mem_size,
            entry: FuncId(0),
            symbols: BTreeMap::new(),
            next_insn: 0,
            next_addr: CODE_BASE,
        }
    }

    /// Add a module.
    pub fn add_module(&mut self, name: impl Into<String>) -> ModuleId {
        let id = ModuleId(self.modules.len() as u32);
        self.modules.push(Module { id, name: name.into(), funcs: Vec::new() });
        id
    }

    /// Add a function shell to `module`; its entry block must be set before
    /// execution (use [`Program::add_block`] then assign).
    pub fn add_function(&mut self, module: ModuleId, name: impl Into<String>) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(Function {
            id,
            name: name.into(),
            module,
            entry: BlockId(u32::MAX),
            blocks: Vec::new(),
        });
        self.modules[module.0 as usize].funcs.push(id);
        id
    }

    /// Allocate a fresh block owned by `func`.
    pub fn add_block(&mut self, func: FuncId) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock { id, insns: Vec::new(), term: Terminator::Halt });
        self.funcs[func.0 as usize].blocks.push(id);
        id
    }

    /// Mint a fresh instruction with a new id and synthetic address.
    pub fn mk_insn(&mut self, kind: InstKind) -> Insn {
        let id = InsnId(self.next_insn);
        self.next_insn += 1;
        let addr = self.next_addr;
        self.next_addr += 4 + (id.0 as u64 % 5); // irregular strides, like real code
        Insn { id, addr, origin: None, kind }
    }

    /// Mint a snippet instruction attributed to original instruction `origin`.
    pub fn mk_snippet_insn(&mut self, kind: InstKind, origin: InsnId) -> Insn {
        let mut i = self.mk_insn(kind);
        i.origin = Some(origin);
        i
    }

    /// Append an instruction to a block.
    pub fn push_insn(&mut self, block: BlockId, kind: InstKind) -> InsnId {
        let insn = self.mk_insn(kind);
        let id = insn.id;
        self.blocks[block.0 as usize].insns.push(insn);
        id
    }

    /// Total number of instruction ids ever minted (original + snippets).
    pub fn insn_id_bound(&self) -> usize {
        self.next_insn as usize
    }

    /// Raise the id/address floors so freshly minted instructions never
    /// collide with instructions copied from another program — used by the
    /// binary rewriter, which preserves original ids across patching.
    pub fn reserve_ids(&mut self, id_floor: u32, addr_floor: u64) {
        self.next_insn = self.next_insn.max(id_floor);
        self.next_addr = self.next_addr.max(addr_floor);
    }

    /// The next `(insn id, address)` that [`Program::mk_insn`] would mint.
    pub fn id_cursor(&self) -> (u32, u64) {
        (self.next_insn, self.next_addr)
    }

    /// Pin the id/address cursor exactly (unlike [`Program::reserve_ids`],
    /// which only raises it). The incremental rewriter uses this to mint
    /// *deterministic* snippet ids for a candidate regardless of how many
    /// other candidates were instrumented before it, so per-block fragments
    /// are reusable across configurations.
    pub fn set_id_cursor(&mut self, next_id: u32, next_addr: u64) {
        self.next_insn = next_id;
        self.next_addr = next_addr;
    }

    /// Number of *candidate* instructions (see [`InstKind::is_candidate`]).
    pub fn candidate_count(&self) -> usize {
        self.iter_insns().filter(|(_, _, i)| i.kind.is_candidate()).count()
    }

    /// Iterate `(func, block, insn)` over the whole program in layout order.
    pub fn iter_insns(&self) -> impl Iterator<Item = (FuncId, BlockId, &Insn)> + '_ {
        self.funcs.iter().flat_map(move |f| {
            f.blocks.iter().flat_map(move |&b| {
                self.blocks[b.0 as usize].insns.iter().map(move |i| (f.id, b, i))
            })
        })
    }

    /// The attribution map of an instrumented program: entry `i` is the
    /// original instruction that id `i` stands for — its
    /// [`Insn::origin`] for a snippet instruction, `i` itself otherwise.
    /// Profilers use it to fold snippet-level counts back onto the
    /// original program's ids.
    pub fn origins(&self) -> Vec<u32> {
        let mut origin: Vec<u32> = (0..self.insn_id_bound() as u32).collect();
        for (_, _, insn) in self.iter_insns() {
            if let Some(o) = insn.origin {
                origin[insn.id.0 as usize] = o.0;
            }
        }
        origin
    }

    /// Look up a block.
    pub fn block(&self, b: BlockId) -> &BasicBlock {
        &self.blocks[b.0 as usize]
    }

    /// Look up a block mutably.
    pub fn block_mut(&mut self, b: BlockId) -> &mut BasicBlock {
        &mut self.blocks[b.0 as usize]
    }

    /// Look up a function.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.0 as usize]
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Address of a data symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Split block `b` at instruction index `at` (0 ≤ at ≤ len): the first
    /// `at` instructions stay in `b`, the rest move to a fresh block that
    /// inherits `b`'s terminator, and `b` falls through to it.
    ///
    /// This is the primitive of the paper's basic-block patching (Fig. 7):
    /// incoming edges still reach `b`, outgoing edges leave the tail block,
    /// and the caller is free to reroute the fall-through edge through
    /// snippet blocks.
    ///
    /// Returns the id of the tail block.
    pub fn split_block(&mut self, func: FuncId, b: BlockId, at: usize) -> BlockId {
        let tail_id = BlockId(self.blocks.len() as u32);
        let blk = &mut self.blocks[b.0 as usize];
        assert!(at <= blk.insns.len(), "split index out of range");
        let tail_insns = blk.insns.split_off(at);
        let tail_term = std::mem::replace(&mut blk.term, Terminator::Jmp(tail_id));
        self.blocks.push(BasicBlock { id: tail_id, insns: tail_insns, term: tail_term });
        // Keep layout order: insert the tail right after `b` in the function.
        let f = &mut self.funcs[func.0 as usize];
        let pos = f.blocks.iter().position(|&x| x == b).expect("block not in function");
        f.blocks.insert(pos + 1, tail_id);
        tail_id
    }

    /// Structural validation: every block referenced exists, every function
    /// has a valid entry, terminators stay within the owning function, and
    /// instruction ids are unique.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for f in &self.funcs {
            if f.entry.0 == u32::MAX {
                return Err(format!("function {} has no entry block", f.name));
            }
            let owned: HashSet<BlockId> = f.blocks.iter().copied().collect();
            if !owned.contains(&f.entry) {
                return Err(format!("function {} entry not owned", f.name));
            }
            for &b in &f.blocks {
                let blk = self
                    .blocks
                    .get(b.0 as usize)
                    .ok_or_else(|| format!("dangling block id {b:?}"))?;
                for s in blk.term.successors() {
                    if !owned.contains(&s) {
                        return Err(format!(
                            "block b{} in {} jumps to b{} outside the function",
                            b.0, f.name, s.0
                        ));
                    }
                }
                for i in &blk.insns {
                    if !seen.insert(i.id) {
                        return Err(format!("duplicate insn id {:?}", i.id));
                    }
                    if let InstKind::Call { func } = i.kind {
                        if self.funcs.get(func.0 as usize).is_none() {
                            return Err(format!("call to unknown function f{}", func.0));
                        }
                    }
                }
            }
        }
        if self.funcs.get(self.entry.0 as usize).is_none() {
            return Err("entry function missing".into());
        }
        if self.globals.len() > self.mem_size {
            return Err("data segment larger than memory".into());
        }
        Ok(())
    }

    /// Render a full text disassembly (functions, blocks, instructions),
    /// mainly for debugging and documentation.
    pub fn disasm(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for m in &self.modules {
            let _ = writeln!(s, "MODULE {}:", m.name);
            for &fid in &m.funcs {
                let f = &self.funcs[fid.0 as usize];
                let _ = writeln!(s, "  FUNC {}:", f.name);
                for &b in &f.blocks {
                    let _ = writeln!(s, "    BBLK{}:", b.0);
                    for i in &self.blocks[b.0 as usize].insns {
                        let _ = writeln!(s, "      {:#x} {}", i.addr, i.kind);
                    }
                    let _ = writeln!(s, "      -> {:?}", self.blocks[b.0 as usize].term);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, FpAluOp, Gpr, IntOp, Prec, Xmm, GMI, RM};

    fn tiny() -> (Program, FuncId, BlockId) {
        let mut p = Program::new(1 << 16);
        let m = p.add_module("m");
        let f = p.add_function(m, "main");
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        p.entry = f;
        (p, f, b)
    }

    #[test]
    fn build_and_validate() {
        let (mut p, _f, b) = tiny();
        p.push_insn(
            b,
            InstKind::FpArith {
                op: FpAluOp::Add,
                prec: Prec::Double,
                packed: false,
                dst: Xmm(0),
                src: RM::Reg(Xmm(1)),
            },
        );
        p.block_mut(b).term = Terminator::Halt;
        p.validate().unwrap();
        assert_eq!(p.candidate_count(), 1);
    }

    #[test]
    fn split_block_preserves_semantics_structure() {
        let (mut p, f, b) = tiny();
        for k in 0..4 {
            p.push_insn(b, InstKind::IntAlu { op: IntOp::Add, dst: Gpr(2), src: GMI::Imm(k) });
        }
        p.block_mut(b).term = Terminator::Halt;
        let tail = p.split_block(f, b, 2);
        assert_eq!(p.block(b).insns.len(), 2);
        assert_eq!(p.block(tail).insns.len(), 2);
        assert_eq!(p.block(b).term, Terminator::Jmp(tail));
        assert_eq!(p.block(tail).term, Terminator::Halt);
        // layout order keeps tail adjacent
        let blocks = &p.func(f).blocks;
        let i = blocks.iter().position(|&x| x == b).unwrap();
        assert_eq!(blocks[i + 1], tail);
        p.validate().unwrap();
    }

    #[test]
    fn split_at_ends() {
        let (mut p, f, b) = tiny();
        p.push_insn(b, InstKind::Nop);
        p.block_mut(b).term = Terminator::Halt;
        let t0 = p.split_block(f, b, 0);
        assert!(p.block(b).insns.is_empty());
        assert_eq!(p.block(t0).insns.len(), 1);
        let t1 = p.split_block(f, t0, 1);
        assert!(p.block(t1).insns.is_empty());
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_cross_function_edges() {
        let (mut p, _f, b) = tiny();
        let m2 = p.add_module("m2");
        let f2 = p.add_function(m2, "other");
        let b2 = p.add_block(f2);
        p.funcs[f2.0 as usize].entry = b2;
        p.block_mut(b).term = Terminator::Jmp(b2);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_entry() {
        let mut p = Program::new(4096);
        let m = p.add_module("m");
        let _f = p.add_function(m, "main");
        assert!(p.validate().is_err());
    }

    #[test]
    fn branch_terminator_inside_function_ok() {
        let (mut p, f, b) = tiny();
        let b2 = p.add_block(f);
        let b3 = p.add_block(f);
        p.block_mut(b).term = Terminator::Br { cond: Cond::Eq, then_: b2, else_: b3 };
        p.block_mut(b2).term = Terminator::Halt;
        p.block_mut(b3).term = Terminator::Halt;
        p.validate().unwrap();
    }

    #[test]
    fn origins_map_snippets_to_the_insn_they_expand() {
        let (mut p, _f, b) = tiny();
        let orig = p.push_insn(b, InstKind::Nop);
        let snip = p.mk_snippet_insn(InstKind::Nop, orig);
        p.block_mut(b).insns.push(snip.clone());
        // An id minted but never placed still maps to itself.
        let unplaced = p.mk_insn(InstKind::Nop).id;
        let origin = p.origins();
        assert_eq!(origin.len(), p.insn_id_bound());
        assert_eq!(origin[orig.0 as usize], orig.0);
        assert_eq!(origin[snip.id.0 as usize], orig.0);
        assert_eq!(origin[unplaced.0 as usize], unplaced.0);
    }

    #[test]
    fn insn_addresses_are_unique_and_increasing() {
        let (mut p, _f, b) = tiny();
        for _ in 0..100 {
            p.push_insn(b, InstKind::Nop);
        }
        let addrs: Vec<u64> = p.block(b).insns.iter().map(|i| i.addr).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    }
}

//! The binary rewriter: basic-block patching (paper §2.4, Fig. 7) plus
//! whole-program policy (§2.3).
//!
//! Given a program, its structure tree, and a precision configuration, the
//! rewriter produces a *new* executable program in which each replacement
//! candidate is either
//!
//! * expanded into a single-precision snippet (`s` flag),
//! * expanded into a reduced-format snippet (`h`/`b`/`m<M>e<E>` flags —
//!   single-precision op followed by an RNE quantize onto the reduced
//!   grid),
//! * expanded into a double-precision checking snippet (`d` flag — needed
//!   once *any* replacement exists wherever operands may arrive replaced
//!   from elsewhere),
//! * left *bare* (`d` flag, lean rewriting of a configuration only): the
//!   original instruction, charged as its double snippet's plain path,
//!   because the reach analysis ([`crate::reach`]) proves no replaced
//!   value can arrive at it,
//! * or copied untouched (`i`/ignore flag).
//!
//! Block patching follows the paper exactly: the block containing a victim
//! instruction is split around it and the fall-through edge is routed
//! through freshly generated snippet blocks; the copied original
//! instructions keep their ids and addresses, so configurations and
//! profiles stay valid against the rewritten binary.

use crate::dataflow::FlagState;
use crate::reach::{Class, Reach};
use crate::snippets::{emit_snippet, Emitter, Known, OperandFacts, SnippetPrec};
use fpvm::compiled::{Chunk, Linker, Target};
use fpvm::isa::{BlockId, Charge, FuncId, Insn, InsnId, Terminator};
use fpvm::program::Program;
use fpvm::{CompiledImage, CostModel};
use mpconfig::{Config, Flag, StructureTree};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Global rewriting policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteMode {
    /// Follow the configuration: if it replaces anything, every candidate
    /// is instrumented at its effective precision (with lean snippets,
    /// every double candidate no replaced value can reach is left bare);
    /// if it replaces nothing, the program is returned unmodified.
    Config,
    /// Instrument every candidate with a double-precision snippet
    /// regardless of the configuration — the semantics-preserving base
    /// case used for the overhead measurements (Figs. 8–9).
    AllDouble,
}

/// Rewriting options.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Policy.
    pub mode: RewriteMode,
    /// Enable the dataflow optimizations of §2.5: lean snippets, which
    /// skip the flag tests an input's known state makes redundant, and,
    /// in `Config` mode, bare candidates, which skip the snippet of every
    /// double candidate the reach analysis ([`crate::reach`]) proves no
    /// replaced value can reach.
    pub lean: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions { mode: RewriteMode::Config, lean: false }
    }
}

/// What the rewriter did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Candidates expanded into single-precision snippets.
    pub single: usize,
    /// Candidates expanded into reduced-format (half/bf16/custom)
    /// snippets.
    pub reduced: usize,
    /// Candidates expanded into double-precision snippets.
    pub double_checked: usize,
    /// Candidates left untouched due to an ignore flag.
    pub ignored: usize,
    /// Double candidates left bare: no replaced value can reach them.
    pub bare: usize,
    /// Snippet instructions emitted in total.
    pub snippet_insns: usize,
}

impl RewriteStats {
    fn add(&mut self, o: &RewriteStats) {
        self.single += o.single;
        self.reduced += o.reduced;
        self.double_checked += o.double_checked;
        self.ignored += o.ignored;
        self.bare += o.bare;
        self.snippet_insns += o.snippet_insns;
    }

    /// Total candidates instrumented.
    pub fn instrumented(&self) -> usize {
        self.single + self.reduced + self.double_checked
    }
}

/// Rewrite `orig` under `cfg`. Returns the new program and statistics.
///
/// In `Config` mode with a configuration that replaces nothing, the
/// original is cloned unmodified (stats all zero). This is a fresh
/// [`Rewriter`] used once, so snippet ids are minted in block order from
/// just above the original's ids.
pub fn rewrite(
    orig: &Program,
    tree: &StructureTree,
    cfg: &Config,
    opts: &RewriteOptions,
) -> (Program, RewriteStats) {
    Rewriter::new(orig, opts.clone()).rewrite(orig, tree, cfg)
}

/// One cached instrumentation expansion of a single original basic block
/// under a fixed per-instruction decision vector.
///
/// Blocks are *local*: index into [`Fragment::blocks`] is the local id, and
/// non-tail terminators reference local ids. Block 0 is the head (spliced
/// onto the original block's remapped slot); the tail block is where control
/// falls out of the fragment, and it ends in the original block's own
/// terminator, whose successors are original block ids.
///
/// Snippet instruction ids inside a fragment are minted exactly once, from
/// the rewriter's shared monotone cursor, so the same fragment can be
/// spliced into any number of output programs without id collisions.
///
/// The fragment's compiled code is kept here once a second configuration
/// uses the fragment, so every later image that uses it copies the code
/// instead of lowering it. A fragment only its first configuration used
/// (a trial that failed, typically) is lowered for that link alone and
/// costs no memory after it.
struct Fragment {
    blocks: Vec<(Vec<Insn>, Terminator)>,
    tail: u32,
    stats: RewriteStats,
    /// Whether [`Rewriter::patch`] has found it in the cache.
    reused: AtomicBool,
    code: OnceLock<FragmentCode>,
}

/// A fragment's lowered blocks, under its rewriter's cost model, as an
/// image places them: the head apart (on its original block's slot), the
/// other blocks back to back.
struct FragmentCode {
    head: Chunk,
    rest: Chunk,
    /// `at[l]`: where local block `l ≥ 1` starts in `rest` (`at[0]` is
    /// unused), and where `rest` ends.
    at: Vec<u32>,
}

impl Fragment {
    /// The fragment's code: the kept one, kept now if the fragment is
    /// reused, or else lowered for the caller alone.
    fn code(&self, cost: &CostModel) -> Code<'_> {
        match self.code.get() {
            Some(code) => Code::Kept(code),
            None if self.reused.load(Ordering::Relaxed) => {
                Code::Kept(self.code.get_or_init(|| self.lower(cost)))
            }
            None => Code::Fresh(Box::new(self.lower(cost))),
        }
    }

    fn lower(&self, cost: &CostModel) -> FragmentCode {
        fn block((insns, term): &(Vec<Insn>, Terminator)) -> (&[Insn], &Terminator) {
            (insns, term)
        }
        let mut at = vec![0u32; self.blocks.len() + 1];
        for l in 2..at.len() {
            at[l] = at[l - 1] + self.blocks[l - 1].0.len() as u32 + 1;
        }
        FragmentCode {
            head: Chunk::lower(self.blocks[..1].iter().map(block), cost),
            rest: Chunk::lower(self.blocks[1..].iter().map(block), cost),
            at,
        }
    }
}

/// A fragment's code for one link: kept with the fragment, or lowered
/// for this link only.
enum Code<'a> {
    Kept(&'a FragmentCode),
    Fresh(Box<FragmentCode>),
}

impl std::ops::Deref for Code<'_> {
    type Target = FragmentCode;

    fn deref(&self) -> &FragmentCode {
        match self {
            Code::Kept(code) => code,
            Code::Fresh(code) => code,
        }
    }
}

struct RewriterState {
    /// Next snippet instruction id / address to mint (shared across all
    /// fragments; monotone, never reused).
    next_id: u32,
    next_addr: u64,
    /// The charge of each bare candidate under its lean facts, shared by
    /// every fragment that leaves it bare.
    charges: HashMap<(InsnId, OperandFacts), Arc<Charge>>,
    /// Per original block: per-insn decisions → expansion.
    cache: Vec<HashMap<Box<[u8]>, Arc<Fragment>>>,
    hits: u64,
    misses: u64,
}

/// One configuration's instrumentation, before it is a program or an
/// image: the fragment of every original block in layout order, the id
/// cursor its outputs share, and what the rewriter did.
///
/// [`Patch::program`] materializes the instrumented program and
/// [`Rewriter::link`] assembles its compiled image; the two agree on
/// every op and on [`Program::insn_id_bound`], so either can run the
/// other's VM.
pub struct Patch {
    /// One per original block, in `(function, block)` layout order
    /// (none if the patch is not `active`).
    frags: Vec<Arc<Fragment>>,
    /// The `(insn id, address)` cursor of the outputs.
    cursor: (u32, u64),
    /// `false`: the configuration replaces nothing, and the output is the
    /// original program.
    active: bool,
    stats: RewriteStats,
}

impl Patch {
    /// What the rewriter did for this configuration.
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// The outputs' `(insn id, address)` cursor; its id is their
    /// [`Program::insn_id_bound`].
    pub fn id_cursor(&self) -> (u32, u64) {
        self.cursor
    }

    /// Every instruction of the instrumented program, each once (in no
    /// set order), without building it. `orig` must be the program the
    /// patch was made from.
    pub fn insns<'a>(&'a self, orig: &'a Program) -> impl Iterator<Item = &'a Insn> {
        let frags = self.frags.iter().flat_map(|f| &f.blocks).flat_map(|(insns, _)| insns);
        let unpatched = (!self.active).then(|| orig.iter_insns().map(|(.., i)| i));
        frags.chain(unpatched.into_iter().flatten())
    }

    /// Materialize the instrumented program. `orig` must be the program
    /// the patch was made from.
    pub fn program(&self, orig: &Program) -> Program {
        if !self.active {
            return orig.clone();
        }
        let mut out = Program::new(orig.mem_size);
        out.globals = orig.globals.clone();
        out.symbols = orig.symbols.clone();
        for m in &orig.modules {
            out.add_module(m.name.clone());
        }
        for f in &orig.funcs {
            let nf = out.add_function(f.module, f.name.clone());
            debug_assert_eq!(nf.0, f.id.0);
        }
        out.entry = orig.entry;

        let mut frags = self.frags.iter();
        for f in &orig.funcs {
            let mut remap: HashMap<BlockId, BlockId> = HashMap::new();
            for &ob in &f.blocks {
                remap.insert(ob, out.add_block(f.id));
            }
            out.funcs[f.id.0 as usize].entry = remap[&f.entry];

            for &ob in &f.blocks {
                let frag = frags.next().expect("a fragment per original block");
                // Splice: local block 0 lands on this block's pre-created
                // head; extra locals get fresh blocks.
                let mut locals: Vec<BlockId> = Vec::with_capacity(frag.blocks.len());
                locals.push(remap[&ob]);
                for _ in 1..frag.blocks.len() {
                    locals.push(out.add_block(f.id));
                }
                for (li, (insns, term)) in frag.blocks.iter().enumerate() {
                    let gb = locals[li];
                    out.blocks[gb.0 as usize].insns = insns.clone();
                    let mut t = term.clone();
                    if li as u32 == frag.tail {
                        t.map_successors(|old| remap[&old]);
                    } else {
                        t.map_successors(|l| locals[l.0 as usize]);
                    }
                    out.block_mut(gb).term = t;
                }
            }
        }

        // Cover every fragment id minted so far, so profiles indexed by
        // `insn_id_bound()` fit any output of this rewriter.
        out.reserve_ids(self.cursor.0, self.cursor.1);
        debug_assert!(out.validate().is_ok(), "incremental rewriter produced invalid program");
        out
    }
}

/// Incremental rewriter: caches instrumented basic-block expansions so that
/// successive configurations only pay to re-instrument blocks whose
/// effective precision decisions actually changed, and caches each
/// expansion's compiled code so that linking a configuration's image
/// lowers only the fragments no earlier image used.
///
/// Every output of one rewriter runs like the one-shot [`rewrite`] of the
/// same configuration (same instruction sequence per block, same dataflow
/// facts, same step/trap behaviour); only snippet ids and addresses may
/// differ, because each distinct `(block, decisions)` fragment mints its
/// ids once from a shared monotone cursor. Original instructions keep
/// their ids, so configurations and profiles remain valid against every
/// output.
///
/// A `Rewriter` is tied to the program it was constructed with and to
/// one cost model, the one its linked images are lowered under; it is
/// `Sync` and safe to share across search worker threads.
pub struct Rewriter {
    opts: RewriteOptions,
    insn_bound: u32,
    cost: CostModel,
    /// Whether patches leave unreached candidates bare: lean `Config`
    /// mode.
    prunes: bool,
    /// The reach analysis's static part, built by the first patch that
    /// could leave a candidate bare.
    reach: OnceLock<Reach>,
    state: Mutex<RewriterState>,
    tracer: Option<mptrace::Tracer>,
}

impl Rewriter {
    /// Create an incremental rewriter for `orig` with the given options,
    /// linking under the default cost model.
    pub fn new(orig: &Program, opts: RewriteOptions) -> Self {
        Self::with_cost_model(orig, opts, CostModel::default())
    }

    /// Create an incremental rewriter for `orig` whose linked images are
    /// lowered under `cost` (the executing VM's cost model).
    pub fn with_cost_model(orig: &Program, opts: RewriteOptions, cost: CostModel) -> Self {
        let max_addr = orig.iter_insns().map(|(_, _, i)| i.addr).max().unwrap_or(0);
        Rewriter {
            prunes: opts.lean && opts.mode == RewriteMode::Config,
            reach: OnceLock::new(),
            opts,
            insn_bound: orig.insn_id_bound() as u32,
            cost,
            state: Mutex::new(RewriterState {
                next_id: orig.insn_id_bound() as u32,
                next_addr: max_addr + 16,
                charges: HashMap::new(),
                cache: vec![HashMap::new(); orig.blocks.len()],
                hits: 0,
                misses: 0,
            }),
            tracer: None,
        }
    }

    /// Attach a [`mptrace::Tracer`]: each [`Rewriter::patch`] call
    /// records fragment-cache hit/miss counters and a rewrite-time
    /// histogram, and its reach analysis a `reach` span. Without one,
    /// rewriting records nothing.
    pub fn set_tracer(&mut self, tracer: mptrace::Tracer) {
        self.tracer = Some(tracer);
    }

    /// Fragment-cache `(hits, misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.hits, st.misses)
    }

    /// Rewrite `orig` under `cfg`, reusing cached block expansions:
    /// [`Rewriter::patch`], then [`Patch::program`].
    ///
    /// `orig` must be the program this rewriter was constructed with.
    /// Equivalent to the one-shot [`rewrite`] up to snippet ids/addresses.
    pub fn rewrite(
        &self,
        orig: &Program,
        tree: &StructureTree,
        cfg: &Config,
    ) -> (Program, RewriteStats) {
        let patch = self.patch(orig, tree, cfg);
        (patch.program(orig), patch.stats)
    }

    /// Find (or build) the fragment of every block of `orig` under `cfg`.
    /// The decisions are worked out first; the shared cache and id cursor
    /// are then locked once for the whole configuration. With lean
    /// snippets in `Config` mode, the reach analysis runs on the
    /// decisions and every double candidate it does not reach is left
    /// bare ([`RewriteStats::bare`]).
    pub fn patch(&self, orig: &Program, tree: &StructureTree, cfg: &Config) -> Patch {
        self.patch_with(orig, tree, cfg, true)
    }

    /// [`Rewriter::patch`] with every candidate instrumented, none left
    /// bare: the patch to fall back on when a bare candidate was reached
    /// after all (its run traps `FlaggedNanConsumed`).
    pub fn patch_full(&self, orig: &Program, tree: &StructureTree, cfg: &Config) -> Patch {
        self.patch_with(orig, tree, cfg, false)
    }

    fn patch_with(&self, orig: &Program, tree: &StructureTree, cfg: &Config, prune: bool) -> Patch {
        assert_eq!(
            orig.insn_id_bound() as u32,
            self.insn_bound,
            "Rewriter used with a different program than it was built for"
        );
        let active = match self.opts.mode {
            RewriteMode::AllDouble => true,
            RewriteMode::Config => cfg.any_single(tree),
        };
        if !active {
            let cursor = orig.id_cursor();
            return Patch { frags: Vec::new(), cursor, active, stats: RewriteStats::default() };
        }
        let t0 = self.tracer.as_ref().map(|_| std::time::Instant::now());

        // Per-insn decision vectors, the cache keys, back to back: three
        // bytes per instruction, `(tag, mant, exp)` with zero format bytes
        // for non-reduced decisions. Dataflow facts used by lean snippets
        // are a pure function of the block's instructions and this vector
        // (FlagState starts fresh per block), so `(block, decisions)`
        // fully determines the expansion. A bare candidate has its own
        // byte, so its fragment is cached apart from the instrumented one.
        let prune = prune && self.prunes;
        let mut keys: Vec<u8> = Vec::with_capacity(orig.insn_id_bound() * 3);
        let mut ends: Vec<usize> = Vec::with_capacity(orig.blocks.len());
        let mut classes: Vec<Class> = Vec::new();
        for f in &orig.funcs {
            for &ob in &f.blocks {
                for insn in &orig.block(ob).insns {
                    let d = decide(insn, tree, cfg, self.opts.mode);
                    if prune {
                        match d {
                            Decision::Copy => {}
                            Decision::Ignore => classes.push(Class::Copied),
                            Decision::Snippet(SnippetPrec::Double) => classes.push(Class::Double),
                            Decision::Snippet(_) => classes.push(Class::Replaced),
                        }
                    }
                    keys.extend_from_slice(&match d {
                        Decision::Copy => [3u8, 0, 0],
                        Decision::Ignore => [0, 0, 0],
                        Decision::Snippet(SnippetPrec::Single) => [1, 0, 0],
                        Decision::Snippet(SnippetPrec::Double) => [2, 0, 0],
                        Decision::Snippet(SnippetPrec::Reduced { mant, exp }) => [4, mant, exp],
                    });
                }
                ends.push(keys.len());
            }
        }
        if classes.contains(&Class::Double) {
            let reached = {
                let _span = self.tracer.as_ref().map(|t| t.span("reach"));
                self.reach.get_or_init(|| Reach::new(orig)).run(&classes)
            };
            // Candidates are in the keys' order: mark the unreached
            // double ones bare.
            let cands = keys.chunks_exact_mut(3).filter(|d| d[0] != 3);
            for (d, reached) in cands.zip(reached) {
                if d[0] == 2 && !reached {
                    d[0] = 5;
                }
            }
        }

        let mut frags = Vec::with_capacity(ends.len());
        let mut stats = RewriteStats::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut st = self.state.lock().unwrap();
        let blocks = orig.funcs.iter().flat_map(|f| f.blocks.iter().copied());
        let mut from = 0;
        for (ob, to) in blocks.zip(ends) {
            let key = &keys[from..to];
            from = to;
            let cached = st.cache[ob.0 as usize].get(key).map(Arc::clone);
            let frag = cached.inspect(|f| {
                f.reused.store(true, Ordering::Relaxed);
                hits += 1;
            });
            let frag = frag.unwrap_or_else(|| {
                misses += 1;
                let frag = Arc::new(build_fragment(&mut st, self.opts.lean, orig.block(ob), key));
                st.cache[ob.0 as usize].insert(key.into(), Arc::clone(&frag));
                frag
            });
            stats.add(&frag.stats);
            frags.push(frag);
        }
        st.hits += hits;
        st.misses += misses;
        let cursor = (st.next_id, st.next_addr);
        drop(st);

        if let (Some(t), Some(t0)) = (&self.tracer, t0) {
            t.incr("rewrite.cache_hits", hits);
            t.incr("rewrite.cache_misses", misses);
            t.observe("rewrite.wall_us", t0.elapsed().as_micros() as u64);
        }
        Patch { frags, cursor, active, stats }
    }

    /// Link `patch`'s compiled image from its fragments' cached chunks,
    /// lowering only fragments no earlier link used. The layout is the
    /// one [`CompiledImage::compile`] gives [`Patch::program`]: per
    /// function, every block's head in order, then each fragment's other
    /// blocks. `orig` must be the program the patch was made from.
    pub fn link(&self, orig: &Program, patch: &Patch) -> CompiledImage {
        if !patch.active {
            return CompiledImage::compile(orig, &self.cost);
        }
        /// A fragment's place in the image: its head, and its other
        /// blocks back to back from `rest`.
        struct Placed<'a> {
            frag: &'a Fragment,
            code: Code<'a>,
            head: u32,
            rest: u32,
        }
        // Pass 1: positions, from the chunks' lengths.
        let mut head = vec![u32::MAX; orig.blocks.len()];
        let mut placed: Vec<Placed<'_>> = Vec::with_capacity(patch.frags.len());
        let mut pos = 0u32;
        let mut frags = patch.frags.iter();
        for f in &orig.funcs {
            let first = placed.len();
            for &ob in &f.blocks {
                let frag = frags.next().expect("a fragment per original block");
                let code = frag.code(&self.cost);
                head[ob.0 as usize] = pos;
                let len = code.head.len() as u32;
                placed.push(Placed { frag, code, head: pos, rest: 0 });
                pos += len;
            }
            for p in &mut placed[first..] {
                p.rest = pos;
                pos += p.code.rest.len() as u32;
            }
        }

        // Pass 2: copy and relocate the chunks, in the same order. The
        // tail's successors are original blocks, the other blocks' are
        // the fragment's own.
        let call = |f: FuncId| match orig.func(f).entry {
            e if e.0 == u32::MAX => u32::MAX,
            e => head[e.0 as usize],
        };
        let resolve = |p: &Placed<'_>, tail: bool, t: Target| match t {
            Target::Func(f) => call(f),
            Target::Block(b) if tail => head[b.0 as usize],
            Target::Block(BlockId(0)) => p.head,
            Target::Block(b) => p.rest + p.code.at[b.0 as usize],
        };
        let mut linker = Linker::new(&self.cost, patch.cursor.0 as usize, pos as usize);
        let mut groups = placed.as_slice();
        for f in &orig.funcs {
            let (group, later) = groups.split_at(f.blocks.len());
            groups = later;
            for p in group {
                let tail = p.frag.tail == 0;
                linker.push(&p.code.head, |_, t| resolve(p, tail, t));
            }
            for p in group {
                let tail = p.frag.tail as usize;
                let (from, to) = (p.code.at[tail.max(1)], p.code.at[tail + 1]);
                let in_tail = |off: u32| tail > 0 && (from..to).contains(&off);
                linker.push(&p.code.rest, |off, t| resolve(p, in_tail(off), t));
            }
        }
        linker.finish(head[orig.func(orig.entry).entry.0 as usize])
    }
}

/// Expand one basic block in a scratch program, minting snippet ids from
/// the shared cursor (advanced on return). A bare candidate is copied
/// with the charge of the lean double snippet it stands in for, and
/// steps the dataflow facts like that snippet, so every later snippet of
/// the block is the one the fully instrumented fragment has.
fn build_fragment(
    st: &mut RewriterState,
    lean: bool,
    oblk: &fpvm::program::BasicBlock,
    key: &[u8],
) -> Fragment {
    let mut scratch = Program::new(0);
    let m = scratch.add_module("fragment".to_string());
    let sf = scratch.add_function(m, "fragment".to_string());
    let head = scratch.add_block(sf);
    debug_assert_eq!(head.0, 0);
    scratch.set_id_cursor(st.next_id, st.next_addr);
    let start_id = st.next_id;

    let mut stats = RewriteStats::default();
    let mut cur = head;
    let mut state = FlagState::new();
    for (insn, d) in oblk.insns.iter().zip(key.chunks_exact(3)) {
        let facts = if lean { state.facts(insn) } else { OperandFacts::default() };
        let prec = match d[0] {
            5 if facts.dst != Known::Flagged && facts.src != Known::Flagged => {
                let charge = st
                    .charges
                    .entry((insn.id, facts))
                    .or_insert_with(|| Arc::new(plain_path(insn, facts)));
                let mut bare = insn.clone();
                bare.charge = Some(Arc::clone(charge));
                scratch.blocks[cur.0 as usize].insns.push(bare);
                state.step(insn, Some(SnippetPrec::Double));
                stats.bare += 1;
                continue;
            }
            0 | 3 => {
                if d[0] == 0 {
                    stats.ignored += 1;
                }
                state.step(insn, None);
                scratch.blocks[cur.0 as usize].insns.push(insn.clone());
                continue;
            }
            1 => SnippetPrec::Single,
            // A candidate known to hold a flagged input cannot run bare.
            2 | 5 => SnippetPrec::Double,
            4 => SnippetPrec::Reduced { mant: d[1], exp: d[2] },
            _ => unreachable!("invalid decision byte"),
        };
        let mut e = Emitter { prog: &mut scratch, func: sf, cur, origin: insn.id };
        emit_snippet(&mut e, insn, prec, facts);
        cur = e.cur;
        state.step(insn, Some(prec));
        match prec {
            SnippetPrec::Single => stats.single += 1,
            SnippetPrec::Reduced { .. } => stats.reduced += 1,
            SnippetPrec::Double => stats.double_checked += 1,
        }
    }

    let (end_id, end_addr) = scratch.id_cursor();
    stats.snippet_insns = (end_id - start_id) as usize;
    st.next_id = end_id;
    st.next_addr = end_addr;
    // The tail leaves the fragment through the original terminator.
    scratch.blocks[cur.0 as usize].term = oblk.term.clone();
    let blocks = scratch.blocks.into_iter().map(|b| (b.insns, b.term)).collect();
    Fragment { blocks, tail: cur.0, stats, reused: AtomicBool::new(false), code: OnceLock::new() }
}

/// What a bare `insn` is charged: the path its lean double snippet under
/// `facts` takes when no input is flagged. The snippet is emitted into a
/// throwaway program and walked from its head, through the unflagged
/// side of each flag test (every snippet branches to its flagged side on
/// `Eq` and falls to its `else` side otherwise) to the block where the
/// original code resumes.
fn plain_path(insn: &Insn, facts: OperandFacts) -> Charge {
    let mut p = Program::new(0);
    let m = p.add_module("charge".to_string());
    let f = p.add_function(m, "charge".to_string());
    let head = p.add_block(f);
    let mut e = Emitter { prog: &mut p, func: f, cur: head, origin: insn.id };
    emit_snippet(&mut e, insn, SnippetPrec::Double, facts);
    let end = e.cur;
    let mut charge = Charge { path: Vec::new(), terminators: 0 };
    let mut b = head;
    loop {
        charge.path.extend(p.block(b).insns.iter().map(|i| i.kind.clone()));
        if b == end {
            return charge;
        }
        charge.terminators += 1;
        b = match p.block(b).term {
            Terminator::Br { else_, .. } => else_,
            Terminator::Jmp(t) => t,
            ref t => unreachable!("a snippet block ends in {t:?}"),
        };
    }
}

enum Decision {
    Copy,
    Ignore,
    Snippet(SnippetPrec),
}

fn decide(insn: &Insn, tree: &StructureTree, cfg: &Config, mode: RewriteMode) -> Decision {
    if !insn.kind.is_candidate() || insn.origin.is_some() {
        return Decision::Copy;
    }
    match mode {
        RewriteMode::AllDouble => Decision::Snippet(SnippetPrec::Double),
        RewriteMode::Config => match cfg.effective(tree, insn.id) {
            Flag::Single => Decision::Snippet(SnippetPrec::Single),
            Flag::Double => Decision::Snippet(SnippetPrec::Double),
            Flag::Ignore => Decision::Ignore,
            f @ (Flag::Half | Flag::Bf16 | Flag::Custom { .. }) => {
                let fmt = f.format().expect("reduced flag carries a format");
                Decision::Snippet(SnippetPrec::Reduced {
                    mant: fmt.mantissa_bits() as u8,
                    exp: fmt.exp_bits() as u8,
                })
            }
        },
    }
}

/// Convenience: instrument everything with double snippets (overhead base
/// case).
pub fn rewrite_all_double(orig: &Program, tree: &StructureTree) -> (Program, RewriteStats) {
    rewrite(
        orig,
        tree,
        &Config::new(),
        &RewriteOptions { mode: RewriteMode::AllDouble, lean: false },
    )
}

/// Dynamic replacement percentage for a configuration, measured against a
/// profile of the *original* program: executed replaced candidates over
/// executed candidates (the "Dynamic" column of the paper's Fig. 10).
pub fn dynamic_replacement_pct(tree: &StructureTree, cfg: &Config, profile: &fpvm::Profile) -> f64 {
    let mut total = 0u64;
    let mut replaced = 0u64;
    for id in tree.all_insns() {
        let n = profile.count(id);
        total += n;
        if cfg.effective(tree, id).is_replacement() {
            replaced += n;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * replaced as f64 / total as f64
    }
}

/// Sanity helper used by tests and examples: assert that the rewritten
/// program contains a snippet chain (i.e. blocks grew).
pub fn block_growth(orig: &Program, rewritten: &Program) -> usize {
    rewritten.blocks.len().saturating_sub(orig.blocks.len())
}

#[allow(unused)]
fn _assert_insn_small(i: &Insn) {
    let _ = i;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::{
        f, fadd, fdiv, fmul, for_, i, itof, ld, set, st, v, CompileOptions, FpWidth, IrProgram,
    };
    use fpvm::isa::{FpAluOp, FpLoc, InstKind, MemRef, Prec, Width, Xmm, GMI, RM};
    use fpvm::{Vm, VmOptions};
    use mpconfig::StructureTree;

    /// sum_{k<8} (k*0.1) / 1.7 with a running product — numerically busy
    /// enough that f32 differs from f64.
    fn kernel() -> IrProgram {
        let mut ir = IrProgram::new("kern");
        let xs = ir.array_f64_init("x", (0..8).map(|k| k as f64 * 0.1).collect());
        let out = ir.array_f64("out", 1);
        let main = ir.func("main", &[], None, |ir, fr, _| {
            let s = ir.local_f(fr);
            let k = ir.local_i(fr);
            vec![
                set(s, f(0.0)),
                for_(
                    k,
                    i(0),
                    i(8),
                    vec![set(s, fadd(v(s), fdiv(fmul(ld(xs, v(k)), itof(v(k))), f(1.7))))],
                ),
                st(out, i(0), v(s)),
            ]
        });
        ir.set_entry(main);
        ir
    }

    fn run_out(p: &Program) -> (f64, fpvm::RunOutcome) {
        let mut vm = Vm::new(p, VmOptions::default());
        let o = vm.run();
        assert!(o.ok(), "trapped: {:?}", o.result);
        (vm.mem.read_f64_slice(p.symbol("out").unwrap(), 1).unwrap()[0], o)
    }

    #[test]
    fn all_double_preserves_results_bit_for_bit() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let (want, base) = run_out(&p);
        let tree = StructureTree::build(&p);
        let (q, stats) = rewrite_all_double(&p, &tree);
        assert!(stats.instrumented() > 0);
        assert!(stats.snippet_insns > 0);
        let (got, instr) = run_out(&q);
        assert_eq!(got.to_bits(), want.to_bits());
        // real overhead: the instrumented run executes more instructions
        assert!(instr.stats.steps > base.stats.steps);
        assert!(block_growth(&p, &q) > 0);
    }

    #[test]
    fn all_single_matches_manual_f32_conversion_bit_for_bit() {
        // §3.1: instrumented-all-single output must equal the manually
        // converted (whole-program F32 lowering) output, bit for bit.
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let mut cfg = Config::new();
        for mi in 0..tree.modules.len() {
            cfg.set_module(tree.modules[mi].id, Flag::Single);
        }
        let (q, stats) = rewrite(&p, &tree, &cfg, &RewriteOptions::default());
        assert_eq!(stats.single, tree.candidate_count());
        let (got, _) = run_out(&q);

        let manual = fpir::compile(&ir, &CompileOptions { fp: FpWidth::F32 });
        let mut vm = Vm::new(&manual, VmOptions::default());
        assert!(vm.run().ok());
        let want = vm.mem.read_f32_slice(manual.symbol("out").unwrap(), 1).unwrap()[0];
        assert_eq!((got as f32).to_bits(), want.to_bits());
        // and it must differ from the double result (the kernel is lossy)
        let (dbl, _) = run_out(&p);
        assert_ne!(dbl.to_bits(), got.to_bits());
    }

    #[test]
    fn reduced_config_rewrites_and_runs_coarser_than_single() {
        // All-bf16 must run cleanly and land strictly coarser than the
        // all-single result, which in turn differs from pure double.
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let run_at = |fl: Flag| {
            let mut cfg = Config::new();
            for mi in 0..tree.modules.len() {
                cfg.set_module(tree.modules[mi].id, fl);
            }
            let (q, stats) = rewrite(&p, &tree, &cfg, &RewriteOptions::default());
            (run_out(&q).0, stats)
        };
        let (dbl, _) = run_out(&p);
        let (sgl, s_stats) = run_at(Flag::Single);
        let (b16, b_stats) = run_at(Flag::Bf16);
        let (hlf, h_stats) = run_at(Flag::Half);
        assert_eq!(s_stats.single, tree.candidate_count());
        assert_eq!(s_stats.reduced, 0);
        assert_eq!(b_stats.reduced, tree.candidate_count());
        assert_eq!(b_stats.single, 0);
        assert_eq!(h_stats.reduced, tree.candidate_count());
        assert_ne!(sgl.to_bits(), dbl.to_bits());
        assert_ne!(b16.to_bits(), sgl.to_bits());
        assert_ne!(hlf.to_bits(), sgl.to_bits());
        // bf16 keeps only ~2-3 significant decimal digits of the ~1.16 sum
        assert!((b16 - dbl).abs() < 0.05, "bf16 drifted too far: {b16} vs {dbl}");
        assert!((hlf - dbl).abs() < 0.01, "half drifted too far: {hlf} vs {dbl}");
    }

    #[test]
    fn incremental_rewriter_handles_reduced_configs() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        let rw = Rewriter::new(&p, RewriteOptions::default());

        // Mixed lattice config: half, bf16, custom, single, rest double.
        let mut cfg = Config::new();
        cfg.set_insn(ids[0], Flag::Half);
        cfg.set_insn(ids[1], Flag::Bf16);
        cfg.set_insn(ids[2], Flag::Custom { mantissa_bits: 5, exp_bits: 6 });
        if ids.len() > 3 {
            cfg.set_insn(ids[3], Flag::Single);
        }
        let (want_p, want_s) = rewrite(&p, &tree, &cfg, &RewriteOptions::default());
        let (got_p, got_s) = rw.rewrite(&p, &tree, &cfg);
        assert_eq!(want_s, got_s);
        assert_eq!(want_s.reduced, 3);
        let (want, _) = run_out(&want_p);
        let (got, _) = run_out(&got_p);
        assert_eq!(want.to_bits(), got.to_bits());

        // Distinct formats on the same instruction must not share
        // fragments: flipping half → bf16 re-instruments its block.
        let (_, m0) = rw.cache_stats();
        let mut cfg2 = cfg.clone();
        cfg2.set_insn(ids[0], Flag::Bf16);
        let (_, _) = rw.rewrite(&p, &tree, &cfg2);
        let (_, m1) = rw.cache_stats();
        assert!(m1 > m0, "changed format must miss the fragment cache");
    }

    #[test]
    fn empty_config_returns_unmodified_clone() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let (q, stats) = rewrite(&p, &tree, &Config::new(), &RewriteOptions::default());
        assert_eq!(stats, RewriteStats::default());
        assert_eq!(q.blocks.len(), p.blocks.len());
    }

    #[test]
    fn partial_replacement_mixes_precisions() {
        // Replace only the multiply; everything else double-checked. The
        // result should be between pure-f32 and pure-f64 behaviour but
        // must run cleanly (no crash-on-miss) with the trap armed.
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        let mut cfg = Config::new();
        // pick the first candidate only
        cfg.set_insn(ids[0], Flag::Single);
        let (q, stats) = rewrite(&p, &tree, &cfg, &RewriteOptions::default());
        assert_eq!(stats.single, 1);
        assert_eq!(stats.double_checked, ids.len() - 1);
        let (got, _) = run_out(&q);
        let (dbl, _) = run_out(&p);
        // close to the double result, but generally not identical
        assert!((got - dbl).abs() < 1e-3);
    }

    #[test]
    fn missed_instrumentation_crashes_loudly() {
        // Force a miss: replace one producer with single but leave a
        // consumer completely uninstrumented (ignore). The consumer reads
        // a flagged value and must trap — the paper's crash-on-miss.
        let mut ir = IrProgram::new("m");
        let out = ir.array_f64("out", 1);
        let main = ir.func("main", &[], None, |ir, fr, _| {
            let a = ir.local_f(fr);
            vec![
                set(a, fmul(f(1.5), f(2.0))),      // producer
                st(out, i(0), fadd(v(a), f(1.0))), // consumer
            ]
        });
        ir.set_entry(main);
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        assert_eq!(ids.len(), 2);
        let mut cfg = Config::new();
        cfg.set_insn(ids[0], Flag::Single);
        cfg.set_insn(ids[1], Flag::Ignore);
        let (q, stats) = rewrite(&p, &tree, &cfg, &RewriteOptions::default());
        assert_eq!(stats.ignored, 1);
        let mut vm = Vm::new(&q, VmOptions::default());
        let o = vm.run();
        assert!(
            matches!(o.result, Err(fpvm::Trap::FlaggedNanConsumed { .. })),
            "expected crash-on-miss, got {:?}",
            o.result
        );
    }

    #[test]
    fn lean_mode_emits_fewer_snippet_instructions() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let (_, full) = rewrite(
            &p,
            &tree,
            &Config::new(),
            &RewriteOptions { mode: RewriteMode::AllDouble, lean: false },
        );
        let (q, lean) = rewrite(
            &p,
            &tree,
            &Config::new(),
            &RewriteOptions { mode: RewriteMode::AllDouble, lean: true },
        );
        assert!(lean.snippet_insns <= full.snippet_insns);
        // lean must not change results
        let (got, _) = run_out(&q);
        let pbase = fpir::compile(&ir, &CompileOptions::default());
        let (want, _) = run_out(&pbase);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    /// A one-block program of `body` over the f64 globals `init`, each
    /// candidate carrying its flag, rewritten with full and with lean
    /// snippets. Returns each run's globals (as bits) and outcome.
    fn full_and_lean(
        init: &[f64],
        body: Vec<(InstKind, Option<Flag>)>,
    ) -> Vec<(Vec<u64>, Result<(), fpvm::Trap>)> {
        let mut p = Program::new(1 << 14);
        let m = p.add_module("t");
        let f = p.add_function(m, "main");
        let b0 = p.add_block(f);
        p.funcs[f.0 as usize].entry = b0;
        p.entry = f;
        p.globals = init.iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut cfg = Config::new();
        for (kind, flag) in body {
            let id = p.push_insn(b0, kind);
            if let Some(fl) = flag {
                cfg.set_insn(id, fl);
            }
        }
        p.block_mut(b0).term = Terminator::Halt;
        let tree = StructureTree::build(&p);
        [false, true]
            .map(|lean| {
                let opts = RewriteOptions { mode: RewriteMode::Config, lean };
                let (q, _) = rewrite(&p, &tree, &cfg, &opts);
                let mut vm = Vm::new(&q, VmOptions::default());
                let result = vm.run().result;
                (vm.mem.read_u64_slice(0, init.len()).unwrap(), result)
            })
            .to_vec()
    }

    fn load(width: Width, x: u8, addr: u64) -> InstKind {
        InstKind::MovF { width, dst: FpLoc::Reg(Xmm(x)), src: FpLoc::Mem(MemRef::abs(addr)) }
    }

    fn store(width: Width, addr: u64, x: u8) -> InstKind {
        InstKind::MovF { width, dst: FpLoc::Mem(MemRef::abs(addr)), src: FpLoc::Reg(Xmm(x)) }
    }

    fn add(packed: bool, dst: u8, src: u8) -> InstKind {
        let (op, prec, dst, src) = (FpAluOp::Add, Prec::Double, Xmm(dst), RM::Reg(Xmm(src)));
        InstKind::FpArith { op, prec, packed, dst, src }
    }

    fn cvt3(dst: u8) -> InstKind {
        InstKind::CvtI2F { to: Prec::Double, dst: Xmm(dst), src: GMI::Imm(3) }
    }

    #[test]
    fn lean_keeps_the_check_on_an_input_a_single_snippet_flagged() {
        // cvtsi2sd $3,%xmm1; addsd %xmm1,%xmm0 [s]; addsd %xmm1,%xmm2 [d]:
        // the single add downcasts-and-flags %xmm1 in place, so the
        // double add must still upcast it.
        let runs = full_and_lean(
            &[1.0, 2.0, 0.0],
            vec![
                (load(Width::W64, 0, 0), None),
                (load(Width::W64, 2, 8), None),
                (cvt3(1), None),
                (add(false, 0, 1), Some(Flag::Single)),
                (add(false, 2, 1), Some(Flag::Double)),
                (store(Width::W64, 16, 2), None),
            ],
        );
        assert_eq!(runs[0].1, Ok(()));
        assert_eq!(f64::from_bits(runs[0].0[2]), 5.0);
        assert_eq!(runs[1], runs[0], "lean run differs from the full run");
    }

    #[test]
    fn lean_keeps_the_check_on_a_lane_a_scalar_write_left_flagged() {
        // addpd %xmm2,%xmm1 [s]; cvtsi2sd $3,%xmm1; addpd %xmm1,%xmm0 [d]:
        // the conversion makes lane 0 of %xmm1 plain, but lane 1 is still
        // flagged, so the packed double add must check it.
        let runs = full_and_lean(
            &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 0.0, 0.0],
            vec![
                (load(Width::W128, 1, 0), None),
                (load(Width::W128, 2, 16), None),
                (load(Width::W128, 0, 32), None),
                (add(true, 1, 2), Some(Flag::Single)),
                (cvt3(1), None),
                (add(true, 0, 1), Some(Flag::Double)),
                (store(Width::W128, 48, 0), None),
            ],
        );
        assert_eq!(runs[0].1, Ok(()));
        assert_eq!([runs[0].0[6], runs[0].0[7]], [13.0f64.to_bits(), 26.0f64.to_bits()]);
        assert_eq!(runs[1], runs[0], "lean run differs from the full run");
    }

    #[test]
    fn lean_uses_flagged_facts_like_the_full_tests() {
        // addsd %xmm1,%xmm0 [s]; addsd %xmm0,%xmm1 [s]; addsd %xmm0,%xmm2 [d];
        // addsd %xmm0,%xmm1 [s]: after the first add both registers are
        // known flagged, so the second tests neither; the double add
        // upcasts %xmm0 untested, which leaves it known plain for the last.
        let runs = full_and_lean(
            &[1.5, 2.25, 4.0, 0.0, 0.0],
            vec![
                (load(Width::W64, 0, 0), None),
                (load(Width::W64, 1, 8), None),
                (load(Width::W64, 2, 16), None),
                (add(false, 0, 1), Some(Flag::Single)),
                (add(false, 1, 0), Some(Flag::Single)),
                (add(false, 2, 0), Some(Flag::Double)),
                (add(false, 1, 0), Some(Flag::Single)),
                (store(Width::W64, 24, 2), None),
                (store(Width::W64, 32, 1), None),
            ],
        );
        assert_eq!(runs[0].1, Ok(()));
        assert_eq!(f64::from_bits(runs[0].0[3]), 7.75);
        assert_eq!(runs[0].0[4], crate::replace(9.75));
        assert_eq!(runs[1], runs[0], "lean run differs from the full run");
    }

    #[test]
    fn dynamic_pct_uses_profile_counts() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let out = Vm::run_program(&p, VmOptions { profile: true, ..Default::default() });
        let prof = out.profile.unwrap();
        let mut cfg = Config::new();
        assert_eq!(dynamic_replacement_pct(&tree, &cfg, &prof), 0.0);
        for id in tree.all_insns() {
            cfg.set_insn(id, Flag::Single);
        }
        assert!((dynamic_replacement_pct(&tree, &cfg, &prof) - 100.0).abs() < 1e-9);
    }

    /// Run a program and return (result bits, outcome) without asserting ok.
    fn run_any(p: &Program) -> fpvm::RunOutcome {
        Vm::run_program(p, VmOptions::default())
    }

    #[test]
    fn incremental_rewriter_matches_one_shot_semantics() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        let rw = Rewriter::new(&p, RewriteOptions::default());

        // A spread of configurations: empty, one insn, half, all single.
        let mut cfgs = vec![Config::new()];
        let mut one = Config::new();
        one.set_insn(ids[0], Flag::Single);
        cfgs.push(one);
        let mut half = Config::new();
        for &id in ids.iter().take(ids.len() / 2) {
            half.set_insn(id, Flag::Single);
        }
        cfgs.push(half);
        let mut all = Config::new();
        for &id in &ids {
            all.set_insn(id, Flag::Single);
        }
        cfgs.push(all);

        for cfg in &cfgs {
            let (want_p, want_s) = rewrite(&p, &tree, cfg, &RewriteOptions::default());
            let (got_p, got_s) = rw.rewrite(&p, &tree, cfg);
            assert_eq!(want_s, got_s, "stats diverge");
            assert_eq!(want_p.blocks.len(), got_p.blocks.len());
            got_p.validate().expect("incremental output invalid");
            let want_o = run_any(&want_p);
            let got_o = run_any(&got_p);
            assert_eq!(want_o.result, got_o.result);
            assert_eq!(want_o.stats.steps, got_o.stats.steps);
            assert_eq!(want_o.stats.cycles, got_o.stats.cycles);
            assert_eq!(want_o.stats.fp_ops, got_o.stats.fp_ops);
            if want_o.ok() {
                let addr = want_p.symbol("out").unwrap();
                let mut vm_w = Vm::new(&want_p, VmOptions::default());
                vm_w.run();
                let mut vm_g = Vm::new(&got_p, VmOptions::default());
                vm_g.run();
                assert_eq!(
                    vm_w.mem.read_u64_slice(addr, 1).unwrap(),
                    vm_g.mem.read_u64_slice(addr, 1).unwrap(),
                    "output bits diverge"
                );
            }
        }
    }

    #[test]
    fn linked_images_are_the_compiled_materialized_programs() {
        // The same op, region and kernel at every position: the image
        // `link` copies from cached chunks is the one a whole-program
        // compile of the materialized program binds, config after config
        // (so later links reuse chunks), the empty config included.
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        let cost = fpvm::CostModel { call: 7, ..Default::default() };
        let rw = Rewriter::with_cost_model(
            &p,
            RewriteOptions { lean: true, ..Default::default() },
            cost.clone(),
        );
        let flags = [Flag::Single, Flag::Double, Flag::Bf16, Flag::Half, Flag::Ignore];
        for round in 0..8 {
            let mut cfg = Config::new();
            if round > 0 {
                for (k, &id) in ids.iter().enumerate() {
                    cfg.set_insn(id, flags[(k * 7 + round * 3) % flags.len()]);
                }
            }
            let patch = rw.patch(&p, &tree, &cfg);
            let prog = patch.program(&p);
            assert_eq!(prog.insn_id_bound(), patch.id_cursor().0 as usize);
            let linked = rw.link(&p, &patch);
            let compiled = fpvm::CompiledImage::compile(&prog, &cost);
            assert_eq!(format!("{linked:?}"), format!("{compiled:?}"), "round {round}");
        }
        assert!(rw.cache_stats().0 > 0, "no fragment was reused");
    }

    #[test]
    fn incremental_rewriter_reuses_fragments_across_configs() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let ids = tree.all_insns();
        let rw = Rewriter::new(&p, RewriteOptions::default());

        let mut all = Config::new();
        for &id in &ids {
            all.set_insn(id, Flag::Single);
        }
        let (_, _) = rw.rewrite(&p, &tree, &all);
        let (h0, m0) = rw.cache_stats();
        assert_eq!(h0, 0);
        assert!(m0 > 0);

        // Same config again: every fragment hits.
        let (_, _) = rw.rewrite(&p, &tree, &all);
        let (h1, m1) = rw.cache_stats();
        assert_eq!(m1, m0, "no new fragments expected");
        assert_eq!(h1, m0, "every block should hit the cache");

        // Flip one instruction: only the blocks containing it re-expand.
        let mut one_less = all.clone();
        one_less.set_insn(ids[0], Flag::Double);
        let (_, _) = rw.rewrite(&p, &tree, &one_less);
        let (h2, m2) = rw.cache_stats();
        assert!(m2 > m0, "changed block must re-instrument");
        assert!(m2 - m0 < m0, "unchanged blocks must not re-instrument");
        assert!(h2 > h1);
    }

    #[test]
    fn incremental_rewriter_all_double_matches_reference() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let rw = Rewriter::new(&p, RewriteOptions { mode: RewriteMode::AllDouble, lean: false });
        let (want_p, want_s) = rewrite_all_double(&p, &tree);
        let (got_p, got_s) = rw.rewrite(&p, &tree, &Config::new());
        assert_eq!(want_s, got_s);
        let want_o = run_any(&want_p);
        let got_o = run_any(&got_p);
        assert_eq!(want_o.stats.steps, got_o.stats.steps);
        assert!(got_o.ok());
    }

    #[test]
    fn incremental_rewriter_lean_mode_matches_reference_counts() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let rw = Rewriter::new(&p, RewriteOptions { mode: RewriteMode::AllDouble, lean: true });
        let (_, want_s) = rewrite(
            &p,
            &tree,
            &Config::new(),
            &RewriteOptions { mode: RewriteMode::AllDouble, lean: true },
        );
        let (got_p, got_s) = rw.rewrite(&p, &tree, &Config::new());
        assert_eq!(want_s, got_s);
        assert!(run_any(&got_p).ok());
    }

    #[test]
    fn instrumented_profile_attributes_snippets_to_origin() {
        let ir = kernel();
        let p = fpir::compile(&ir, &CompileOptions::default());
        let tree = StructureTree::build(&p);
        let (q, _) = rewrite_all_double(&p, &tree);
        // every snippet instruction knows its origin
        for (_, _, insn) in q.iter_insns() {
            if insn.id.0 as usize >= p.insn_id_bound() {
                assert!(insn.origin.is_some());
            }
        }
    }
}

//! Precision configurations: `p → {precision level | ignore}` with
//! parent-overrides-children aggregation (§2.1), generalized from the
//! paper's two-level `{single, double}` scheme to the full precision
//! lattice (half, bfloat16, custom-mantissa formats; see `mpfmt`).

use crate::tree::{NodeRef, StructureTree};
use fpvm::isa::{BlockId, FuncId, InsnId, ModuleId};
use mpfmt::Format;
use std::collections::BTreeMap;
use std::fmt;

/// A precision flag, as written in the first column of a configuration
/// file: `s` (single), `d` (double), `i` (ignore), `h` (half), `b`
/// (bfloat16), or `m<M>e<E>` (custom reduced format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flag {
    /// Replace with the single-precision equivalent.
    Single,
    /// Keep double precision (but still instrument with a checking snippet
    /// once any replacement exists anywhere).
    Double,
    /// Leave the instruction completely untouched — no snippet, no checks
    /// (for unusual constructs like FP-trick random number generators).
    Ignore,
    /// Replace with emulated IEEE binary16.
    Half,
    /// Replace with emulated bfloat16.
    Bf16,
    /// Replace with an emulated custom reduced format (embedded in
    /// binary32; see `mpfmt::Format::Custom`).
    Custom {
        /// Explicit mantissa bits (`<= 23`).
        mantissa_bits: u8,
        /// Exponent bits (`1..=8`).
        exp_bits: u8,
    },
}

/// A flag token that is not recognized by the configuration grammar.
///
/// Produced by [`Flag::from_token`] (and through it, the config-text
/// parser): unknown flags are an error, never silently treated as
/// unflagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFlagError {
    /// The offending token as written.
    pub token: String,
    /// A more specific reason, when the token matched the custom-format
    /// shape but described an invalid format.
    pub detail: Option<String>,
}

impl fmt::Display for UnknownFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.detail {
            Some(d) => write!(f, "unknown precision flag `{}`: {d}", self.token),
            None => write!(
                f,
                "unknown precision flag `{}` (expected s/d/i/h/b or m<M>e<E>)",
                self.token
            ),
        }
    }
}

impl std::error::Error for UnknownFlagError {}

impl Flag {
    /// The token form used in configuration files: a single letter for
    /// the named levels, `m<M>e<E>` for custom formats.
    pub fn token(self) -> String {
        match self {
            Flag::Single => "s".to_string(),
            Flag::Double => "d".to_string(),
            Flag::Ignore => "i".to_string(),
            Flag::Half => "h".to_string(),
            Flag::Bf16 => "b".to_string(),
            Flag::Custom { mantissa_bits, exp_bits } => format!("m{mantissa_bits}e{exp_bits}"),
        }
    }

    /// Parse the single-character forms.
    pub fn from_letter(c: char) -> Option<Flag> {
        match c {
            's' => Some(Flag::Single),
            'd' => Some(Flag::Double),
            'i' => Some(Flag::Ignore),
            'h' => Some(Flag::Half),
            'b' => Some(Flag::Bf16),
            _ => None,
        }
    }

    /// Parse a flag token (single letter or `m<M>e<E>`). Unknown tokens
    /// are a named error — callers must surface it, not default.
    pub fn from_token(s: &str) -> Result<Flag, UnknownFlagError> {
        let mut it = s.chars();
        if let (Some(c), None) = (it.next(), it.next()) {
            return Flag::from_letter(c)
                .ok_or_else(|| UnknownFlagError { token: s.to_string(), detail: None });
        }
        if s.starts_with('m') && s.len() > 1 {
            return match Format::parse(s) {
                Ok(f) => Ok(Flag::from_format(f)),
                Err(e) => {
                    Err(UnknownFlagError { token: s.to_string(), detail: Some(e.to_string()) })
                }
            };
        }
        Err(UnknownFlagError { token: s.to_string(), detail: None })
    }

    /// The numeric format this flag selects; `None` for [`Flag::Ignore`].
    pub fn format(self) -> Option<Format> {
        match self {
            Flag::Single => Some(Format::Single),
            Flag::Double => Some(Format::Double),
            Flag::Ignore => None,
            Flag::Half => Some(Format::Half),
            Flag::Bf16 => Some(Format::Bf16),
            Flag::Custom { mantissa_bits, exp_bits } => {
                Some(Format::Custom { mantissa_bits, exp_bits })
            }
        }
    }

    /// The flag selecting `f`, normalizing custom parameter pairs that
    /// coincide with a named format (so flag equality matches format
    /// equality).
    pub fn from_format(f: Format) -> Flag {
        match f {
            Format::Double => Flag::Double,
            Format::Single | Format::Custom { mantissa_bits: 23, exp_bits: 8 } => Flag::Single,
            Format::Half | Format::Custom { mantissa_bits: 10, exp_bits: 5 } => Flag::Half,
            Format::Bf16 | Format::Custom { mantissa_bits: 7, exp_bits: 8 } => Flag::Bf16,
            Format::Custom { mantissa_bits, exp_bits } => Flag::Custom { mantissa_bits, exp_bits },
        }
    }

    /// True if this flag replaces the double with a narrower format
    /// (single or anything below it in the lattice).
    pub fn is_replacement(self) -> bool {
        matches!(self, Flag::Single | Flag::Half | Flag::Bf16 | Flag::Custom { .. })
    }

    /// Mantissa width of the selected format; the lattice's depth order
    /// (fewer bits = deeper). `None` for [`Flag::Ignore`].
    pub fn mantissa_bits(self) -> Option<u32> {
        self.format().map(|f| f.mantissa_bits())
    }
}

/// Parse a comma-separated lattice spec (`"s,h"`, `"s,b,m5e6"`) into
/// the ordered list of replacement levels a search descends through.
/// Every token must name a replacement format — `d`/`i` have no place
/// in a descent order — and the spec may not be empty.
pub fn parse_lattice(spec: &str) -> Result<Vec<Flag>, String> {
    let mut out = Vec::new();
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let fl = Flag::from_token(tok).map_err(|e| e.to_string())?;
        if !fl.is_replacement() {
            return Err(format!(
                "lattice level `{tok}` is not a replacement format (expected s/h/b or m<M>e<E>)"
            ));
        }
        out.push(fl);
    }
    if out.is_empty() {
        return Err(format!("empty lattice spec `{spec}`"));
    }
    Ok(out)
}

/// Inverse of [`parse_lattice`]: the comma-joined token form used by
/// manifests and job specs.
pub fn lattice_tokens(lattice: &[Flag]) -> String {
    lattice.iter().map(|f| f.token()).collect::<Vec<_>>().join(",")
}

/// A precision configuration: explicit flags at any level of the program
/// structure. An aggregate's flag overrides all flags below it; an
/// instruction with no flag anywhere on its chain defaults to `Double`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Explicit module-level flags.
    pub modules: BTreeMap<u32, Flag>,
    /// Explicit function-level flags.
    pub funcs: BTreeMap<u32, Flag>,
    /// Explicit block-level flags.
    pub blocks: BTreeMap<u32, Flag>,
    /// Explicit instruction-level flags.
    pub insns: BTreeMap<u32, Flag>,
}

impl Config {
    /// The empty configuration (everything defaults to double).
    pub fn new() -> Self {
        Config::default()
    }

    /// Set a module flag.
    pub fn set_module(&mut self, m: ModuleId, f: Flag) -> &mut Self {
        self.modules.insert(m.0, f);
        self
    }

    /// Set a function flag.
    pub fn set_func(&mut self, x: FuncId, f: Flag) -> &mut Self {
        self.funcs.insert(x.0, f);
        self
    }

    /// Set a block flag.
    pub fn set_block(&mut self, b: BlockId, f: Flag) -> &mut Self {
        self.blocks.insert(b.0, f);
        self
    }

    /// Set an instruction flag.
    pub fn set_insn(&mut self, i: InsnId, f: Flag) -> &mut Self {
        self.insns.insert(i.0, f);
        self
    }

    /// Set a flag on an arbitrary tree node.
    pub fn set_node(&mut self, tree: &StructureTree, node: NodeRef, f: Flag) -> &mut Self {
        match node {
            NodeRef::Module(mi) => self.set_module(tree.modules[mi].id, f),
            NodeRef::Func(mi, fi) => self.set_func(tree.modules[mi].funcs[fi].id, f),
            NodeRef::Block(mi, fi, bi) => {
                self.set_block(tree.modules[mi].funcs[fi].blocks[bi].id, f)
            }
            NodeRef::Insn(mi, fi, bi, ii) => {
                self.set_insn(tree.modules[mi].funcs[fi].blocks[bi].insns[ii].id, f)
            }
        }
    }

    /// Remove the flag from a tree node, if any.
    pub fn clear_node(&mut self, tree: &StructureTree, node: NodeRef) -> &mut Self {
        match node {
            NodeRef::Module(mi) => {
                self.modules.remove(&tree.modules[mi].id.0);
            }
            NodeRef::Func(mi, fi) => {
                self.funcs.remove(&tree.modules[mi].funcs[fi].id.0);
            }
            NodeRef::Block(mi, fi, bi) => {
                self.blocks.remove(&tree.modules[mi].funcs[fi].blocks[bi].id.0);
            }
            NodeRef::Insn(mi, fi, bi, ii) => {
                self.insns.remove(&tree.modules[mi].funcs[fi].blocks[bi].insns[ii].id.0);
            }
        }
        self
    }

    /// Explicit flag on a node, if any.
    pub fn node_flag(&self, tree: &StructureTree, node: NodeRef) -> Option<Flag> {
        match node {
            NodeRef::Module(mi) => self.modules.get(&tree.modules[mi].id.0).copied(),
            NodeRef::Func(mi, fi) => self.funcs.get(&tree.modules[mi].funcs[fi].id.0).copied(),
            NodeRef::Block(mi, fi, bi) => {
                self.blocks.get(&tree.modules[mi].funcs[fi].blocks[bi].id.0).copied()
            }
            NodeRef::Insn(mi, fi, bi, ii) => {
                self.insns.get(&tree.modules[mi].funcs[fi].blocks[bi].insns[ii].id.0).copied()
            }
        }
    }

    /// Effective flag of a candidate instruction under parent-override
    /// semantics: the *outermost* flagged ancestor wins (an aggregate flag
    /// "overrides any flags specified for its children"); with no flag on
    /// the chain, the default is `Double`.
    pub fn effective(&self, tree: &StructureTree, id: InsnId) -> Flag {
        let Some((b, f, m)) = tree.parents(id) else {
            return Flag::Double;
        };
        if let Some(&fl) = self.modules.get(&m.0) {
            return fl;
        }
        if let Some(&fl) = self.funcs.get(&f.0) {
            return fl;
        }
        if let Some(&fl) = self.blocks.get(&b.0) {
            return fl;
        }
        self.insns.get(&id.0).copied().unwrap_or(Flag::Double)
    }

    /// Union of two configurations' *single* replacements: used to compose
    /// the "final" configuration from all individually passing
    /// configurations (§2.2). Flags other than `Single` are not merged.
    pub fn union_single(&self, other: &Config) -> Config {
        let mut out = self.clone();
        for (k, v) in &other.modules {
            if *v == Flag::Single {
                out.modules.insert(*k, *v);
            }
        }
        for (k, v) in &other.funcs {
            if *v == Flag::Single {
                out.funcs.insert(*k, *v);
            }
        }
        for (k, v) in &other.blocks {
            if *v == Flag::Single {
                out.blocks.insert(*k, *v);
            }
        }
        for (k, v) in &other.insns {
            if *v == Flag::Single {
                out.insns.insert(*k, *v);
            }
        }
        out
    }

    /// Union of two configurations' replacements across the whole
    /// lattice: `other`'s replacement flags are merged in, but an entry
    /// never *widens* — where both sides flag the same node, the format
    /// with the narrower mantissa wins. Non-replacement flags in
    /// `other` are not merged (same contract as [`Config::union_single`]).
    pub fn union_replacements(&self, other: &Config) -> Config {
        fn merge(dst: &mut BTreeMap<u32, Flag>, src: &BTreeMap<u32, Flag>) {
            for (k, v) in src {
                if !v.is_replacement() {
                    continue;
                }
                let keep = matches!(
                    dst.get(k),
                    Some(cur) if cur.is_replacement()
                        && cur.mantissa_bits() <= v.mantissa_bits()
                );
                if !keep {
                    dst.insert(*k, *v);
                }
            }
        }
        let mut out = self.clone();
        merge(&mut out.modules, &other.modules);
        merge(&mut out.funcs, &other.funcs);
        merge(&mut out.blocks, &other.blocks);
        merge(&mut out.insns, &other.insns);
        out
    }

    /// Candidate instructions whose effective flag is a replacement
    /// (single or any reduced format).
    pub fn replaced_insns(&self, tree: &StructureTree) -> Vec<InsnId> {
        tree.all_insns().into_iter().filter(|&i| self.effective(tree, i).is_replacement()).collect()
    }

    /// A canonical key identifying the *semantic* replacement set: one
    /// packed word per effectively-replaced candidate, carrying the
    /// instruction id and the target format's mantissa/exponent widths.
    /// Two configurations with the same key rewrite to the same program,
    /// so the search's verdict store keys on this (the id set alone no longer
    /// suffices once formats diverge).
    pub fn replacement_key(&self, tree: &StructureTree) -> Vec<u64> {
        let mut key: Vec<u64> = tree
            .all_insns()
            .into_iter()
            .filter_map(|i| {
                let fl = self.effective(tree, i);
                if !fl.is_replacement() {
                    return None;
                }
                let f = fl.format().expect("replacement flags always carry a format");
                Some(((i.0 as u64) << 16) | ((f.mantissa_bits() as u64) << 8) | f.exp_bits() as u64)
            })
            .collect();
        key.sort_unstable();
        key
    }

    /// Static replacement percentage: replaced candidates / all candidates.
    pub fn static_replacement_pct(&self, tree: &StructureTree) -> f64 {
        let total = tree.candidate_count();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.replaced_insns(tree).len() as f64 / total as f64
    }

    /// True if any instruction is effectively replaced (at any lattice
    /// level) — which forces the rewriter to instrument *every* FP
    /// instruction (§2.3).
    pub fn any_single(&self, tree: &StructureTree) -> bool {
        tree.all_insns().iter().any(|&i| self.effective(tree, i).is_replacement())
    }

    /// Number of explicit flag entries (any level).
    pub fn len(&self) -> usize {
        self.modules.len() + self.funcs.len() + self.blocks.len() + self.insns.len()
    }

    /// True if no explicit flags are set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::StructureTree;
    use fpvm::isa::*;
    use fpvm::program::Program;

    fn prog() -> Program {
        let mut p = Program::new(1 << 12);
        let m = p.add_module("m");
        let f1 = p.add_function(m, "main");
        let b1 = p.add_block(f1);
        p.funcs[f1.0 as usize].entry = b1;
        p.entry = f1;
        let b2 = p.add_block(f1);
        for b in [b1, b2] {
            for _ in 0..2 {
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
            }
        }
        p.block_mut(b1).term = Terminator::Jmp(b2);
        p
    }

    #[test]
    fn default_is_double() {
        let p = prog();
        let t = StructureTree::build(&p);
        let c = Config::new();
        for i in t.all_insns() {
            assert_eq!(c.effective(&t, i), Flag::Double);
        }
        assert!(!c.any_single(&t));
        assert_eq!(c.static_replacement_pct(&t), 0.0);
    }

    #[test]
    fn parent_overrides_child() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let mut c = Config::new();
        // instruction says single…
        c.set_insn(ids[0], Flag::Single);
        assert_eq!(c.effective(&t, ids[0]), Flag::Single);
        // …but its function says double: function wins.
        let (_, f, _) = t.parents(ids[0]).unwrap();
        c.set_func(f, Flag::Double);
        assert_eq!(c.effective(&t, ids[0]), Flag::Double);
        // …and the module saying single overrides the function.
        let m = t.func_parent(f).unwrap();
        c.set_module(m, Flag::Single);
        assert_eq!(c.effective(&t, ids[0]), Flag::Single);
        assert_eq!(c.effective(&t, ids[3]), Flag::Single);
    }

    #[test]
    fn block_level_flags() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let (b0, _, _) = t.parents(ids[0]).unwrap();
        let mut c = Config::new();
        c.set_block(b0, Flag::Single);
        assert_eq!(c.effective(&t, ids[0]), Flag::Single);
        assert_eq!(c.effective(&t, ids[1]), Flag::Single);
        assert_eq!(c.effective(&t, ids[2]), Flag::Double);
        assert_eq!(c.static_replacement_pct(&t), 50.0);
    }

    #[test]
    fn union_merges_only_single() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let mut a = Config::new();
        a.set_insn(ids[0], Flag::Single);
        let mut b = Config::new();
        b.set_insn(ids[1], Flag::Single);
        b.set_insn(ids[2], Flag::Double); // not merged
        let u = a.union_single(&b);
        assert_eq!(u.effective(&t, ids[0]), Flag::Single);
        assert_eq!(u.effective(&t, ids[1]), Flag::Single);
        assert_eq!(u.effective(&t, ids[2]), Flag::Double);
        assert_eq!(u.insns.len(), 2);
    }

    #[test]
    fn ignore_flag_propagates() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let (_, f, _) = t.parents(ids[0]).unwrap();
        let mut c = Config::new();
        c.set_func(f, Flag::Ignore);
        for i in &ids {
            assert_eq!(c.effective(&t, *i), Flag::Ignore);
        }
    }

    #[test]
    fn flag_tokens_round_trip() {
        let flags = [
            Flag::Single,
            Flag::Double,
            Flag::Ignore,
            Flag::Half,
            Flag::Bf16,
            Flag::Custom { mantissa_bits: 5, exp_bits: 4 },
        ];
        for f in flags {
            assert_eq!(Flag::from_token(&f.token()), Ok(f));
        }
        // Custom tokens naming a named format normalize to it.
        assert_eq!(Flag::from_token("m10e5"), Ok(Flag::Half));
        assert_eq!(Flag::from_token("m7e8"), Ok(Flag::Bf16));
        assert_eq!(Flag::from_token("m23e8"), Ok(Flag::Single));
    }

    #[test]
    fn unknown_flag_tokens_are_named_errors() {
        for bad in ["x", "q", "ss", "m", "m24e8", "m5e9", "mXeY", ""] {
            let e = Flag::from_token(bad).unwrap_err();
            assert_eq!(e.token, bad);
        }
        // Invalid custom formats carry the specific reason.
        let e = Flag::from_token("m24e8").unwrap_err();
        assert!(e.detail.is_some());
        assert!(e.to_string().contains("m24e8"));
    }

    #[test]
    fn lattice_specs_parse_and_round_trip() {
        let l = parse_lattice("s,h").unwrap();
        assert_eq!(l, vec![Flag::Single, Flag::Half]);
        assert_eq!(lattice_tokens(&l), "s,h");
        let l = parse_lattice(" s , b , m5e6 ").unwrap();
        assert_eq!(
            l,
            vec![Flag::Single, Flag::Bf16, Flag::Custom { mantissa_bits: 5, exp_bits: 6 }]
        );
        assert_eq!(lattice_tokens(&l), "s,b,m5e6");
        // Non-replacement levels and junk are named errors.
        assert!(parse_lattice("s,d").unwrap_err().contains("not a replacement"));
        assert!(parse_lattice("s,i").unwrap_err().contains("not a replacement"));
        assert!(parse_lattice("s,x").unwrap_err().contains("unknown precision flag"));
        assert!(parse_lattice("").unwrap_err().contains("empty"));
        assert!(parse_lattice(" , ").unwrap_err().contains("empty"));
    }

    #[test]
    fn reduced_flags_count_as_replacements() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let mut c = Config::new();
        c.set_insn(ids[0], Flag::Half);
        assert!(c.any_single(&t));
        assert_eq!(c.replaced_insns(&t), vec![ids[0]]);
        assert_eq!(c.static_replacement_pct(&t), 25.0);
    }

    #[test]
    fn union_replacements_keeps_the_narrower_format() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let mut a = Config::new();
        a.set_insn(ids[0], Flag::Half); // 10 mantissa bits
        a.set_insn(ids[1], Flag::Single);
        let mut b = Config::new();
        b.set_insn(ids[0], Flag::Single); // wider: must not override Half
        b.set_insn(ids[1], Flag::Bf16); // narrower: overrides Single
        b.set_insn(ids[2], Flag::Double); // not merged
        let u = a.union_replacements(&b);
        assert_eq!(u.effective(&t, ids[0]), Flag::Half);
        assert_eq!(u.effective(&t, ids[1]), Flag::Bf16);
        assert_eq!(u.effective(&t, ids[2]), Flag::Double);
    }

    #[test]
    fn replacement_key_distinguishes_formats() {
        let p = prog();
        let t = StructureTree::build(&p);
        let ids = t.all_insns();
        let mut a = Config::new();
        a.set_insn(ids[0], Flag::Single);
        let mut b = Config::new();
        b.set_insn(ids[0], Flag::Half);
        assert_ne!(a.replacement_key(&t), b.replacement_key(&t));
        // Same semantic replacement set ⇒ same key, even via aggregates.
        let (blk, _, _) = t.parents(ids[0]).unwrap();
        let mut c = Config::new();
        c.set_block(blk, Flag::Single);
        let mut d = Config::new();
        for e in &t.modules[0].funcs[0].blocks[0].insns {
            d.set_insn(e.id, Flag::Single);
        }
        assert_eq!(c.replacement_key(&t), d.replacement_key(&t));
    }

    #[test]
    fn set_and_clear_node() {
        let p = prog();
        let t = StructureTree::build(&p);
        let root = t.roots()[0];
        let mut c = Config::new();
        c.set_node(&t, root, Flag::Single);
        assert!(c.any_single(&t));
        assert_eq!(c.node_flag(&t, root), Some(Flag::Single));
        c.clear_node(&t, root);
        assert!(c.is_empty());
    }
}

//! Cross-crate instrumentation invariants on real workloads: all-double
//! transparency, crash-on-miss, profile attribution, ignore handling.

use fpvm::{Vm, VmOptions};
use instrument::{rewrite, rewrite_all_double, RewriteMode, RewriteOptions, Rewriter};
use mixedprec::jobspec::{build_workload, BENCHES};
use mpconfig::{Config, Flag, StructureTree};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::{nas, nas_all, Class, Workload};

/// The all-double instrumented binary must reproduce the original's
/// outputs bit for bit (the paper's base-case transformation "does not
/// affect the semantics or results of the program").
#[test]
fn all_double_is_bit_transparent_on_every_workload() {
    for w in nas_all(Class::S) {
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let (instr, stats) = rewrite_all_double(prog, &tree);
        assert!(stats.instrumented() > 0, "{}: nothing instrumented", w.name);

        let mut v0 = Vm::new(prog, w.vm_opts());
        assert!(v0.run().ok());
        let mut v1 = Vm::new(&instr, w.vm_opts());
        assert!(v1.run().ok(), "{}: instrumented run failed", w.name);
        for (sym, len) in &w.out_syms {
            let a = v0.mem.read_u64_slice(prog.symbol(sym).unwrap(), *len).unwrap();
            let b = v1.mem.read_u64_slice(prog.symbol(sym).unwrap(), *len).unwrap();
            assert_eq!(a, b, "{}: {sym} diverged under all-double instrumentation", w.name);
        }
    }
}

/// Replacing one hot instruction and ignoring its consumers crashes
/// loudly instead of silently corrupting results.
#[test]
fn crash_on_miss_fires_on_a_real_kernel() {
    let w = nas::mg(Class::S);
    let prog = w.program();
    let tree = StructureTree::build(prog);
    // find the hottest candidate and replace only it, ignoring the rest
    let profile =
        Vm::run_program(prog, VmOptions { profile: true, ..w.vm_opts() }).profile.unwrap();
    let hottest = tree.all_insns().into_iter().max_by_key(|&i| profile.count(i)).unwrap();
    let mut cfg = Config::new();
    for id in tree.all_insns() {
        cfg.set_insn(id, if id == hottest { Flag::Single } else { Flag::Ignore });
    }
    let (instr, stats) = rewrite(prog, &tree, &cfg, &RewriteOptions::default());
    assert_eq!(stats.single, 1);
    let out = Vm::run_program(&instr, w.vm_opts());
    assert!(
        matches!(out.result, Err(fpvm::Trap::FlaggedNanConsumed { .. })),
        "expected crash-on-miss, got {:?}",
        out.result
    );
}

/// Snippet instructions in a rewritten workload are attributed to their
/// origin, so instrumented profiles can be folded back onto the original
/// instruction set.
#[test]
fn instrumented_profiles_fold_back_to_original_instructions() {
    let w = nas::ep(Class::S);
    let prog = w.program();
    let tree = StructureTree::build(prog);
    let (instr, _) = rewrite_all_double(prog, &tree);
    let out = Vm::run_program(&instr, VmOptions { profile: true, ..w.vm_opts() });
    assert!(out.ok());
    let prof = out.profile.unwrap();
    // for each candidate: its own id no longer executes (it was replaced),
    // but snippet instructions attributed to it do.
    let mut per_origin = std::collections::HashMap::new();
    for (_, _, insn) in instr.iter_insns() {
        if let Some(origin) = insn.origin {
            *per_origin.entry(origin).or_insert(0u64) += prof.count(insn.id);
        }
    }
    let orig_prof =
        Vm::run_program(prog, VmOptions { profile: true, ..w.vm_opts() }).profile.unwrap();
    for id in tree.all_insns() {
        if orig_prof.count(id) > 0 {
            assert!(
                per_origin.get(&id).copied().unwrap_or(0) > 0,
                "no snippet executions attributed to hot candidate {id:?}"
            );
        }
    }
}

/// The `ignore` flag leaves instructions untouched even when the rest of
/// the module is replaced, and the EP RNG keeps producing the exact
/// 46-bit sequence.
#[test]
fn ignored_rng_stays_exact_under_full_replacement() {
    let w = nas::ep(Class::S);
    let prog = w.program();
    let tree = StructureTree::build(prog);
    let mut cfg = Config::new();
    for m in &tree.modules {
        for fun in &m.funcs {
            let flag = if fun.name == "randlc" { Flag::Ignore } else { Flag::Single };
            cfg.set_func(fun.id, flag);
        }
    }
    let (instr, stats) = rewrite(prog, &tree, &cfg, &RewriteOptions::default());
    assert!(stats.ignored > 0);
    let mut vm = Vm::new(&instr, w.vm_opts());
    assert!(vm.run().ok());
    // the RNG state must match the original run exactly
    let mut v0 = Vm::new(prog, w.vm_opts());
    assert!(v0.run().ok());
    let a = vm.mem.load_u64(prog.symbol("rngst").unwrap()).unwrap();
    let b = v0.mem.load_u64(prog.symbol("rngst").unwrap()).unwrap();
    assert_eq!(a, b, "ignored RNG state diverged");
}

/// One class-S workload with a full-snippet and a lean-snippet rewriter.
struct LeanCase {
    w: Workload,
    tree: StructureTree,
    full: Rewriter,
    lean: Rewriter,
}

/// Every class-S workload the system can build, vecops' packed kernels
/// included, each with its two rewriters (built once, shared by cases).
fn lean_cases(mode: RewriteMode) -> Vec<LeanCase> {
    BENCHES
        .iter()
        .map(|b| {
            let w = build_workload(b, Class::S).unwrap();
            let tree = StructureTree::build(w.program());
            let rw = |lean| Rewriter::new(w.program(), RewriteOptions { mode, lean });
            let (full, lean) = (rw(false), rw(true));
            LeanCase { w, tree, full, lean }
        })
        .collect()
}

/// The lean rewrite of `cfg` runs like the full one: the same trap kind
/// and a bit-identical data segment. A full run that exhausts its fuel
/// is skipped, since fuel counts executed instructions and the lean run
/// executes fewer. Returns whether the runs were compared.
fn lean_matches_full(c: &LeanCase, cfg: &Config) -> Result<bool, String> {
    let prog = c.w.program();
    let words = prog.globals.len().div_ceil(8);
    let run = |rw: &Rewriter| {
        let (q, _) = rw.rewrite(prog, &c.tree, cfg);
        let mut vm = Vm::new(&q, c.w.vm_opts());
        let kind = vm.run().result.map_err(|t| t.kind());
        (kind, vm.mem.read_u64_slice(0, words).unwrap())
    };
    let full = run(&c.full);
    if full.0 == Err("fuel-exhausted") {
        return Ok(false);
    }
    let lean = run(&c.lean);
    if lean.0 != full.0 {
        return Err(format!("{}: lean {:?}, full {:?}", c.w.name, lean.0, full.0));
    }
    if let Some(k) = (0..words).find(|&k| lean.1[k] != full.1[k]) {
        return Err(format!("{}: data word {k} differs under lean snippets", c.w.name));
    }
    Ok(true)
}

/// Lean (dataflow) snippets never change an all-double run.
#[test]
fn lean_all_double_matches_full_on_every_workload() {
    for c in &lean_cases(RewriteMode::AllDouble) {
        assert_eq!(lean_matches_full(c, &Config::new()), Ok(true));
    }
}

static MIXED: OnceLock<Vec<LeanCase>> = OnceLock::new();

// Lean snippets never change a run under a mixed configuration: each
// candidate draws its flag from a random palette of single, double,
// bfloat16 and ignore.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lean_mode_is_semantics_preserving_everywhere(
        draws in vec(any::<u8>(), 1..64),
        palette in 1usize..16,
    ) {
        let flags: Vec<Flag> = [Flag::Single, Flag::Double, Flag::Bf16, Flag::Ignore]
            .into_iter()
            .enumerate()
            .filter(|(k, _)| palette & (1 << k) != 0)
            .map(|(_, f)| f)
            .collect();
        for c in MIXED.get_or_init(|| lean_cases(RewriteMode::Config)) {
            let mut cfg = Config::new();
            for (j, id) in c.tree.all_insns().into_iter().enumerate() {
                cfg.set_insn(id, flags[draws[j % draws.len()] as usize % flags.len()]);
            }
            lean_matches_full(c, &cfg)?;
        }
    }
}

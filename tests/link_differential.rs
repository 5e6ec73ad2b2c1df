//! Linked images run exactly like compiled programs.
//!
//! A search's compiled runs execute an image that the [`Rewriter`] links
//! from the cached per-fragment chunks of each configuration, on a VM
//! whose program is a shell without code. This checks that such a run is
//! the run of [`CompiledImage::compile`] on the materialized instrumented
//! program: the same outcome (result and trap, steps, cycles, fp-ops,
//! per-instruction profile), the same final machine state and the same
//! fused idioms, config after config through one rewriter per workload,
//! so most fragments' chunks are reused from earlier links.

use fpvm::{CompiledImage, Idiom, Program, Vm, VmOptions};
use instrument::{RewriteOptions, Rewriter};
use mixedprec::jobspec::{build_workload, BENCHES};
use mpconfig::{Config, Flag, StructureTree};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::{Class, Workload};

const IDIOMS: [Idiom; 11] = [
    Idiom::LdArith64,
    Idiom::Arith64St,
    Idiom::LdArith64St,
    Idiom::AluCmpBr,
    Idiom::CmpBr,
    Idiom::TestBr,
    Idiom::Ucomi64Br,
    Idiom::FlagTestBr,
    Idiom::SetFlag,
    Idiom::PushPair,
    Idiom::PopPair,
];

/// One class-S workload and the rewriter every case pushes configs
/// through, lean like a search's.
struct Case {
    w: Workload,
    tree: StructureTree,
    rw: Rewriter,
    opts: VmOptions,
}

static CASES: OnceLock<Vec<Case>> = OnceLock::new();

fn cases() -> &'static [Case] {
    CASES.get_or_init(|| {
        BENCHES
            .iter()
            .map(|b| {
                let w = build_workload(b, Class::S).unwrap();
                let tree = StructureTree::build(w.program());
                // Profiled, and with fuel for a few times a healthy run,
                // so a diverging config ends early on both sides.
                let mut opts = w.vm_opts();
                opts.profile = true;
                opts.fuel = opts.fuel.min(8 * w.reference_stats().steps.max(1_000));
                let rewrite = RewriteOptions { lean: true, ..Default::default() };
                let rw = Rewriter::with_cost_model(w.program(), rewrite, opts.cost.clone());
                Case { w, tree, rw, opts }
            })
            .collect()
    })
}

/// Run `cfg` linked (on a code-less shell, as the evaluator does) and
/// compiled from the materialized program; any difference is an error.
fn linked_runs_like_compiled(c: &Case, cfg: &Config) -> Result<(), String> {
    let prog = c.w.program();
    let name = &c.w.name;
    let patch = c.rw.patch(prog, &c.tree, cfg);
    let materialized = patch.program(prog);
    let linked = c.rw.link(prog, &patch);
    let compiled = CompiledImage::compile(&materialized, &c.opts.cost);

    let mut shell = Program::new(prog.mem_size);
    shell.globals = prog.globals.clone();
    let (id, addr) = patch.id_cursor();
    shell.set_id_cursor(id, addr);
    if shell.insn_id_bound() != materialized.insn_id_bound() {
        return Err(format!("{name}: id bound {} vs {}", id, materialized.insn_id_bound()));
    }

    let mut a = Vm::new(&shell, c.opts.clone());
    let ra = a.run_compiled(&linked);
    let mut b = Vm::new(&materialized, c.opts.clone());
    let rb = b.run_compiled(&compiled);
    if ra.result != rb.result {
        return Err(format!("{name}: result {:?} vs {:?}", ra.result, rb.result));
    }
    let stats = |s: fpvm::RunStats| (s.steps, s.cycles, s.fp_ops);
    if stats(ra.stats) != stats(rb.stats) {
        return Err(format!("{name}: stats {:?} vs {:?}", ra.stats, rb.stats));
    }
    let (pa, pb) = (ra.profile.unwrap(), rb.profile.unwrap());
    if let Some(k) = (0..id).find(|&k| pa.count(fpvm::InsnId(k)) != pb.count(fpvm::InsnId(k))) {
        return Err(format!("{name}: profile differs at insn {k}"));
    }
    if (a.gpr, a.xmm) != (b.gpr, b.xmm) {
        return Err(format!("{name}: registers differ"));
    }
    let words = a.mem.len() / 8;
    if a.mem.read_u64_slice(0, words) != b.mem.read_u64_slice(0, words) {
        return Err(format!("{name}: memory differs"));
    }
    for idiom in IDIOMS {
        if linked.idiom_count(idiom) != compiled.idiom_count(idiom) {
            return Err(format!("{name}: {idiom:?} count differs"));
        }
    }
    if (linked.len(), linked.regions()) != (compiled.len(), compiled.regions()) {
        return Err(format!("{name}: image shape differs"));
    }
    Ok(())
}

// Each candidate draws its flag from a random palette of single, double,
// half, bfloat16 and ignore; the empty palette is the config that
// replaces nothing, whose image is the original program's.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linked_images_run_like_compiled_programs(
        draws in vec(any::<u8>(), 1..64),
        palette in 0usize..32,
    ) {
        let flags: Vec<Flag> = [Flag::Single, Flag::Double, Flag::Half, Flag::Bf16, Flag::Ignore]
            .into_iter()
            .enumerate()
            .filter(|(k, _)| palette & (1 << k) != 0)
            .map(|(_, f)| f)
            .collect();
        for c in cases() {
            let mut cfg = Config::new();
            if !flags.is_empty() {
                for (j, id) in c.tree.all_insns().into_iter().enumerate() {
                    cfg.set_insn(id, flags[draws[j % draws.len()] as usize % flags.len()]);
                }
            }
            linked_runs_like_compiled(c, &cfg)?;
        }
    }
}

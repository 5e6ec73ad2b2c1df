//! Coverage pin for the compiled backend's snippet kernels: on every
//! class-S NAS bench, each flag test, set-flag, scratch save and scratch
//! restore that the snippet emitter produced must bind to its fused
//! kernel. A change to the emitter that breaks one of these shapes then
//! fails here instead of silently sending every search run back through
//! per-op dispatch.

use fpvm::value::HI_MASK;
use fpvm::{CompiledImage, CostModel, Gpr, Idiom, InstKind, Program, GM, GMI};
use instrument::{rewrite, RewriteMode, RewriteOptions};
use mpconfig::{Config, Flag, StructureTree};
use workloads::{nas_all, Class};

/// How many of each snippet sequence the emitter produced, counted from
/// the one constant load each sequence carries, so a reordered or
/// reshaped sequence is still counted here.
#[derive(Debug, Default, PartialEq, Eq)]
struct Emitted {
    flag_tests: usize,
    set_flags: usize,
    saves: usize,
    restores: usize,
}

fn emitted(p: &Program) -> Emitted {
    let mut e = Emitted::default();
    for (_, _, insn) in p.iter_insns() {
        if insn.origin.is_none() {
            continue;
        }
        match insn.kind {
            InstKind::MovI { dst: GM::Reg(_), src: GMI::Imm(v) } if v == HI_MASK as i64 => {
                e.flag_tests += 1
            }
            InstKind::MovI { dst: GM::Reg(_), src: GMI::Imm(0xFFFF_FFFF) } => e.set_flags += 1,
            // The scratch save pushes %rbx last and the restore pops it
            // first; a lone lane-swap push/pop only touches %rax.
            InstKind::Push { src: Gpr::RBX } => e.saves += 1,
            InstKind::Pop { dst: Gpr::RBX } => e.restores += 1,
            _ => {}
        }
    }
    e
}

fn bound(c: &CompiledImage) -> Emitted {
    Emitted {
        flag_tests: c.idiom_count(Idiom::FlagTestBr),
        set_flags: c.idiom_count(Idiom::SetFlag),
        saves: c.idiom_count(Idiom::PushPair),
        restores: c.idiom_count(Idiom::PopPair),
    }
}

#[test]
fn every_emitted_snippet_sequence_binds_to_its_kernel() {
    for w in nas_all(Class::S) {
        let prog = w.program();
        let tree = StructureTree::build(prog);
        let mut all_single = Config::new();
        for id in tree.all_insns() {
            all_single.set_insn(id, Flag::Single);
        }
        for lean in [false, true] {
            for (what, mode, cfg) in [
                ("all-double", RewriteMode::AllDouble, Config::new()),
                ("all-single", RewriteMode::Config, all_single.clone()),
            ] {
                let (q, stats) = rewrite(prog, &tree, &cfg, &RewriteOptions { mode, lean });
                let want = emitted(&q);
                let got = bound(&CompiledImage::compile(&q, &CostModel::default()));
                let tag = format!("{} {what} lean={lean}", w.name);
                assert_eq!(want.saves, stats.instrumented(), "{tag}: one save per snippet");
                assert_eq!(want.restores, stats.instrumented(), "{tag}: one restore per snippet");
                if mode == RewriteMode::Config || !lean {
                    assert!(want.flag_tests > 0, "{tag}: no flag tests emitted");
                }
                if mode == RewriteMode::Config {
                    assert!(want.set_flags > 0, "{tag}: no set-flags emitted");
                }
                assert_eq!(got, want, "{tag}: an emitted snippet sequence runs unfused");
            }
        }
    }
}

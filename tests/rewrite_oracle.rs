//! Random programs as an oracle for the rewriter's analyses.
//!
//! Each case is a random VIS program (`common::vis`) under a random
//! configuration: every candidate draws its flag from `s`, `d`, `h`, `b`
//! and `i`, with a per-case share of replacements. Three properties hold
//! on every case:
//!
//! * **lean ≡ full** — lean snippets (the per-block flag facts) run like
//!   full snippets: the same trap kind and data segment;
//! * **pruned ≡ full** — leaving bare every candidate the reach analysis
//!   does not reach runs like instrumenting it: the same result (trap and
//!   trapping instruction included), steps, cycles, fp-ops and data
//!   segment. A reach miss (a bare candidate consuming a replaced value)
//!   shows up as a `FlaggedNanConsumed` trap the full run does not have;
//! * **pruned compiled ≡ full interp** — the pruned patch's linked image
//!   on the compiled engine runs like the full program on the reference
//!   interpreter.

mod common;

use common::vis::random_program;
use fpvm::{Program, RunOutcome, Trap, Vm, VmOptions};
use instrument::{rewrite, Patch, RewriteMode, RewriteOptions, Rewriter};
use mpconfig::{Config, Flag, StructureTree};
use proptest::prelude::*;
use proptest::TestRng;

struct Case {
    p: Program,
    tree: StructureTree,
    cfg: Config,
    /// Rewriter with lean snippets: `patch` prunes, `patch_full` does not.
    lean: Rewriter,
}

fn case(seed: u64) -> Case {
    let p = random_program(seed);
    let tree = StructureTree::build(&p);
    let mut rng = TestRng::new(seed.rotate_left(17));
    // Out of 16 draws: `share` replacements, one ignore, the rest double.
    let share = [1, 3, 6, 10][rng.below(4)];
    let mut cfg = Config::new();
    for id in tree.all_insns() {
        let d = rng.below(16);
        let flag = match d {
            _ if d < share => [Flag::Single, Flag::Half, Flag::Bf16][rng.below(3)],
            15 => Flag::Ignore,
            _ => Flag::Double,
        };
        cfg.set_insn(id, flag);
    }
    let lean = Rewriter::new(&p, RewriteOptions { mode: RewriteMode::Config, lean: true });
    Case { p, tree, cfg, lean }
}

/// A run's outcome and the data segment it leaves, as 64-bit words.
fn words(p: &Program, vm: &Vm<'_>, out: RunOutcome) -> (RunOutcome, Vec<u64>) {
    (out, vm.mem.read_u64_slice(0, p.globals.len() / 8).unwrap())
}

fn interp(p: &Program) -> (RunOutcome, Vec<u64>) {
    let mut vm = Vm::new(p, VmOptions::default());
    let out = vm.run();
    words(p, &vm, out)
}

fn compiled(c: &Case, patch: &Patch) -> (RunOutcome, Vec<u64>) {
    let q = patch.program(&c.p);
    let image = c.lean.link(&c.p, patch);
    let mut vm = Vm::new(&q, VmOptions::default());
    let out = vm.run_compiled(&image);
    words(&q, &vm, out)
}

/// `got` runs exactly like `want`: result, steps, cycles, fp-ops, data.
fn same_run(
    what: &str,
    got: &(RunOutcome, Vec<u64>),
    want: &(RunOutcome, Vec<u64>),
) -> Result<(), String> {
    let (g, w) = (&got.0, &want.0);
    if g.result != w.result {
        return Err(format!("{what}: result {:?}, full {:?}", g.result, w.result));
    }
    let stats = |o: &RunOutcome| (o.stats.steps, o.stats.cycles, o.stats.fp_ops);
    if stats(g) != stats(w) {
        return Err(format!("{what}: (steps, cycles, fp) {:?}, full {:?}", stats(g), stats(w)));
    }
    if got.1 != want.1 {
        return Err(format!("{what}: data segment differs"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn lean_snippets_run_like_full_snippets(seed in any::<u64>()) {
        let c = case(seed);
        let full = RewriteOptions { mode: RewriteMode::Config, lean: false };
        let want = interp(&rewrite(&c.p, &c.tree, &c.cfg, &full).0);
        let got = interp(&c.lean.patch_full(&c.p, &c.tree, &c.cfg).program(&c.p));
        let kind = |r: &(RunOutcome, Vec<u64>)| r.0.result.as_ref().err().map(Trap::kind);
        prop_assert!(kind(&got) == kind(&want), "seed {}: {:?}, full {:?}", seed, kind(&got), kind(&want));
        prop_assert!(got.1 == want.1, "seed {}: data segment differs", seed);
    }

    #[test]
    fn pruned_patches_run_like_full_ones(seed in any::<u64>()) {
        let c = case(seed);
        let want = interp(&c.lean.patch_full(&c.p, &c.tree, &c.cfg).program(&c.p));
        let got = interp(&c.lean.patch(&c.p, &c.tree, &c.cfg).program(&c.p));
        same_run(&format!("seed {seed}: pruned"), &got, &want)?;
    }

    #[test]
    fn pruned_compiled_runs_like_full_interp(seed in any::<u64>()) {
        let c = case(seed);
        let want = interp(&c.lean.patch_full(&c.p, &c.tree, &c.cfg).program(&c.p));
        let got = compiled(&c, &c.lean.patch(&c.p, &c.tree, &c.cfg));
        same_run(&format!("seed {seed}: pruned compiled"), &got, &want)?;
    }
}

/// The generator reaches what the properties are about: bare candidates,
/// double candidates the analysis reaches, and runs that trap on a
/// replaced value at an ignored candidate.
#[test]
fn generated_cases_exercise_the_analyses() {
    let mut rng = TestRng::new(7);
    let (mut bare, mut reached, mut trapped) = (0, 0, 0);
    for _ in 0..100 {
        let c = case(rng.next_u64());
        let s = c.lean.patch(&c.p, &c.tree, &c.cfg).stats();
        bare += usize::from(s.bare > 0);
        reached += usize::from(s.double_checked > 0);
        let out = interp(&c.lean.patch(&c.p, &c.tree, &c.cfg).program(&c.p)).0;
        trapped += usize::from(matches!(out.result, Err(Trap::FlaggedNanConsumed { .. })));
    }
    assert!(bare >= 50, "{bare} of 100 cases leave a candidate bare");
    assert!(reached >= 50, "{reached} of 100 cases reach a double candidate");
    assert!(trapped >= 5, "{trapped} of 100 cases trap at an ignored candidate");
}

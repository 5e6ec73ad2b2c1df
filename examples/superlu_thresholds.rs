//! The paper's §3.3 experiment as an example: drive the automatic search
//! on the sparse LU solver with a sweep of error thresholds and watch the
//! replaceable fraction shrink as the bound tightens (Fig. 11).
//!
//! ```sh
//! cargo run --release --example superlu_thresholds
//! ```

use fpvm::{Vm, VmOptions};
use mixedprec::AnalysisOptions;
use mpconfig::{Config, StructureTree};
use mpsearch::{search, SearchOptions, VmEvaluator};
use workloads::slu::slu;
use workloads::Class;

fn main() {
    let s = slu(Class::W);
    let prog = s.wl.program();
    let tree = StructureTree::build(prog);
    let profile =
        Vm::run_program(prog, VmOptions { profile: true, ..Default::default() }).profile.unwrap();

    println!("SuperLU-analogue threshold sweep (n = {})\n", s.n);
    println!("{:<12} {:>9} {:>9} {:>8}", "threshold", "static", "dynamic", "tested");
    for threshold in [1e-3, 1e-4, 2.5e-5, 1e-6] {
        let eval = VmEvaluator::with_options(
            prog,
            &tree,
            s.wl.reference_stats().steps,
            VmOptions::default(),
            AnalysisOptions::default().rewrite,
            s.threshold_verifier(threshold),
        );
        let r = search(
            &tree,
            &Config::new(),
            Some(&profile),
            &eval,
            &SearchOptions { threads: 4, ..Default::default() },
        );
        println!(
            "{:<12.0e} {:>8.1}% {:>8.1}% {:>8}",
            threshold, r.static_pct, r.dynamic_pct, r.configs_tested
        );
    }
    println!("\nstricter error bounds leave less of the solver replaceable —");
    println!("the tool maps which parts of the program are sensitive to roundoff.");
}

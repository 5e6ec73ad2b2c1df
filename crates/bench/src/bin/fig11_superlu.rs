//! Fig. 11 — SuperLU linear-solver threshold sweep on the memplus-like
//! data set: for each error threshold, the static and dynamic replacement
//! percentages found by the search and the backward error of the final
//! composed configuration.

use craft_bench::header;
use fpvm::{Vm, VmOptions};
use instrument::{rewrite, RewriteOptions};
use mixedprec::AnalysisOptions;
use mpconfig::{Config, StructureTree};
use mpsearch::{search, SearchOptions, VmEvaluator};
use workloads::slu::slu;
use workloads::Class;

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let s = slu(Class::W);
    let prog = s.wl.program();
    let tree = StructureTree::build(prog);
    let profile = s.wl.profile();

    // reference errors of the pure builds (the paper reports 2.16e-12
    // double / 5.86e-04 single for memplus)
    let mut vm = Vm::new(prog, VmOptions::default());
    assert!(vm.run().ok());
    let err_double = s.error_of(&vm);
    let p32 = s.wl.compile_f32();
    let mut vm32 = Vm::new(&p32, VmOptions::default());
    assert!(vm32.run().ok());
    let x32: Vec<f64> = vm32
        .mem
        .read_f32_slice(p32.symbol("xw").unwrap(), s.n)
        .unwrap()
        .into_iter()
        .map(|v| v as f64)
        .collect();
    let err_single = workloads::slu::forward_error(&x32, &s.xstar);

    println!("Figure 11: SuperLU linear solver memplus-like results (n = {})", s.n);
    println!(
        "double-precision error: {err_double:.2e}   single-precision error: {err_single:.2e}\n"
    );
    let h = format!("{:<10} {:>9} {:>9} {:>12}", "threshold", "static", "dynamic", "final error");
    header(&h);

    for threshold in [1.0e-3, 1.0e-4, 7.5e-5, 5.0e-5, 2.5e-5, 1.0e-5, 1.0e-6] {
        let eval = VmEvaluator::with_options(
            prog,
            &tree,
            s.wl.reference_stats().steps,
            VmOptions::default(),
            AnalysisOptions::default().rewrite,
            s.threshold_verifier(threshold),
        );
        let report = search(
            &tree,
            &Config::new(),
            Some(profile),
            &eval,
            &SearchOptions { threads, ..Default::default() },
        );
        // backward error of the final (union) configuration
        let (instr, _) = rewrite(prog, &tree, &report.final_config, &RewriteOptions::default());
        let mut vm = Vm::new(&instr, VmOptions::default());
        let final_err = if vm.run().ok() { s.error_of(&vm) } else { f64::INFINITY };
        println!(
            "{:<10.1e} {:>8.1}% {:>8.1}% {:>12.2e}",
            threshold, report.static_pct, report.dynamic_pct, final_err
        );
    }
    println!("\n(static/dynamic = replaced instructions / executions; final error =");
    println!(" forward error of the union configuration, as the solver reports)");
}

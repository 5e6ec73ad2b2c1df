//! §3.3 — SuperLU single- vs double-precision comparison: backward errors
//! of the two recompiled builds and the modelled speedup of the single
//! build (paper: 1.16X, errors 2.16e-12 vs 5.86e-04), plus the search
//! result at a threshold just above the single-precision error (paper:
//! 99.1% static / 99.9% dynamic — the tool re-finds the expert manual
//! conversion).

use craft_bench::{header, x};
use fpvm::{Vm, VmOptions};
use mixedprec::{conversion_speedup, AnalysisOptions};
use mpconfig::{Config, StructureTree};
use mpsearch::{search, SearchOptions, VmEvaluator};
use workloads::slu::forward_error;
use workloads::slu::slu;
use workloads::Class;

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let s = slu(Class::W);
    let prog = s.wl.program();

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
    let err_single = forward_error(&x32, &s.xstar);

    let speed = conversion_speedup(&s.wl);

    println!("SuperLU linear solver (Section 3.3), memplus-like n = {}\n", s.n);
    let h = format!("{:<44} {:>12}", "measurement", "value");
    header(&h);
    println!("{:<44} {:>12.2e}", "double-precision forward error", err_double);
    println!("{:<44} {:>12.2e}", "single-precision forward error", err_single);
    println!("{:<44} {:>12}", "single-build speedup (modelled cycles)", x(speed.modelled));

    // search with the threshold just above the single-precision error:
    // the tool should find essentially the whole solver replaceable.
    let threshold = err_single * 1.7;
    let tree = StructureTree::build(prog);
    let profile = s.wl.profile();
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
    println!("{:<44} {:>12.1e}", "search threshold (just above single err)", threshold);
    println!("{:<44} {:>11.1}%", "search: instructions replaced (static)", report.static_pct);
    println!("{:<44} {:>11.1}%", "search: executions replaced (dynamic)", report.dynamic_pct);
    println!("\n(paper: 1.16X speedup; 99.1% static / 99.9% dynamic at the loose threshold)");
}

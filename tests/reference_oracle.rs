//! The reference interpreter stays the oracle for the runs a workload
//! makes once, at build time. `Workload::package` takes its reference
//! outputs and the search's execution profile from one profiled run on
//! the compiled engine's fused tier; for every NAS bench at classes S
//! and W that run must agree with a plain `Vm::run` on the tree-walking
//! interpreter — outputs bit for bit, per-instruction counts, and run
//! statistics.

use fpvm::{InsnId, Vm, VmOptions};
use workloads::{nas_all, Class};

#[test]
fn workload_build_run_matches_the_interpreter_on_every_class_s_nas_bench() {
    build_runs_match_the_interpreter(Class::S);
}

#[test]
fn workload_build_run_matches_the_interpreter_on_every_class_w_nas_bench() {
    build_runs_match_the_interpreter(Class::W);
}

fn build_runs_match_the_interpreter(class: Class) {
    for w in nas_all(class) {
        let prog = w.program();
        let mut vm = Vm::new(prog, VmOptions { profile: true, ..w.vm_opts() });
        let out = vm.run();
        assert!(out.ok(), "{}: interpreter run trapped: {:?}", w.name, out.result);

        for (k, (sym, n)) in w.out_syms.iter().enumerate() {
            let want = vm.mem.read_f64_slice(prog.symbol(sym).unwrap(), *n).unwrap();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = w.reference()[k].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{}: reference output `{sym}` diverges", w.name);
        }

        let want = out.profile.expect("profiled interpreter run");
        let got = w.profile();
        for i in 0..prog.insn_id_bound() {
            let id = InsnId(i as u32);
            assert_eq!(got.count(id), want.count(id), "{}: profile diverges at {id:?}", w.name);
        }
        assert_eq!(got.total(), want.total(), "{}: profile total diverges", w.name);

        let stats = w.reference_stats();
        assert_eq!(stats.steps, out.stats.steps, "{}: step count diverges", w.name);
        assert_eq!(stats.cycles, out.stats.cycles, "{}: cycle count diverges", w.name);
        assert_eq!(stats.fp_ops, out.stats.fp_ops, "{}: fp op count diverges", w.name);
    }
}

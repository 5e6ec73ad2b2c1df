//! Executor robustness and event-schema tests: round-trip serialization
//! of every event variant, and end-to-end searches under deterministic
//! fault injection — transient faults must be absorbed (same final
//! configuration as the fault-free run), persistent faults must
//! quarantine, and the event log must reflect both.

use fpvm::isa::{FpAluOp, InstKind, Prec, Terminator, Xmm, RM};
use fpvm::{InsnId, Program};
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::events::{Event, EventLog, Record};
use mpsearch::{
    search, search_observed, Evaluator, FaultPlan, SearchHooks, SearchOptions, SearchReport,
    Verdict,
};

/// Owns a program alongside the structure tree borrowed from it.
struct TreeBox {
    _prog: Program,
    tree: StructureTree,
}

/// A synthetic program: `n_funcs` functions of `insns_per_func` scalar
/// FP adds each (same shape as the unit tests inside `mpsearch`).
fn make_prog(n_funcs: usize, insns_per_func: usize) -> TreeBox {
    let mut p = Program::new(1 << 12);
    let m = p.add_module("m");
    for k in 0..n_funcs {
        let f = p.add_function(m, format!("f{k}"));
        let b = p.add_block(f);
        p.funcs[f.0 as usize].entry = b;
        if k == 0 {
            p.entry = f;
        }
        for _ in 0..insns_per_func {
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
        p.block_mut(b).term = Terminator::Ret;
    }
    let tree = StructureTree::build(&p);
    TreeBox { _prog: p, tree }
}

/// Passes iff no "sensitive" instruction is replaced.
struct SetEval {
    tb: TreeBox,
    sensitive: Vec<InsnId>,
}

impl Evaluator for SetEval {
    fn evaluate(&self, cfg: &Config) -> bool {
        !self.sensitive.iter().any(|&i| cfg.effective(&self.tb.tree, i) == Flag::Single)
    }
}

fn serial_opts() -> SearchOptions {
    SearchOptions { threads: 1, prioritize: false, ..Default::default() }
}

fn replaced(report: &SearchReport, tree: &StructureTree) -> Vec<u32> {
    let mut v: Vec<u32> =
        report.final_config.replaced_insns(tree).into_iter().map(|i| i.0).collect();
    v.sort_unstable();
    v
}

#[test]
fn event_log_survives_a_poisoned_lock() {
    use std::io::Write;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    // A sink that panics on its first write. The panic unwinds out of
    // `emit` while the log's writer mutex is held, poisoning it — the
    // same shape as an evaluator panicking under `catch_unwind` mid-run.
    struct PoisonOnce {
        armed: bool,
        buf: Arc<Mutex<Vec<u8>>>,
    }
    impl Write for PoisonOnce {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            if self.armed {
                self.armed = false;
                panic!("injected sink panic");
            }
            self.buf.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = Arc::new(Mutex::new(Vec::new()));
    let log = EventLog::to_writer(Box::new(PoisonOnce { armed: true, buf: buf.clone() }));
    let poisoned = catch_unwind(AssertUnwindSafe(|| {
        log.emit(Event::PhaseStarted { phase: "poisoned".into() });
    }));
    assert!(poisoned.is_err(), "first emit must panic through the sink");

    // Regression: this second emit used to panic on the PoisonError and
    // take the whole search down with it.
    log.emit(Event::PhaseFinished { phase: "recovered".into(), wall_us: 1 });
    log.flush();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let rec = Record::parse(text.lines().next().expect("an event after the panic")).unwrap();
    assert!(
        matches!(rec.event, Event::PhaseFinished { ref phase, .. } if phase == "recovered"),
        "unexpected event: {rec:?}"
    );
}

#[test]
fn event_schema_round_trips_every_variant() {
    let label = "m.f0 [2 children] \"quoted\"\nline".to_string();
    let all = vec![
        Event::SearchStarted { bench: "ep.W".into(), candidates: 42, threads: 8 },
        Event::ConfigEnqueued { label: label.clone(), insns: 7, priority: 12345, depth: 3 },
        Event::EvalStarted { idx: 9, label: label.clone(), insns: 7 },
        Event::EvalFinished {
            idx: 9,
            label,
            attempt: 1,
            verdict: Verdict::Timeout,
            steps: 123456789,
            wall_us: 4242,
            cache_hit: true,
        },
        Event::Retry { idx: 9, attempt: 2, backoff_us: 2000 },
        Event::ShadowPruned { label: "m.f2".into(), err: 0.125, threshold: 1e-6 },
        Event::Quarantined { label: "m.f1".into(), wedged: 3 },
        Event::QueueDepth { depth: 11, in_flight: 4 },
        Event::PhaseStarted { phase: "bfs".into() },
        Event::PhaseFinished { phase: "bfs".into(), wall_us: 987654321 },
        Event::SearchFinished {
            tested: 100,
            passing: 12,
            timeouts: 1,
            crashes: 2,
            retries: 3,
            quarantined: 1,
            cache_hits: 17,
            wall_us: 5_000_000,
        },
    ];
    for (i, event) in all.into_iter().enumerate() {
        let rec = Record { t_us: i as u64 * 1000, event };
        let line = rec.to_json();
        assert!(!line.contains('\n'), "JSONL record must be one line: {line:?}");
        let back = Record::parse(&line)
            .unwrap_or_else(|e| panic!("round-trip parse failed for {line:?}: {e}"));
        assert_eq!(back, rec, "round-trip mismatch for {line:?}");
        assert_eq!(back.to_json(), line, "re-serialization must reproduce the line");
    }
    // every verdict survives the wire
    for v in Verdict::ALL {
        assert_eq!(Verdict::from_str(v.as_str()), Some(v));
    }
}

#[test]
fn transient_injected_faults_do_not_change_the_outcome() {
    let tb = make_prog(3, 4);
    let sensitive = vec![tb.tree.all_insns()[5]];
    let mk = || SetEval { tb: make_prog(3, 4), sensitive: sensitive.clone() };

    let clean = search(&tb.tree, &Config::new(), None, &mk(), &serial_opts());
    assert_eq!(clean.crashes, 0);
    assert_eq!(clean.timeouts, 0);

    // One forced panic and one simulated timeout, at fixed evaluation
    // indices. Both are transient (the fault fires once per index), so
    // the retry absorbs them.
    let (log, buf) = EventLog::in_memory();
    let hooks = SearchHooks {
        bench: "synthetic".into(),
        faults: FaultPlan { panic_at: vec![1], timeout_at: vec![3], ..Default::default() },
        events: Some(&log),
        ..Default::default()
    };
    let faulted = search_observed(&tb.tree, &Config::new(), None, &mk(), &serial_opts(), &hooks);

    assert_eq!(faulted.crashes, 1, "injected panic must be classified Crashed");
    assert_eq!(faulted.timeouts, 1, "injected timeout must be classified Timeout");
    assert_eq!(faulted.retries, 2, "each transient fault retries once");
    assert_eq!(faulted.quarantined, 0);
    assert_eq!(replaced(&faulted, &tb.tree), replaced(&clean, &tb.tree));
    assert_eq!(faulted.final_pass, clean.final_pass);
    assert_eq!(faulted.failed_insns, clean.failed_insns);
    assert_eq!(faulted.static_pct, clean.static_pct);

    // The event log tells the same story.
    drop(log);
    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let records: Vec<Record> =
        text.lines().map(|l| Record::parse(l).expect("malformed event line")).collect();
    assert!(matches!(records.first().map(|r| &r.event), Some(Event::SearchStarted { .. })));
    let mut crashed = 0;
    let mut timed_out = 0;
    for r in &records {
        if let Event::EvalFinished { verdict, .. } = r.event {
            match verdict {
                Verdict::Crashed => crashed += 1,
                Verdict::Timeout => timed_out += 1,
                _ => {}
            }
        }
    }
    assert_eq!(crashed, 1);
    assert_eq!(timed_out, 1);
    let last = records.last().expect("log must not be empty");
    match &last.event {
        Event::SearchFinished { crashes, timeouts, retries, tested, .. } => {
            assert_eq!(*crashes, faulted.crashes);
            assert_eq!(*timeouts, faulted.timeouts);
            assert_eq!(*retries, faulted.retries);
            assert_eq!(*tested, faulted.configs_tested);
        }
        other => panic!("final event must be search_finished, got {other:?}"),
    }
}

#[test]
fn repeatedly_wedging_config_is_quarantined() {
    let tb = make_prog(2, 4);
    let sensitive = vec![tb.tree.all_insns()[6]];
    let eval = SetEval { tb: make_prog(2, 4), sensitive };

    // Serial order: idx 0 tests the module (fails: contains the
    // sensitive insn), then idx 1..=3 are the three attempts of the
    // first function — all forced to panic, exhausting the retries.
    let (log, buf) = EventLog::in_memory();
    let hooks = SearchHooks {
        faults: FaultPlan { panic_at: vec![1, 2, 3], ..Default::default() },
        events: Some(&log),
        ..Default::default()
    };
    let report = search_observed(&tb.tree, &Config::new(), None, &eval, &serial_opts(), &hooks);

    assert_eq!(report.crashes, 3);
    // Quarantined once for the wedged function, and once more when its
    // (structurally distinct but effectively identical) single block is
    // re-encountered and short-circuited against the quarantine set.
    assert_eq!(report.quarantined, 2, "a config wedged on every attempt must quarantine");
    // The search still completes and still isolates the sensitive insn:
    // the quarantined aggregate folds into "failed" and is expanded.
    assert!(report.final_pass);
    assert_eq!(report.failed_insns, 1);

    drop(log);
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    assert!(
        text.lines().any(|l| matches!(
            Record::parse(l).map(|r| r.event),
            Ok(Event::Quarantined { wedged: 3, .. })
        )),
        "expected a quarantined event with wedged=3"
    );
}

#[test]
fn natural_timeouts_are_not_retried_by_default() {
    // An injected fuel starvation produces a *real* FuelExhausted trap in
    // the VM; it is marked injected, so it retries and recovers. Natural
    // divergence (not injected) must not retry.
    use fpir::{f, fadd, for_, i, ld, set, st, v, CompileOptions, IrProgram};
    use fpvm::{Vm, VmOptions};
    use mpsearch::VmEvaluator;

    let mut ir = IrProgram::new("tiny");
    let xs = ir.array_f64_init("xs", (0..32).map(|k| k as f64).collect());
    let out = ir.array_f64("out", 1);
    let main = ir.func("main", &[], None, |ir, fr, _| {
        let a = ir.local_f(fr);
        let k = ir.local_i(fr);
        vec![
            set(a, f(0.0)),
            for_(k, i(0), i(32), vec![set(a, fadd(v(a), ld(xs, v(k))))]),
            st(out, i(0), v(a)),
        ]
    });
    ir.set_entry(main);
    let prog = fpir::compile(&ir, &CompileOptions::default());
    let tree = StructureTree::build(&prog);

    let mut vm = Vm::new(&prog, VmOptions::default());
    let reference = vm.run();
    assert!(reference.ok());
    let sym = prog.symbol("out").unwrap();
    let want = vm.mem.read_f64_slice(sym, 1).unwrap()[0];

    let mk = || {
        VmEvaluator::new(&prog, &tree, reference.stats.steps, move |vm: &Vm<'_>| {
            (vm.mem.read_f64_slice(sym, 1).unwrap()[0] - want).abs() < 1e-6
        })
    };

    let clean = search(&tree, &Config::new(), None, &mk(), &serial_opts());

    let eval = mk();
    let hooks = SearchHooks {
        faults: FaultPlan { fuel_starve_at: vec![0], ..Default::default() },
        ..Default::default()
    };
    let starved = search_observed(&tree, &Config::new(), None, &eval, &serial_opts(), &hooks);
    assert_eq!(starved.timeouts, 1, "starved run must classify as Timeout");
    assert!(starved.retries >= 1, "injected starvation is transient: must retry");
    assert_eq!(replaced(&starved, &tree), replaced(&clean, &tree));
    assert_eq!(starved.final_pass, clean.final_pass);
}

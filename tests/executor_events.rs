//! Executor robustness and event-schema tests: round-trip serialization
//! of every event variant, and end-to-end searches under deterministic
//! fault injection — transient faults must be absorbed (same final
//! configuration as the fault-free run), persistent faults must
//! quarantine, and the search record must reflect both.

use fpvm::isa::{FpAluOp, InstKind, Prec, Terminator, Xmm, RM};
use fpvm::{InsnId, Program};
use mpconfig::{Config, Flag, StructureTree};
use mpsearch::events::{Event, EventLog};
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

/// The search record `buf` holds.
fn events(buf: &std::sync::Mutex<Vec<u8>>) -> Vec<Event> {
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    text.lines().map(|l| Event::parse(l).expect("malformed event line")).collect()
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
    log.emit(Event::PhaseFinished { phase: "recovered".into() });
    log.flush();
    assert_eq!(events(&buf), [Event::PhaseFinished { phase: "recovered".into() }]);
}

#[test]
fn event_schema_round_trips_every_variant() {
    let label = "m.f0 [2 children] \"quoted\"\nline".to_string();
    let all = vec![
        Event::SearchStarted { bench: "ep.W".into(), candidates: 42 },
        Event::ConfigEnqueued { label: label.clone(), insns: 7, priority: 12345, depth: 3 },
        Event::Trial {
            n: 9,
            unit: label.clone(),
            level: Some(2),
            insns: 7,
            verdict: Verdict::Timeout,
            steps: 123456789,
            retries: 1,
            hit: true,
        },
        Event::Trial {
            n: 10,
            unit: label,
            level: None,
            insns: 0,
            verdict: Verdict::Quarantined,
            steps: 0,
            retries: 0,
            hit: false,
        },
        Event::ShadowPruned { label: "m.f2".into(), err: 0.125, threshold: 1e-6 },
        Event::PhaseStarted { phase: "bfs".into() },
        Event::PhaseFinished { phase: "bfs".into() },
        Event::SearchFinished {
            tested: 100,
            passing: 12,
            timeouts: 1,
            crashes: 2,
            retries: 3,
            quarantined: 1,
            cache_hits: 17,
        },
    ];
    for event in all {
        let line = event.to_json();
        assert!(!line.contains('\n'), "JSONL record must be one line: {line:?}");
        let back = Event::parse(&line)
            .unwrap_or_else(|e| panic!("round-trip parse failed for {line:?}: {e}"));
        assert_eq!(back, event, "round-trip mismatch for {line:?}");
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

    let (clean_log, clean_buf) = EventLog::in_memory();
    let hooks =
        SearchHooks { bench: "synthetic".into(), events: Some(&clean_log), ..Default::default() };
    let clean = search_observed(&tb.tree, &Config::new(), None, &mk(), &serial_opts(), &hooks);
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

    // The search record tells the same story: it is the fault-free
    // record, but for the one retry on each of the two trials the faults
    // hit and the counters they sum to.
    drop((log, clean_log));
    let (faulted_events, clean_events) = (events(&buf), events(&clean_buf));
    assert!(matches!(faulted_events.first(), Some(Event::SearchStarted { .. })));
    assert_eq!(faulted_events.len(), clean_events.len());
    let mut retried = Vec::new();
    for (f, c) in faulted_events.iter().zip(&clean_events) {
        match (f, c) {
            (Event::Trial { n, retries, .. }, Event::Trial { retries: 0, .. }) if *retries > 0 => {
                assert_eq!(*retries, 1);
                let mut unretried = f.clone();
                if let Event::Trial { retries, .. } = &mut unretried {
                    *retries = 0;
                }
                assert_eq!(&unretried, c);
                retried.push(*n);
            }
            (Event::SearchFinished { .. }, _) => assert_eq!(
                f,
                &Event::SearchFinished {
                    tested: faulted.configs_tested,
                    passing: faulted.passing.len(),
                    timeouts: 1,
                    crashes: 1,
                    retries: 2,
                    quarantined: 0,
                    cache_hits: faulted.cache_hits,
                }
            ),
            _ => assert_eq!(f, c),
        }
    }
    assert_eq!(retried.len(), 2, "the two faults hit two trials: {retried:?}");
    assert!(matches!(faulted_events.last(), Some(Event::SearchFinished { .. })));
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

    // The record shows the function wedged through both retries, and
    // the block that shares its key settled against the quarantine set
    // without an attempt.
    drop(log);
    let quarantined: Vec<(usize, bool)> = (events(&buf).into_iter())
        .filter_map(|e| match e {
            Event::Trial { verdict: Verdict::Quarantined, retries, hit, .. } => {
                Some((retries, hit))
            }
            _ => None,
        })
        .collect();
    assert_eq!(quarantined, [(2, false), (0, true)]);
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

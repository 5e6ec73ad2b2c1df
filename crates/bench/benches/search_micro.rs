//! End-to-end search micro-benchmark on the smallest classes: measures a
//! full automatic search (profile + BFS + union verification), plain,
//! with the shadow-value oracle guiding the queue (prioritize + prune),
//! so the cost of the extra shadowed run stays visible, and descending
//! the precision lattice (double → single → bf16), so the extra
//! per-level search passes are priced against the classic walk. Each
//! row also records the configurations its search tested.

use criterion::{criterion_group, criterion_main, Criterion};
use mixedprec::{AnalysisOptions, AnalysisSystem, ShadowOptions};
use mpconfig::Flag;
use mpsearch::SearchOptions;
use workloads::{nas, Class};

fn run_once(make: fn(Class) -> workloads::Workload, shadow: bool, lattice: &[Flag]) -> usize {
    let sys = AnalysisSystem::with_options(
        make(Class::S),
        AnalysisOptions {
            search: SearchOptions {
                threads: 2,
                prioritize: false,
                lattice: lattice.to_vec(),
                ..Default::default()
            },
            shadow: ShadowOptions { prioritize: shadow, prune: shadow, ..Default::default() },
            ..Default::default()
        },
    );
    sys.run_search().configs_tested
}

fn bench(c: &mut Criterion) {
    let classic = [Flag::Single];
    let lattice = [Flag::Single, Flag::Bf16];
    let mut g = c.benchmark_group("search");
    g.sample_size(10);
    for (name, make) in [("ep.s", nas::ep as fn(Class) -> workloads::Workload), ("cg.s", nas::cg)] {
        let rows = [
            (name.to_string(), false, &classic[..]),
            (format!("{name}.shadow"), true, &classic[..]),
            (format!("{name}.lattice"), false, &lattice[..]),
        ];
        for (row, shadow, lattice) in rows {
            // The walk's length is recorded with the time: `bench_gate`
            // requires it to equal the committed count.
            g.bench_function(row, |b| {
                let mut tested = 0;
                b.iter(|| {
                    tested = run_once(make, shadow, lattice);
                    tested
                });
                b.count("configs_tested", tested as u64);
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

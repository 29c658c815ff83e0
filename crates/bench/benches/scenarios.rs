//! Simulator wall-clock per scenario: times one smoke-scale run of every
//! registered scenario.
//!
//! The committed `BENCH_*.json` baselines are not written here; they come
//! from `scenarios run <name> --scale bench --json BENCH_<stem>.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use hatric_host::scenario::{registry, Params, Scale};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenarios");
    group.sample_size(10);
    for scenario in registry() {
        group.bench_function(format!("{}_smoke", scenario.name()), |b| {
            b.iter(|| {
                scenario
                    .run(&Params::new(), Scale::Smoke)
                    .expect("default parameters are valid")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

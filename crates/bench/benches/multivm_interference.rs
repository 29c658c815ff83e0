//! Multi-VM consolidated-host interference: victim slowdown under each
//! translation-coherence mechanism, swept over the aggressor's paging
//! pressure (which sets its remap rate).
//!
//! Besides the Criterion-timed kernels, this bench re-emits the `multivm`
//! scenario's `Scale::Bench` report as JSON (`BENCH_multivm.json`, or
//! `$HATRIC_BENCH_MULTIVM_JSON` if set) so the repository accumulates a
//! perf trajectory for the host subsystem.

use criterion::{criterion_group, criterion_main, Criterion};
use hatric_bench::{collect_records, multivm_quick_params, skip_tables, write_baseline};
use hatric_host::ConsolidatedHost;

fn bench(c: &mut Criterion) {
    // The pressure sweep lives in the scenario registry
    // (`hatric_host::scenario`), so the CI regression gate (`bench_check`)
    // re-runs exactly what this bench committed as its baseline.
    let report = if skip_tables() {
        None
    } else {
        Some(collect_records("multivm", true))
    };

    let mut group = c.benchmark_group("multivm");
    group.sample_size(10);
    for mechanism in [
        hatric_host::CoherenceMechanism::Software,
        hatric_host::CoherenceMechanism::Hatric,
    ] {
        let label = format!("host_4vm_{mechanism:?}_kernel");
        group.bench_function(label, move |b| {
            b.iter(|| {
                let params = multivm_quick_params();
                let mut host = ConsolidatedHost::new(params.host_config(mechanism))
                    .expect("bench configurations are valid");
                host.run(params.warmup_slices, params.measured_slices)
            })
        });
    }
    group.finish();

    if let Some(report) = report {
        match write_baseline(&report) {
            Ok(path) => println!("\nwrote {} multivm rows to {path}", report.rows.len()),
            Err(err) => eprintln!("could not write multivm JSON: {err}"),
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! The observability subsystem's contracts:
//!
//! 1. **Zero perturbation** — model metrics are byte-identical with
//!    tracing on vs off, at every worker thread count.  The trace sink
//!    and histograms are keyed entirely to simulated cycles; turning them
//!    on must never move a simulated number.
//! 2. **Chrome trace export round-trips** — the exported document is
//!    well-formed JSON and every track's spans carry monotonically
//!    non-decreasing timestamps (each track maps to a cycle counter that
//!    only moves forward).
//! 3. **The expected spans exist** — a traced migration run records the
//!    full lifecycle: scheduler slices, remap fan-outs, per-target
//!    invalidation acks, pre-copy rounds and the stop-and-copy burst.
//! 4. **Counter timelines sample without perturbing** — the commit-barrier
//!    gauge sampler records the same timeline at every thread count and
//!    never moves a model metric, and its Chrome counter / CSV exports are
//!    well-formed.
//! 5. **Causal attribution reconciles** — every per-remap ledger's totals
//!    equal the interference and NUMA counters charged at the same sites,
//!    exactly.

mod common;

use std::collections::BTreeMap;

use hatric_host::diff::{diff_json, DiffOptions};
use hatric_host::scenario::{append_meta_record, bench_meta_json, find, Metric, Params, Scale};
use hatric_host::HostReport;
use hatric_host::{
    CoherenceMechanism, ConsolidatedHost, HostConfig, HostEvent, MigrationParams, SchedPolicy,
    VmSpec,
};

const WARMUP: u64 = 60;
const MEASURED: u64 = 160;

/// A small consolidated host that exercises every traced path: a
/// paging-heavy aggressor (remap + shootdown spans), victims (scheduler
/// interference) and a live migration starting inside the measured
/// window (pre-copy rounds + stop-and-copy).
fn storm_config(threads: usize) -> HostConfig {
    HostConfig::scaled(4, 512)
        .with_mechanism(CoherenceMechanism::Software)
        .with_sched(SchedPolicy::RoundRobin)
        .with_threads(threads)
        .with_vm(VmSpec::aggressor(2, 192))
        .with_vm(VmSpec::victim(2, 128))
        .with_event(HostEvent::Migrate(MigrationParams::at(1, WARMUP + 20)))
}

fn run_report(threads: usize, tracing: bool) -> HostReport {
    let mut host = ConsolidatedHost::new(storm_config(threads)).expect("storm config is valid");
    if tracing {
        host.enable_tracing(1 << 14);
    }
    host.run(WARMUP, MEASURED)
}

#[test]
fn model_metrics_are_identical_with_tracing_on_or_off_at_any_thread_count() {
    let baseline = run_report(1, false);
    for threads in [1usize, 2, 4] {
        for tracing in [false, true] {
            if let Some(diff) = common::divergence_summary(&baseline, &run_report(threads, tracing))
            {
                panic!(
                    "threads={threads} tracing={tracing}: model metrics diverged from \
                     threads=1 tracing=off:\n{diff}"
                );
            }
        }
    }
}

fn traced_host() -> ConsolidatedHost {
    let mut host = ConsolidatedHost::new(storm_config(2)).expect("storm config is valid");
    host.enable_tracing(1 << 14);
    host.run(WARMUP, MEASURED);
    host
}

#[test]
fn traced_run_records_the_full_lifecycle() {
    let host = traced_host();
    let sink = host.platform().trace_sink().expect("tracing is enabled");
    assert!(!sink.is_empty(), "a traced storm run must record spans");
    let names: Vec<&str> = sink.events().map(|e| e.name).collect();
    for expected in [
        "slice",
        "remap_software",
        "inval_target",
        "precopy_round",
        "stop_and_copy",
    ] {
        assert!(
            names.contains(&expected),
            "trace must contain a `{expected}` span (got: {:?})",
            {
                let mut distinct: Vec<&str> = names.clone();
                distinct.sort_unstable();
                distinct.dedup();
                distinct
            }
        );
    }
    // The warmup/measured boundary clears the sink, so every span sits in
    // the measured phase — no timestamp can predate the counter reset.
    let max_dur_end = sink.events().map(|e| e.ts + e.dur).max().unwrap_or(0);
    assert!(max_dur_end > 0, "measured-phase spans must have extent");
}

#[test]
fn trace_timestamps_are_monotone_within_each_track() {
    let host = traced_host();
    let sink = host.platform().trace_sink().expect("tracing is enabled");
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    for event in sink.events() {
        let prev = last_ts.entry(event.track).or_insert(0);
        assert!(
            event.ts >= *prev,
            "track {} went backwards: span `{}` at ts {} after ts {}",
            event.track,
            event.name,
            event.ts,
            prev
        );
        *prev = event.ts;
    }
    assert!(last_ts.len() > 1, "spans must land on more than one track");
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let host = traced_host();
    let sink = host.platform().trace_sink().expect("tracing is enabled");
    let json = host.export_trace().expect("tracing is enabled");
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    // The document closes with the ring-drop metadata; this sink never
    // wrapped, so the count is zero.
    assert!(json.ends_with("\n],\"metadata\":{\"droppedSpans\":0}}\n"));
    // Structural well-formedness: brackets and braces balance, and never
    // go negative (the minimal-JSON writer emits no strings containing
    // either, so plain counting is exact).
    let mut depth = 0i64;
    for ch in json.chars() {
        match ch {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in exported trace");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "exported trace must balance its brackets");
    // One complete-event record per held span.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), sink.len());
    // Every record carries the fixed Chrome fields.
    assert_eq!(json.matches("\"pid\":0").count(), sink.len());
}

#[test]
fn scenario_trace_run_emits_migration_spans() {
    let scenario = find("migration_storm").expect("migration_storm is registered");
    let traced = scenario
        .trace_run(&Params::new(), Scale::Smoke)
        .expect("smoke trace run succeeds");
    for expected in ["remap_software", "precopy_round", "stop_and_copy", "slice"] {
        assert!(
            traced.contains(&format!("\"name\":\"{expected}\"")),
            "migration_storm trace must contain `{expected}` spans"
        );
    }
    // The figure scenarios run on the single-VM System and trace through
    // its platform sink: same document shape, scheduler-free span set.
    let fig_trace = find("fig9")
        .expect("fig9 is registered")
        .trace_run(&Params::new(), Scale::Smoke)
        .expect("fig9 traces through the System");
    assert!(fig_trace.starts_with("{\"traceEvents\":["));
    assert!(fig_trace.contains("\"name\":\"remap_software\""));
}

#[test]
fn report_rows_carry_latency_percentiles() {
    let scenario = find("multivm").expect("multivm is registered");
    let report = scenario
        .run(&Params::new(), Scale::Smoke)
        .expect("smoke run succeeds");
    for row in &report.rows {
        for key in [
            "walk_p50",
            "walk_p99",
            "shootdown_p50",
            "shootdown_p99",
            "dram_queue_p50",
            "dram_queue_p99",
        ] {
            assert!(
                row.number(key).is_some(),
                "{}/{}: row must carry {key}",
                row.label(),
                row.mechanism()
            );
        }
        assert!(
            row.number("walk_p99") >= row.number("walk_p50"),
            "p99 can never undercut p50"
        );
        assert!(
            row.number("walk_p50").unwrap_or(0.0) > 0.0,
            "every VM performs nested walks, so the median is positive"
        );
    }
}

// ---------------------------------------------------------------------------
// Counter timelines
// ---------------------------------------------------------------------------

fn run_report_with_sampling(threads: usize, interval: Option<u64>) -> HostReport {
    let mut host = ConsolidatedHost::new(storm_config(threads)).expect("storm config is valid");
    if let Some(interval) = interval {
        host.enable_timeline(interval);
    }
    host.run(WARMUP, MEASURED)
}

#[test]
fn model_metrics_are_identical_with_sampling_on_or_off_at_any_thread_count() {
    let baseline = run_report_with_sampling(1, None);
    for threads in [1usize, 2, 4] {
        for interval in [None, Some(1), Some(8)] {
            if let Some(diff) =
                common::divergence_summary(&baseline, &run_report_with_sampling(threads, interval))
            {
                panic!(
                    "threads={threads} sampling={interval:?}: model metrics diverged from \
                     threads=1 sampling=off:\n{diff}"
                );
            }
        }
    }
}

fn storm_timeline(threads: usize, interval: u64) -> ConsolidatedHost {
    let mut host = ConsolidatedHost::new(storm_config(threads)).expect("storm config is valid");
    host.enable_timeline(interval);
    host.run(WARMUP, MEASURED);
    host
}

#[test]
fn timelines_are_byte_identical_across_thread_counts() {
    let reference = storm_timeline(1, 4)
        .timeline()
        .expect("sampling is enabled")
        .export_csv();
    assert_eq!(
        reference.lines().count() as u64,
        MEASURED / 4 + 1,
        "interval 4 samples exactly the measured slices (plus the CSV header)"
    );
    for threads in [2usize, 4] {
        let csv = storm_timeline(threads, 4)
            .timeline()
            .expect("sampling is enabled")
            .export_csv();
        assert_eq!(
            csv, reference,
            "threads={threads}: every gauge reads committed canonical state, so the \
             timeline must not depend on the worker thread count"
        );
    }
}

#[test]
fn timeline_exports_are_well_formed_and_capture_the_storm() {
    // Interval 1 so the short-lived dirty-page window (the pre-copy drains
    // in a handful of slices) cannot fall between samples.
    let host = storm_timeline(2, 1);
    let timeline = host.timeline().expect("sampling is enabled");
    // Samples survive the warmup/measured reset, so they cover exactly
    // the measured slices.
    assert_eq!(timeline.len() as u64, MEASURED);
    assert_eq!(timeline.series(), ConsolidatedHost::TIMELINE_SERIES);

    let json = timeline.export_chrome_counters();
    assert!(json.starts_with("{\"traceEvents\":[\n"));
    let counters = timeline.len() * timeline.series().len();
    assert_eq!(json.matches("\"ph\":\"C\"").count(), counters);
    assert_eq!(json.matches("\"args\":{\"value\":").count(), counters);
    let mut depth = 0i64;
    for ch in json.chars() {
        match ch {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in exported counters");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "exported counters must balance their brackets");

    let csv = timeline.export_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("ts,directory_lines,dram_queue_offchip,dram_queue_diestacked,ntlb_hit_rate_bp,shootdown_targets,dirty_pages")
    );
    assert_eq!(lines.count(), timeline.len());

    // The gauges actually move: the migration drains its dirty pages
    // inside the measured window, the aggressor's software shootdowns
    // land targets, and the nested-TLB hit rate stays a valid ratio.
    let dirty = series_index("dirty_pages");
    let targets = series_index("shootdown_targets");
    let ntlb = series_index("ntlb_hit_rate_bp");
    assert!(timeline.samples().iter().any(|(_, v)| v[dirty] > 0));
    assert!(timeline.samples().iter().any(|(_, v)| v[targets] > 0));
    assert!(timeline.samples().iter().all(|(_, v)| v[ntlb] <= 10_000));
}

fn series_index(name: &str) -> usize {
    ConsolidatedHost::TIMELINE_SERIES
        .iter()
        .position(|s| *s == name)
        .expect("a declared timeline series")
}

#[test]
fn scenario_timeline_run_is_host_only_and_samples() {
    let scenario = find("migration_storm").expect("migration_storm is registered");
    let timeline = scenario
        .timeline_run(&Params::new(), Scale::Smoke)
        .expect("smoke timeline run succeeds")
        .expect("host scenarios sample timelines");
    assert!(!timeline.is_empty());
    assert_eq!(timeline.series(), ConsolidatedHost::TIMELINE_SERIES);
    // The figure scenarios have no host commit barrier to sample at.
    assert!(find("fig9")
        .expect("fig9 is registered")
        .timeline_run(&Params::new(), Scale::Smoke)
        .expect("fig9 parameters are valid")
        .is_none());
}

// ---------------------------------------------------------------------------
// Per-remap causal attribution
// ---------------------------------------------------------------------------

#[test]
fn causal_attribution_reconciles_exactly_with_interference_counters() {
    let mut host = ConsolidatedHost::new(storm_config(2)).expect("storm config is valid");
    let report = host.run(WARMUP, MEASURED);
    let mut victim_cycles = 0u64;
    let mut targets = 0u64;
    for (slot, vm) in report.per_vm.iter().enumerate() {
        let total = vm.causal.total();
        // The ledger charges victim cycles at exactly the two sites that
        // increment `inflicted_cycles`, so the totals reconcile to the
        // cycle, not approximately.
        assert_eq!(
            total.victim_cycles, vm.interference.inflicted_cycles,
            "vm{slot}: attributed victim cycles must equal inflicted cycles"
        );
        assert_eq!(
            total.targets,
            vm.numa.local_coherence_targets + vm.numa.remote_coherence_targets,
            "vm{slot}: attributed targets must equal the NUMA coherence-target count"
        );
        victim_cycles += total.victim_cycles;
        targets += total.targets;
    }
    assert!(victim_cycles > 0, "a software storm must inflict cycles");
    // The host-level ledger is the merge of the per-VM ledgers; RemapIds
    // carry their slot, so merging never collides.
    let host_total = report.host.causal.total();
    assert_eq!(host_total.victim_cycles, victim_cycles);
    assert_eq!(host_total.targets, targets);
    // The ranking surfaces real remaps: the top entry's cost is positive
    // and no larger than the whole.
    let top = report.host.causal.top_by_victim_cycles(1);
    let (_, cost) = top.first().expect("the storm charged at least one remap");
    assert!(cost.victim_cycles > 0);
    assert!(cost.victim_cycles <= host_total.victim_cycles);
}

#[test]
fn scenario_rows_carry_attribution_columns() {
    let scenario = find("multivm").expect("multivm is registered");
    let report = scenario
        .run(&Params::new(), Scale::Smoke)
        .expect("smoke run succeeds");
    for row in &report.rows {
        for key in [
            "attr_remaps",
            "attr_victim_cycles",
            "attr_top_victim_cycles",
        ] {
            assert!(
                row.number(key).is_some(),
                "{}/{}: row must carry {key}",
                row.label(),
                row.mechanism()
            );
        }
        assert!(row.get("attr_top_remap").is_some());
        let share = row
            .number("attr_top_share")
            .expect("rows carry attr_top_share");
        assert!((0.0..=1.0).contains(&share));
        assert!(
            row.number("attr_top_victim_cycles") <= row.number("attr_victim_cycles"),
            "the top remap cannot exceed the total"
        );
    }
    // Software rows attribute real disruption to real remaps.
    let software = report
        .find("severe", "Software")
        .expect("the severe software row exists");
    assert!(software.number("attr_victim_cycles").unwrap_or(0.0) > 0.0);
    match software.get("attr_top_remap") {
        Some(Metric::Text(id)) => assert!(
            id.starts_with("vm"),
            "the top remap must be a real RemapId, got `{id}`"
        ),
        other => panic!("attr_top_remap must be a textual remap id, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The diff observatory
// ---------------------------------------------------------------------------

#[test]
fn diff_observatory_passes_self_diffs_and_fails_gated_perturbation() {
    let scenario = find("multivm").expect("multivm is registered");
    let report = scenario
        .run(&Params::new(), Scale::Smoke)
        .expect("smoke run succeeds");
    // Diff exactly what `scenarios run --json` writes, trailing
    // environment-metadata record included.
    let body = append_meta_record(&report.to_json(), &bench_meta_json(Some(2)));
    let gated = scenario.gated_metrics();

    let self_diff = diff_json(&body, &body, gated, DiffOptions::default()).expect("body parses");
    assert!(self_diff.passed(), "a self-diff must always pass");
    assert!(self_diff.missing.is_empty() && self_diff.extra.is_empty());

    // Perturb one gated metric far past any tolerance: the observatory
    // must flag exactly that metric and fail.
    let value = report.rows[0]
        .number("victim_slowdown_vs_ideal")
        .expect("multivm rows carry the gated metric");
    let perturbed = body.replacen(
        &format!("\"victim_slowdown_vs_ideal\":{value:.6}"),
        &format!("\"victim_slowdown_vs_ideal\":{:.6}", value * 10.0),
        1,
    );
    assert_ne!(perturbed, body, "the perturbation must land");
    let drifted = diff_json(&body, &perturbed, gated, DiffOptions::default()).expect("body parses");
    assert!(!drifted.passed());
    assert_eq!(drifted.regressions(), 1);
    assert!(drifted.format_text().contains("REGRESSED"));

    // Dropping a row from run B fails closed.
    let truncated = {
        let mut shorter = report.clone();
        shorter.rows.pop();
        shorter.to_json()
    };
    let missing = diff_json(&body, &truncated, gated, DiffOptions::default()).expect("parses");
    assert!(!missing.passed());
    assert_eq!(missing.missing.len(), 1);
}

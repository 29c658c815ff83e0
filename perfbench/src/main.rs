//! Host-time benchmark of the HATRIC simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Runs one workload (`host32`, `remap_storm`, `fleet_storm`, `single_vm`;
//! see `METRICS.md`) through the simulator's public API, built from the
//! seed.  Every run's model reports are checked against the library's own
//! `run(warmup, measured)` and against the workload's invariants.
//!
//! With `--trace 0` it repeats the workload until `--seconds` have passed
//! (at least [`MIN_RUNS`] times) and reports the end-to-end host-time
//! metrics, in reference time (see `calib`), as trimmed means over runs.
//! With `--trace 1` it times a few untraced runs, then one traced run that
//! splits host time into the simulator's layers, times each layer's entry point on clones of the warmed state,
//! reports the per-layer metrics and writes the spans as a Chrome trace
//! into `--out`.
//!
//! The last line of standard output is one JSON object; `run.py` wraps it
//! into the benchmark's result line.

mod calib;
mod fleet;
mod json;
mod layers;
mod sim;
mod spans;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hatric::telemetry::EnginePhase;
use hatric::Platform;
use hatric_cluster::EpochHost;

use crate::calib::{Calibrated, Calibrator, Meter};
use crate::fleet::{phase_delta, thread_index, HostCall};
use crate::json::Json;
use crate::layers::{count_metrics, measure_unit_costs, op_counts, Probe, OPS};
use crate::sim::{check_invariants, vm_target, vm_threads, Leg, Report, Sim, Workload};
use crate::spans::Recorder;

/// Untraced runs per invocation at the least: set-up time is a mean
/// over runs, and the byte-identity check needs more than one.
const MIN_RUNS: usize = 3;
/// Untraced runs the traced invocation compares its traced run against.
const MIN_BASELINE_RUNS: usize = 2;
/// No new run starts after this long, whatever `--seconds` says, so an
/// invocation ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Failure messages kept in the record (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 20;
/// The fleet host whose warmed state the unit-cost probes clone: host 3
/// is neither a migration source nor the crashed host.
const FLEET_PROBE_HOST: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One leg of one run: the calibrated set-up (construction, each warmup
/// step, the reset) and measured steps, and the model report.
struct LegRun {
    setup: Calibrated,
    measured: Calibrated,
    report: Report,
}

/// Builds, warms and resets the leg's system (set-up), then times each
/// measured step, with calibration chunks in between (see `calib`).
fn run_leg(leg: &Leg, cal: &mut Calibrator) -> LegRun {
    fn timed(meter: &mut Meter<'_>, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        meter.add(t.elapsed());
    }
    let mut meter = Meter::start(cal, leg.warmup() as usize + 2);
    let t = Instant::now();
    let mut sim = leg.build(false);
    meter.add(t.elapsed());
    for _ in 0..leg.warmup() {
        timed(&mut meter, || sim.step());
    }
    timed(&mut meter, || sim.reset());
    let setup = meter.finish();
    let mut meter = Meter::start(cal, leg.measured() as usize);
    for _ in 0..leg.measured() {
        timed(&mut meter, || sim.step());
    }
    LegRun {
        setup,
        measured: meter.finish(),
        report: sim.report(),
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of the values without their smallest and largest (when there are
/// at least 5).  The machine switches between speed regimes that the
/// calibration only partly cancels, so an invocation's runs fall into
/// clusters; the median jumps between them as their sizes change, while
/// this mean moves in proportion.
fn trimmed_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let kept = if values.len() >= 5 {
        &values[1..values.len() - 1]
    } else {
        &values[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Linear-interpolated percentile `p` (0–100) of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Mean step time of the first quarter of a leg's measured steps over
/// that of the last quarter: 1.0 when the per-step cost is flat.
fn quarter_ratio(steps: &[Duration]) -> f64 {
    let q = (steps.len() / 4).max(1);
    let mean = |s: &[Duration]| s.iter().map(Duration::as_secs_f64).sum::<f64>() / s.len() as f64;
    mean(&steps[..q]) / mean(&steps[steps.len() - q..])
}

fn secs(legs: &[LegRun], f: impl Fn(&LegRun) -> Duration) -> f64 {
    legs.iter().map(|l| f(l).as_secs_f64()).sum()
}

/// What the metrics need from one untraced run; the run's steps and
/// reports are dropped once it is checked, so memory does not grow with
/// the number of runs.  Times are reference time unless named `raw`.
struct RunSummary {
    setup_s: f64,
    raw_setup_s: f64,
    raw_measured_s: f64,
    accesses_per_s: f64,
    raw_accesses_per_s: f64,
    step_p50_ms: f64,
    step_p90_ms: f64,
    steady: f64,
    /// Median host time of the run's calibration chunks: the machine's
    /// speed while the run ran.
    chunk_ns: f64,
}

impl RunSummary {
    fn of(run: &[LegRun]) -> Self {
        let measured_s = secs(run, |l| l.measured.scaled_total());
        let raw_measured_s = secs(run, |l| l.measured.raw_total());
        let accesses = run.iter().map(|l| l.report.accesses()).sum::<u64>() as f64;
        let mut steps: Vec<f64> = run
            .iter()
            .flat_map(|l| l.measured.scaled.iter().map(|&d| ms(d)))
            .collect();
        steps.sort_by(f64::total_cmp);
        let chunks = run
            .iter()
            .flat_map(|l| l.setup.chunks.iter().chain(&l.measured.chunks))
            .copied()
            .collect();
        Self {
            setup_s: secs(run, |l| l.setup.scaled_total()),
            raw_setup_s: secs(run, |l| l.setup.raw_total()),
            raw_measured_s,
            accesses_per_s: accesses / measured_s,
            raw_accesses_per_s: accesses / raw_measured_s,
            step_p50_ms: percentile(&steps, 50.0),
            step_p90_ms: percentile(&steps, 90.0),
            steady: run
                .iter()
                .map(|l| quarter_ratio(&l.measured.scaled))
                .sum::<f64>()
                / run.len() as f64,
            chunk_ns: median(chunks),
        }
    }
}

/// Operation accounting: every leg of every run is one operation, failed
/// when its report differs from the reference or its run breaks an
/// invariant.
#[derive(Default)]
struct Checker {
    ops: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checker {
    fn check(
        &mut self,
        workload: Workload,
        legs: &[Leg],
        reference: &[Report],
        run: &[Report],
        label: &str,
    ) {
        let broken = check_invariants(workload, legs, run);
        for (i, (report, want)) in run.iter().zip(reference).enumerate() {
            self.ops += 1;
            let differs = report != want;
            if differs {
                self.note(format!(
                    "{label}: leg {i} ({:?}) report differs from run(warmup, measured)",
                    legs[i].mechanism()
                ));
            }
            if differs || !broken.is_empty() {
                self.failed += 1;
            }
        }
        for message in broken {
            self.note(format!("{label}: {message}"));
        }
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < MAX_FAILURE_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// Host time of one traced leg, split by the layer that spent it.
#[derive(Debug, Default, Clone, Copy)]
struct TimeSplit {
    slice: Duration,
    phases: [Duration; 5],
    /// Self time of the host calls whose engine phases fit inside them.
    host_other: Duration,
    /// How far the engine's phase totals exceed the benchmark's own span of
    /// the call, summed over the calls where they do.  The two clocks are
    /// read at different points, so a call's phases can outrun its span.
    phase_overshoot: Duration,
    epoch: Duration,
    boundary: Duration,
    parallel: Duration,
    vm_step: Duration,
    next_access: Duration,
    vm_other: Duration,
}

fn phase_name(phase: EnginePhase) -> &'static str {
    match phase {
        EnginePhase::PoolRefill => "core.pool_refill",
        EnginePhase::Simulate => "core.simulate",
        EnginePhase::BankReplay => "core.bank_replay",
        EnginePhase::BookingReplay => "core.booking_replay",
        EnginePhase::SerialCommit => "core.serial_commit",
    }
}

impl TimeSplit {
    /// Adds one host `run_slices` call: its span and its engine phases.
    fn add_slice(
        &mut self,
        rec: &mut Recorder,
        parent: u64,
        call: &HostCall,
        args: Vec<(&'static str, u64)>,
    ) {
        let HostCall {
            start,
            dur,
            thread: tid,
            phases,
        } = *call;
        let id = rec.record("host.slice", tid, parent, start, dur, args);
        let parts: Vec<_> = EnginePhase::ALL
            .iter()
            .zip(phases)
            .map(|(p, d)| (phase_name(*p), d))
            .collect();
        rec.record_children(id, tid, start, &parts);
        self.slice += dur;
        for (total, d) in self.phases.iter_mut().zip(phases) {
            *total += d;
        }
        let phased: Duration = phases.iter().sum();
        self.host_other += dur.saturating_sub(phased);
        self.phase_overshoot += phased.saturating_sub(dur);
    }

    /// Self time of `host.slice` per step: negative when the engine's
    /// phase totals overshoot the spans.
    fn host_other_ms(&self, steps: u64) -> f64 {
        (ms(self.host_other) - ms(self.phase_overshoot)) / steps as f64
    }
}

/// One step of a traced leg: the same work as [`Sim::step`], with spans
/// around each call into the simulator.
fn traced_step(sim: &mut Sim, rec: &mut Recorder, split: &mut TimeSplit, step: u64) {
    let tid = thread_index();
    match sim {
        Sim::Host(host) => {
            let before = *host.phase_totals();
            let start = Instant::now();
            host.run_slices(1);
            let dur = start.elapsed();
            let call = HostCall {
                start,
                dur,
                thread: tid,
                phases: phase_delta(&before, host.phase_totals()),
            };
            split.add_slice(rec, 0, &call, vec![("slice", step)]);
        }
        Sim::SpanFleet(cluster) => {
            let marks: Vec<usize> = cluster.hosts().iter().map(|h| h.calls.len()).collect();
            let start = Instant::now();
            cluster.run_epochs(1);
            let dur = start.elapsed();
            let id = rec.record("cluster.epoch", tid, 0, start, dur, vec![("epoch", step)]);
            let mut window: Option<(Instant, Instant)> = None;
            for (h, (host, mark)) in cluster.hosts().iter().zip(marks).enumerate() {
                for call in &host.calls[mark..] {
                    split.add_slice(rec, id, call, vec![("host", h as u64)]);
                    let end = call.start + call.dur;
                    window = Some(
                        window.map_or((call.start, end), |(a, b)| (a.min(call.start), b.max(end))),
                    );
                }
            }
            let parallel = window.map_or(Duration::ZERO, |(a, b)| b - a);
            split.epoch += dur;
            split.parallel += parallel;
            split.boundary += dur.saturating_sub(parallel);
        }
        Sim::Vm { system, driver } => {
            let start = Instant::now();
            let (mut generate, mut simulate) = (Duration::ZERO, Duration::ZERO);
            for thread in 0..vm_threads(system, driver) {
                let t1 = Instant::now();
                let access = driver.next_access(thread);
                let t2 = Instant::now();
                let (cpu, asid) = vm_target(system, driver, thread);
                system.step(cpu, asid, access);
                generate += t2 - t1;
                simulate += t2.elapsed();
            }
            let dur = start.elapsed();
            let id = rec.record("single_vm.round", tid, 0, start, dur, vec![("round", step)]);
            rec.record_children(
                id,
                tid,
                start,
                &[("workloads.next_access", generate), ("core.step", simulate)],
            );
            split.next_access += generate;
            split.vm_step += simulate;
            split.vm_other += dur.saturating_sub(generate + simulate);
        }
        Sim::Fleet(_) => sim.step(),
    }
}

/// A traced leg, with its system kept alive for the unit-cost probes.
/// Its times are raw host time: the traced run is not calibrated.
struct TracedLeg {
    measured: Duration,
    steps: Vec<Duration>,
    report: Report,
    sim: Sim,
    setup_first_touch: u64,
    /// Scheduler slices the measured phase ran, over all hosts.
    slices: u64,
}

fn run_leg_traced(leg: &Leg, rec: &mut Recorder, split: &mut TimeSplit) -> TracedLeg {
    let mut sim = leg.build(true);
    for _ in 0..leg.warmup() {
        sim.step();
    }
    let setup_first_touch = sim
        .report()
        .parts()
        .iter()
        .map(|p| p.faults.first_touch_faults)
        .sum();
    sim.reset();
    let host_calls = |sim: &Sim| match sim {
        Sim::SpanFleet(c) => c.hosts().iter().map(|h| h.calls.len() as u64).sum(),
        _ => 0,
    };
    let calls_before = host_calls(&sim);
    let mut steps = Vec::with_capacity(leg.measured() as usize);
    let measured_start = Instant::now();
    for i in 0..leg.measured() {
        let t = Instant::now();
        traced_step(&mut sim, rec, split, i);
        steps.push(t.elapsed());
    }
    let measured = measured_start.elapsed();
    let slices = match (&sim, leg) {
        (Sim::SpanFleet(_), Leg::Fleet { params, .. }) => {
            (host_calls(&sim) - calls_before) * params.base.epoch_slices
        }
        (Sim::Host(_), _) => leg.measured(),
        _ => 0,
    };
    TracedLeg {
        measured,
        steps,
        report: sim.report(),
        sim,
        setup_first_touch,
        slices,
    }
}

/// The unit cost (ns per call) of each of [`OPS`] on the leg's warmed
/// system, and how often the leg's measured phase called each.
fn attribute(traced: &TracedLeg) -> ([f64; 10], [f64; 10]) {
    let costs = match &traced.sim {
        Sim::Host(host) => measure_unit_costs(&Probe::of_host(host, 0)),
        Sim::SpanFleet(cluster) => {
            let host = cluster.hosts()[FLEET_PROBE_HOST % cluster.hosts().len()].inner();
            let slot = (0..EpochHost::vm_slots(host))
                .find(|&s| host.vm_active(s))
                .unwrap_or(0);
            measure_unit_costs(&Probe::of_host(host, slot))
        }
        Sim::Vm { system, driver } => {
            let fresh = Platform::new(system.config()).expect("the system's config is valid");
            measure_unit_costs(&Probe::of_system(system, driver, &fresh))
        }
        Sim::Fleet(_) => unreachable!("traced fleets are built over span hosts"),
    };
    let counts = op_counts(&traced.report, costs.write_share, traced.slices);
    (costs.ns, counts)
}

/// The traced invocation's tail: one traced run, its checks, the
/// per-layer metrics, and the reconciliation and tracing-overhead records.
fn traced_metrics(
    args: &Args,
    legs: &[Leg],
    reference: &[Report],
    checker: &mut Checker,
    untraced_measured: f64,
    record: &mut Vec<(&'static str, Json)>,
) -> Vec<(&'static str, f64)> {
    let mut rec = Recorder::new();
    let mut split = TimeSplit::default();
    let traced: Vec<TracedLeg> = legs
        .iter()
        .map(|l| run_leg_traced(l, &mut rec, &mut split))
        .collect();
    let reports: Vec<Report> = traced.iter().map(|t| t.report.clone()).collect();
    checker.check(args.workload, legs, reference, &reports, "traced run");

    let steps: u64 = traced.iter().map(|t| t.steps.len() as u64).sum();
    let per_step = |d: Duration| ms(d) / steps as f64;
    let measured: Duration = traced.iter().map(|t| t.measured).sum();
    let step_total: Duration = traced.iter().flat_map(|t| &t.steps).sum();
    let fleet = split.epoch > Duration::ZERO;
    // Host time the run's work occupied: the steps themselves, except on
    // the fleet, where it is the hosts' busy time plus the serial epoch
    // boundary, which stays right if the hosts run on several threads.
    let work = if fleet {
        split.slice + split.boundary
    } else {
        step_total
    };

    // Attributed ns per entry point, summed over legs; a unit cost is the
    // call-weighted mean over legs (plain mean where nothing called it).
    let mut attributed = [0.0f64; 10];
    let mut calls = [0.0f64; 10];
    let mut plain_ns = [0.0f64; 10];
    for t in &traced {
        let (ns, counts) = attribute(t);
        for k in 0..OPS.len() {
            attributed[k] += ns[k] * counts[k];
            calls[k] += counts[k];
            plain_ns[k] += ns[k] / traced.len() as f64;
        }
    }
    let unit_ns: Vec<f64> = (0..OPS.len())
        .map(|k| {
            if calls[k] > 0.0 {
                attributed[k] / calls[k]
            } else {
                plain_ns[k]
            }
        })
        .collect();
    let attributed_ms: Vec<f64> = attributed
        .iter()
        .map(|ns| ns / 1e6 / steps as f64)
        .collect();
    let attributed_sum: f64 = attributed_ms.iter().sum();
    let work_ms = per_step(work);
    let residual_ms = work_ms - attributed_sum;

    let spans_ms: Vec<(&str, f64)> = if fleet {
        vec![
            ("cluster.boundary", per_step(split.boundary)),
            ("cluster.hosts_parallel", per_step(split.parallel)),
        ]
    } else if split.slice > Duration::ZERO {
        let mut parts: Vec<(&str, f64)> = EnginePhase::ALL
            .iter()
            .zip(split.phases)
            .map(|(p, d)| (phase_name(*p), per_step(d)))
            .collect();
        parts.push(("host.other", split.host_other_ms(steps)));
        parts.push((
            "bench.loop",
            per_step(step_total.saturating_sub(split.slice)),
        ));
        parts
    } else {
        vec![
            ("workloads.next_access", per_step(split.next_access)),
            ("core.step", per_step(split.vm_step)),
            ("bench.loop", per_step(split.vm_other)),
        ]
    };
    let spans_sum: f64 = spans_ms.iter().map(|(_, v)| v).sum();
    let step_ms = per_step(step_total);
    // The untraced runs' step time, measured without any span: the
    // independent figure the traced leaves are reconciled against.
    let untraced_step_ms = untraced_measured * 1e3 / steps as f64;
    record.push((
        "reconciliation",
        Json::obj([
            ("steps", Json::Int(steps)),
            ("step_ms", Json::Num(step_ms)),
            (
                "spans_ms",
                Json::obj(spans_ms.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            ("spans_sum_ms", Json::Num(spans_sum)),
            (
                "spans_gap_share",
                Json::Num((spans_sum - step_ms).abs() / step_ms),
            ),
            (
                "phase_overshoot_ms",
                Json::Num(per_step(split.phase_overshoot)),
            ),
            ("untraced_step_ms", Json::Num(untraced_step_ms)),
            (
                "spans_vs_untraced_share",
                Json::Num((spans_sum - untraced_step_ms) / untraced_step_ms),
            ),
            ("work_ms", Json::Num(work_ms)),
            (
                "attributed_ms",
                Json::obj(
                    OPS.iter()
                        .zip(&attributed_ms)
                        .map(|((op, _), v)| (*op, Json::Num(*v))),
                ),
            ),
            ("attributed_sum_ms", Json::Num(attributed_sum)),
            ("residual_ms", Json::Num(residual_ms)),
            ("residual_share", Json::Num(residual_ms / work_ms)),
        ]),
    ));
    record.push((
        "tracing_overhead",
        Json::obj([
            ("traced_measured_s", Json::Num(measured.as_secs_f64())),
            ("untraced_median_measured_s", Json::Num(untraced_measured)),
            (
                "ratio",
                Json::Num(measured.as_secs_f64() / untraced_measured),
            ),
            ("spans_dropped", Json::Int(rec.dropped())),
        ]),
    ));
    let trace_path = args.out.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&trace_path, rec.chrome_trace()));
    if let Err(e) = written {
        checker.failed += 1;
        checker.note(format!("writing {}: {e}", trace_path.display()));
    }
    record.push(("chrome_trace", Json::Str(trace_path.display().to_string())));

    let first_touch = traced.iter().map(|t| t.setup_first_touch).sum();
    let mut metrics = count_metrics(&reports, first_touch);
    metrics.extend([
        ("host.slice_ms", per_step(split.slice)),
        ("cluster.epoch_ms", per_step(split.epoch)),
        ("core.pool_refill_ms", per_step(split.phases[0])),
        ("core.simulate_ms", per_step(split.phases[1])),
        ("core.bank_replay_ms", per_step(split.phases[2])),
        ("core.booking_replay_ms", per_step(split.phases[3])),
        ("core.serial_commit_ms", per_step(split.phases[4])),
        ("host.other_ms", split.host_other_ms(steps)),
        ("cluster.boundary_ms", per_step(split.boundary)),
        ("core.step_ms", per_step(split.vm_step)),
        ("workloads.next_access_ms", per_step(split.next_access)),
    ]);
    metrics.extend(
        OPS.iter()
            .zip(&unit_ns)
            .map(|((_, metric), ns)| (*metric, *ns)),
    );
    metrics.push(("core.residual_ms", residual_ms));
    metrics
}

fn digest(reports: &[Report]) -> String {
    let mut hasher = DefaultHasher::new();
    format!("{reports:?}").hash(&mut hasher);
    format!("{:016x}", hasher.finish())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <host32|remap_storm|fleet_storm|single_vm> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let workload = args.workload;
    let legs = workload.legs(args.seed);
    let mut checker = Checker::default();
    let mut cal = Calibrator::new();

    let reference: Vec<Report> = legs.iter().map(Leg::reference).collect();
    checker.check(workload, &legs, &reference, &reference, "reference");

    let mut runs: Vec<RunSummary> = Vec::new();
    let (min_runs, run_budget) = if args.trace {
        (MIN_BASELINE_RUNS, budget / 2)
    } else {
        (MIN_RUNS, budget)
    };
    while runs.len() < min_runs || (started.elapsed() < run_budget && started.elapsed() < HARD_STOP)
    {
        let run: Vec<LegRun> = legs.iter().map(|l| run_leg(l, &mut cal)).collect();
        let summary = RunSummary::of(&run);
        let reports: Vec<Report> = run.into_iter().map(|l| l.report).collect();
        checker.check(
            workload,
            &legs,
            &reference,
            &reports,
            &format!("run {}", runs.len()),
        );
        runs.push(summary);
        if started.elapsed() >= HARD_STOP {
            break;
        }
    }

    let steady: Vec<f64> = runs.iter().map(|r| r.steady).collect();
    // The traced run is not calibrated, so it compares with raw time.
    let untraced_measured = median(runs.iter().map(|r| r.raw_measured_s).collect());

    let mut record = vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        (
            "legs",
            Json::Arr(
                legs.iter()
                    .map(|l| Json::Str(format!("{:?}", l.mechanism()).to_lowercase()))
                    .collect(),
            ),
        ),
        ("untraced_runs", Json::Int(runs.len() as u64)),
        ("report_digest", Json::Str(digest(&reference))),
        (
            "steady_state",
            Json::obj([
                (
                    "first_to_last_quarter_median",
                    Json::Num(median(steady.clone())),
                ),
                ("first_to_last_quarter", Json::nums(&steady)),
            ]),
        ),
    ];

    let metrics: Vec<(&str, f64)> = if args.trace {
        traced_metrics(
            &args,
            &legs,
            &reference,
            &mut checker,
            untraced_measured,
            &mut record,
        )
    } else {
        let rates: Vec<f64> = runs.iter().map(|r| r.accesses_per_s).collect();
        let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        let p50: Vec<f64> = runs.iter().map(|r| r.step_p50_ms).collect();
        let p90: Vec<f64> = runs.iter().map(|r| r.step_p90_ms).collect();
        let raw_rates: Vec<f64> = runs.iter().map(|r| r.raw_accesses_per_s).collect();
        let raw_setups: Vec<f64> = runs.iter().map(|r| r.raw_setup_s).collect();
        let chunks: Vec<f64> = runs.iter().map(|r| r.chunk_ns).collect();
        record.push((
            "samples",
            Json::obj([
                ("sim_accesses_per_s", Json::nums(&rates)),
                ("setup_s", Json::nums(&setups)),
                ("step_p50_ms", Json::nums(&p50)),
                ("step_p90_ms", Json::nums(&p90)),
                ("raw_sim_accesses_per_s", Json::nums(&raw_rates)),
                ("raw_setup_s", Json::nums(&raw_setups)),
                ("calibration_chunk_ns", Json::nums(&chunks)),
            ]),
        ));
        record.push((
            "raw",
            Json::obj([
                ("sim_accesses_per_s", Json::Num(trimmed_mean(raw_rates))),
                ("setup_s", Json::Num(trimmed_mean(raw_setups))),
            ]),
        ));
        vec![
            ("sim_accesses_per_s", trimmed_mean(rates)),
            ("setup_s", trimmed_mean(setups)),
            ("step_p50_ms", trimmed_mean(p50)),
            ("step_p90_ms", trimmed_mean(p90)),
        ]
    };

    record.push(("ops", Json::Int(checker.ops)));
    record.push(("ops_failed", Json::Int(checker.failed)));
    record.push((
        "failures",
        Json::Arr(checker.messages.into_iter().map(Json::Str).collect()),
    ));
    record.push((
        "metrics",
        Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
    ));
    record.push(("elapsed_s", Json::Num(started.elapsed().as_secs_f64())));
    println!("{}", Json::obj(record).render());
    ExitCode::SUCCESS
}

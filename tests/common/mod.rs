//! Helpers shared by the workspace integration tests: timing-key
//! stripping, randomized host construction for the determinism property
//! tests, and labeled divergence diffs (via [`hatric_host::diff`]) so a
//! failing equality assertion names the first diverging metric instead of
//! dumping two full report blobs.
//!
//! Each integration-test binary compiles its own copy of this module and
//! uses a subset of it, hence the file-wide `dead_code` allowance.

#![allow(dead_code)]

use hatric_host::diff::{diff_reports, DiffOptions};
use hatric_host::scenario::{Row, ScenarioReport};
use hatric_host::{
    BalloonParams, CoherenceMechanism, ConsolidatedHost, HostConfig, HostEvent, HostReport,
    MigrationParams, NumaConfig, NumaPolicy, SchedPolicy, VmSpec,
};

/// Keys whose values are wall-clock measurements (never deterministic).
pub const TIMING_KEYS: [&str; 2] = ["elapsed_ms", "accesses_per_sec"];

/// Strips the timing fields from a report's JSON text: the records are
/// single-line flat objects, so dropping the `"key":value` pairs (and the
/// comma gluing them in) is a plain string operation.
pub fn strip_timing(json: &str) -> String {
    let mut out = json.to_string();
    for key in TIMING_KEYS {
        let needle = format!(",\"{key}\":");
        while let Some(start) = out.find(&needle) {
            let value_from = start + needle.len();
            let rest = &out[value_from..];
            let value_len = rest
                .find([',', '}'])
                .expect("a JSON record field is followed by , or }");
            out.replace_range(start..value_from + value_len, "");
        }
        assert!(
            !out.contains(&format!("\"{key}\"")),
            "timing key {key} must only appear in stripping-friendly positions"
        );
    }
    out
}

/// The `(label, mechanism)` keys of a report's rows, sorted — the shape
/// comparison round-trip tests align rows on.
pub fn sorted_row_keys(report: &ScenarioReport) -> Vec<String> {
    let mut keys: Vec<String> = report
        .rows
        .iter()
        .map(|row| format!("{}/{}", row.label(), row.mechanism()))
        .collect();
    keys.sort();
    keys
}

/// A randomized-but-valid consolidated-host draw: the knobs the
/// determinism property tests fuzz over.
#[derive(Debug, Clone)]
pub struct RandomHostSpec {
    /// Physical CPUs per socket.
    pub pcpus_per_socket: usize,
    /// Socket count.
    pub sockets: usize,
    /// One entry per VM: its vCPU count (slot 0 is the paging aggressor).
    pub vm_vcpus: Vec<usize>,
    /// Coherence-mechanism selector (mod 4).
    pub mechanism_pick: u8,
    /// Scheduler selector (mod 3).
    pub sched_pick: u8,
    /// NUMA-placement selector (mod 2).
    pub policy_pick: u8,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// Inject a mid-run balloon event (needs ≥ 2 VMs to land).
    pub with_balloon: bool,
    /// Inject an in-flight live migration of VM 0.
    pub with_migration: bool,
    /// Enable the sim-time trace sink (must not move a model metric).
    pub tracing: bool,
    /// Enable counter-timeline sampling at interval 1 (likewise inert).
    pub timeline: bool,
    /// Master seed.
    pub seed: u64,
}

/// Warmup slices every [`RandomHostSpec`] run executes.
pub const SPEC_WARMUP: u64 = 25;
/// Measured slices every [`RandomHostSpec`] run executes.
pub const SPEC_MEASURED: u64 = 40;

impl RandomHostSpec {
    /// The host configuration this draw describes.
    pub fn config(&self) -> HostConfig {
        let num_pcpus = self.pcpus_per_socket * self.sockets;
        let quota_per_vm = 96u64;
        let fast_pages = quota_per_vm * self.vm_vcpus.len() as u64 + 64;
        let mechanism = match self.mechanism_pick % 4 {
            0 => CoherenceMechanism::Software,
            1 => CoherenceMechanism::UnitdPlusPlus,
            2 => CoherenceMechanism::Hatric,
            _ => CoherenceMechanism::Ideal,
        };
        let sched = match self.sched_pick % 3 {
            0 => SchedPolicy::Pinned,
            1 => SchedPolicy::RoundRobin,
            // SocketAffine needs the socket topology; it degenerates to the
            // pinned deal-out on one socket, which is fine for these tests.
            _ => SchedPolicy::SocketAffine,
        };
        let policy = if self.policy_pick.is_multiple_of(2) {
            NumaPolicy::FirstTouch
        } else {
            NumaPolicy::Interleaved
        };
        let mut cfg = HostConfig::scaled(num_pcpus, fast_pages)
            .with_mechanism(mechanism)
            .with_numa(NumaConfig::symmetric(self.sockets))
            .with_numa_policy(policy)
            .with_sched(sched)
            .with_slice_accesses(self.slice_accesses)
            .with_seed(self.seed);
        for (slot, &vcpus) in self.vm_vcpus.iter().enumerate() {
            let spec = if slot == 0 {
                // Slot 0 pages hard so remap coherence (and its targets
                // on other VMs' CPUs) is actually exercised.
                VmSpec::aggressor(vcpus, quota_per_vm)
            } else {
                VmSpec::victim(vcpus, quota_per_vm).with_home_socket(slot % self.sockets)
            };
            cfg = cfg.with_vm(spec);
        }
        if self.with_balloon && self.vm_vcpus.len() >= 2 {
            cfg = cfg.with_event(HostEvent::Balloon(BalloonParams::at(1, 0, 32, 20)));
        }
        if self.with_migration {
            // Starts inside the measured phase; whether it completes before
            // the window closes is part of the modeled (deterministic)
            // behaviour under test.
            cfg = cfg.with_event(HostEvent::Migrate(MigrationParams::at(
                0,
                SPEC_WARMUP + SPEC_MEASURED / 4,
            )));
        }
        cfg
    }

    /// Runs the drawn host and returns its report.
    ///
    /// # Panics
    ///
    /// Panics if the drawn configuration is invalid (the draw domains keep
    /// it valid by construction).
    pub fn run(&self) -> HostReport {
        let mut host =
            ConsolidatedHost::new(self.config()).expect("drawn configurations are valid");
        if self.tracing {
            host.enable_tracing(1 << 14);
        }
        if self.timeline {
            host.enable_timeline(1);
        }
        host.run(SPEC_WARMUP, SPEC_MEASURED)
    }

    /// Returns a copy with tracing and interval-1 timeline sampling both
    /// switched `on` or both off.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.tracing = on;
        self.timeline = on;
        self
    }
}

/// Flattens a [`HostReport`] into diffable labeled rows (host aggregate,
/// migration stats, one row per VM) so [`divergence_summary`] can name the
/// metric that moved.
fn metric_rows(report: &HostReport) -> ScenarioReport {
    let sim_row = |row: Row, sim: &hatric_host::SimReport| {
        row.count("runtime_cycles", sim.runtime_cycles())
            .count("accesses", sim.accesses)
            .count("remaps", sim.coherence.remaps)
            .count("ipis", sim.coherence.ipis)
            .count("coherence_vm_exits", sim.coherence.coherence_vm_exits)
            .count("full_flushes", sim.coherence.full_flushes)
            .count("disrupted_cycles", sim.interference.disrupted_cycles)
            .count("inflicted_cycles", sim.interference.inflicted_cycles)
            .count("demand_faults", sim.faults.demand_faults)
            .count("pages_promoted", sim.faults.pages_promoted)
            .count("pages_demoted", sim.faults.pages_demoted)
            .count("walk_p50", sim.latency.walk.p50())
            .count("walk_p99", sim.latency.walk.p99())
            .count("shootdown_p99", sim.latency.shootdown.p99())
    };
    let mut out = ScenarioReport::new("host_report");
    out.push(sim_row(Row::new("scope", "host", "model"), &report.host));
    out.push(
        Row::new("scope", "migration", "model")
            .count(
                "migrations_completed",
                report.migration.migrations_completed,
            )
            .count("precopy_rounds", report.migration.precopy_rounds)
            .count("pages_copied", report.migration.pages_copied)
            .count("downtime_cycles", report.migration.downtime_cycles)
            .count("migration_remaps", report.migration.migration_remaps)
            .count(
                "balloon_reclaimed_pages",
                report.migration.balloon_reclaimed_pages,
            ),
    );
    for (slot, sim) in report.per_vm.iter().enumerate() {
        out.push(sim_row(
            Row::new("scope", &format!("vm{slot}"), "model"),
            sim,
        ));
    }
    out
}

/// Steps `at` down to the nearest char boundary of `s`.
fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// `None` when the two reports are byte-identical (their `Debug`
/// renderings — the strongest equality the determinism tests assert).
/// Otherwise a labeled summary: the diverging metrics by name (first
/// divergence first, via the diff observatory at tolerance 0), or — if
/// every summarised metric agrees and only a deeper field differs — a
/// window around the first differing byte of the two renderings.
pub fn divergence_summary(a: &HostReport, b: &HostReport) -> Option<String> {
    let (blob_a, blob_b) = (format!("{a:?}"), format!("{b:?}"));
    if blob_a == blob_b {
        return None;
    }
    let exact = DiffOptions {
        tolerance: 0.0,
        gated_only: false,
    };
    let diff = diff_reports(&metric_rows(a), &metric_rows(b), &[], exact);
    let diverged: Vec<String> = diff
        .deltas
        .iter()
        .filter(|d| d.a != d.b)
        .map(|d| format!("  {} {}: a={} b={}", d.row, d.metric, d.a, d.b))
        .collect();
    if !diverged.is_empty() {
        return Some(format!(
            "{} metric(s) diverged (first listed first):\n{}",
            diverged.len(),
            diverged.join("\n")
        ));
    }
    let at = blob_a
        .bytes()
        .zip(blob_b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| blob_a.len().min(blob_b.len()));
    let from = floor_char_boundary(&blob_a, at.saturating_sub(80));
    let to_a = floor_char_boundary(&blob_a, at + 80);
    let to_b = floor_char_boundary(&blob_b, at + 80);
    Some(format!(
        "no summarised metric moved; reports first differ at byte {at}:\n  a: …{}…\n  b: …{}…",
        &blob_a[from..to_a],
        &blob_b[from..to_b.min(blob_b.len())]
    ))
}

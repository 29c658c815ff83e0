//! The consolidated-host interference experiment.
//!
//! One aggressor VM (big-memory workload, footprint ≫ its die-stacked
//! quota, so the hypervisor remaps pages continuously) shares a host with
//! remap-free victim VMs, with more vCPUs than physical CPUs so the VMs
//! genuinely time-share CPUs.  Under software shootdowns every aggressor
//! remap IPIs all CPUs the aggressor ever ran on; the victims occupying
//! those CPUs eat VM exits and full TLB flushes.  Under HATRIC the same
//! remaps touch only the directory-listed sharer CPUs with co-tag
//! invalidations that never interrupt the running guest, so victim
//! slowdown collapses to (near) the ideal bound.

use hatric::metrics::HostReport;
use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::SchedPolicy;

use crate::config::{HostConfig, VmSpec};

/// Sizing of the multi-VM experiment.
#[derive(Debug, Clone, Copy)]
pub struct MultiVmParams {
    /// Physical CPUs of the host.
    pub num_pcpus: usize,
    /// Total die-stacked capacity in 4 KiB pages.
    pub fast_pages: u64,
    /// vCPUs of the aggressor VM.
    pub aggressor_vcpus: usize,
    /// Number of victim VMs.
    pub victims: usize,
    /// vCPUs of each victim VM.
    pub victim_vcpus: usize,
    /// Unmeasured warmup slices.
    pub warmup_slices: u64,
    /// Measured slices.
    pub measured_slices: u64,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Master seed.
    pub seed: u64,
    /// Worker threads of the parallel slice engine (results are
    /// bit-identical for any value; only wall clock changes).
    pub threads: usize,
    /// Aggressor workload scale as a fraction of its die-stacked quota.
    /// The aggressor's footprint is `footprint_vs_fast() ×` this scale, so
    /// raising the factor raises its paging — and remap — rate while
    /// leaving the machine and the victims untouched.
    pub aggressor_footprint_factor: f64,
}

impl MultiVmParams {
    /// The sizing used by the benchmark harness: a 4-VM host (1 aggressor +
    /// 3 victims, 8 vCPUs over 4 pCPUs, round-robin) big enough for
    /// steady-state paging.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            num_pcpus: 4,
            fast_pages: 2_048,
            aggressor_vcpus: 2,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 600,
            measured_slices: 1_200,
            slice_accesses: 40,
            sched: SchedPolicy::RoundRobin,
            seed: hatric::DEFAULT_SEED,
            threads: 1,
            aggressor_footprint_factor: 1.0,
        }
    }

    /// Returns a copy with the given aggressor footprint factor.
    #[must_use]
    pub fn with_aggressor_footprint_factor(mut self, factor: f64) -> Self {
        self.aggressor_footprint_factor = factor;
        self
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            num_pcpus: 4,
            fast_pages: 512,
            aggressor_vcpus: 2,
            victims: 3,
            victim_vcpus: 2,
            warmup_slices: 200,
            measured_slices: 300,
            slice_accesses: 25,
            sched: SchedPolicy::RoundRobin,
            seed: 0x7e57,
            threads: 1,
            aggressor_footprint_factor: 1.0,
        }
    }

    /// The host configuration this sizing describes, under `mechanism`.
    #[must_use]
    pub fn host_config(&self, mechanism: CoherenceMechanism) -> HostConfig {
        // The aggressor gets half the fast device; the victims split the
        // rest.  Victim footprints fit their quotas, so victims never remap.
        let aggressor_quota = self.fast_pages / 2;
        let victim_quota = (self.fast_pages - aggressor_quota) / self.victims.max(1) as u64;
        let mut aggressor = VmSpec::aggressor(self.aggressor_vcpus, aggressor_quota);
        aggressor.workload_scale_pages =
            ((aggressor_quota as f64 * self.aggressor_footprint_factor).max(1.0)) as u64;
        let mut cfg = HostConfig::scaled(self.num_pcpus, self.fast_pages)
            .with_mechanism(mechanism)
            .with_sched(self.sched)
            .with_slice_accesses(self.slice_accesses)
            .with_threads(self.threads)
            .with_seed(self.seed)
            .with_vm(aggressor);
        for _ in 0..self.victims {
            cfg = cfg.with_vm(VmSpec::victim(self.victim_vcpus, victim_quota));
        }
        cfg
    }
}

/// The outcome of one mechanism's consolidated-host run.
#[derive(Debug, Clone)]
pub struct MultiVmRow {
    /// Mechanism under test.
    pub mechanism: CoherenceMechanism,
    /// The full host report.
    pub report: HostReport,
    /// Mean victim runtime in cycles (victims are slots 1..).
    pub victim_runtime: f64,
    /// Mean victim runtime normalised to the same victims under
    /// [`CoherenceMechanism::Ideal`] (1.0 = no coherence-induced slowdown).
    pub victim_slowdown_vs_ideal: f64,
    /// Total cycles stolen from victim vCPUs by aggressor coherence.
    pub victim_disrupted_cycles: u64,
    /// Remaps the aggressor performed.
    pub aggressor_remaps: u64,
    /// Wall-clock milliseconds of the run (machine-dependent, ungated).
    pub elapsed_ms: f64,
    /// Measured accesses per wall-clock second (machine-dependent, ungated).
    pub accesses_per_sec: f64,
}

/// Mean victim runtime of a host report (victims are slots `1..`).
fn mean_victim_runtime(report: &HostReport) -> f64 {
    let victims = &report.per_vm[1..];
    if victims.is_empty() {
        return 0.0;
    }
    victims
        .iter()
        .map(|r| r.runtime_cycles() as f64)
        .sum::<f64>()
        / victims.len() as f64
}

/// Runs the experiment under all four mechanisms and returns one row per
/// mechanism in presentation order (ideal last; victim slowdowns are
/// normalised to it after all runs complete).
///
/// # Panics
///
/// Panics if the derived host configuration is invalid (it never is for the
/// built-in parameter sets).
#[must_use]
pub fn run(params: &MultiVmParams) -> Vec<MultiVmRow> {
    let mechanisms = [
        CoherenceMechanism::Software,
        CoherenceMechanism::UnitdPlusPlus,
        CoherenceMechanism::Hatric,
        CoherenceMechanism::Ideal,
    ];
    let reports: Vec<(CoherenceMechanism, crate::experiments::TimedReport)> = mechanisms
        .iter()
        .map(|&mechanism| {
            (
                mechanism,
                crate::experiments::run_host_timed(
                    params.host_config(mechanism),
                    params.warmup_slices,
                    params.measured_slices,
                ),
            )
        })
        .collect();
    let ideal_victim = reports
        .iter()
        .find(|(m, _)| *m == CoherenceMechanism::Ideal)
        .map(|(_, t)| mean_victim_runtime(&t.report))
        .unwrap_or(0.0);
    reports
        .into_iter()
        .map(|(mechanism, timed)| {
            let report = timed.report;
            let victim_runtime = mean_victim_runtime(&report);
            MultiVmRow {
                mechanism,
                victim_runtime,
                victim_slowdown_vs_ideal: if ideal_victim == 0.0 {
                    0.0
                } else {
                    victim_runtime / ideal_victim
                },
                victim_disrupted_cycles: report.per_vm[1..]
                    .iter()
                    .map(|r| r.interference.disrupted_cycles)
                    .sum(),
                aggressor_remaps: report.per_vm[0].coherence.remaps,
                report,
                elapsed_ms: timed.elapsed_ms,
                accesses_per_sec: timed.accesses_per_sec,
            }
        })
        .collect()
}

/// Formats the rows as the table the example and bench print.
#[must_use]
pub fn format_table(rows: &[MultiVmRow]) -> String {
    let mut out = String::from(
        "mechanism    victim-slowdown  victim-disrupted-cycles  aggressor-remaps  ipis  vm-exits\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>15.3} {:>24} {:>17} {:>5} {:>9}\n",
            format!("{:?}", row.mechanism),
            row.victim_slowdown_vs_ideal,
            row.victim_disrupted_cycles,
            row.aggressor_remaps,
            row.report.host.coherence.ipis,
            row.report.host.coherence.coherence_vm_exits,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootdown_disrupts_victims_and_hatric_does_not() {
        let rows = run(&MultiVmParams::quick());
        assert_eq!(rows.len(), 4);
        let by = |m: CoherenceMechanism| rows.iter().find(|r| r.mechanism == m).unwrap();
        let sw = by(CoherenceMechanism::Software);
        let hatric = by(CoherenceMechanism::Hatric);
        let ideal = by(CoherenceMechanism::Ideal);
        assert!(sw.aggressor_remaps > 0, "aggressor must page");
        assert!(
            sw.victim_disrupted_cycles > 0,
            "software shootdowns must disturb victims"
        );
        assert_eq!(hatric.victim_disrupted_cycles, 0);
        assert_eq!(ideal.victim_disrupted_cycles, 0);
        assert!(
            sw.victim_slowdown_vs_ideal > hatric.victim_slowdown_vs_ideal,
            "software victim slowdown {} must exceed hatric's {}",
            sw.victim_slowdown_vs_ideal,
            hatric.victim_slowdown_vs_ideal
        );
        assert!(
            hatric.victim_slowdown_vs_ideal < 1.05,
            "hatric victims must stay within 5% of ideal, got {}",
            hatric.victim_slowdown_vs_ideal
        );
    }
}

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

#[cfg(test)]
mod tests {
    use crate::scenario::{find, Params, Scale};

    #[test]
    fn shootdown_disrupts_victims_and_hatric_does_not() {
        let report = find("multivm")
            .unwrap()
            .run(&Params::new(), Scale::Smoke)
            .unwrap();
        // `moderate` runs the smoke sizing's own aggressor footprint (1.0).
        let rows = report.rows.iter().filter(|r| r.label() == "moderate");
        assert_eq!(rows.count(), 4);
        let value = |mechanism: &str, key: &str| {
            report
                .find("moderate", mechanism)
                .and_then(|row| row.number(key))
                .unwrap()
        };
        let slowdown = |mechanism| value(mechanism, "victim_slowdown_vs_ideal");
        let disrupted = |mechanism| value(mechanism, "victim_disrupted_cycles");
        assert!(
            value("Software", "aggressor_remaps") > 0.0,
            "aggressor must page"
        );
        assert!(
            disrupted("Software") > 0.0,
            "software shootdowns must disturb victims"
        );
        assert_eq!(disrupted("Hatric"), 0.0);
        assert_eq!(disrupted("Ideal"), 0.0);
        assert!(
            slowdown("Software") > slowdown("Hatric"),
            "software victim slowdown {} must exceed hatric's {}",
            slowdown("Software"),
            slowdown("Hatric")
        );
        assert!(
            slowdown("Hatric") < 1.05,
            "hatric victims must stay within 5% of ideal, got {}",
            slowdown("Hatric")
        );
    }
}

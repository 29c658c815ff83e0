//! The simulator-throughput scaling experiment (`host_scale`).
//!
//! Unlike every other experiment, the subject here is the *simulator*, not
//! the simulated hardware: one HATRIC consolidated-host configuration is
//! executed at several vCPU counts, and each run records both its **model
//! metrics** and its **wall-clock throughput** in accesses per second.
//!
//! `scenarios check` gates the model metrics against the committed
//! `BENCH_scale.json`; the timing columns are machine-dependent and never
//! gated.

use hatric_coherence::CoherenceMechanism;
use hatric_hypervisor::SchedPolicy;
use hatric_workloads::WorkloadKind;

use crate::config::{HostConfig, VmSpec};

/// vCPUs per VM in the scaling host (VM count = total vCPUs / this).
const VCPUS_PER_VM: usize = 4;

/// Sizing of the host-scale experiment.
#[derive(Debug, Clone, Copy)]
pub struct HostScaleParams {
    /// Smallest total vCPU count of the sweep.
    pub vcpus_min: usize,
    /// Largest total vCPU count of the sweep (each point doubles).
    pub vcpus_max: usize,
    /// Die-stacked pages per vCPU.
    pub fast_pages_per_vcpu: u64,
    /// Unmeasured warmup slices.
    pub warmup_slices: u64,
    /// Measured slices.
    pub measured_slices: u64,
    /// Accesses per scheduled vCPU per slice.
    pub slice_accesses: u64,
    /// Master seed.
    pub seed: u64,
}

impl HostScaleParams {
    /// The sizing the benchmark harness uses: 8 → 32 vCPUs.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            vcpus_min: 8,
            vcpus_max: 32,
            fast_pages_per_vcpu: 128,
            warmup_slices: 150,
            measured_slices: 250,
            slice_accesses: 50,
            seed: hatric::DEFAULT_SEED,
        }
    }

    /// A much smaller sizing for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            vcpus_min: 8,
            vcpus_max: 8,
            fast_pages_per_vcpu: 64,
            warmup_slices: 60,
            measured_slices: 90,
            slice_accesses: 25,
            seed: 0x7e57,
        }
    }

    /// The sweep's total-vCPU points: doubling from `vcpus_min` to
    /// `vcpus_max` inclusive.
    #[must_use]
    pub fn vcpu_points(&self) -> Vec<usize> {
        let mut points = Vec::new();
        let mut v = self.vcpus_min.max(VCPUS_PER_VM);
        while v < self.vcpus_max {
            points.push(v);
            v *= 2;
        }
        points.push(self.vcpus_max);
        points.dedup();
        points
    }

    /// The host configuration for one sweep point: `vcpus / 4` VMs of 4
    /// vCPUs each (one paging aggressor, the rest remap-free victims) on
    /// `vcpus` physical CPUs under HATRIC.
    ///
    /// `_threads` is unused: a host runs on one thread.  The parameter is
    /// kept for `perfbench`, which calls `host_config(32, 1)`.
    #[must_use]
    pub fn host_config(&self, vcpus: usize, _threads: usize) -> HostConfig {
        let vms = (vcpus / VCPUS_PER_VM).max(1);
        let fast_pages = self.fast_pages_per_vcpu * vcpus as u64;
        let quota = fast_pages / vms as u64;
        let mut cfg = HostConfig::scaled(vcpus, fast_pages)
            .with_mechanism(CoherenceMechanism::Hatric)
            .with_sched(SchedPolicy::Pinned)
            .with_slice_accesses(self.slice_accesses)
            .with_seed(self.seed);
        for slot in 0..vms {
            let spec = if slot == 0 {
                VmSpec::aggressor(VCPUS_PER_VM, quota)
            } else {
                VmSpec {
                    workload: WorkloadKind::SmallFootprint,
                    ..VmSpec::victim(VCPUS_PER_VM, quota)
                }
            };
            cfg = cfg.with_vm(spec);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_double_and_deduplicate() {
        let p = HostScaleParams::default_scale();
        assert_eq!(p.vcpu_points(), vec![8, 16, 32]);
        let q = HostScaleParams::quick();
        assert_eq!(q.vcpu_points(), vec![8]);
    }
}

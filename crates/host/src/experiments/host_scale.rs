//! The simulator-throughput scaling experiment (`host_scale`).
//!
//! Unlike every other experiment, the subject here is the *simulator*, not
//! the simulated hardware: one consolidated-host configuration is executed
//! at several vCPU counts and several slice-engine thread counts, and each
//! run records both its **model metrics** (which must be bit-identical
//! across thread counts — the engine's determinism contract) and its
//! **wall-clock throughput** in accesses per second.
//!
//! `bench_check` gates the model metrics against the committed
//! `BENCH_scale.json` *and* asserts that rows differing only in their
//! thread count carry identical model metrics; the timing columns are
//! machine-dependent and never gated.

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
    /// Largest slice-engine thread count of the sweep (each point doubles
    /// from 1).
    pub threads_max: usize,
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
    /// The sizing the benchmark harness uses: 8 → 32 vCPUs, 1 → 4 threads.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            vcpus_min: 8,
            vcpus_max: 32,
            threads_max: 4,
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
            threads_max: 4,
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

    /// The sweep's thread points: doubling from 1 to `threads_max`
    /// inclusive.
    #[must_use]
    pub fn thread_points(&self) -> Vec<usize> {
        let mut points = vec![1];
        let mut t = 2;
        while t <= self.threads_max {
            points.push(t);
            t *= 2;
        }
        points
    }

    /// The host configuration for one sweep point: `vcpus / 4` VMs of 4
    /// vCPUs each (one paging aggressor, the rest remap-free victims) on
    /// `vcpus` physical CPUs under HATRIC, simulated on `threads` workers.
    #[must_use]
    pub fn host_config(&self, vcpus: usize, threads: usize) -> HostConfig {
        let vms = (vcpus / VCPUS_PER_VM).max(1);
        let fast_pages = self.fast_pages_per_vcpu * vcpus as u64;
        let quota = fast_pages / vms as u64;
        let mut cfg = HostConfig::scaled(vcpus, fast_pages)
            .with_mechanism(CoherenceMechanism::Hatric)
            .with_sched(SchedPolicy::Pinned)
            .with_slice_accesses(self.slice_accesses)
            .with_threads(threads)
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
    use crate::host::ConsolidatedHost;

    #[test]
    fn sweep_points_double_and_deduplicate() {
        let p = HostScaleParams::default_scale();
        assert_eq!(p.vcpu_points(), vec![8, 16, 32]);
        assert_eq!(p.thread_points(), vec![1, 2, 4]);
        let q = HostScaleParams::quick();
        assert_eq!(q.vcpu_points(), vec![8]);
    }

    #[test]
    fn model_metrics_are_identical_across_thread_counts() {
        let params = HostScaleParams::quick();
        let mut runs = Vec::new();
        for vcpus in params.vcpu_points() {
            for threads in params.thread_points() {
                let mut host = ConsolidatedHost::new(params.host_config(vcpus, threads)).unwrap();
                let report = host.run(params.warmup_slices, params.measured_slices);
                runs.push((vcpus, threads, report));
            }
        }
        assert_eq!(runs.len(), 3, "8 vCPUs x threads {{1,2,4}}");
        let (base_vcpus, _, base) = &runs[0];
        assert!(base.host.accesses > 0);
        for (vcpus, threads, report) in &runs[1..] {
            assert_eq!(vcpus, base_vcpus);
            assert_eq!(report, base, "threads={threads} diverged from threads=1");
        }
    }
}

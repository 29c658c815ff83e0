//! The single-VM run every figure of the paper is made of.

use hatric_coherence::{CoherenceMechanism, DesignVariant};
use hatric_hypervisor::HypervisorKind;
use hatric_workloads::{MixWorkload, SpecMix, Workload, WorkloadKind};

use crate::config::{MemoryMode, PagingKnobs, SystemConfig};
use crate::driver::WorkloadDriver;
use crate::metrics::SimReport;
use crate::system::System;

/// Sizing of an experiment run: how far the system is scaled down and how
/// long the traces are.  All figures use the same scaling so their results
/// are comparable; tests use [`ExperimentParams::quick`] and the benchmark
/// harness uses [`ExperimentParams::default_scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// vCPUs of the VM (and physical CPUs of the machine).
    pub vcpus: usize,
    /// Die-stacked capacity in 4 KiB pages (off-chip is 4× this).
    pub fast_pages: u64,
    /// Unmeasured warmup accesses per thread.
    pub warmup: u64,
    /// Measured accesses per thread.
    pub measured: u64,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// The sizing used by the benchmark harness: 16 vCPUs, an 8 MiB
    /// die-stacked device (1/256 of the paper's 2 GiB, with the LLC and
    /// workload footprints scaled identically), and traces long enough for
    /// steady-state paging.
    #[must_use]
    pub fn default_scale() -> Self {
        Self {
            vcpus: 16,
            fast_pages: 2_048,
            warmup: 3_000,
            measured: 6_000,
            seed: crate::config::DEFAULT_SEED,
        }
    }

    /// A much smaller sizing for unit/integration tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            vcpus: 4,
            fast_pages: 256,
            warmup: 1_000,
            measured: 1_500,
            seed: 0x7e57,
        }
    }

    /// Returns a copy with a different vCPU count.
    #[must_use]
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.vcpus = vcpus;
        self
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self::default_scale()
    }
}

/// Everything that varies between two runs of the same figure.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload under test.
    pub workload: WorkloadKind,
    /// Translation-coherence mechanism.
    pub mechanism: CoherenceMechanism,
    /// Memory mode (no-hbm / inf-hbm / paged).
    pub memory_mode: MemoryMode,
    /// Paging-policy knobs.
    pub paging: PagingKnobs,
    /// Translation-structure scale factor.
    pub structure_scale: usize,
    /// Co-tag width in bytes.
    pub cotag_bytes: u8,
    /// Directory design variant.
    pub variant: DesignVariant,
    /// Hypervisor flavour.
    pub hypervisor: HypervisorKind,
}

impl RunSpec {
    /// A paged-memory run of `workload` under `mechanism` with the paper's
    /// default knobs.
    #[must_use]
    pub fn new(workload: WorkloadKind, mechanism: CoherenceMechanism) -> Self {
        Self {
            workload,
            mechanism,
            memory_mode: MemoryMode::Paged,
            paging: PagingKnobs::best(),
            structure_scale: 1,
            cotag_bytes: 2,
            variant: DesignVariant::Baseline,
            hypervisor: HypervisorKind::Kvm,
        }
    }

    /// Returns a copy with the given memory mode.
    #[must_use]
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Returns a copy with the given paging knobs.
    #[must_use]
    pub fn with_paging(mut self, paging: PagingKnobs) -> Self {
        self.paging = paging;
        self
    }

    /// Returns a copy with the given structure scale.
    #[must_use]
    pub fn with_structure_scale(mut self, scale: usize) -> Self {
        self.structure_scale = scale;
        self
    }

    /// Returns a copy with the given co-tag width.
    #[must_use]
    pub fn with_cotag_bytes(mut self, bytes: u8) -> Self {
        self.cotag_bytes = bytes;
        self
    }

    /// Returns a copy with the given directory variant.
    #[must_use]
    pub fn with_variant(mut self, variant: DesignVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with the given hypervisor flavour.
    #[must_use]
    pub fn with_hypervisor(mut self, hypervisor: HypervisorKind) -> Self {
        self.hypervisor = hypervisor;
        self
    }

    fn config(&self, params: &ExperimentParams) -> SystemConfig {
        let mut cfg = SystemConfig::scaled(params.vcpus, params.fast_pages)
            .with_mechanism(self.mechanism)
            .with_memory_mode(self.memory_mode)
            .with_paging(self.paging)
            .with_structure_scale(self.structure_scale)
            .with_cotag_bytes(self.cotag_bytes)
            .with_variant(self.variant)
            .with_hypervisor(self.hypervisor);
        cfg.seed = params.seed;
        cfg
    }
}

/// Runs one workload/mechanism combination and returns its report.
///
/// # Panics
///
/// Panics if the derived configuration is invalid (it never is for the
/// built-in parameter sets).
#[must_use]
pub fn execute(spec: &RunSpec, params: &ExperimentParams) -> SimReport {
    let config = spec.config(params);
    let mut system = System::new(config).expect("experiment configurations are valid");
    let workload = Workload::build(spec.workload, params.vcpus, params.fast_pages, params.seed);
    let mut driver = WorkloadDriver::from(workload);
    system.run(&mut driver, params.warmup, params.measured)
}

/// Runs one workload/mechanism combination with sim-time tracing enabled
/// and returns the report alongside the Chrome trace-event JSON document.
///
/// # Panics
///
/// Panics if the derived configuration is invalid (it never is for the
/// built-in parameter sets).
#[must_use]
pub fn execute_traced(
    spec: &RunSpec,
    params: &ExperimentParams,
    trace_capacity: usize,
) -> (SimReport, String) {
    let config = spec.config(params);
    let mut system = System::new(config).expect("experiment configurations are valid");
    system.enable_tracing(trace_capacity);
    let workload = Workload::build(spec.workload, params.vcpus, params.fast_pages, params.seed);
    let mut driver = WorkloadDriver::from(workload);
    let report = system.run(&mut driver, params.warmup, params.measured);
    let trace = system.export_trace().expect("tracing was enabled above");
    (report, trace)
}

/// Runs one multiprogrammed mix (Fig. 10) and returns its report.
///
/// # Panics
///
/// Panics if the derived configuration is invalid.
#[must_use]
pub fn execute_mix(
    mix: &SpecMix,
    mechanism: CoherenceMechanism,
    memory_mode: MemoryMode,
    params: &ExperimentParams,
) -> SimReport {
    let vcpus = mix.apps.len();
    let mut cfg = SystemConfig::scaled(vcpus, params.fast_pages)
        .with_mechanism(mechanism)
        .with_memory_mode(memory_mode)
        .with_paging(PagingKnobs::best());
    cfg.seed = params.seed;
    let mut system = System::new(cfg).expect("experiment configurations are valid");
    let workload = MixWorkload::build(mix.clone(), params.fast_pages, params.seed);
    let mut driver = WorkloadDriver::from(workload);
    system.run(&mut driver, params.warmup, params.measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_params_are_smaller_than_default() {
        let quick = ExperimentParams::quick();
        let full = ExperimentParams::default_scale();
        assert!(quick.vcpus < full.vcpus);
        assert!(quick.fast_pages < full.fast_pages);
        assert!(quick.measured < full.measured);
    }

    #[test]
    fn runspec_builders_compose() {
        let spec = RunSpec::new(WorkloadKind::Canneal, CoherenceMechanism::Hatric)
            .with_cotag_bytes(3)
            .with_structure_scale(2)
            .with_memory_mode(MemoryMode::NoHbm);
        assert_eq!(spec.cotag_bytes, 3);
        assert_eq!(spec.structure_scale, 2);
        assert_eq!(spec.memory_mode, MemoryMode::NoHbm);
        let cfg = spec.config(&ExperimentParams::quick());
        cfg.validate().unwrap();
    }
}

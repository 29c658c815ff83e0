//! The four workloads, built from the seed through the simulator's public
//! API, and the per-workload output checks.

use hatric::experiments::common::execute;
use hatric::metrics::{HostReport, MigrationStats, SimReport};
use hatric::{
    CpuId, ExperimentParams, MemoryMode, PagingKnobs, RunSpec, System, SystemConfig, VcpuId,
    WorkloadDriver,
};
use hatric_cluster::{Cluster, ClusterReport, RecoveryStats};
use hatric_coherence::{CoherenceMechanism, DesignVariant};
use hatric_host::experiments::{ClusterFaultsParams, HostScaleParams, MultiVmParams};
use hatric_host::{ConsolidatedHost, HostConfig};
use hatric_hypervisor::HypervisorKind;
use hatric_workloads::{Workload as AppWorkload, WorkloadKind};

use crate::fleet::{build_traced_fleet, SpanHost};

/// `host32`: the `host_scale` sweep's 32-vCPU point, measured slices.
const HOST32_WARMUP_SLICES: u64 = 150;
const HOST32_MEASURED_SLICES: u64 = 600;
/// `remap_storm`: the multivm severe point, per mechanism.
const STORM_WARMUP_SLICES: u64 = 600;
const STORM_MEASURED_SLICES: u64 = 1_200;
const STORM_FOOTPRINT_FACTOR: f64 = 2.0;
/// `fleet_storm`: twice the committed cluster-faults length, with the
/// hosts on one thread.  On two threads the machine takes CPU time away
/// from one of the two busy CPUs (steal) for a minute at a time, which no
/// calibration sees: ten runs spread by up to 0.22 of their median.
const FLEET_WARMUP_EPOCHS: u64 = 40;
const FLEET_MEASURED_EPOCHS: u64 = 60;
const FLEET_THREADS: usize = 1;
/// `single_vm`: Fig. 7's 16-vCPU canneal point, accesses per thread.
const SINGLE_VM_VCPUS: usize = 16;
const SINGLE_VM_WARMUP: u64 = 3_000;
const SINGLE_VM_MEASURED: u64 = 24_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Host32,
    RemapStorm,
    FleetStorm,
    SingleVm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Host32,
        Workload::RemapStorm,
        Workload::FleetStorm,
        Workload::SingleVm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Host32 => "host32",
            Workload::RemapStorm => "remap_storm",
            Workload::FleetStorm => "fleet_storm",
            Workload::SingleVm => "single_vm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations one run of the workload performs, in order.
    pub fn legs(self, seed: u64) -> Vec<Leg> {
        match self {
            Workload::Host32 => {
                let params = HostScaleParams {
                    seed,
                    ..HostScaleParams::default_scale()
                };
                vec![Leg::Host {
                    config: params.host_config(32, 1),
                    warmup: HOST32_WARMUP_SLICES,
                    measured: HOST32_MEASURED_SLICES,
                }]
            }
            Workload::RemapStorm => {
                let params = MultiVmParams {
                    seed,
                    ..MultiVmParams::default_scale()
                }
                .with_aggressor_footprint_factor(STORM_FOOTPRINT_FACTOR);
                [CoherenceMechanism::Software, CoherenceMechanism::Hatric]
                    .map(|m| Leg::Host {
                        config: params.host_config(m),
                        warmup: STORM_WARMUP_SLICES,
                        measured: STORM_MEASURED_SLICES,
                    })
                    .to_vec()
            }
            Workload::FleetStorm => {
                let mut params = ClusterFaultsParams::default_scale();
                params.base.seed = seed;
                params.base.threads = FLEET_THREADS;
                params.base.warmup_epochs = FLEET_WARMUP_EPOCHS;
                params.base.measured_epochs = FLEET_MEASURED_EPOCHS;
                // Churn departures and hand-offs race the engineered crash:
                // with churn on, about one seed in ten ends the storm with a
                // single abort.  Without it, all 43 seeds scanned kept the
                // storm whole.
                params.base.churn_period = 0;
                // Zero would switch the background fault plan off.
                params.fault_seed = (seed ^ params.fault_seed).max(1);
                vec![Leg::Fleet {
                    params,
                    mechanism: CoherenceMechanism::Software,
                }]
            }
            Workload::SingleVm => {
                let params = ExperimentParams {
                    seed,
                    warmup: SINGLE_VM_WARMUP,
                    measured: SINGLE_VM_MEASURED,
                    ..ExperimentParams::default_scale().with_vcpus(SINGLE_VM_VCPUS)
                };
                [CoherenceMechanism::Software, CoherenceMechanism::Hatric]
                    .map(|mechanism| Leg::Vm { params, mechanism })
                    .to_vec()
            }
        }
    }
}

/// One simulation of a workload: a system under one mechanism, with its
/// warmup and measured lengths.
#[derive(Debug, Clone)]
pub enum Leg {
    Host {
        config: HostConfig,
        warmup: u64,
        measured: u64,
    },
    Fleet {
        params: ClusterFaultsParams,
        mechanism: CoherenceMechanism,
    },
    Vm {
        params: ExperimentParams,
        mechanism: CoherenceMechanism,
    },
}

/// The canneal run of Fig. 7 under `mechanism`, as
/// [`RunSpec::new`] configures it.
fn vm_config(params: &ExperimentParams, mechanism: CoherenceMechanism) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(params.vcpus, params.fast_pages)
        .with_mechanism(mechanism)
        .with_memory_mode(MemoryMode::Paged)
        .with_paging(PagingKnobs::best())
        .with_structure_scale(1)
        .with_cotag_bytes(2)
        .with_variant(DesignVariant::Baseline)
        .with_hypervisor(HypervisorKind::Kvm);
    cfg.seed = params.seed;
    cfg
}

impl Leg {
    pub fn mechanism(&self) -> CoherenceMechanism {
        match self {
            Leg::Host { config, .. } => config.mechanism,
            Leg::Fleet { mechanism, .. } | Leg::Vm { mechanism, .. } => *mechanism,
        }
    }

    pub fn warmup(&self) -> u64 {
        match self {
            Leg::Host { warmup, .. } => *warmup,
            Leg::Fleet { params, .. } => params.base.warmup_epochs,
            Leg::Vm { params, .. } => params.warmup,
        }
    }

    pub fn measured(&self) -> u64 {
        match self {
            Leg::Host { measured, .. } => *measured,
            Leg::Fleet { params, .. } => params.base.measured_epochs,
            Leg::Vm { params, .. } => params.measured,
        }
    }

    /// Builds the system, unwarmed.  `traced` wraps fleet hosts so the
    /// cluster's calls into them can be timed.
    pub fn build(&self, traced: bool) -> Sim {
        match self {
            Leg::Host { config, .. } => Sim::Host(
                ConsolidatedHost::new(config.clone()).expect("benchmark host configs are valid"),
            ),
            Leg::Fleet { params, mechanism } if traced => {
                Sim::SpanFleet(build_traced_fleet(params, *mechanism))
            }
            Leg::Fleet { params, mechanism } => Sim::Fleet(params.build_cluster(*mechanism)),
            Leg::Vm { params, mechanism } => {
                let system = System::new(vm_config(params, *mechanism))
                    .expect("benchmark system configs are valid");
                let driver = WorkloadDriver::from(AppWorkload::build(
                    WorkloadKind::Canneal,
                    params.vcpus,
                    params.fast_pages,
                    params.seed,
                ));
                Sim::Vm { system, driver }
            }
        }
    }

    /// The library's own `run(warmup, measured)` for this leg: the
    /// reference every stepped run must reproduce exactly.
    pub fn reference(&self) -> Report {
        match self {
            Leg::Host {
                config,
                warmup,
                measured,
            } => Report::Host(
                ConsolidatedHost::new(config.clone())
                    .expect("benchmark host configs are valid")
                    .run(*warmup, *measured),
            ),
            Leg::Fleet { params, mechanism } => Report::Fleet(
                params
                    .build_cluster(*mechanism)
                    .run(params.base.warmup_epochs, params.base.measured_epochs),
            ),
            Leg::Vm { params, mechanism } => Report::Vm(execute(
                &RunSpec::new(WorkloadKind::Canneal, *mechanism),
                params,
            )),
        }
    }
}

/// A built system, advanced one step at a time.  A run holds one per leg,
/// so the variants' size difference costs nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    Host(ConsolidatedHost),
    Fleet(Cluster<ConsolidatedHost>),
    SpanFleet(Cluster<SpanHost>),
    Vm {
        system: System,
        driver: WorkloadDriver,
    },
}

/// The CPU and address space a single-VM thread's access runs in.
pub fn vm_target(
    system: &System,
    driver: &WorkloadDriver,
    thread: usize,
) -> (CpuId, hatric_types::AddressSpaceId) {
    let vm = system.virtual_machine();
    (
        vm.cpu_of(VcpuId::new(thread as u32)),
        vm.address_space(driver.address_space_index(thread)),
    )
}

/// Guest threads a single-VM round issues one access each for.
pub fn vm_threads(system: &System, driver: &WorkloadDriver) -> usize {
    driver.thread_count().min(system.config().vcpus)
}

impl Sim {
    /// One step: a scheduler slice, a cluster epoch, or one access on
    /// every guest thread of the single VM.
    pub fn step(&mut self) {
        match self {
            Sim::Host(host) => host.run_slices(1),
            Sim::Fleet(cluster) => cluster.run_epochs(1),
            Sim::SpanFleet(cluster) => cluster.run_epochs(1),
            Sim::Vm { system, driver } => {
                for thread in 0..vm_threads(system, driver) {
                    let access = driver.next_access(thread);
                    let (cpu, asid) = vm_target(system, driver, thread);
                    system.step(cpu, asid, access);
                }
            }
        }
    }

    pub fn reset(&mut self) {
        match self {
            Sim::Host(host) => host.reset_measurements(),
            Sim::Fleet(cluster) => cluster.reset_measurements(),
            Sim::SpanFleet(cluster) => cluster.reset_measurements(),
            Sim::Vm { system, .. } => system.reset_measurements(),
        }
    }

    pub fn report(&self) -> Report {
        match self {
            Sim::Host(host) => Report::Host(host.report()),
            Sim::Fleet(cluster) => Report::Fleet(cluster.report()),
            Sim::SpanFleet(cluster) => Report::Fleet(cluster.report()),
            Sim::Vm { system, .. } => Report::Vm(system.report()),
        }
    }
}

/// A leg's model report.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    Host(HostReport),
    Fleet(ClusterReport),
    Vm(SimReport),
}

impl Report {
    /// The host-level reports: one per host (the single VM's own report
    /// for `System`).  Translation and cache statistics live only here.
    pub fn parts(&self) -> Vec<&SimReport> {
        match self {
            Report::Host(r) => vec![&r.host],
            Report::Fleet(r) => r.per_host.iter().map(|h| &h.host).collect(),
            Report::Vm(r) => vec![r],
        }
    }

    pub fn migration(&self) -> MigrationStats {
        match self {
            Report::Host(r) => r.migration,
            Report::Fleet(r) => r.migration,
            Report::Vm(_) => MigrationStats::default(),
        }
    }

    pub fn recovery(&self) -> RecoveryStats {
        match self {
            Report::Fleet(r) => r.recovery,
            _ => RecoveryStats::default(),
        }
    }

    pub fn completed_migrations(&self) -> u64 {
        match self {
            Report::Fleet(r) => r.completed_migrations(),
            _ => self.migration().migrations_completed,
        }
    }

    pub fn accesses(&self) -> u64 {
        self.parts().iter().map(|p| p.accesses).sum()
    }

    /// Simulated runtime: the critical path over the report's CPUs.
    pub fn runtime_cycles(&self) -> u64 {
        match self {
            Report::Fleet(r) => r.aggregate.runtime_cycles(),
            _ => self.parts()[0].runtime_cycles(),
        }
    }
}

/// Mean runtime of a host's victim VMs (every slot after the aggressor).
fn mean_victim_runtime(report: &HostReport) -> f64 {
    let victims = &report.per_vm[1..];
    victims
        .iter()
        .map(|r| r.runtime_cycles() as f64)
        .sum::<f64>()
        / victims.len().max(1) as f64
}

/// Checks the workload's invariants on one run's reports (one per leg, in
/// leg order) and returns a message per violated invariant.
pub fn check_invariants(workload: Workload, legs: &[Leg], reports: &[Report]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    match (workload, reports) {
        (Workload::Host32, [Report::Host(r)]) => {
            let Leg::Host { config, .. } = &legs[0] else {
                unreachable!("host32 has one host leg")
            };
            let vcpus: u64 = config.vms.iter().map(|v| v.vcpus as u64).sum();
            let want = legs[0].measured() * vcpus * config.slice_accesses;
            expect(
                r.host.accesses == want,
                format!("host32: {} accesses, expected {want}", r.host.accesses),
            );
            let c = r.host.coherence;
            expect(c.ipis == 0, format!("host32: HATRIC sent {} IPIs", c.ipis));
            expect(
                c.full_flushes == 0,
                format!("host32: HATRIC did {} full flushes", c.full_flushes),
            );
            expect(
                r.total_disrupted_cycles() == 0,
                format!(
                    "host32: HATRIC disrupted victims for {} cycles",
                    r.total_disrupted_cycles()
                ),
            );
        }
        (Workload::RemapStorm, [Report::Host(sw), Report::Host(hatric)]) => {
            expect(
                sw.per_vm[0].coherence.remaps > 0,
                "remap_storm: the aggressor did not remap".into(),
            );
            let disrupted: u64 = hatric.per_vm[1..]
                .iter()
                .map(|r| r.interference.disrupted_cycles)
                .sum();
            expect(
                disrupted == 0,
                format!("remap_storm: HATRIC disrupted victims for {disrupted} cycles"),
            );
            let (sw_victim, hw_victim) = (mean_victim_runtime(sw), mean_victim_runtime(hatric));
            expect(
                hw_victim < sw_victim,
                format!(
                    "remap_storm: HATRIC victim runtime {hw_victim} not below software's {sw_victim}"
                ),
            );
        }
        (Workload::FleetStorm, [Report::Fleet(r)]) => {
            let rec = r.recovery;
            expect(
                rec.host_crashes == 1,
                format!("fleet_storm: {} crashes, expected 1", rec.host_crashes),
            );
            expect(
                rec.migrations_aborted >= 2,
                format!(
                    "fleet_storm: {} aborts, expected >= 2",
                    rec.migrations_aborted
                ),
            );
            expect(
                rec.migrations_escalated >= 1,
                format!(
                    "fleet_storm: {} escalations, expected >= 1",
                    rec.migrations_escalated
                ),
            );
            expect(
                rec.vm_restarts >= 1,
                format!("fleet_storm: {} restarts, expected >= 1", rec.vm_restarts),
            );
        }
        (Workload::SingleVm, [Report::Vm(sw), Report::Vm(hatric)]) => {
            let want = legs[0].measured() * SINGLE_VM_VCPUS as u64;
            for (r, label) in [(sw, "software"), (hatric, "HATRIC")] {
                expect(
                    r.accesses == want,
                    format!(
                        "single_vm: {label} ran {} accesses, expected {want}",
                        r.accesses
                    ),
                );
            }
            expect(
                hatric.runtime_cycles() <= sw.runtime_cycles(),
                format!(
                    "single_vm: HATRIC runtime {} exceeds software's {}",
                    hatric.runtime_cycles(),
                    sw.runtime_cycles()
                ),
            );
        }
        _ => expect(
            false,
            format!("{}: unexpected report shape", workload.name()),
        ),
    }
    failures
}

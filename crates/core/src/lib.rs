//! # hatric
//!
//! A trace-driven simulator reproducing **"Hardware Translation Coherence
//! for Virtualized Systems"** (Yan, Cox, Veselý, Bhattacharjee — ISCA 2017,
//! arXiv:1701.07517).
//!
//! HATRIC eliminates the software TLB-shootdown path that virtualized
//! systems use when the hypervisor remaps pages (e.g. to manage die-stacked
//! DRAM): instead of IPIs, VM exits and full flushes of the TLBs, MMU
//! caches and nested TLBs, every translation-structure entry carries a
//! *co-tag* — a truncated system-physical address of the nested page-table
//! entry it came from — and the existing cache-coherence protocol forwards
//! invalidations for page-table cache lines to the translation structures,
//! which drop exactly the stale entries.
//!
//! This crate is the public API of the reproduction.  It wires the
//! substrate crates (page tables, translation structures, cache/directory
//! coherence, DRAM devices, hypervisor paging, coherence protocols, energy
//! model, workload generators) into a [`System`] that can be driven by
//! synthetic workloads, and provides an [`experiments`] module with one
//! runner per figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use hatric::{CoherenceMechanism, SystemConfig, System, WorkloadDriver};
//! use hatric_workloads::{Workload, WorkloadKind};
//!
//! # fn main() -> Result<(), hatric_types::SimError> {
//! // A small virtualized machine with die-stacked + off-chip DRAM.
//! let config = SystemConfig::scaled(4, 256).with_mechanism(CoherenceMechanism::Hatric);
//! let mut system = System::new(config.clone())?;
//!
//! // Run a canneal-like workload: 4 guest threads, footprint ~2x the
//! // die-stacked capacity, so the hypervisor pages continuously.
//! let workload = Workload::build(WorkloadKind::Canneal, 4, config.fast_capacity_pages(), 42);
//! let mut driver = WorkloadDriver::from(workload);
//! let report = system.run(&mut driver, 500, 500);
//!
//! assert!(report.runtime_cycles() > 0);
//! // HATRIC never sends IPIs or takes VM exits for translation coherence.
//! assert_eq!(report.coherence.ipis, 0);
//! assert_eq!(report.coherence.coherence_vm_exits, 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod driver;
pub mod experiments;
pub mod metrics;
mod pipeline;
pub mod platform;
pub mod system;
pub mod vm_instance;
pub mod worker_pool;

pub use config::{
    CoherenceMechanismExt, LatencyConfig, MemoryMode, PagingKnobs, SystemConfig, DEFAULT_SEED,
};
pub use driver::WorkloadDriver;
pub use experiments::{ExperimentParams, RunSpec};
pub use metrics::{
    CoherenceActivity, FaultActivity, HostReport, InterferenceActivity, MigrationStats,
    NumaActivity, SimReport,
};
pub use platform::{Platform, WriteObserver};
pub use system::System;
pub use vm_instance::{VmInstance, VmPagingParams};
pub use worker_pool::WorkerPool;

// Re-export the vocabulary users need to drive the simulator without
// importing every substrate crate explicitly.
pub use hatric_coherence::{CoherenceCosts, CoherenceMechanism, DesignVariant};
pub use hatric_hypervisor::{HypervisorKind, NumaPolicy, PagingPolicyKind};
pub use hatric_memory::{LinkConfig, MemoryKind, NumaConfig};
pub use hatric_telemetry as telemetry;
pub use hatric_tlb::StructureSizes;
pub use hatric_types::{CpuId, GuestFrame, GuestVirtPage, SocketId, SystemFrame, VcpuId, VmId};
pub use hatric_workloads::{SpecMix, Workload, WorkloadKind};

//! # hatric-host
//!
//! A consolidated-host simulator for the HATRIC reproduction: **N virtual
//! machines running concurrently** over one shared cache hierarchy, one
//! HATRIC coherence directory, one two-level memory system and a pool of
//! physical CPUs, with a vCPU→pCPU scheduler that supports oversubscription.
//!
//! The paper's premise is cloud consolidation: hypervisors page memory
//! under many co-located VMs, and the software translation-coherence path
//! (IPIs, VM exits, full TLB flushes) taxes *every* CPU a remapping VM has
//! ever touched — including CPUs currently running other tenants.  The
//! single-VM [`hatric::System`] cannot express that; this crate can:
//!
//! * [`HostConfig`] / [`VmSpec`] describe the platform and the co-located
//!   VMs (per-VM die-stacked quotas, workloads, vCPU counts).
//! * [`ConsolidatedHost`] schedules the VMs' vCPUs in time slices over the
//!   shared [`hatric::Platform`] and runs the same per-access pipeline the
//!   single-VM simulator uses.
//! * Per-VM [`hatric::SimReport`]s plus the host-level
//!   [`hatric::metrics::HostReport`] quantify interference: cycles stolen
//!   from victim VMs, disruptive events received, and victim slowdown
//!   versus the ideal-coherence bound.
//! * [`experiments`] holds each host and fleet experiment's sizing and the
//!   machine it describes (e.g. [`experiments::MultiVmParams`], the
//!   aggressor/victim host the `multivm` scenario sweeps).
//! * The [`scenario`] layer is the **single entry point to every
//!   experiment**: a [`scenario::Scenario`] trait + static
//!   [`scenario::registry`], a uniform [`scenario::ScenarioReport`] schema
//!   shared by every `BENCH_*.json`, and the `scenarios` CLI binary
//!   (`cargo run -p hatric-host --bin scenarios -- --list`).
//!
//! ```
//! use hatric_coherence::CoherenceMechanism;
//! use hatric_host::{ConsolidatedHost, HostConfig, VmSpec};
//!
//! # fn main() -> Result<(), hatric_types::SimError> {
//! // Two VMs time-sharing 2 CPUs: a paging-heavy aggressor and a victim
//! // whose working set fits its die-stacked quota.
//! let config = HostConfig::scaled(2, 256)
//!     .with_mechanism(CoherenceMechanism::Hatric)
//!     .with_vm(VmSpec::aggressor(1, 128))
//!     .with_vm(VmSpec::victim(2, 128));
//! let mut host = ConsolidatedHost::new(config)?;
//! let report = host.run(100, 100);
//! // Under HATRIC, a remap-free victim is never disrupted.
//! assert_eq!(report.per_vm[1].interference.disrupted_cycles, 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod diff;
pub mod experiments;
pub mod host;
pub mod scenario;

pub use config::{HostConfig, HostConfigBuilder, VmSpec, VmSpecBuilder};
pub use diff::{DiffOptions, DiffReport};
pub use host::ConsolidatedHost;
pub use scenario::{Params, Scale, Scenario, ScenarioReport};

// Re-export the vocabulary needed to drive a host without importing every
// substrate crate explicitly.
pub use hatric::metrics::{
    HostReport, InterferenceActivity, MigrationStats, NumaActivity, SimReport,
};
pub use hatric::{LinkConfig, NumaConfig};
pub use hatric_coherence::CoherenceMechanism;
pub use hatric_hypervisor::{NumaPolicy, Placement, SchedPolicy, Scheduler};
pub use hatric_migration::{BalloonParams, HostEvent, MigrationParams, MigrationPhase};
pub use hatric_types::ConfigError;
pub use hatric_workloads::WorkloadKind;

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
//! * [`check`] is the reproduction checker behind `scenarios check`: each
//!   scenario's declared claims ([`scenario::Scenario::claims`]) and the
//!   exact gate over the committed `BENCH_*.json` baselines.
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

pub mod check;
pub mod config;
pub mod diff;
pub mod experiments;
pub mod host;
pub mod scenario;

pub use config::{HostConfig, VmSpec};
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

#[cfg(test)]
mod tests {
    use crate::check::{baseline_path, diff_against_baseline};
    use crate::scenario::{find, parse_json_records, record_field, registry, Params, Row, Scale};

    #[test]
    fn baseline_paths_cover_exactly_the_gated_scenarios() {
        for scenario in registry() {
            let path = baseline_path(scenario.name());
            assert_eq!(
                path.is_some(),
                scenario.baseline_stem().is_some(),
                "{}: baseline_path must mirror baseline_stem",
                scenario.name()
            );
            if let (Some(path), Some(stem)) = (path, scenario.baseline_stem()) {
                assert!(
                    path.ends_with(&format!("BENCH_{stem}.json")),
                    "{path} must end in BENCH_{stem}.json"
                );
            }
        }
        assert!(baseline_path("no_such_scenario").is_none());
    }

    /// Model output must not depend on the build profile.  Release builds
    /// (whole-program optimised, see `.cargo/config.toml`) are the only
    /// ones that regenerate and gate the baselines; this reproduces one
    /// committed baseline in whatever profile the tests build in (the dev
    /// profile: opt-level 1 with debug assertions and overflow checks).
    #[test]
    fn xen_baseline_reproduces_exactly_in_the_test_profile() {
        let scenario = find("xen").unwrap();
        let report = scenario.run(&Params::new(), Scale::Bench).unwrap();
        let diff = diff_against_baseline(scenario, &report).unwrap();
        assert!(
            diff.passed() && diff.extra.is_empty(),
            "xen drifted from BENCH_xen.json:\n{}",
            diff.format_text()
        );
        let gated = report.rows.len() * scenario.gated_metrics().len();
        assert_eq!(diff.deltas.len(), gated, "every gated metric is compared");
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let row = Row::new("scenario", "precopy", "Software")
            .count("downtime_cycles", 987_654)
            .ratio("victim_slowdown_vs_ideal", 1.25);
        let json = format!("[\n  {}\n]\n", row.to_json());
        let parsed = parse_json_records(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(record_field(&parsed[0], "scenario"), Some("precopy"));
        assert_eq!(record_field(&parsed[0], "mechanism"), Some("Software"));
        assert_eq!(record_field(&parsed[0], "downtime_cycles"), Some("987654"));
        assert_eq!(
            record_field(&parsed[0], "victim_slowdown_vs_ideal"),
            Some("1.250000")
        );
        assert_eq!(record_field(&parsed[0], "missing"), None);
    }

    #[test]
    fn parser_handles_multiple_records_and_garbage() {
        let text = "[\n  {\"a\":\"x\",\"n\":1},\n  {\"a\":\"y\",\"n\":2}\n]\n";
        let parsed = parse_json_records(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(record_field(&parsed[1], "a"), Some("y"));
        assert!(parse_json_records("not json at all").is_empty());
        assert!(parse_json_records("").is_empty());
    }

    #[test]
    fn committed_baselines_parse_and_match_the_registry_schema() {
        // Every gated scenario's committed baseline must exist and its
        // records must carry the scenario's gated metrics — the regression
        // gate fails closed otherwise.
        for scenario in registry() {
            let Some(path) = baseline_path(scenario.name()) else {
                continue;
            };
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));
            let records = parse_json_records(&text);
            assert!(!records.is_empty(), "{path} has no records");
            for record in &records {
                // The trailing environment-metadata record is ungated by
                // design: machine-dependent, no mechanism, no metrics.
                if record_field(record, "meta").is_some() {
                    continue;
                }
                assert!(record_field(record, "mechanism").is_some());
                for metric in scenario.gated_metrics() {
                    assert!(
                        record_field(record, metric).is_some(),
                        "{path}: record lacks gated metric {metric}"
                    );
                }
            }
        }
    }
}

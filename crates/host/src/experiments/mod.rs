//! Experiment runners built on the consolidated host.

pub mod cluster_churn;
pub mod cluster_faults;
pub mod host_scale;
pub mod migration_storm;
pub mod multivm;
pub mod numa_contention;

pub use cluster_churn::{ClusterChurnParams, ClusterChurnRow};
pub use cluster_faults::{ClusterFaultsParams, ClusterFaultsRow};
pub use host_scale::{HostScaleParams, HostScaleRow};
pub use migration_storm::{MigrationStormParams, MigrationStormRow};
pub use multivm::{MultiVmParams, MultiVmRow};
pub use numa_contention::{NumaContentionParams, NumaContentionRow};

use hatric::metrics::HostReport;

use crate::config::HostConfig;
use crate::host::ConsolidatedHost;

/// One host run plus its wall-clock measurement.  The timing fields are
/// machine-dependent and therefore **never gated** by `bench_check`; they
/// ride along in every report row for trajectory tracking.
#[derive(Debug, Clone)]
pub struct TimedReport {
    /// The model's report (deterministic).
    pub report: HostReport,
    /// Wall-clock milliseconds of the whole run (warmup + measured).
    pub elapsed_ms: f64,
    /// Measured guest accesses divided by the wall-clock seconds of the
    /// whole run — the simulator-throughput figure the `host_scale`
    /// scenario sweeps across thread counts.
    pub accesses_per_sec: f64,
}

/// Builds a host from `config` and runs it, measuring wall clock.
///
/// # Panics
///
/// Panics if `config` is invalid (experiment parameter sets never are).
pub(crate) fn run_host_timed(config: HostConfig, warmup: u64, measured: u64) -> TimedReport {
    let mut host = ConsolidatedHost::new(config).expect("experiment configurations are valid");
    let start = std::time::Instant::now();
    let report = host.run(warmup, measured);
    let elapsed = start.elapsed();
    let accesses_per_sec = if elapsed.as_secs_f64() > 0.0 {
        report.host.accesses as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    TimedReport {
        report,
        elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
        accesses_per_sec,
    }
}

// The paper's figures run from one table in `crate::scenario`; these
// modules pin each figure's paper axes in that table.

#[cfg(test)]
mod fig7 {
    mod tests {
        use crate::scenario::sweep_axes;

        #[test]
        fn sweep_covers_paper_vcpu_counts() {
            let points = sweep_axes("fig7", 0).points;
            assert_eq!(points.len(), 3);
            for ((suffix, vcpus, _), paper) in points.into_iter().zip([4, 8, 16]) {
                assert_eq!((suffix, vcpus), (&*format!("/v{paper}"), Some(paper)));
            }
        }
    }
}

#[cfg(test)]
mod fig8 {
    mod tests {
        use hatric::PagingKnobs;

        use crate::scenario::sweep_axes;

        #[test]
        fn three_policies_match_paper_labels() {
            let policies: Vec<_> = sweep_axes("fig8", 0)
                .points
                .into_iter()
                .map(|(suffix, _, spec)| (suffix, spec.paging))
                .collect();
            let paper = PagingKnobs::fig8_sweep();
            assert_eq!(
                policies,
                [
                    ("/lru", paper[0]),
                    ("/&mig-dmn", paper[1]),
                    ("/&pref.", paper[2])
                ]
            );
        }
    }
}

#[cfg(test)]
mod fig9 {
    mod tests {
        use crate::scenario::sweep_axes;

        #[test]
        fn sweep_is_1_2_4() {
            let points = sweep_axes("fig9", 0).points;
            assert_eq!(points.len(), 3);
            for ((suffix, _, spec), scale) in points.into_iter().zip([1, 2, 4]) {
                assert_eq!(
                    (suffix, spec.structure_scale),
                    (&*format!("/{scale}x"), scale)
                );
            }
        }
    }
}

#[cfg(test)]
mod fig11 {
    mod tests {
        use hatric::WorkloadKind;

        use crate::scenario::sweep_axes;

        #[test]
        fn scatter_includes_small_footprint_class() {
            let scatter = sweep_axes("fig11", 0).subjects;
            assert!(scatter.contains(&WorkloadKind::SmallFootprint));
            assert_eq!(scatter.len(), 6);
        }

        #[test]
        fn cotag_sweep_is_1_2_3_bytes() {
            let points = sweep_axes("fig11", 1).points;
            assert_eq!(points.len(), 3);
            for ((suffix, _, spec), bytes) in points.into_iter().zip([1, 2, 3]) {
                assert_eq!(
                    (suffix, spec.cotag_bytes),
                    (&*format!("cotag{bytes}B"), bytes)
                );
            }
        }
    }
}

#[cfg(test)]
mod fig12 {
    mod tests {
        use hatric_coherence::DesignVariant;

        use crate::scenario::sweep_axes;

        #[test]
        fn all_variants_have_labels() {
            let designs = sweep_axes("fig12", 0).points;
            assert_eq!(designs.len(), DesignVariant::all().len());
            for ((suffix, _, spec), variant) in designs.into_iter().zip(DesignVariant::all()) {
                assert!(!variant.label().is_empty());
                assert_eq!((suffix, spec.variant), (variant.label(), variant));
            }
        }
    }
}

#[cfg(test)]
mod xen {
    mod tests {
        use crate::scenario::sweep_axes;

        #[test]
        fn xen_workloads_match_the_paper() {
            let labels: Vec<&str> = sweep_axes("xen", 0)
                .subjects
                .iter()
                .map(|w| w.label())
                .collect();
            assert_eq!(labels, ["canneal", "data caching"]);
        }
    }
}

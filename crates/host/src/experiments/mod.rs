//! The sizings of the host and fleet experiments: each family's typed
//! parameters and the machine they describe.  The scenario layer
//! ([`crate::scenario`]) sweeps them under every mechanism and emits the
//! rows.

pub mod cluster_churn;
pub mod cluster_faults;
pub mod host_scale;
pub mod migration_storm;
pub mod multivm;
pub mod numa_contention;

pub use cluster_churn::ClusterChurnParams;
pub use cluster_faults::ClusterFaultsParams;
pub use host_scale::HostScaleParams;
pub use migration_storm::MigrationStormParams;
pub use multivm::MultiVmParams;
pub use numa_contention::NumaContentionParams;

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

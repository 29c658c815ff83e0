//! The named workloads of the paper's evaluation, expressed as stream
//! parameters relative to the die-stacked DRAM capacity.

use crate::stream::{Access, StreamParams, ThreadStream};

/// The multithreaded workloads used throughout the evaluation (Sec. 5.3),
/// plus a representative small-footprint workload class used for the energy
/// study of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// PARSEC canneal: large footprint, pointer-chasing with moderate
    /// locality; benefits substantially from die-stacked bandwidth.
    Canneal,
    /// CloudSuite data caching (memcached-like): footprint far exceeding
    /// die-stacked capacity with nearly uniform key popularity — the worst
    /// case for paging and translation coherence.
    DataCaching,
    /// graph500 BFS: big, irregular, low locality, bandwidth hungry.
    Graph500,
    /// CloudSuite tunkrank (graph analytics on Twitter data): large
    /// footprint, modest locality.
    Tunkrank,
    /// PARSEC facesim: moderately sized working set with strong locality.
    Facesim,
    /// A small-footprint workload whose data fits in die-stacked DRAM
    /// (stands in for the remaining PARSEC/SPEC applications of Fig. 11).
    SmallFootprint,
}

impl WorkloadKind {
    /// The five big-memory workloads shown in Figs. 2 and 7–9 and 13, in the
    /// paper's presentation order.
    #[must_use]
    pub fn big_memory_suite() -> [WorkloadKind; 5] {
        [
            WorkloadKind::Canneal,
            WorkloadKind::DataCaching,
            WorkloadKind::Graph500,
            WorkloadKind::Tunkrank,
            WorkloadKind::Facesim,
        ]
    }

    /// Figure label used in the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Canneal => "canneal",
            WorkloadKind::DataCaching => "data caching",
            WorkloadKind::Graph500 => "graph500",
            WorkloadKind::Tunkrank => "tunkrank",
            WorkloadKind::Facesim => "facesim",
            WorkloadKind::SmallFootprint => "small-footprint",
        }
    }

    /// Memory footprint as a multiple of die-stacked DRAM capacity.
    #[must_use]
    pub fn footprint_vs_fast(self) -> f64 {
        match self {
            WorkloadKind::Canneal => 2.0,
            WorkloadKind::DataCaching => 3.6,
            WorkloadKind::Graph500 => 2.6,
            WorkloadKind::Tunkrank => 3.0,
            WorkloadKind::Facesim => 1.6,
            WorkloadKind::SmallFootprint => 0.6,
        }
    }

    /// The data footprint (in 4 KiB pages) that [`Workload::build`] will
    /// generate for this kind at the given scale and thread count — the
    /// capacity ratio floored at 16 pages per thread.  Exposed so sizing
    /// code (e.g. per-VM die-stacked quotas on a consolidated host) shares
    /// one formula with the generator instead of re-deriving it.
    #[must_use]
    pub fn footprint_pages(self, fast_capacity_pages: u64, threads: usize) -> u64 {
        ((fast_capacity_pages as f64 * self.footprint_vs_fast()) as u64).max(threads as u64 * 16)
    }

    /// Zipf skew of page popularity (higher = hotter hot set).
    #[must_use]
    pub fn theta(self) -> f64 {
        match self {
            WorkloadKind::Canneal => 0.55,
            WorkloadKind::DataCaching => 0.15,
            WorkloadKind::Graph500 => 0.30,
            WorkloadKind::Tunkrank => 0.35,
            WorkloadKind::Facesim => 0.75,
            WorkloadKind::SmallFootprint => 0.70,
        }
    }

    /// Mean spatial run length (consecutive near-by accesses).
    #[must_use]
    pub fn run_length(self) -> u32 {
        match self {
            WorkloadKind::Canneal => 3,
            WorkloadKind::DataCaching => 6,
            WorkloadKind::Graph500 => 2,
            WorkloadKind::Tunkrank => 3,
            WorkloadKind::Facesim => 8,
            WorkloadKind::SmallFootprint => 6,
        }
    }

    /// Fraction of accesses that are stores.
    #[must_use]
    pub fn write_fraction(self) -> f64 {
        match self {
            WorkloadKind::Canneal => 0.30,
            WorkloadKind::DataCaching => 0.10,
            WorkloadKind::Graph500 => 0.20,
            WorkloadKind::Tunkrank => 0.25,
            WorkloadKind::Facesim => 0.35,
            WorkloadKind::SmallFootprint => 0.30,
        }
    }

    /// Fraction of accesses that go to data shared by all threads.
    #[must_use]
    pub fn shared_fraction(self) -> f64 {
        match self {
            WorkloadKind::Canneal => 0.45,
            WorkloadKind::DataCaching => 0.70,
            WorkloadKind::Graph500 => 0.60,
            WorkloadKind::Tunkrank => 0.55,
            WorkloadKind::Facesim => 0.25,
            WorkloadKind::SmallFootprint => 0.30,
        }
    }

    /// Average compute cycles between memory accesses (memory intensity).
    #[must_use]
    pub fn compute_cycles(self) -> u32 {
        match self {
            WorkloadKind::Canneal => 8,
            WorkloadKind::DataCaching => 6,
            WorkloadKind::Graph500 => 4,
            WorkloadKind::Tunkrank => 6,
            WorkloadKind::Facesim => 14,
            WorkloadKind::SmallFootprint => 16,
        }
    }

    /// Size of each thread's phased working window, as a multiple of
    /// die-stacked capacity (per VM, across threads).  Workloads whose
    /// windows exceed die-stacked capacity keep the hypervisor paging
    /// continuously; the others only page when the window drifts.
    #[must_use]
    pub fn window_vs_fast(self) -> f64 {
        match self {
            WorkloadKind::Canneal => 0.60,
            WorkloadKind::DataCaching => 0.72,
            WorkloadKind::Graph500 => 0.66,
            WorkloadKind::Tunkrank => 0.70,
            WorkloadKind::Facesim => 0.48,
            WorkloadKind::SmallFootprint => 0.40,
        }
    }

    /// Number of page draws between one-page drifts of the working window
    /// (smaller = faster phase changes = more page migrations).
    #[must_use]
    pub fn drift_interval(self) -> u32 {
        match self {
            WorkloadKind::Canneal => 2_000,
            WorkloadKind::DataCaching => 200,
            WorkloadKind::Graph500 => 1_300,
            WorkloadKind::Tunkrank => 500,
            WorkloadKind::Facesim => 3_000,
            WorkloadKind::SmallFootprint => 10_000,
        }
    }
}

/// The fully resolved parameters of one workload instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// Number of guest threads (one per vCPU).
    pub threads: usize,
    /// Total data footprint in 4 KiB pages.
    pub footprint_pages: u64,
    /// First guest-virtual page of the workload's data region.
    pub region_base: u64,
    /// Zipf skew.
    pub theta: f64,
    /// Mean spatial run length.
    pub run_length: u32,
    /// Store fraction.
    pub write_fraction: f64,
    /// Fraction of accesses to shared data.
    pub shared_fraction: f64,
    /// Compute cycles between accesses.
    pub compute_cycles: u32,
    /// Per-thread working-window size in pages (0 = whole region).
    pub window_pages: u64,
    /// Page draws between window drifts (0 = static window).
    pub drift_interval_draws: u32,
    /// Whether each thread sweeps its whole private region once at start-up
    /// (initialisation phase), which brings die-stacked memory to
    /// steady-state occupancy during warmup.
    pub prefault_sweep: bool,
}

/// A running workload: one access stream per thread.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    streams: Vec<ThreadStream>,
}

impl Workload {
    /// Builds a workload of `kind` with `threads` threads, sized for a
    /// die-stacked DRAM of `fast_capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn build(kind: WorkloadKind, threads: usize, fast_capacity_pages: u64, seed: u64) -> Self {
        assert!(threads > 0, "a workload needs at least one thread");
        let footprint_pages = kind.footprint_pages(fast_capacity_pages, threads);
        // The VM-wide window is split across the shared and private regions
        // in proportion to how accesses are split, so each thread's stream
        // gets a window that collectively covers `window_vs_fast` of fast
        // capacity.
        let vm_window = (fast_capacity_pages as f64 * kind.window_vs_fast()) as u64;
        let per_thread_window = (vm_window / threads as u64).max(8);
        let spec = WorkloadSpec {
            kind,
            threads,
            footprint_pages,
            region_base: 0x100,
            theta: kind.theta(),
            run_length: kind.run_length(),
            write_fraction: kind.write_fraction(),
            shared_fraction: kind.shared_fraction(),
            compute_cycles: kind.compute_cycles(),
            window_pages: per_thread_window,
            drift_interval_draws: kind.drift_interval(),
            prefault_sweep: true,
        };
        Self::from_spec(spec, seed)
    }

    /// Builds a workload from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spec declares zero threads.
    #[must_use]
    pub fn from_spec(spec: WorkloadSpec, seed: u64) -> Self {
        assert!(spec.threads > 0, "a workload needs at least one thread");
        let shared_pages = (spec.footprint_pages as f64 * spec.shared_fraction) as u64;
        let private_total = spec.footprint_pages - shared_pages;
        let per_thread = (private_total / spec.threads as u64).max(1);
        let shared_base = spec.region_base;
        let private_base = shared_base + shared_pages;
        let streams = (0..spec.threads)
            .map(|t| {
                ThreadStream::new(
                    StreamParams {
                        private_base: private_base + t as u64 * per_thread,
                        private_pages: per_thread,
                        shared_base,
                        shared_pages,
                        shared_fraction: spec.shared_fraction,
                        theta: spec.theta,
                        run_length: spec.run_length,
                        write_fraction: spec.write_fraction,
                        compute_cycles: spec.compute_cycles,
                        // The shared region is touched by every thread, so
                        // the VM-wide shared window is `threads ×` larger
                        // than each thread's private one; using the same
                        // per-thread window for both keeps the combined
                        // resident set near the intended multiple of fast
                        // capacity.
                        window_pages: spec.window_pages,
                        drift_interval_draws: spec.drift_interval_draws,
                        sweep_pages: if spec.prefault_sweep { per_thread } else { 0 },
                    },
                    seed.wrapping_mul(0x9e37_79b9).wrapping_add(t as u64),
                )
            })
            .collect();
        Self { spec, streams }
    }

    /// The resolved parameters.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.streams.len()
    }

    /// Generates the next access of thread `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn next_access(&mut self, thread: usize) -> Access {
        self.streams[thread].next_access()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_memory_suite_has_five_members() {
        assert_eq!(WorkloadKind::big_memory_suite().len(), 5);
    }

    #[test]
    fn footprints_exceed_fast_memory_for_big_workloads() {
        for kind in WorkloadKind::big_memory_suite() {
            assert!(kind.footprint_vs_fast() > 1.0, "{kind:?}");
        }
        assert!(WorkloadKind::SmallFootprint.footprint_vs_fast() < 1.0);
    }

    #[test]
    fn data_caching_has_least_locality() {
        for kind in WorkloadKind::big_memory_suite() {
            if kind != WorkloadKind::DataCaching {
                assert!(kind.theta() > WorkloadKind::DataCaching.theta());
            }
        }
    }

    #[test]
    fn build_respects_thread_count_and_footprint() {
        let wl = Workload::build(WorkloadKind::Canneal, 8, 4_096, 1);
        assert_eq!(wl.threads(), 8);
        assert_eq!(wl.spec().footprint_pages, (4_096.0 * 2.0) as u64);
    }

    #[test]
    fn threads_access_disjoint_private_regions() {
        let mut wl = Workload::build(WorkloadKind::Facesim, 2, 2_048, 3);
        let shared_pages = (wl.spec().footprint_pages as f64 * wl.spec().shared_fraction) as u64;
        let shared_end = wl.spec().region_base + shared_pages;
        let mut t0_private = Vec::new();
        let mut t1_private = Vec::new();
        for _ in 0..2_000 {
            let a0 = wl.next_access(0);
            let a1 = wl.next_access(1);
            if a0.gvp.number() >= shared_end {
                t0_private.push(a0.gvp.number());
            }
            if a1.gvp.number() >= shared_end {
                t1_private.push(a1.gvp.number());
            }
        }
        // Allow the small spill-over from sequential runs at region edges.
        let t0_max = t0_private.iter().max().copied().unwrap_or(0);
        let t1_min = t1_private.iter().min().copied().unwrap_or(u64::MAX);
        assert!(
            t0_max < t1_min + 64,
            "private regions overlap: t0 max {t0_max} vs t1 min {t1_min}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Workload::build(WorkloadKind::Canneal, 0, 1_024, 1);
    }
}

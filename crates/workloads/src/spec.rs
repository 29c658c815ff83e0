//! SPEC-like single-threaded applications used to build the Fig. 10
//! multiprogrammed mixes.

use crate::stream::StreamParams;

/// A catalogue of single-threaded applications with SPEC-CPU-like memory
/// behaviour.  The absolute identities do not matter for the reproduction;
/// what matters is the *spread* of footprints, localities and memory
/// intensities, because Fig. 10 shows that applications with little to gain
/// from die-stacked bandwidth are the ones most hurt by imprecise
/// translation-coherence targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecApp {
    Perlbench,
    Bzip2,
    Gcc,
    Mcf,
    Milc,
    Namd,
    Gobmk,
    Soplex,
    Povray,
    Hmmer,
    Sjeng,
    Libquantum,
    H264ref,
    Lbm,
    Omnetpp,
    Astar,
    Sphinx3,
    Xalancbmk,
    GemsFDTD,
    Leslie3d,
}

impl SpecApp {
    /// Every application in the catalogue.
    #[must_use]
    pub fn all() -> [SpecApp; 20] {
        use SpecApp::*;
        [
            Perlbench, Bzip2, Gcc, Mcf, Milc, Namd, Gobmk, Soplex, Povray, Hmmer, Sjeng,
            Libquantum, H264ref, Lbm, Omnetpp, Astar, Sphinx3, Xalancbmk, GemsFDTD, Leslie3d,
        ]
    }

    /// Short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpecApp::Perlbench => "perlbench",
            SpecApp::Bzip2 => "bzip2",
            SpecApp::Gcc => "gcc",
            SpecApp::Mcf => "mcf",
            SpecApp::Milc => "milc",
            SpecApp::Namd => "namd",
            SpecApp::Gobmk => "gobmk",
            SpecApp::Soplex => "soplex",
            SpecApp::Povray => "povray",
            SpecApp::Hmmer => "hmmer",
            SpecApp::Sjeng => "sjeng",
            SpecApp::Libquantum => "libquantum",
            SpecApp::H264ref => "h264ref",
            SpecApp::Lbm => "lbm",
            SpecApp::Omnetpp => "omnetpp",
            SpecApp::Astar => "astar",
            SpecApp::Sphinx3 => "sphinx3",
            SpecApp::Xalancbmk => "xalancbmk",
            SpecApp::GemsFDTD => "gemsfdtd",
            SpecApp::Leslie3d => "leslie3d",
        }
    }

    /// Footprint as a fraction of die-stacked DRAM capacity (per instance).
    #[must_use]
    pub fn footprint_vs_fast(self) -> f64 {
        match self {
            SpecApp::Mcf | SpecApp::Lbm | SpecApp::GemsFDTD => 0.45,
            SpecApp::Milc | SpecApp::Soplex | SpecApp::Omnetpp | SpecApp::Leslie3d => 0.30,
            SpecApp::Gcc | SpecApp::Astar | SpecApp::Sphinx3 | SpecApp::Xalancbmk => 0.18,
            SpecApp::Bzip2 | SpecApp::Libquantum | SpecApp::Hmmer => 0.10,
            SpecApp::Perlbench | SpecApp::Gobmk | SpecApp::Sjeng | SpecApp::H264ref => 0.05,
            SpecApp::Namd | SpecApp::Povray => 0.03,
        }
    }

    /// Zipf skew of the application's page popularity.
    #[must_use]
    pub fn theta(self) -> f64 {
        match self {
            SpecApp::Mcf | SpecApp::Omnetpp | SpecApp::Xalancbmk => 0.25,
            SpecApp::Milc | SpecApp::Lbm | SpecApp::GemsFDTD | SpecApp::Leslie3d => 0.35,
            SpecApp::Gcc | SpecApp::Soplex | SpecApp::Astar | SpecApp::Sphinx3 => 0.55,
            _ => 0.75,
        }
    }

    /// Memory intensity: average compute cycles between memory accesses.
    /// Low values are bandwidth-hungry codes that benefit from die stacking;
    /// high values have little memory-level parallelism and mostly suffer
    /// the coherence overheads.
    #[must_use]
    pub fn compute_cycles(self) -> u32 {
        match self {
            SpecApp::Mcf | SpecApp::Lbm | SpecApp::Milc | SpecApp::Libquantum => 4,
            SpecApp::GemsFDTD | SpecApp::Leslie3d | SpecApp::Soplex | SpecApp::Omnetpp => 8,
            SpecApp::Gcc | SpecApp::Astar | SpecApp::Sphinx3 | SpecApp::Xalancbmk => 14,
            SpecApp::Bzip2 | SpecApp::Hmmer | SpecApp::H264ref => 22,
            SpecApp::Perlbench
            | SpecApp::Gobmk
            | SpecApp::Sjeng
            | SpecApp::Namd
            | SpecApp::Povray => 30,
        }
    }

    /// Store fraction.
    #[must_use]
    pub fn write_fraction(self) -> f64 {
        match self {
            SpecApp::Bzip2 | SpecApp::Gcc | SpecApp::Lbm => 0.35,
            SpecApp::Libquantum | SpecApp::Milc => 0.15,
            _ => 0.25,
        }
    }

    /// Stream parameters for one instance of this application, given the
    /// die-stacked capacity in pages and the virtual region to occupy.
    #[must_use]
    pub fn stream_params(self, fast_capacity_pages: u64, region_base: u64) -> StreamParams {
        let pages = ((fast_capacity_pages as f64 * self.footprint_vs_fast()) as u64).max(32);
        StreamParams {
            private_base: region_base,
            private_pages: pages,
            shared_base: 0,
            shared_pages: 0,
            shared_fraction: 0.0,
            theta: self.theta(),
            run_length: 4,
            write_fraction: self.write_fraction(),
            compute_cycles: self.compute_cycles(),
            // Single-threaded SPEC codes cycle through phased working sets
            // roughly half their footprint in size; memory-intensive codes
            // change phase faster.
            window_pages: (pages / 2).max(16),
            drift_interval_draws: 150 + self.compute_cycles() * 40,
            sweep_pages: pages,
        }
    }

    /// Number of pages the instance occupies for a given fast capacity.
    #[must_use]
    pub fn footprint_pages(self, fast_capacity_pages: u64) -> u64 {
        ((fast_capacity_pages as f64 * self.footprint_vs_fast()) as u64).max(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_twenty_distinct_apps() {
        let all = SpecApp::all();
        assert_eq!(all.len(), 20);
        let mut names: Vec<_> = all.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn footprints_and_intensities_span_a_range() {
        let footprints: Vec<f64> = SpecApp::all()
            .iter()
            .map(|a| a.footprint_vs_fast())
            .collect();
        let min = footprints.iter().cloned().fold(f64::MAX, f64::min);
        let max = footprints.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.05);
        assert!(max > 0.4);
        let intensities: Vec<u32> = SpecApp::all().iter().map(|a| a.compute_cycles()).collect();
        assert!(intensities.iter().any(|&c| c <= 4));
        assert!(intensities.iter().any(|&c| c >= 30));
    }

    #[test]
    fn stream_params_are_private_only() {
        let p = SpecApp::Mcf.stream_params(10_000, 500);
        assert_eq!(p.shared_pages, 0);
        assert_eq!(p.private_base, 500);
        assert_eq!(p.private_pages, 4_500);
    }

    #[test]
    fn minimum_footprint_enforced() {
        assert_eq!(SpecApp::Povray.footprint_pages(100), 32);
    }
}

//! Per-thread memory-access stream generation.

use hatric_types::{GuestVirtPage, SimRng};

/// One memory access issued by a guest thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Guest-virtual page touched.
    pub gvp: GuestVirtPage,
    /// Cache-line index within the page (0..64).
    pub line_in_page: u8,
    /// Whether the access is a store.
    pub is_write: bool,
    /// Non-memory work (cycles) the thread performs before this access.
    pub compute_cycles: u32,
}

/// Parameters controlling one thread's address stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// First guest-virtual page of the thread's private region.
    pub private_base: u64,
    /// Number of pages in the thread's private region.
    pub private_pages: u64,
    /// First guest-virtual page of the region shared by all threads.
    pub shared_base: u64,
    /// Number of pages in the shared region.
    pub shared_pages: u64,
    /// Probability that an access targets the shared region.
    pub shared_fraction: f64,
    /// Zipf skew of page selection (0 = uniform, towards 1 = very hot).
    pub theta: f64,
    /// Mean number of consecutive accesses to the same/adjacent pages before
    /// re-drawing (spatial locality).
    pub run_length: u32,
    /// Probability an access is a write.
    pub write_fraction: f64,
    /// Average compute cycles between memory accesses.
    pub compute_cycles: u32,
    /// Size of the thread's *active working window* in pages (0 = the whole
    /// region).  Real workloads touch a phased working set much smaller than
    /// their total footprint; the window plus its drift rate determine how
    /// often cold pages are demanded, i.e. how often the hypervisor migrates
    /// pages between DRAM levels.
    pub window_pages: u64,
    /// Number of page draws between one-page advances of the working window
    /// (0 = the window never drifts).
    pub drift_interval_draws: u32,
    /// Number of pages of the private region touched once, sequentially, at
    /// the very start of the stream (an initialisation sweep).  Big-memory
    /// workloads use this to populate their whole footprint so that
    /// die-stacked memory reaches steady-state occupancy during warmup.
    pub sweep_pages: u64,
}

/// A generator of one thread's access stream.
#[derive(Debug, Clone)]
pub struct ThreadStream {
    params: StreamParams,
    rng: SimRng,
    current_page: u64,
    current_line: u8,
    remaining_run: u32,
    draws: u64,
    window_start: u64,
    sweep_remaining: u64,
}

impl ThreadStream {
    /// Creates a stream with its own deterministic random sequence.
    #[must_use]
    pub fn new(params: StreamParams, seed: u64) -> Self {
        Self {
            params,
            rng: SimRng::new(seed),
            current_page: params.private_base,
            current_line: 0,
            remaining_run: 0,
            draws: 0,
            window_start: 0,
            sweep_remaining: params.sweep_pages.min(params.private_pages),
        }
    }

    /// The stream's parameters.
    #[must_use]
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    fn pick_in_region(&mut self, base: u64, pages: u64) -> u64 {
        let p = self.params;
        let pages = pages.max(1);
        if p.window_pages == 0 || p.window_pages >= pages {
            return base + self.rng.zipf(pages, p.theta);
        }
        let offset = (self.window_start + self.rng.zipf(p.window_pages, p.theta)) % pages;
        base + offset
    }

    fn pick_new_page(&mut self) -> u64 {
        self.draws += 1;
        let p = self.params;
        if p.drift_interval_draws > 0
            && self.draws.is_multiple_of(u64::from(p.drift_interval_draws))
        {
            self.window_start += 1;
        }
        let shared = p.shared_pages > 0 && self.rng.chance(p.shared_fraction);
        if shared {
            self.pick_in_region(p.shared_base, p.shared_pages)
        } else {
            self.pick_in_region(p.private_base, p.private_pages)
        }
    }

    /// Generates the next access.
    pub fn next_access(&mut self) -> Access {
        let p = self.params;
        if self.sweep_remaining > 0 {
            // Initialisation sweep: one access per private page, in order.
            let page = p.private_base + (p.sweep_pages.min(p.private_pages) - self.sweep_remaining);
            self.sweep_remaining -= 1;
            return Access {
                gvp: GuestVirtPage::new(page),
                line_in_page: 0,
                is_write: true,
                compute_cycles: p.compute_cycles / 2,
            };
        }
        if self.remaining_run == 0 {
            self.current_page = self.pick_new_page();
            self.current_line = self.rng.below(64) as u8;
            // Run length ~ uniform in [1, 2*mean] keeps the mean right while
            // providing variety.
            self.remaining_run = 1 + self.rng.below(u64::from(p.run_length.max(1)) * 2) as u32;
        } else {
            // Walk forward within the page; occasionally spill to the next
            // page, which is what streaming code does.
            self.current_line = self.current_line.wrapping_add(1);
            if self.current_line >= 64 {
                self.current_line = 0;
                self.current_page += 1;
            }
        }
        self.remaining_run -= 1;
        let jitter = if p.compute_cycles == 0 {
            0
        } else {
            self.rng.below(u64::from(p.compute_cycles)) as u32
        };
        Access {
            gvp: GuestVirtPage::new(self.current_page),
            line_in_page: self.current_line,
            is_write: self.rng.chance(p.write_fraction),
            compute_cycles: p.compute_cycles / 2 + jitter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> StreamParams {
        StreamParams {
            private_base: 1_000,
            private_pages: 500,
            shared_base: 50_000,
            shared_pages: 1_000,
            shared_fraction: 0.3,
            theta: 0.5,
            run_length: 4,
            write_fraction: 0.25,
            compute_cycles: 10,
            window_pages: 0,
            drift_interval_draws: 0,
            sweep_pages: 0,
        }
    }

    #[test]
    fn windowed_stream_touches_few_distinct_pages_without_drift() {
        let mut p = params();
        p.shared_fraction = 0.0;
        p.window_pages = 16;
        p.drift_interval_draws = 0;
        let mut s = ThreadStream::new(p, 11);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..5_000 {
            pages.insert(s.next_access().gvp.number());
        }
        // Runs can spill a few pages past the window, but the set stays small.
        assert!(pages.len() < 40, "touched {} distinct pages", pages.len());
    }

    #[test]
    fn drift_expands_coverage_over_time() {
        let mut p = params();
        p.shared_fraction = 0.0;
        p.window_pages = 16;
        p.drift_interval_draws = 4;
        let mut s = ThreadStream::new(p, 12);
        let mut pages = std::collections::HashSet::new();
        for _ in 0..20_000 {
            pages.insert(s.next_access().gvp.number());
        }
        assert!(
            pages.len() > 100,
            "drift should reach new pages, got {}",
            pages.len()
        );
    }

    #[test]
    fn accesses_stay_in_declared_regions() {
        let mut s = ThreadStream::new(params(), 1);
        for _ in 0..10_000 {
            let a = s.next_access();
            let page = a.gvp.number();
            let in_private = (1_000..1_000 + 500 + 64).contains(&page);
            let in_shared = (50_000..50_000 + 1_000 + 64).contains(&page);
            assert!(in_private || in_shared, "page {page} outside both regions");
            assert!(a.line_in_page < 64);
        }
    }

    #[test]
    fn write_fraction_is_respected_roughly() {
        let mut s = ThreadStream::new(params(), 2);
        let writes = (0..20_000).filter(|_| s.next_access().is_write).count();
        let frac = writes as f64 / 20_000.0;
        assert!((0.18..0.32).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn spatial_runs_reuse_pages() {
        let mut s = ThreadStream::new(params(), 3);
        let mut same_page = 0;
        let mut prev = s.next_access().gvp;
        for _ in 0..10_000 {
            let a = s.next_access();
            if a.gvp == prev {
                same_page += 1;
            }
            prev = a.gvp;
        }
        // With mean run length 4 a large fraction of consecutive accesses
        // share a page.
        assert!(same_page > 5_000, "only {same_page} same-page pairs");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = ThreadStream::new(params(), 9);
        let mut b = ThreadStream::new(params(), 9);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn zero_shared_region_never_accesses_shared() {
        let mut p = params();
        p.shared_pages = 0;
        p.shared_fraction = 0.9;
        let mut s = ThreadStream::new(p, 4);
        for _ in 0..1_000 {
            assert!(s.next_access().gvp.number() < 2_000);
        }
    }
}

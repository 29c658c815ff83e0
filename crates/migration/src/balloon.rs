//! Memory ballooning between co-located VMs.
//!
//! A balloon driver inflates inside one VM (reclaiming die-stacked
//! capacity from it) and the hypervisor grants the reclaimed room to
//! another VM.  Both halves generate translation-coherence traffic on the
//! shared platform: every reclaimed page that was resident in fast memory
//! is demoted — an unmap+remap through the nested page table — and the
//! grantee refills the new room through ordinary demand promotions, each
//! of which is another remap.  On a software-shootdown host the combined
//! storm taxes every co-located VM; under HATRIC it stays confined to the
//! directory's sharer lists.

use hatric::metrics::MigrationStats;
use hatric::{Platform, VmInstance};
use hatric_types::CpuId;

/// Configuration of one balloon operation.
///
/// ```
/// use hatric_migration::BalloonParams;
///
/// // Move 300 pages of die-stacked capacity from VM 1 to VM 0, starting
/// // at slice 750.
/// let params = BalloonParams::at(1, 0, 300, 750);
/// assert_eq!((params.from_slot, params.to_slot), (1, 0));
/// assert!(params.pages_per_slice > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalloonParams {
    /// VM whose balloon inflates (loses die-stacked capacity).
    pub from_slot: usize,
    /// VM granted the reclaimed capacity.
    pub to_slot: usize,
    /// Total pages of capacity to move.
    pub pages: u64,
    /// Scheduler slice (absolute, warmup included) at which inflation
    /// begins.
    pub start_slice: u64,
    /// Capacity pages moved per scheduler slice (inflation rate).
    pub pages_per_slice: u64,
}

impl BalloonParams {
    /// A balloon moving `pages` of capacity from `from_slot` to `to_slot`
    /// starting at `start_slice`, 16 pages per slice.
    #[must_use]
    pub fn at(from_slot: usize, to_slot: usize, pages: u64, start_slice: u64) -> Self {
        Self {
            from_slot,
            to_slot,
            pages,
            start_slice,
            pages_per_slice: 16,
        }
    }
}

/// Drives one balloon operation, one scheduler slice at a time.
#[derive(Debug)]
pub struct BalloonDriver {
    params: BalloonParams,
    moved: u64,
    stats: MigrationStats,
}

impl BalloonDriver {
    /// Creates the driver (nothing moves until [`BalloonDriver::advance`]).
    #[must_use]
    pub fn new(params: BalloonParams) -> Self {
        Self {
            params,
            moved: 0,
            stats: MigrationStats::default(),
        }
    }

    /// The configuration this balloon runs with.
    #[must_use]
    pub fn params(&self) -> &BalloonParams {
        &self.params
    }

    /// Whether the full transfer has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.moved >= self.params.pages
    }

    /// Statistics accumulated so far (only the balloon fields are used).
    #[must_use]
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// Clears the statistics while keeping transfer progress intact.
    pub fn reset_stats(&mut self) {
        self.stats = MigrationStats::default();
    }

    /// Moves up to `pages_per_slice` pages of capacity: reclaims them from
    /// the inflating VM (demoting evicted residents, each an unmap+remap
    /// with translation coherence) and grants them to the grantee.  The
    /// caller runs this after the slice's guest accesses, with `initiator`
    /// declared as occupied by the inflating VM.
    ///
    /// # Panics
    ///
    /// Panics if a configured slot or `initiator` is out of range.
    pub fn advance(&mut self, platform: &mut Platform, vms: &mut [VmInstance], initiator: CpuId) {
        if self.is_complete() {
            return;
        }
        // Never grant more than actually came out of the inflating VM: the
        // batch is clamped to its remaining capacity, and a dry VM ends the
        // transfer early.
        let available = vms[self.params.from_slot]
            .paging()
            .config()
            .fast_capacity_pages;
        let batch = self
            .params
            .pages_per_slice
            .min(self.params.pages - self.moved)
            .min(available);
        if batch == 0 {
            self.moved = self.params.pages;
            return;
        }
        let victims = vms[self.params.from_slot]
            .paging_manager_mut()
            .balloon_reclaim(batch);
        for victim in victims {
            platform.demote_to_slow(vms, self.params.from_slot, initiator, victim);
        }
        vms[self.params.to_slot]
            .paging_manager_mut()
            .balloon_grant(batch);
        self.moved += batch;
        self.stats.balloon_reclaimed_pages += batch;
        self.stats.balloon_granted_pages += batch;
    }
}

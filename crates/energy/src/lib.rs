//! # hatric-energy
//!
//! A CACTI-style energy model for the simulated system.  The paper models
//! energy with CACTI 6.0 (Sec. 5.1); here every microarchitectural event has
//! a per-access dynamic energy, and every structure contributes leakage
//! power integrated over the runtime.  The model captures the energy
//! consequences the paper evaluates:
//!
//! * co-tags make every TLB / MMU-cache / nTLB lookup slightly more
//!   expensive and add leakage proportional to their width (Fig. 11 right);
//! * UNITD's reverse-lookup CAM makes every coherence snoop of the
//!   translation structures far more expensive than a co-tag match
//!   (Fig. 13);
//! * runtime reductions save static energy, which is how HATRIC ends up
//!   saving energy overall despite the added state (Fig. 11 left).
//!
//! ```
//! use hatric_energy::{EnergyEvent, EnergyModel, EnergyParams};
//!
//! let mut model = EnergyModel::new(EnergyParams::haswell_like(2));
//! model.record(EnergyEvent::TlbLookup, 1_000);
//! model.record(EnergyEvent::DramAccessSlow, 10);
//! let report = model.report(1_000_000, 16);
//! assert!(report.total_nj() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

/// Microarchitectural events that consume dynamic energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnergyEvent {
    /// A TLB lookup (L1 or L2).
    TlbLookup,
    /// A co-tag comparison performed on a coherence message reaching the
    /// translation structures.
    CotagMatch,
    /// An MMU-cache (paging-structure cache) lookup.
    MmuCacheLookup,
    /// A nested-TLB lookup.
    NtlbLookup,
    /// A private L1 cache access.
    L1Access,
    /// A private L2 cache access.
    L2Access,
    /// A shared LLC access.
    LlcAccess,
    /// A coherence-directory lookup or update.
    DirectoryAccess,
    /// One die-stacked DRAM line access.
    DramAccessFast,
    /// One off-chip DRAM line access.
    DramAccessSlow,
    /// One coherence message on the interconnect.
    CoherenceMessage,
    /// One inter-processor interrupt (software translation coherence).
    Ipi,
    /// One VM exit / re-entry pair.
    VmExit,
    /// One page-table-walk memory reference.
    PageWalkStep,
    /// One translation-structure entry invalidation.
    TranslationInvalidation,
    /// One reverse-lookup CAM search over the whole TLB (UNITD).
    UnitdCamSearch,
    /// One 4 KiB page copy between DRAM devices.
    PageCopy,
}

/// Per-event dynamic energies (picojoules) and leakage (milliwatts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Dynamic energy of a TLB lookup, pJ.
    pub tlb_lookup_pj: f64,
    /// Extra dynamic energy per TLB/MMU/nTLB lookup due to co-tag storage, pJ.
    pub cotag_lookup_extra_pj: f64,
    /// Dynamic energy of a co-tag comparison on an incoming message, pJ.
    pub cotag_match_pj: f64,
    /// Dynamic energy of an MMU-cache lookup, pJ.
    pub mmu_lookup_pj: f64,
    /// Dynamic energy of a nested-TLB lookup, pJ.
    pub ntlb_lookup_pj: f64,
    /// Dynamic energy of an L1 access, pJ.
    pub l1_access_pj: f64,
    /// Dynamic energy of an L2 access, pJ.
    pub l2_access_pj: f64,
    /// Dynamic energy of an LLC access, pJ.
    pub llc_access_pj: f64,
    /// Dynamic energy of a directory access, pJ.
    pub directory_access_pj: f64,
    /// Dynamic energy of a die-stacked DRAM line access, pJ.
    pub dram_fast_pj: f64,
    /// Dynamic energy of an off-chip DRAM line access, pJ.
    pub dram_slow_pj: f64,
    /// Dynamic energy of one coherence message, pJ.
    pub coherence_message_pj: f64,
    /// Energy of delivering one IPI, pJ.
    pub ipi_pj: f64,
    /// Energy of one VM exit/entry, pJ.
    pub vm_exit_pj: f64,
    /// Energy of one page-walk memory reference (walker FSM side), pJ.
    pub walk_step_pj: f64,
    /// Energy of invalidating one translation entry, pJ.
    pub invalidation_pj: f64,
    /// Energy of one UNITD reverse-CAM search, pJ.
    pub unitd_cam_pj: f64,
    /// Energy of copying one 4 KiB page, pJ.
    pub page_copy_pj: f64,
    /// Per-CPU leakage power of the baseline translation structures, mW.
    pub structure_leakage_mw: f64,
    /// Additional per-CPU leakage from co-tags, mW (scales with width).
    pub cotag_leakage_mw: f64,
    /// Additional per-CPU leakage from a UNITD reverse CAM, mW.
    pub unitd_cam_leakage_mw: f64,
    /// Rest-of-core + cache leakage power per CPU, mW.
    pub core_leakage_mw: f64,
    /// Clock frequency in GHz (converts cycles to seconds for leakage).
    pub frequency_ghz: f64,
    /// Whether the UNITD CAM leakage applies (set for UNITD++ configs).
    pub unitd_cam_present: bool,
}

impl EnergyParams {
    /// Parameters loosely calibrated to CACTI numbers for a Haswell-class
    /// core, with co-tags of `cotag_bytes` bytes added to every translation
    /// structure entry.  Passing `0` models a system without co-tags.
    #[must_use]
    pub fn haswell_like(cotag_bytes: u8) -> Self {
        let width = f64::from(cotag_bytes);
        Self {
            tlb_lookup_pj: 8.0,
            cotag_lookup_extra_pj: 0.55 * width,
            cotag_match_pj: 1.2 + 0.4 * width,
            mmu_lookup_pj: 4.0,
            ntlb_lookup_pj: 3.0,
            l1_access_pj: 22.0,
            l2_access_pj: 60.0,
            llc_access_pj: 240.0,
            directory_access_pj: 30.0,
            dram_fast_pj: 4_000.0,
            dram_slow_pj: 6_500.0,
            coherence_message_pj: 18.0,
            ipi_pj: 9_000.0,
            vm_exit_pj: 14_000.0,
            walk_step_pj: 6.0,
            invalidation_pj: 1.0,
            unitd_cam_pj: 95.0,
            page_copy_pj: 280_000.0,
            structure_leakage_mw: 9.0,
            cotag_leakage_mw: 0.8 * width,
            unitd_cam_leakage_mw: 6.5,
            core_leakage_mw: 350.0,
            frequency_ghz: 2.5,
            unitd_cam_present: false,
        }
    }

    /// Parameters for an UNITD++-style design: no co-tags, but a
    /// reverse-lookup CAM attached to the TLBs.
    #[must_use]
    pub fn unitd_like() -> Self {
        let mut p = Self::haswell_like(0);
        p.unitd_cam_present = true;
        p
    }

    fn dynamic_pj(&self, event: EnergyEvent) -> f64 {
        match event {
            EnergyEvent::TlbLookup => self.tlb_lookup_pj + self.cotag_lookup_extra_pj,
            EnergyEvent::CotagMatch => self.cotag_match_pj,
            EnergyEvent::MmuCacheLookup => self.mmu_lookup_pj + self.cotag_lookup_extra_pj,
            EnergyEvent::NtlbLookup => self.ntlb_lookup_pj + self.cotag_lookup_extra_pj,
            EnergyEvent::L1Access => self.l1_access_pj,
            EnergyEvent::L2Access => self.l2_access_pj,
            EnergyEvent::LlcAccess => self.llc_access_pj,
            EnergyEvent::DirectoryAccess => self.directory_access_pj,
            EnergyEvent::DramAccessFast => self.dram_fast_pj,
            EnergyEvent::DramAccessSlow => self.dram_slow_pj,
            EnergyEvent::CoherenceMessage => self.coherence_message_pj,
            EnergyEvent::Ipi => self.ipi_pj,
            EnergyEvent::VmExit => self.vm_exit_pj,
            EnergyEvent::PageWalkStep => self.walk_step_pj,
            EnergyEvent::TranslationInvalidation => self.invalidation_pj,
            EnergyEvent::UnitdCamSearch => self.unitd_cam_pj,
            EnergyEvent::PageCopy => self.page_copy_pj,
        }
    }

    /// Total per-CPU leakage power in milliwatts.
    #[must_use]
    pub fn leakage_mw_per_cpu(&self) -> f64 {
        self.core_leakage_mw
            + self.structure_leakage_mw
            + self.cotag_leakage_mw
            + if self.unitd_cam_present {
                self.unitd_cam_leakage_mw
            } else {
                0.0
            }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::haswell_like(2)
    }
}

/// A finished energy accounting for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Dynamic energy in nanojoules.
    pub dynamic_nj: f64,
    /// Static (leakage) energy in nanojoules.
    pub static_nj: f64,
}

impl EnergyReport {
    /// Total energy in nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.dynamic_nj + self.static_nj
    }
}

/// Accumulates event counts and converts them to energy.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
    dynamic_pj: f64,
}

impl EnergyModel {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new(params: EnergyParams) -> Self {
        Self {
            params,
            dynamic_pj: 0.0,
        }
    }

    /// The parameters in use.
    #[must_use]
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Records `count` occurrences of `event`.
    pub fn record(&mut self, event: EnergyEvent, count: u64) {
        self.dynamic_pj += self.params.dynamic_pj(event) * count as f64;
    }

    /// Dynamic energy accumulated so far, in nanojoules.
    #[must_use]
    pub fn dynamic_nj(&self) -> f64 {
        self.dynamic_pj / 1_000.0
    }

    /// Produces the final report given the simulated runtime (`cycles`) and
    /// the number of CPUs leaking for that long.
    #[must_use]
    pub fn report(&self, cycles: u64, num_cpus: usize) -> EnergyReport {
        let seconds = cycles as f64 / (self.params.frequency_ghz * 1e9);
        let leak_w = self.params.leakage_mw_per_cpu() / 1_000.0 * num_cpus as f64;
        EnergyReport {
            dynamic_nj: self.dynamic_nj(),
            static_nj: leak_w * seconds * 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_accumulates() {
        let mut m = EnergyModel::new(EnergyParams::haswell_like(2));
        m.record(EnergyEvent::TlbLookup, 100);
        let only_tlb = m.dynamic_nj();
        m.record(EnergyEvent::DramAccessSlow, 1);
        assert!(m.dynamic_nj() > only_tlb);
    }

    #[test]
    fn cotags_cost_lookup_energy() {
        let with = EnergyParams::haswell_like(2);
        let without = EnergyParams::haswell_like(0);
        assert!(
            with.dynamic_pj(EnergyEvent::TlbLookup) > without.dynamic_pj(EnergyEvent::TlbLookup)
        );
        assert!(with.leakage_mw_per_cpu() > without.leakage_mw_per_cpu());
    }

    #[test]
    fn wider_cotags_cost_more() {
        let one = EnergyParams::haswell_like(1);
        let three = EnergyParams::haswell_like(3);
        assert!(three.dynamic_pj(EnergyEvent::TlbLookup) > one.dynamic_pj(EnergyEvent::TlbLookup));
        assert!(three.leakage_mw_per_cpu() > one.leakage_mw_per_cpu());
    }

    #[test]
    fn unitd_cam_is_more_expensive_than_cotag_match() {
        let p = EnergyParams::unitd_like();
        assert!(
            p.dynamic_pj(EnergyEvent::UnitdCamSearch)
                > p.dynamic_pj(EnergyEvent::CotagMatch) * 10.0
        );
        assert!(p.leakage_mw_per_cpu() > EnergyParams::haswell_like(2).leakage_mw_per_cpu());
    }

    #[test]
    fn static_energy_scales_with_runtime_and_cpus() {
        let m = EnergyModel::new(EnergyParams::haswell_like(2));
        let short = m.report(1_000_000, 16).static_nj;
        let long = m.report(2_000_000, 16).static_nj;
        let more_cpus = m.report(1_000_000, 32).static_nj;
        assert!((long / short - 2.0).abs() < 1e-9);
        assert!((more_cpus / short - 2.0).abs() < 1e-9);
    }

    #[test]
    fn vm_exits_and_ipis_are_costly_events() {
        let p = EnergyParams::haswell_like(2);
        assert!(p.dynamic_pj(EnergyEvent::VmExit) > 100.0 * p.dynamic_pj(EnergyEvent::TlbLookup));
        assert!(p.dynamic_pj(EnergyEvent::Ipi) > 100.0 * p.dynamic_pj(EnergyEvent::TlbLookup));
    }
}

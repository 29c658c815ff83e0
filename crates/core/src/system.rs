//! The single-VM system simulator: one [`VmInstance`] driven over a
//! dedicated [`Platform`].
//!
//! Historically this type owned the whole pipeline; the per-VM translation
//! state now lives in [`VmInstance`] and the shared hardware plus the
//! per-access pipeline in [`Platform`], so a consolidated host
//! (`hatric-host`) can run many VMs over one platform.  [`System`] is the
//! single-VM special case: it pins vCPU *i* to physical CPU *i* and keeps
//! the exact per-access behaviour (and cycle accounting) of the original
//! simulator.  One deliberate reporting change rode along with the
//! refactor: [`System::reset_measurements`] now clears the hypervisor
//! paging statistics too, so `SimReport::paging` covers the measured phase
//! only — previously it leaked warmup-phase counts and disagreed with
//! `SimReport::faults` in the same report.

use hatric_cache::CacheHierarchy;
use hatric_hypervisor::{PagingManager, VirtualMachine, VmConfig};
use hatric_memory::MemoryKind;
use hatric_pagetable::{GuestPageTable, NestedPageTable};
use hatric_tlb::TranslationStructures;
use hatric_types::{AddressSpaceId, CpuId, Result, SystemPhysAddr, VcpuId, VmId};
use hatric_workloads::Access;

use crate::config::{MemoryMode, SystemConfig};
use crate::driver::WorkloadDriver;
use crate::metrics::SimReport;
use crate::platform::Platform;
use crate::vm_instance::{VmInstance, VmPagingParams};

/// The simulated system.
///
/// One [`System`] models one virtualized machine: `vcpus` guest threads
/// pinned to physical CPUs, a guest and a nested page table, per-CPU
/// translation structures, a MESI cache hierarchy with a HATRIC-extended
/// directory, two DRAM devices and a hypervisor that pages between them.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    platform: Platform,
    vm: VmInstance,
}

impl System {
    /// Builds a system from its configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: SystemConfig) -> Result<Self> {
        let mut platform = Platform::new(&config)?;
        let fast_capacity = platform.memory().total_frames(MemoryKind::DieStacked);
        let paging = VmPagingParams::for_quota(
            &config.paging,
            fast_capacity,
            config.memory_mode != MemoryMode::NoHbm,
        );
        let vm = VmInstance::new(
            0,
            VmConfig {
                vm: VmId::new(0),
                vcpus: config.vcpus,
                first_cpu: CpuId::new(0),
            },
            paging,
            platform.memory(),
        );
        for i in 0..config.vcpus {
            platform.set_occupant(CpuId::new(i as u32), Some((0, VcpuId::new(i as u32))));
        }
        Ok(Self {
            config,
            platform,
            vm,
        })
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Whether hypervisor paging between the DRAM levels is active.
    #[must_use]
    pub fn paging_enabled(&self) -> bool {
        self.vm.paging_enabled()
    }

    /// Drives `driver` for `warmup` accesses per thread (unmeasured, to
    /// populate page tables, caches and the die-stacked resident set) and
    /// then `measured` accesses per thread, returning the report for the
    /// measured phase.
    pub fn run(&mut self, driver: &mut WorkloadDriver, warmup: u64, measured: u64) -> SimReport {
        let threads = driver.thread_count().min(self.config.vcpus);
        for _ in 0..warmup {
            for thread in 0..threads {
                self.issue(driver, thread);
            }
        }
        self.reset_measurements();
        for _ in 0..measured {
            for thread in 0..threads {
                self.issue(driver, thread);
            }
        }
        self.report()
    }

    fn issue(&mut self, driver: &mut WorkloadDriver, thread: usize) {
        let access = driver.next_access(thread);
        let cpu = self.vm.vm().cpu_of(VcpuId::new(thread as u32));
        let asid = self
            .vm
            .vm()
            .address_space(driver.address_space_index(thread));
        self.step(cpu, asid, access);
    }

    /// Clears all measurement state (cycles, statistics, energy) while
    /// keeping the architectural state (page tables, caches, TLB contents,
    /// resident set) intact.  Called between the warmup and measured phases.
    pub fn reset_measurements(&mut self) {
        self.platform.reset_measurements();
        self.vm.reset_measurements();
    }

    /// Produces a report of everything measured since the last reset.
    #[must_use]
    pub fn report(&self) -> SimReport {
        let vm = self.vm.report();
        SimReport {
            cycles_per_cpu: self.platform.cycles_per_cpu().to_vec(),
            accesses: vm.accesses,
            coherence: vm.coherence,
            faults: vm.faults,
            interference: vm.interference,
            numa: vm.numa,
            paging: vm.paging,
            translation: self.platform.translation_snapshot(),
            cache: self.platform.cache_snapshot(),
            energy: self.platform.energy_report(),
            latency: vm.latency,
            causal: vm.causal,
        }
    }

    // ----- observability ----------------------------------------------------

    /// Installs a sim-time trace sink holding up to `capacity` spans
    /// (oldest evicted first), exactly like the consolidated host's
    /// tracing: keyed to simulated cycles, deterministic, and invisible
    /// to the model.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.platform
            .set_trace_sink(hatric_telemetry::TraceSink::new(capacity));
    }

    /// Exports the recorded spans as a Chrome trace-event JSON document,
    /// or `None` when tracing was never enabled.
    #[must_use]
    pub fn export_trace(&self) -> Option<String> {
        self.platform
            .trace_sink()
            .map(hatric_telemetry::TraceSink::export_chrome_trace)
    }

    // ----- single-access pipeline ------------------------------------------

    /// Simulates one guest memory access on `cpu`.
    pub fn step(&mut self, cpu: CpuId, asid: AddressSpaceId, access: Access) {
        self.platform
            .step(std::slice::from_mut(&mut self.vm), 0, cpu, asid, access);
    }

    /// Performs the hypervisor's store to a nested page-table entry and the
    /// resulting translation-coherence activity.
    pub fn remap_coherence(&mut self, initiator: CpuId, pte_addr: SystemPhysAddr) {
        self.platform
            .remap_coherence(std::slice::from_mut(&mut self.vm), 0, initiator, pte_addr);
    }

    // ----- inspection helpers (used by tests and examples) ------------------

    /// Per-CPU cycle counters for the current measurement phase.
    #[must_use]
    pub fn cycles_per_cpu(&self) -> &[u64] {
        self.platform.cycles_per_cpu()
    }

    /// The hypervisor paging manager (for inspection).
    #[must_use]
    pub fn paging(&self) -> &PagingManager {
        self.vm.paging()
    }

    /// The nested page table (for inspection).
    #[must_use]
    pub fn nested_page_table(&self) -> &NestedPageTable {
        self.vm.nested_page_table()
    }

    /// The guest page table (for inspection).
    #[must_use]
    pub fn guest_page_table(&self) -> &GuestPageTable {
        self.vm.guest_page_table()
    }

    /// Translation structures of one CPU (for inspection).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn translation_structures(&self, cpu: CpuId) -> &TranslationStructures {
        self.platform.translation_structures(cpu)
    }

    /// The cache hierarchy (for inspection).
    #[must_use]
    pub fn caches(&self) -> &CacheHierarchy {
        self.platform.caches()
    }

    /// The VM's placement bookkeeping (for inspection).
    #[must_use]
    pub fn virtual_machine(&self) -> &VirtualMachine {
        self.vm.vm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagingKnobs;
    use hatric_coherence::CoherenceMechanism;
    use hatric_workloads::{Workload, WorkloadKind};

    fn tiny_config(mechanism: CoherenceMechanism) -> SystemConfig {
        SystemConfig::scaled(4, 256).with_mechanism(mechanism)
    }

    fn run(mechanism: CoherenceMechanism) -> SimReport {
        let config = tiny_config(mechanism);
        let mut system = System::new(config.clone()).unwrap();
        let wl = Workload::build(
            WorkloadKind::DataCaching,
            4,
            config.fast_capacity_pages(),
            3,
        );
        let mut driver = WorkloadDriver::from(wl);
        system.run(&mut driver, 2_000, 2_000)
    }

    /// A page-table line the walker's marking evicts from the directory
    /// takes the translations filled from it out of its sharers' TLBs.
    #[test]
    fn marking_evicts_pt_lines_out_of_translation_structures() {
        use crate::pipeline;
        use crate::platform::Serial;
        use hatric_cache::PtKind;
        use hatric_types::{CacheLineAddr, GuestVirtPage, SystemFrame};

        let mut system = System::new(tiny_config(CoherenceMechanism::Hatric)).unwrap();
        let (vm, asid, gvp) = (VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(7));
        let pte = SystemPhysAddr::new(0x40_0000);
        let pt_line = pte.cache_line();
        let vms = std::slice::from_mut(&mut system.vm);
        let platform = &mut system.platform;
        for cpu in [CpuId::new(0), CpuId::new(1)] {
            platform.caches.read(cpu, pt_line);
            platform.structures[cpu.index()].fill_data(
                vm,
                asid,
                gvp,
                SystemFrame::new(9),
                pte,
                None,
            );
        }
        let mark = |platform: &mut Platform, vms: &mut [VmInstance], line, kind| {
            let mut serial = Serial::new(platform, vms, 0);
            let back = serial.mark_pt(line, kind);
            pipeline::back_invalidate(&mut serial, back);
        };
        mark(platform, vms, pt_line, PtKind::Nested);
        // Mark further lines of the same LLC/directory bank until one
        // evicts the PT line: bank counts are powers of two up to 16, so
        // lines 16 apart share a bank.
        let stride = 16;
        let mut n = 0;
        while platform.caches.is_sharer(pt_line, CpuId::new(0)) {
            n += 1;
            assert!(n < 1 << 16, "the directory never evicted the PT line");
            let line = CacheLineAddr::new((pt_line.index() + n * stride) * 64);
            mark(platform, vms, line, PtKind::Guest);
        }
        for cpu in 0..2 {
            assert!(platform.structures[cpu]
                .lookup_data(vm, asid, gvp)
                .is_none());
            assert!(!platform
                .caches
                .cpu_holds_line(CpuId::new(cpu as u32), pt_line));
        }
        // Each sharer lost its L1 and L2 TLB copies.
        assert_eq!(vms[0].coherence_mut().back_invalidated_entries, 4);
    }

    #[test]
    fn software_run_produces_shootdown_activity() {
        let report = run(CoherenceMechanism::Software);
        assert!(report.coherence.remaps > 0, "paging should remap pages");
        assert!(report.coherence.ipis > 0);
        assert!(report.coherence.full_flushes > 0);
        assert_eq!(report.coherence.hw_messages, 0);
        assert!(report.runtime_cycles() > 0);
    }

    #[test]
    fn hatric_run_avoids_ipis_and_flushes() {
        let report = run(CoherenceMechanism::Hatric);
        assert!(report.coherence.remaps > 0);
        assert_eq!(report.coherence.ipis, 0);
        assert_eq!(report.coherence.full_flushes, 0);
        assert_eq!(report.coherence.coherence_vm_exits, 0);
    }

    #[test]
    fn hatric_is_faster_than_software_under_paging() {
        let sw = run(CoherenceMechanism::Software);
        let hw = run(CoherenceMechanism::Hatric);
        assert!(
            hw.runtime_cycles() < sw.runtime_cycles(),
            "hatric {} vs software {}",
            hw.runtime_cycles(),
            sw.runtime_cycles()
        );
    }

    #[test]
    fn ideal_is_at_least_as_fast_as_hatric() {
        let hw = run(CoherenceMechanism::Hatric);
        let ideal = run(CoherenceMechanism::Ideal);
        assert!(ideal.runtime_cycles() <= hw.runtime_cycles() * 101 / 100);
    }

    #[test]
    fn no_hbm_mode_never_migrates() {
        let config = tiny_config(CoherenceMechanism::Software).with_memory_mode(MemoryMode::NoHbm);
        let mut system = System::new(config.clone()).unwrap();
        let wl = Workload::build(WorkloadKind::Canneal, 4, 256, 3);
        let mut driver = WorkloadDriver::from(wl);
        let report = system.run(&mut driver, 500, 500);
        assert_eq!(report.coherence.remaps, 0);
        assert_eq!(report.faults.demand_faults, 0);
        assert_eq!(report.faults.pages_promoted, 0);
    }

    #[test]
    fn infinite_hbm_mode_migrates_nothing_but_uses_fast_memory() {
        let config =
            tiny_config(CoherenceMechanism::Software).with_memory_mode(MemoryMode::InfiniteHbm);
        let mut system = System::new(config).unwrap();
        let wl = Workload::build(WorkloadKind::Canneal, 4, 256, 3);
        let mut driver = WorkloadDriver::from(wl);
        let report = system.run(&mut driver, 500, 500);
        assert_eq!(report.faults.pages_demoted, 0);
        assert_eq!(report.coherence.remaps, 0);
    }

    #[test]
    fn infinite_hbm_is_fastest_memory_mode() {
        let base = tiny_config(CoherenceMechanism::Software).with_paging(PagingKnobs::best());
        let mut runtimes = Vec::new();
        for mode in [
            MemoryMode::NoHbm,
            MemoryMode::Paged,
            MemoryMode::InfiniteHbm,
        ] {
            let config = base.clone().with_memory_mode(mode);
            let mut system = System::new(config.clone()).unwrap();
            let wl = Workload::build(WorkloadKind::Graph500, 4, 256, 3);
            let mut driver = WorkloadDriver::from(wl);
            runtimes.push(system.run(&mut driver, 2_000, 2_000).runtime_cycles());
        }
        assert!(
            runtimes[2] < runtimes[0],
            "inf-hbm {} should beat no-hbm {}",
            runtimes[2],
            runtimes[0]
        );
    }

    #[test]
    fn report_accounts_every_thread() {
        let report = run(CoherenceMechanism::Hatric);
        assert_eq!(report.cycles_per_cpu.len(), 4);
        assert!(report.cycles_per_cpu.iter().all(|&c| c > 0));
        assert_eq!(report.accesses, 4 * 2_000);
    }

    #[test]
    fn tlb_stats_show_reuse() {
        let report = run(CoherenceMechanism::Hatric);
        assert!(report.translation.l1_tlb.total() > 0);
        assert!(report.translation.l1_tlb.hit_rate() > 0.3);
    }

    #[test]
    fn single_vm_runs_record_no_interference() {
        let report = run(CoherenceMechanism::Software);
        assert_eq!(report.interference.disrupted_cycles, 0);
        assert_eq!(report.interference.inflicted_cycles, 0);
    }

    #[test]
    fn vcpu_attribution_matches_per_cpu_cycles_for_pinned_vm() {
        // In the single-VM system vCPU i occupies CPU i, so the per-vCPU
        // attribution and the platform's per-CPU counters must agree for
        // every disruptive charge (they may differ by hardware-only co-tag
        // work, which is charged to the CPU but stalls no vCPU).
        let config = tiny_config(CoherenceMechanism::Software);
        let mut system = System::new(config.clone()).unwrap();
        let wl = Workload::build(
            WorkloadKind::DataCaching,
            4,
            config.fast_capacity_pages(),
            3,
        );
        let mut driver = WorkloadDriver::from(wl);
        system.run(&mut driver, 500, 500);
        let platform_cycles: Vec<u64> = system.cycles_per_cpu().to_vec();
        let vcpu_cycles = system.vm.vcpu_cycles();
        assert_eq!(platform_cycles, vcpu_cycles);
    }
}

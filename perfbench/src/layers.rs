//! Per-layer figures: exact work counts from the model reports, and unit
//! costs (host ns per call) of each layer's public entry point, timed on
//! clones of a warmed system with that system's own addresses.

use std::hint::black_box;
use std::time::Instant;

use hatric::{CpuId, Platform, System, WorkloadDriver};
use hatric_cache::{CacheHierarchy, CacheStatsDelta, SharerSet};
use hatric_coherence::{RemapContext, TranslationCoherence};
use hatric_host::ConsolidatedHost;
use hatric_hypervisor::{Scheduler, VirtualMachine};
use hatric_memory::MemorySystem;
use hatric_pagetable::{GuestPageTable, NestedPageTable, TwoDimWalk, TwoDimWalker};
use hatric_tlb::TranslationStructures;
use hatric_types::{CacheLineAddr, CoTag, SocketId, SystemPhysAddr};
use hatric_workloads::{Access, Workload as AppWorkload};

use crate::sim::Report;

/// Accesses sampled from the workload's own stream to drive the probes.
const SAMPLE_ACCESSES: usize = 4_096;
/// Timed batches per entry point; the median batch is reported.
const BATCHES: usize = 7;
/// Clones flushed per `flush_all` batch.
const FLUSH_CLONES: usize = 16;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The exact per-layer counts of one run (all legs), by metric name.
/// `setup_first_touch` is the first-touch fault count of the set-up
/// (warmup) phases, which the measured reports no longer hold.
pub fn count_metrics(reports: &[Report], setup_first_touch: u64) -> Vec<(&'static str, f64)> {
    let parts: Vec<_> = reports.iter().flat_map(Report::parts).collect();
    let sum = |f: &dyn Fn(&hatric::SimReport) -> u64| parts.iter().map(|p| f(p)).sum::<u64>();
    let mut latency = hatric::telemetry::LatencyStats::default();
    for p in &parts {
        latency.merge(&p.latency);
    }
    let mut migration = hatric::MigrationStats::default();
    for r in reports {
        migration.merge(&r.migration());
    }
    let recovery: Vec<_> = reports.iter().map(Report::recovery).collect();
    let rsum =
        |f: &dyn Fn(&hatric_cluster::RecoveryStats) -> u64| recovery.iter().map(f).sum::<u64>();
    let l1_tlb_hits = sum(&|p| p.translation.l1_tlb.hits());
    let l1_tlb_total = sum(&|p| p.translation.l1_tlb.total());
    let invalidations = sum(&|p| p.cache.invalidations_sent.get());
    let hw_messages = sum(&|p| p.coherence.hw_messages);
    vec![
        ("workloads.accesses", sum(&|p| p.accesses) as f64),
        (
            "tlb.l1_misses",
            sum(&|p| p.translation.l1_tlb.misses()) as f64,
        ),
        (
            "tlb.l2_misses",
            sum(&|p| p.translation.l2_tlb.misses()) as f64,
        ),
        (
            "tlb.ntlb_misses",
            sum(&|p| p.translation.ntlb.misses()) as f64,
        ),
        (
            "tlb.mmu_misses",
            sum(&|p| p.translation.mmu_cache.misses()) as f64,
        ),
        ("tlb.l1_hit_rate", ratio(l1_tlb_hits, l1_tlb_total)),
        (
            "tlb.entries_flushed",
            sum(&|p| p.coherence.entries_flushed) as f64,
        ),
        (
            "tlb.entries_cotag_invalidated",
            sum(&|p| p.coherence.entries_selectively_invalidated) as f64,
        ),
        ("pagetable.walk_p99_cycles", latency.walk.p99() as f64),
        ("cache.l2_misses", sum(&|p| p.cache.l2.misses()) as f64),
        ("cache.llc_misses", sum(&|p| p.cache.llc.misses()) as f64),
        ("cache.invalidations_sent", invalidations as f64),
        (
            "cache.spurious_invalidation_share",
            ratio(
                sum(&|p| p.cache.spurious_invalidations.get()),
                invalidations,
            ),
        ),
        (
            "cache.back_invalidations",
            sum(&|p| p.cache.back_invalidations.get()) as f64,
        ),
        (
            "cache.writebacks",
            sum(&|p| p.cache.writebacks.get()) as f64,
        ),
        (
            "cache.pt_line_writes",
            sum(&|p| p.cache.pt_line_writes.get()) as f64,
        ),
        (
            "memory.dram_accesses",
            sum(&|p| p.cache.memory_accesses.get()) as f64,
        ),
        (
            "memory.remote_dram_accesses",
            sum(&|p| p.numa.remote_dram_accesses) as f64,
        ),
        (
            "memory.dram_queue_p99_cycles",
            latency.dram_queue.p99() as f64,
        ),
        ("coherence.remaps", sum(&|p| p.coherence.remaps) as f64),
        ("coherence.ipis", sum(&|p| p.coherence.ipis) as f64),
        (
            "coherence.vm_exits",
            sum(&|p| p.coherence.coherence_vm_exits) as f64,
        ),
        (
            "coherence.full_flushes",
            sum(&|p| p.coherence.full_flushes) as f64,
        ),
        ("coherence.hw_messages", hw_messages as f64),
        (
            "coherence.spurious_share",
            ratio(sum(&|p| p.coherence.spurious_messages), hw_messages),
        ),
        (
            "coherence.targets",
            sum(&|p| p.numa.local_coherence_targets + p.numa.remote_coherence_targets) as f64,
        ),
        (
            "coherence.shootdown_p99_cycles",
            latency.shootdown.p99() as f64,
        ),
        (
            "hypervisor.demand_faults",
            sum(&|p| p.faults.demand_faults) as f64,
        ),
        ("hypervisor.first_touch_faults", setup_first_touch as f64),
        (
            "hypervisor.pages_promoted",
            sum(&|p| p.faults.pages_promoted) as f64,
        ),
        (
            "hypervisor.pages_demoted",
            sum(&|p| p.faults.pages_demoted) as f64,
        ),
        ("migration.pages_copied", migration.pages_copied as f64),
        ("migration.received_pages", migration.received_pages as f64),
        (
            "migration.migration_remaps",
            migration.migration_remaps as f64,
        ),
        (
            "migration.redirtied_share",
            ratio(migration.pages_redirtied, migration.pages_copied),
        ),
        ("faults.injected", rsum(&|r| r.faults_injected) as f64),
        ("faults.aborts", rsum(&|r| r.migrations_aborted) as f64),
        (
            "faults.escalations",
            rsum(&|r| r.migrations_escalated) as f64,
        ),
        ("faults.restarts", rsum(&|r| r.vm_restarts) as f64),
        (
            "cluster.migrations_completed",
            reports
                .iter()
                .map(Report::completed_migrations)
                .sum::<u64>() as f64,
        ),
        (
            "telemetry.ledger_entries",
            sum(&|p| p.causal.len() as u64) as f64,
        ),
        (
            "core.runtime_cycles",
            reports.iter().map(Report::runtime_cycles).sum::<u64>() as f64,
        ),
    ]
}

/// The layers' entry points the unit costs time: the name each carries in
/// the reconciliation, and the name of its unit-cost metric.
pub const OPS: [(&str, &str); 10] = [
    ("tlb.lookup_data", "tlb.lookup_data_ns"),
    ("tlb.invalidate_cotag", "tlb.invalidate_cotag_ns"),
    ("tlb.flush_all", "tlb.flush_all_ns"),
    ("pagetable.walk", "pagetable.walk_ns"),
    ("cache.read", "cache.read_ns"),
    ("cache.write", "cache.write_ns"),
    ("memory.access", "memory.access_ns"),
    ("coherence.plan_remap", "coherence.plan_remap_ns"),
    ("hypervisor.next_slice", "hypervisor.next_slice_ns"),
    ("workloads.next_access", "workloads.next_access_ns"),
];

/// How often a leg called each of [`OPS`], from its report.  Cache reads
/// and writes split the L1 lookups by the sampled store share; a slice is
/// scheduled once per host per slice.
pub fn op_counts(report: &Report, write_share: f64, slices: u64) -> [f64; 10] {
    let parts = report.parts();
    let sum =
        |f: &dyn Fn(&hatric::SimReport) -> u64| parts.iter().map(|p| f(p)).sum::<u64>() as f64;
    let cache_ops = sum(&|p| p.cache.l1.total());
    [
        sum(&|p| p.translation.l1_tlb.total()),
        sum(&|p| p.coherence.hw_messages),
        sum(&|p| p.coherence.full_flushes),
        sum(&|p| p.translation.l2_tlb.misses()),
        cache_ops * (1.0 - write_share),
        cache_ops * write_share,
        sum(&|p| p.cache.memory_accesses.get()),
        sum(&|p| p.coherence.remaps),
        slices as f64,
        sum(&|p| p.accesses),
    ]
}

/// Host nanoseconds per call of each of [`OPS`], and the store share of
/// the sampled accesses.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    pub ns: [f64; 10],
    pub write_share: f64,
}

/// A warmed system's state, borrowed for the unit-cost probes.
pub struct Probe<'a> {
    pub structures: &'a TranslationStructures,
    pub caches: &'a CacheHierarchy,
    pub memory: &'a MemorySystem,
    pub guest: &'a GuestPageTable,
    pub nested: &'a NestedPageTable,
    pub vm: &'a VirtualMachine,
    pub cpu: CpuId,
    pub stream: usize,
    pub driver: WorkloadDriver,
    pub protocol: Box<dyn TranslationCoherence>,
    pub scheduler: Option<Scheduler>,
    /// Whether the system's accesses go through the slice engine, whose
    /// simulate phase runs each CPU's private pair against frozen shared
    /// state, rather than the serial `CacheHierarchy` path.
    pub engine_caches: bool,
}

impl<'a> Probe<'a> {
    /// Probes VM slot `slot` of a consolidated host.  The host keeps its
    /// workload drivers private, so the slot's driver is rebuilt from the
    /// host's seed the way the host derives it, and advanced by the
    /// accesses the slot's measured phase issued, so the probes draw
    /// addresses from the stream's steady state rather than its start.
    pub fn of_host(host: &'a ConsolidatedHost, slot: usize) -> Self {
        let config = host.config();
        let spec = &config.vms[slot];
        let vm = host.vm(slot);
        let cpu = vm
            .vm()
            .cpus_ever_used()
            .first()
            .copied()
            .unwrap_or(CpuId::new(0));
        let seed = config
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(slot as u64 + 1));
        let mut driver = WorkloadDriver::from(AppWorkload::build(
            spec.workload,
            spec.vcpus,
            spec.workload_scale_pages,
            seed,
        ));
        let threads = driver.thread_count();
        for i in 0..host.report().per_vm[slot].accesses as usize {
            driver.next_access(i % threads);
        }
        let vcpus: Vec<usize> = config.vms.iter().map(|v| v.vcpus).collect();
        let platform = host.platform();
        Probe {
            structures: platform.translation_structures(cpu),
            caches: platform.caches(),
            memory: platform.memory(),
            guest: vm.guest_page_table(),
            nested: vm.nested_page_table(),
            vm: vm.vm(),
            cpu,
            stream: slot,
            driver,
            protocol: config.mechanism.build(config.platform_config().costs),
            scheduler: Some(Scheduler::new(config.sched, config.num_pcpus, &vcpus)),
            engine_caches: true,
        }
    }

    /// Probes the single-VM system.  `System` exposes no memory model, so
    /// `fresh` supplies one built from the same configuration.
    pub fn of_system(system: &'a System, driver: &WorkloadDriver, fresh: &'a Platform) -> Self {
        let cpu = CpuId::new(0);
        Probe {
            structures: system.translation_structures(cpu),
            caches: system.caches(),
            memory: fresh.memory(),
            guest: system.guest_page_table(),
            nested: system.nested_page_table(),
            vm: system.virtual_machine(),
            cpu,
            stream: 0,
            driver: driver.clone(),
            protocol: system.config().mechanism.build(system.config().costs),
            scheduler: None,
            engine_caches: false,
        }
    }
}

/// Median host ns per op over [`BATCHES`] runs of `batch`, which performs
/// `ops` operations on state `setup` prepares; preparing and dropping the
/// state stay outside the timed interval.
fn time_per_op<S>(ops: usize, mut setup: impl FnMut() -> S, mut batch: impl FnMut(&mut S)) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            batch(&mut state);
            let elapsed = start.elapsed();
            drop(state);
            elapsed.as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Host ns per cache access on the slice engine's path: `PrivatePair::
/// simulate_read` (or `simulate_write`) on the probed CPU's pair against
/// the frozen shared level, as a host's simulate phase calls it.  The
/// logged shared-level ops are dropped after each call, where the engine
/// moves them into its effect log.
fn engine_cache_ns(probe: &Probe<'_>, lines: &[CacheLineAddr], write: bool) -> f64 {
    let (cpu, pair) = (probe.cpu, probe.cpu.index());
    time_per_op(
        lines.len(),
        || (probe.caches.clone(), Vec::new(), CacheStatsDelta::default()),
        |(caches, ops, delta)| {
            let (shared, pairs) = caches.split_simulate();
            for line in lines {
                if write {
                    black_box(pairs[pair].simulate_write(
                        shared,
                        cpu,
                        black_box(*line),
                        ops,
                        delta,
                    ));
                } else {
                    black_box(pairs[pair].simulate_read(shared, cpu, black_box(*line), ops, delta));
                }
                ops.clear();
            }
        },
    )
}

/// Times each layer's entry point on clones of the probed state.
pub fn measure_unit_costs(probe: &Probe<'_>) -> UnitCosts {
    let threads = probe.driver.thread_count();
    let mut sampler = probe.driver.clone();
    let sample: Vec<(usize, Access)> = (0..SAMPLE_ACCESSES)
        .map(|i| {
            let thread = i % threads;
            (thread, sampler.next_access(thread))
        })
        .collect();
    let write_share = ratio(
        sample.iter().filter(|(_, a)| a.is_write).count() as u64,
        sample.len() as u64,
    );
    let vm_id = probe.vm.id();
    let asids: Vec<_> = sample
        .iter()
        .map(|(t, _)| probe.vm.address_space(probe.driver.address_space_index(*t)))
        .collect();
    // Walks of the sampled pages the guest has mapped (first touches in the
    // sample have no translation yet).
    let walks: Vec<(TwoDimWalk, u8)> = sample
        .iter()
        .filter_map(|(_, a)| {
            TwoDimWalker::walk(a.gvp, probe.guest, probe.nested)
                .ok()
                .map(|w| (w, a.line_in_page))
        })
        .collect();
    let cotag_bytes = probe.structures.cotag_bytes();
    let cotags: Vec<CoTag> = walks
        .iter()
        .map(|(w, _)| CoTag::from_pte_addr(w.nested_leaf_pte_addr(), cotag_bytes))
        .collect();
    let lines: Vec<_> = walks
        .iter()
        .map(|(w, line)| w.spp.addr_at(u64::from(*line) * 64).cache_line())
        .collect();

    let next_access = time_per_op(
        SAMPLE_ACCESSES,
        || probe.driver.clone(),
        |d| {
            for i in 0..SAMPLE_ACCESSES {
                black_box(d.next_access(i % threads));
            }
        },
    );
    let lookup = time_per_op(
        sample.len(),
        || probe.structures.clone(),
        |ts| {
            for ((_, a), asid) in sample.iter().zip(&asids) {
                black_box(ts.lookup_data(vm_id, *asid, black_box(a.gvp)));
            }
        },
    );
    let invalidate = time_per_op(
        cotags.len(),
        || probe.structures.clone(),
        |ts| {
            for tag in &cotags {
                black_box(ts.invalidate_cotag(black_box(*tag)));
            }
        },
    );
    let flush = time_per_op(
        FLUSH_CLONES,
        || vec![probe.structures.clone(); FLUSH_CLONES],
        |clones| {
            for ts in clones.iter_mut() {
                black_box(ts.flush_all());
            }
        },
    );
    let walk = time_per_op(
        walks.len(),
        || (),
        |_| {
            for (w, _) in &walks {
                black_box(TwoDimWalker::walk(black_box(w.gvp), probe.guest, probe.nested).ok());
            }
        },
    );
    let (read, write) = if probe.engine_caches {
        (
            engine_cache_ns(probe, &lines, false),
            engine_cache_ns(probe, &lines, true),
        )
    } else {
        (
            time_per_op(
                lines.len(),
                || probe.caches.clone(),
                |caches| {
                    for line in &lines {
                        black_box(caches.read(probe.cpu, black_box(*line)));
                    }
                },
            ),
            time_per_op(
                lines.len(),
                || probe.caches.clone(),
                |caches| {
                    for line in &lines {
                        black_box(caches.write(probe.cpu, black_box(*line)));
                    }
                },
            ),
        )
    };
    let memory = time_per_op(
        walks.len(),
        || probe.memory.clone(),
        |memory| {
            // Spaced issue times keep the clone's queues near their
            // in-run depth instead of piling every request up at once.
            let mut now = 1u64 << 40;
            for (w, _) in &walks {
                now += 500;
                black_box(memory.access(black_box(w.spp), probe.stream, SocketId::new(0), now));
            }
        },
    );
    let plan = {
        let pte_line = walks
            .first()
            .map(|(w, _)| w.nested_leaf_pte_addr())
            .unwrap_or(SystemPhysAddr::new(0))
            .cache_line();
        let mut sharers = SharerSet::empty();
        for cpu in (0..probe.caches.config().num_cpus).map(|c| CpuId::new(c as u32)) {
            if probe.caches.is_sharer(pte_line, cpu) {
                sharers.add(cpu);
            }
        }
        let ctx = RemapContext {
            initiator: probe.cpu,
            vm: vm_id,
            vm_cpus: probe.vm.cpus_ever_used().to_vec(),
            running_guest: probe.vm.running_guest().to_vec(),
            sharers,
        };
        time_per_op(
            SAMPLE_ACCESSES,
            || (),
            |_| {
                for _ in 0..SAMPLE_ACCESSES {
                    black_box(probe.protocol.plan_remap(black_box(&ctx)));
                }
            },
        )
    };
    let next_slice = probe.scheduler.as_ref().map_or(0.0, |scheduler| {
        time_per_op(
            SAMPLE_ACCESSES,
            || (scheduler.clone(), Vec::new()),
            |(s, out)| {
                for _ in 0..SAMPLE_ACCESSES {
                    s.next_slice_into(out);
                    black_box(&*out);
                }
            },
        )
    });
    UnitCosts {
        ns: [
            lookup,
            invalidate,
            flush,
            walk,
            read,
            write,
            memory,
            plan,
            next_slice,
            next_access,
        ],
        write_share,
    }
}

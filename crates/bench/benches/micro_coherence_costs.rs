//! Microbenchmarks of the structures on the translation-coherence critical
//! path (the Sec. 3.2 anatomy): TLB fills and lookups, co-tag invalidation,
//! full flushes, private-cache misses, directory-mediated page-table
//! writes, directory capacity evictions, and the per-remap planning cost of
//! each protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use hatric_cache::{
    CacheHierarchy, CacheHierarchyConfig, CacheStatsDelta, CoherenceDirectory, DirectoryConfig,
    PtKind, SharerSet,
};
use hatric_coherence::{CoherenceCosts, CoherenceMechanism, RemapContext};
use hatric_tlb::{StructureSizes, TlbLevel, TranslationStructures};
use hatric_types::{
    AddressSpaceId, CacheLineAddr, CoTag, CpuId, GuestVirtPage, SystemFrame, SystemPhysAddr, VmId,
};

fn filled_structures() -> TranslationStructures {
    let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
    let vm = VmId::new(0);
    let asid = AddressSpaceId::new(0);
    for i in 0..512u64 {
        ts.fill_data(
            vm,
            asid,
            GuestVirtPage::new(i),
            SystemFrame::new(i + 1),
            SystemPhysAddr::new(0x10_0000 + i * 8),
            None,
        );
    }
    ts
}

fn bench_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_structures");
    group.bench_function("tlb_lookup_hit", |b| {
        let mut ts = filled_structures();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 512;
            ts.lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(i))
        })
    });
    group.bench_function("tlb_lookup_l2_hit", |b| {
        // Cycling over more pages than the 64-entry L1 TLB holds, and few
        // enough for the 512-entry L2, a lookup misses L1 and hits L2
        // (promoting the page into L1 and demoting an L1 victim).  Pages
        // that still hit L1 or miss L2 (hash-set imbalance) are dropped
        // until a whole cycle hits L2.
        let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
        let lookup = |ts: &mut TranslationStructures, i: u64| {
            ts.lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(i))
        };
        let mut pages: Vec<u64> = (0..192).collect();
        for &i in &pages {
            let pte = SystemPhysAddr::new(0x10_0000 + i * 8);
            ts.fill_data(
                VmId::new(0),
                AddressSpaceId::new(0),
                GuestVirtPage::new(i),
                SystemFrame::new(i + 1),
                pte,
                None,
            );
        }
        loop {
            let before = pages.len();
            pages.retain(|&i| lookup(&mut ts, i).map(|hit| hit.level) == Some(TlbLevel::L2));
            if pages.len() == before {
                break;
            }
        }
        assert!(
            pages.len() > 64,
            "only {} pages hit the L2 TLB",
            pages.len()
        );
        let mut cycle = pages.into_iter().cycle();
        b.iter(|| lookup(&mut ts, cycle.next().unwrap_or_default()))
    });
    group.bench_function("cotag_selective_invalidation", |b| {
        let mut ts = filled_structures();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % 512;
            ts.invalidate_cotag(CoTag::from_pte_addr(
                SystemPhysAddr::new(0x10_0000 + i * 8),
                2,
            ))
        })
    });
    group.bench_function("full_flush", |b| {
        b.iter_batched(
            filled_structures,
            |mut ts| ts.flush_all(),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_caches");
    group.bench_function("private_pair_simulate_read_miss", |b| {
        // A stream of fresh lines: every read misses L1 and L2, probes the
        // frozen directory and LLC, fills both levels and logs its ops.
        let mut caches = CacheHierarchy::new(CacheHierarchyConfig::haswell_like(4));
        let (mut ops, mut delta) = (Vec::new(), CacheStatsDelta::default());
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            ops.clear();
            let (shared, pairs) = caches.split_simulate();
            pairs[0].simulate_read(
                shared,
                CpuId::new(0),
                CacheLineAddr::new(n * 64),
                &mut ops,
                &mut delta,
            )
        })
    });
    group.bench_function("cache_read_serial_at_directory_capacity", |b| {
        // One CPU streams fresh lines through a directory smaller than its
        // private caches (16 banks of four 16-way sets), so once every set
        // is full each read allocates an entry and evicts one
        // (back-invalidating the victim line).
        let mut caches = CacheHierarchy::new(CacheHierarchyConfig {
            directory: DirectoryConfig { max_entries: 1024 },
            ..CacheHierarchyConfig::haswell_like(1)
        });
        let mut n = 0u64;
        let mut read = move || {
            n += 1;
            caches.read(CpuId::new(0), CacheLineAddr::new(n * 64))
        };
        for _ in 0..2048 {
            read();
        }
        assert!(read().back_invalidated.is_some(), "reads must evict");
        b.iter(read)
    });
    group.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_directory");
    group.bench_function("directory_note_read_evicting", |b| {
        // A full directory noting reads of fresh lines: each allocates and
        // evicts the least recently touched entry of its 16-way set.
        let mut dir = CoherenceDirectory::new(DirectoryConfig { max_entries: 4096 });
        let mut n = 0u64;
        let mut note = move || {
            n += 1;
            dir.note_read(CacheLineAddr::new(n * 64), CpuId::new((n % 4) as u32))
        };
        for _ in 0..4096 {
            note();
        }
        assert!(note().1.is_some(), "a full directory must evict");
        b.iter(note)
    });
    group.bench_function("pt_line_write_with_16_sharers", |b| {
        let mut caches = CacheHierarchy::new(CacheHierarchyConfig::haswell_like(16));
        let line = CacheLineAddr::new(0x40_0000);
        for cpu in 0..16 {
            caches.read(CpuId::new(cpu), line);
        }
        caches.mark_pt_line(line, PtKind::Nested);
        b.iter(|| caches.write(CpuId::new(0), line))
    });
    group.finish();
}

fn bench_protocol_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_protocol");
    let mut sharers = SharerSet::empty();
    for cpu in 0..16 {
        sharers.add(CpuId::new(cpu));
    }
    let ctx = RemapContext {
        initiator: CpuId::new(0),
        vm: VmId::new(0),
        vm_cpus: (0..16).map(CpuId::new).collect(),
        running_guest: (0..16).map(CpuId::new).collect(),
        sharers,
    };
    for mechanism in [
        CoherenceMechanism::Software,
        CoherenceMechanism::Hatric,
        CoherenceMechanism::UnitdPlusPlus,
        CoherenceMechanism::Ideal,
    ] {
        let protocol = mechanism.build(CoherenceCosts::haswell_measured());
        let label = format!("plan_remap_{mechanism:?}");
        let ctx = ctx.clone();
        group.bench_function(label, move |b| b.iter(|| protocol.plan_remap(&ctx)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_structures,
    bench_caches,
    bench_directory,
    bench_protocol_planning
);
criterion_main!(benches);

//! Allocation guard: once the coherence directory has grown to its full
//! size, reads, writes and page-table markings — with their directory
//! evictions, back-invalidations and sharer invalidations — do not touch
//! the heap.  A counting global allocator keeps one count per thread, so
//! the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hatric_cache::{
    CacheHierarchy, CacheHierarchyConfig, DirectoryConfig, PrivateCacheConfig, PtKind,
};
use hatric_types::{CacheLineAddr, CpuId, SimRng};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only bumps a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn line(n: u64) -> CacheLineAddr {
    CacheLineAddr::new(n * 64)
}

/// Seeded reads, writes and page-table markings by 4 CPUs over 1,024
/// lines, 4 times the directory's 256 entries.
fn run(h: &mut CacheHierarchy, rng: &mut SimRng, ops: u64) {
    for _ in 0..ops {
        let cpu = CpuId::new(rng.below(4) as u32);
        let l = line(rng.below(1_024));
        match rng.below(8) {
            0..=3 => drop(h.read(cpu, l)),
            4..=6 => drop(h.write(cpu, l)),
            _ => drop(h.mark_pt_line(l, PtKind::Nested)),
        }
    }
}

#[test]
fn warmed_accesses_do_not_allocate() {
    let mut h = CacheHierarchy::new(CacheHierarchyConfig {
        num_cpus: 4,
        l1: PrivateCacheConfig {
            capacity_bytes: 1024,
            ways: 2,
        },
        l2: PrivateCacheConfig {
            capacity_bytes: 4096,
            ways: 4,
        },
        llc_bytes: 8 * 1024,
        llc_ways: 4,
        directory: DirectoryConfig { max_entries: 256 },
        eager_pt_directory_update: false,
    });
    // Warm up: the directory doubles its sets until it reaches full size,
    // and only then evicts.
    let mut rng = SimRng::new(7);
    run(&mut h, &mut rng, 20_000);
    assert!(h.directory_stats().evictions.get() > 0);
    let before = h.stats();
    let allocations = allocations_during(|| run(&mut h, &mut rng, 20_000));
    let after = h.stats();
    assert_eq!(
        allocations, 0,
        "cache accesses allocated {allocations} times"
    );
    // The measured rounds exercised the coherence paths.
    assert!(after.back_invalidations.get() > before.back_invalidations.get());
    assert!(after.invalidations_sent.get() > before.invalidations_sent.get());
    assert!(after.memory_accesses.get() > before.memory_accesses.get());
    // The guard sees allocations at all.
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![0u8; 16]))),
        1
    );
}

//! Allocation guard: a warmed page copy books its DRAM and link occupancy
//! without touching the heap.  A counting global allocator keeps one count
//! per thread, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hatric_memory::{MemoryKind, MemorySystem, MemorySystemConfig, NumaConfig};
use hatric_types::SocketId;

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

#[test]
fn page_copies_do_not_allocate() {
    let mut mem =
        MemorySystem::new(MemorySystemConfig::paper_default().with_numa(NumaConfig::symmetric(2)));
    let src = mem
        .allocate_on(MemoryKind::OffChip, SocketId::new(0))
        .unwrap();
    let local = mem
        .allocate_on(MemoryKind::DieStacked, SocketId::new(0))
        .unwrap();
    let remote = mem
        .allocate_on(MemoryKind::DieStacked, SocketId::new(1))
        .unwrap();
    // Warm up: the first copy creates the stream's bucket on each device.
    mem.page_copy_cycles(src, local, 3, 0);
    mem.page_copy_cycles(src, remote, 3, 0);
    let mut total = 0;
    let allocations = allocations_during(|| {
        for i in 0..64u64 {
            total += mem.page_copy_cycles(src, local, 3, 1_000 + 50 * i);
            total += mem.page_copy_cycles(local, remote, 3, 1_000 + 50 * i);
        }
    });
    assert!(total > 0);
    assert_eq!(allocations, 0, "page copies allocated {allocations} times");
    // The guard sees allocations at all.
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![0u8; 16]))),
        1
    );
}

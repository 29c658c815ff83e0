//! Allocation guard: servicing a TLB miss — the two-dimensional walk and
//! the walk plan that fills the translation structures — does not touch
//! the heap once the structures are warm.  A counting global allocator
//! keeps one count per thread, so the test harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hatric_pagetable::{GuestPageTable, NestedPageTable, TwoDimWalker};
use hatric_tlb::{StructureSizes, TranslationStructures};
use hatric_types::{AddressSpaceId, GuestFrame, GuestVirtPage, SystemFrame, VmId};

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
fn tlb_misses_do_not_allocate() {
    let mut guest = GuestPageTable::new(GuestFrame::new(0x10_000));
    let mut nested = NestedPageTable::new(SystemFrame::new(0x80_000));
    // Pages spread over several guest leaf tables.
    let pages: Vec<GuestVirtPage> = (0..64u64)
        .map(|i| GuestVirtPage::new(i * 97 + (i % 4) * 0x4_0000))
        .collect();
    for (i, &gvp) in pages.iter().enumerate() {
        let gpp = GuestFrame::new(0x200 + i as u64);
        guest.map(gvp, gpp);
        nested.map(gpp, SystemFrame::new(0x9000 + i as u64));
    }
    for node in guest.node_frames() {
        nested.map(node, SystemFrame::new(node.number() + 0x100_000));
    }
    let (vm, asid) = (VmId::new(0), AddressSpaceId::new(0));
    let mut structures = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
    let miss = |structures: &mut TranslationStructures, gvp| {
        let walk = TwoDimWalker::walk(gvp, &guest, &nested).expect("mapped page");
        structures.service_miss(vm, asid, &walk, true).refs.len()
    };
    // Warm up: one miss per page.
    for &gvp in &pages {
        miss(&mut structures, gvp);
    }
    let mut refs = 0;
    let allocations = allocations_during(|| {
        for _ in 0..4 {
            for &gvp in &pages {
                refs += miss(&mut structures, gvp);
            }
        }
    });
    assert!(refs > 0);
    assert_eq!(
        allocations,
        0,
        "{} misses allocated {allocations} times",
        4 * pages.len()
    );
    // The guard sees allocations at all.
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![0u8; 16]))),
        1
    );
}

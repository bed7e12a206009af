//! The relocation-set query path allocates nothing (DESIGN.md §8): a
//! counting global allocator observes zero heap allocations across a
//! property-vector sync and repeated Algorithm 1 `nextRS` selections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ziv_common::{CacheGeometry, CoreId, LineAddr};
use ziv_core::llc::{LlcBank, LlcState, PropertyLevel, ZivProperty};
use ziv_replacement::{AccessCtx, PolicyKind};

/// Counts the allocations made by the current thread, so the test
/// harness's own threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A ZIV bank wider than one PV word whose sets are half filled, with
/// every other block not privately cached, and every set left stale.
fn stale_bank(property: ZivProperty, policy: PolicyKind) -> LlcBank {
    let geom = CacheGeometry::new(256, 4);
    let mut bank = LlcBank::new(geom, policy.build(geom, 1), Some(property));
    for set in 0..geom.sets {
        for way in 0..2u8 {
            let line = LineAddr::new(u64::from(set) * 4 + u64::from(way));
            let ctx = AccessCtx::demand(line, 0x40, CoreId::new(0), 0, 0);
            bank.array.fill(
                set,
                way,
                line.raw(),
                LlcState {
                    line,
                    not_in_prc: (set + u32::from(way)) % 2 == 0,
                    likely_dead: set % 3 == 0,
                    ..Default::default()
                },
            );
            bank.policy.on_fill(set, way, &ctx);
            bank.mark_stale(set);
        }
    }
    bank
}

#[test]
fn pv_sync_and_next_rs_selection_do_not_allocate() {
    for (property, policy) in [
        (ZivProperty::LruNotInPrC, PolicyKind::Lru),
        (ZivProperty::MaxRrpvLikelyDead, PolicyKind::Hawkeye),
    ] {
        let mut bank = stale_bank(property, policy);
        let before = allocations();
        bank.sync_pvs();
        let mut picks = 0u64;
        for _ in 0..1_000 {
            for &level in property.levels() {
                if let Some(rs) = bank.take_next_rs(level) {
                    picks += u64::from(rs) + 1;
                }
            }
        }
        bank.mark_stale(7);
        let in_set = bank.set_satisfies(7, PropertyLevel::NotInPrC);
        let allocated = allocations() - before;
        assert!(
            picks > 0 && in_set,
            "{property:?}: the PVs must be populated"
        );
        assert_eq!(
            allocated, 0,
            "{property:?}: the PV sync and nextRS queries allocated {allocated} time(s)"
        );
    }
}

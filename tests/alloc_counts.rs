//! Allocation counts of EPPP generation and of a warm EPPP cache hit,
//! counted rather than timed. A wrapping global allocator counts each
//! thread's calls (`alloc`, `alloc_zeroed`, `realloc`), so tests running
//! side by side do not see each other's allocations; every run here uses
//! one worker, which runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spp::boolfn::BoolFn;
use spp::core::SppCache;
use spp::prelude::*;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each call that hands out memory.
struct Counting;

fn count() {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations this thread made.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn output(circuit: &str, index: usize) -> BoolFn {
    spp::benchgen::registry::circuit(circuit).expect("registry circuit").output_on_support(index)
}

/// The allocations of a one-worker warm EPPP hit of `f`, after a cold run
/// filled a fresh cache.
fn warm_hit_allocations(f: &BoolFn) -> (usize, u64) {
    let cache = SppCache::in_memory(64 * 1024 * 1024);
    let cold = Minimizer::new(f).threads(1).cache(cache.clone()).generate();
    assert!(!cold.stats.truncated, "only a complete set is cached");
    let minimizer = Minimizer::new(f).threads(1).cache(cache.clone());
    let (warm, allocations) = allocations_in(|| minimizer.generate());
    assert_eq!(warm.pseudocubes, cold.pseudocubes, "the hit must return the cold set");
    assert_eq!(warm.stats.comparisons, 0, "a hit must not compare any pair");
    (warm.pseudocubes.len(), allocations)
}

/// A hit copies the cached set in a fixed number of allocations, whatever
/// its size: every pseudocube of an 8-input function keeps its basis
/// inline, so copying one allocates nothing.
#[test]
fn warm_eppp_hits_allocate_the_same_whatever_the_set_size() {
    let (large, large_allocations) = warm_hit_allocations(&output("mlp4", 5));
    let (small, small_allocations) = warm_hit_allocations(&output("maj5", 0));
    assert_eq!((large, small), (4_604, 65));
    assert_eq!(
        large_allocations, small_allocations,
        "mlp4(5)'s hit allocates {large_allocations} times, maj5(0)'s {small_allocations}"
    );
}

/// A closed generation allocates per level, not per union: lin.rom(6)
/// keeps 33 pseudocubes and made over 6,000 allocations when each basis
/// held two heap vectors and each group's merge built its structures in
/// scratch vectors.
#[test]
fn closed_generation_allocates_per_level_not_per_union() {
    let f = output("lin.rom", 6);
    let minimizer = Minimizer::new(&f).threads(1);
    let (set, allocations) = allocations_in(|| minimizer.generate());
    assert!(!set.stats.truncated);
    assert_eq!(set.pseudocubes.len(), 33);
    assert!(allocations < 600, "lin.rom(6)'s generation made {allocations} allocations");
}

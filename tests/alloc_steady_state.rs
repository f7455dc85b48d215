//! Locks the allocation behaviour of the hot path: once an engine's
//! workspace pools are warm, repeated multiplications must allocate
//! substantially less than a fresh engine does, and the steady-state
//! allocation count must stay stable from call to call.
//!
//! This file holds exactly one test so the process-wide counting
//! allocator only ever sees the work under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use speck_repro::sparse::gen::uniform_random;
use speck_repro::speck::SpeckSpgemm;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    f();
    ALLOC_CALLS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_engine_allocates_less_and_stays_steady() {
    let a = uniform_random(600, 600, 2, 8, 42);

    // A fresh engine pays the full workspace cost every call.
    let fresh = count_allocs(|| {
        let engine = SpeckSpgemm::default();
        let _ = engine.multiply(&a, &a);
    });

    // Reused engine: warm the pools, then measure two steady-state calls.
    let engine = SpeckSpgemm::default();
    for _ in 0..3 {
        let _ = engine.multiply(&a, &a);
    }
    let steady1 = count_allocs(|| {
        let _ = engine.multiply(&a, &a);
    });
    let steady2 = count_allocs(|| {
        let _ = engine.multiply(&a, &a);
    });

    // Warm pools may never cost more than a cold start (beyond checkout
    // noise).
    assert!(
        steady1 <= fresh + fresh / 20,
        "steady-state multiply allocated {steady1} times vs {fresh} cold"
    );
    // Absolute lock on the hot path: this warm 600-row multiply sits at
    // about 120 allocations with 2 pool threads (80 with 1, 290 with 32;
    // the pool's per-chunk result vectors grow with its width), because
    // numeric blocks write C in place and each host chunk of blocks checks
    // out one workspace. Reintroducing per-block output vectors (about
    // 720), per-row staging or per-block accumulator construction would
    // exceed the 375 ceiling, which leaves headroom for allocator noise.
    assert!(
        steady1 < 375,
        "steady-state multiply allocated {steady1} times — per-block/per-row allocations are back"
    );
    // And steady state must be steady: back-to-back warm calls may only
    // drift by pool-checkout ordering, not by per-block allocations.
    let (lo, hi) = (steady1.min(steady2), steady1.max(steady2));
    assert!(
        hi - lo <= lo / 5 + 64,
        "steady-state allocation count drifts: {steady1} then {steady2}"
    );
}

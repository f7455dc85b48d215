//! Locks the allocation behaviour of the hot path: once an engine's
//! workspace pools are warm, repeated multiplications must allocate
//! substantially less than a fresh engine does, the steady-state
//! allocation count must stay stable from call to call, a cold multiply
//! (no cached plan) must not allocate per block or per row, and recording
//! a multiply's metrics must not format or allocate names once they are
//! registered.
//!
//! This file holds exactly one test so the process-wide counting
//! allocator only ever sees the work under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use speck_repro::sparse::gen::{banded, uniform_random};
use speck_repro::sparse::Csr;
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
    // about 25 allocations with 2 pool threads (14 with 1, 33 with 4, 47
    // to 55 with 8, 67 with 16; the pool's per-chunk result vectors grow
    // with its width), because numeric blocks write C in place, each host
    // chunk of blocks checks out one workspace, a launch allocates only
    // its map output and one scheduler buffer, and metrics record into
    // entries the registry created on an earlier call. Reintroducing
    // per-block output vectors (about 720), per-row staging, per-block
    // accumulator construction or the per-launch record vectors only
    // observers read would exceed the ceiling, which leaves headroom for
    // allocator noise.
    let threads = rayon::current_num_threads() as u64;
    let ceiling = 32 + 5 * threads;
    assert!(
        steady1 < ceiling,
        "steady-state multiply allocated {steady1} times (ceiling {ceiling}) — per-block/per-row allocations are back"
    );
    // And steady state must be steady: back-to-back warm calls may only
    // drift by pool-checkout ordering, not by per-block allocations.
    let (lo, hi) = (steady1.min(steady2), steady1.max(steady2));
    assert!(
        hi - lo <= lo / 5 + 64,
        "steady-state allocation count drifts: {steady1} then {steady2}"
    );

    // Cold path: with plan caching off every call runs analysis, both
    // load balancers and the symbolic pass. On this banded matrix most
    // rows get a block of their own, so any allocation per block or per
    // row (block row lists, per-block count or analysis vectors) scales
    // with the 12 000 rows — about 3 per row once cost 37 000
    // allocations. What remains is per launch and per host chunk of
    // blocks, so the bound grows with the pool's width: about 80 with 2
    // pool threads (47 with 1, 104 with 4, 152 with 8, 253 with 16). The
    // planners' per-row arrays, per-key launch index vectors and growing
    // row runs cost about 60 more (141 with 2 threads).
    let b = banded(12_000, 12, 0.65, 7);
    let cold_engine = SpeckSpgemm::default().with_plan_cache_capacity(0);
    for _ in 0..2 {
        let _ = cold_engine.multiply(&b, &b);
    }
    let cold = count_allocs(|| {
        let _ = cold_engine.multiply(&b, &b);
    });
    let ceiling = 75 + 12 * threads;
    assert!(
        cold < ceiling,
        "cold multiply of {} rows allocated {cold} times (ceiling {ceiling}) — per-block/per-row allocations are back",
        b.rows()
    );

    // A tiny cold multiply is mostly fixed per-call cost: the plan, the
    // launches, the record stream and the metrics. With every metric
    // name and span path already registered, recording formats and
    // allocates nothing, so this identity(50) multiply sits at about 56
    // allocations with 2 pool threads (45 with 1, 61 with 4, 73 with 8,
    // 98 with 16). Formatting a metric name per record, as the registry
    // once did, costs about 60 more; keeping per-block records in every
    // launch, as launches once did, costs 6 more per launch; growing each
    // row run of a pass plan from empty costs about 10 more.
    let id: Csr<f64> = Csr::identity(50);
    for _ in 0..2 {
        let _ = cold_engine.multiply(&id, &id);
    }
    let tiny = count_allocs(|| {
        let _ = cold_engine.multiply(&id, &id);
    });
    let ceiling = 54 + 4 * threads;
    assert!(
        tiny < ceiling,
        "cold identity(50) multiply allocated {tiny} times (ceiling {ceiling}) — per-call recording allocations are back"
    );
    // Starting and ending spans on registered paths allocates nothing.
    let metrics = cold_engine.metrics();
    let spans = count_allocs(|| {
        let root = metrics.span("plan");
        let _child = root.child("analysis");
    });
    assert_eq!(spans, 0, "a span on a registered path allocated");
}

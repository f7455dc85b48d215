//! The metrics determinism contract (see `speck_core::metrics`): the
//! canonical-JSON `MetricsSnapshot` — counters and histograms, the section
//! `ci.sh --metrics` gates exactly — must be byte-identical across
//! repeated runs of the same multiply sequence, on both the cold and the
//! warm (plan-reuse) path, regardless of host thread scheduling.

use proptest::prelude::*;
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::SpeckSpgemm;

fn arb_csr(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        (
            0..rows as u32,
            0..cols as u32,
            (-500i32..500).prop_map(|v| v as f64 / 16.0 + 0.03125),
        ),
        0..=max_nnz,
    )
    .prop_map(move |trips| {
        let mut coo: Coo<f64> = Coo::new(rows, cols);
        for (r, c, v) in trips {
            coo.push(r, c, v);
        }
        coo.to_csr()
    })
}

/// One cold multiply then one warm (plan-reusing) multiply on a fresh
/// engine; returns the canonical snapshot JSON after each.
fn cold_then_warm(a: &Csr<f64>, b: &Csr<f64>) -> (String, String) {
    let engine = SpeckSpgemm::default();
    let (_, r1) = engine.multiply(a, b);
    assert!(!r1.reused_plan);
    let cold = engine.metrics_snapshot().canonical_json();
    let (_, r2) = engine.multiply(a, b);
    assert!(r2.reused_plan);
    let warm = engine.metrics_snapshot().canonical_json();
    (cold, warm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn canonical_snapshot_is_byte_identical_across_runs(
        a in arb_csr(14, 12, 60),
        b in arb_csr(12, 16, 60),
    ) {
        let (cold1, warm1) = cold_then_warm(&a, &b);
        let (cold2, warm2) = cold_then_warm(&a, &b);
        // Cold path: fresh engines running the same multiply must emit
        // byte-identical canonical snapshots.
        prop_assert_eq!(&cold1, &cold2);
        // Warm path: the plan-reuse execution is part of the contract too.
        prop_assert_eq!(&warm1, &warm2);
        // The warm snapshot extends the cold one (counters only grow), and
        // records the cache hit.
        prop_assert_ne!(&cold1, &warm1);
        prop_assert!(warm1.contains("\"plan_cache/hits\": 1"));
        prop_assert!(cold1.contains("\"plan_cache/hits\": 0"));
    }
}

#[test]
fn snapshot_roundtrips_and_matches_itself() {
    // End-to-end through the real pipeline: full JSON parses back to an
    // equal snapshot and the comparator reports zero drift against itself.
    use speck_repro::sparse::gen::uniform_random;
    use speck_repro::speck::metrics::{compare_snapshots, MetricsSnapshot};

    let a = uniform_random(300, 300, 2, 8, 5);
    let engine = SpeckSpgemm::default();
    let _ = engine.multiply(&a, &a);
    let _ = engine.multiply(&a, &a);
    let mut snap = engine.metrics_snapshot();
    snap.wall_tolerance = Some(0.5);
    let parsed = MetricsSnapshot::parse_json(&snap.full_json()).expect("parse own output");
    assert_eq!(parsed, snap);
    assert!(compare_snapshots(&snap, &parsed, 0.1).is_empty());
}

#[test]
fn batch_multiply_snapshot_is_deterministic() {
    // Engine clones multiply concurrently on scoped threads — the shared
    // registry's atomics must still produce an order-independent, stable
    // canonical snapshot.
    use speck_repro::sparse::gen::{banded, uniform_random};

    let run = || {
        let ms = [
            uniform_random(200, 200, 2, 6, 11),
            banded(300, 3, 1.0, 12),
            uniform_random(150, 150, 2, 8, 13),
        ];
        let engine = SpeckSpgemm::default();
        let concurrent_round = || {
            std::thread::scope(|s| {
                for m in &ms {
                    let e = engine.clone();
                    s.spawn(move || e.multiply(m, m));
                }
            })
        };
        concurrent_round();
        concurrent_round(); // warm round
        engine.metrics_snapshot().canonical_json()
    };
    assert_eq!(run(), run());
}

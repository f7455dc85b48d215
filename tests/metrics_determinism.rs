//! The metrics determinism contract (see `speck_core::metrics`): the
//! canonical-JSON `MetricsSnapshot` — counters and histograms, the section
//! `ci.sh --metrics` gates exactly — must be byte-identical across
//! repeated runs of the same multiply sequence, on both the cold and the
//! warm (plan-reuse) path, regardless of host thread scheduling.

use proptest::prelude::*;
use speck_repro::sparse::gen::{banded, rmat, uniform_random};
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::metrics::{MetricsRegistry, MetricsSnapshot};
use speck_repro::speck::{GlobalLbMode, SpeckConfig, SpeckSpgemm};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    use speck_repro::speck::metrics::compare_snapshots;

    let a = uniform_random(300, 300, 2, 8, 5);
    let engine = SpeckSpgemm::default();
    let _ = engine.multiply(&a, &a);
    let _ = engine.multiply(&a, &a);
    let mut snap = engine.metrics_snapshot();
    snap.wall_tolerance = Some(0.5);
    let parsed = MetricsSnapshot::parse_json(&snap.full_json()).expect("parse own output");
    assert_eq!(parsed, snap);
    assert!(compare_snapshots(&snap, &parsed).is_empty());
}

#[test]
fn batch_multiply_snapshot_is_deterministic() {
    // Engine clones multiply concurrently on scoped threads — the shared
    // registry must still produce an order-independent, stable canonical
    // snapshot.
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

/// An engine whose passes always bin, so `sim/lb/*/global_lb_used`
/// registers too.
fn binning_engine() -> SpeckSpgemm {
    SpeckSpgemm::with_config(SpeckConfig {
        global_lb: GlobalLbMode::AlwaysOn,
        ..SpeckConfig::default()
    })
}

/// The deterministic sections of two snapshots added together, with the
/// union of their gauge names (values zeroed).
fn sum(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    for (name, v) in &b.counters {
        *out.counters.entry(name.clone()).or_default() += v;
    }
    for (name, h) in &b.histograms {
        let o = out.histograms.entry(name.clone()).or_default();
        o.count += h.count;
        o.sum = o.sum.wrapping_add(h.sum);
        let mut buckets: BTreeMap<u32, u64> = o.buckets.iter().copied().collect();
        for &(i, n) in &h.buckets {
            *buckets.entry(i).or_default() += n;
        }
        o.buckets = buckets.into_iter().collect();
    }
    out.gauges.extend(b.gauges.keys().map(|k| (k.clone(), 0.0)));
    out.gauges.values_mut().for_each(|v| *v = 0.0);
    out
}

fn gauge_names(s: &MetricsSnapshot) -> Vec<&String> {
    s.gauges.keys().collect()
}

#[test]
fn engines_sharing_a_registry_record_the_sum_of_their_multiplies() {
    // Two engines feeding one registry, with different kernels and
    // passes, must record exactly what each records alone.
    let x = uniform_random(200, 200, 2, 6, 21);
    let y = rmat(7, 6, 0.57, 0.19, 0.19, 22);
    let (solo_x, solo_y) = (SpeckSpgemm::default(), binning_engine());
    for _ in 0..2 {
        let _ = solo_x.multiply(&x, &x);
        let _ = solo_y.multiply(&y, &y);
    }
    let solo = solo_x.metrics().snapshot();
    // A pass that never binned registers no `global_lb_used`.
    assert!(!solo.counters.keys().any(|n| n.ends_with("/global_lb_used")));
    let expect = sum(&solo, &solo_y.metrics().snapshot());

    let shared = Arc::new(MetricsRegistry::new());
    let ex = SpeckSpgemm::default().with_metrics(Arc::clone(&shared));
    let ey = binning_engine().with_metrics(Arc::clone(&shared));
    for _ in 0..2 {
        let _ = ex.multiply(&x, &x);
        let _ = ey.multiply(&y, &y);
    }
    let got = shared.snapshot();
    assert_eq!(got.canonical_json(), expect.canonical_json());
    assert_eq!(gauge_names(&got), gauge_names(&expect));
}

#[test]
fn a_clone_given_a_fresh_registry_records_only_there() {
    // A clone pointed at a fresh registry must record only there, not
    // into the registry it was cloned with.
    let x = uniform_random(200, 200, 2, 6, 31);
    let y = banded(150, 3, 1.0, 32);
    let engine = binning_engine();
    let _ = engine.multiply(&x, &x);
    let old = engine.metrics().snapshot();

    let fresh = Arc::new(MetricsRegistry::new());
    let clone = engine.clone().with_metrics(Arc::clone(&fresh));
    let (_, warm) = clone.multiply(&x, &x);
    assert!(warm.reused_plan, "clones share the plan cache");
    let _ = clone.multiply(&y, &y);
    assert_eq!(engine.metrics().snapshot(), old, "the old registry moved");

    let new = fresh.snapshot();
    assert_eq!(new.counters["engine/multiply_calls"], 2);
    assert_eq!(new.counters["engine/plan_reuses"], 1);
    assert_eq!(new.counters["span/plan/count"], 1);
    assert_eq!(new.counters["span/execute/count"], 2);
    // Together the two registries hold what one registry holds after the
    // same three multiplies.
    let one = binning_engine();
    for m in [&x, &x, &y] {
        let _ = one.multiply(m, m);
    }
    let expect = sum(&one.metrics().snapshot(), &MetricsSnapshot::default());
    let got = sum(&old, &new);
    assert_eq!(got.canonical_json(), expect.canonical_json());
    assert_eq!(gauge_names(&got), gauge_names(&expect));
}

#[test]
fn k_cold_multiplies_record_k_times_one() {
    // Every call adds to the metrics the first registered and registers
    // nothing new: k identical cold multiplies record k times what one
    // records, under the same names.
    const K: u64 = 4;
    let m = rmat(8, 6, 0.57, 0.19, 0.19, 41);
    let engine = binning_engine().with_plan_cache_capacity(0);
    let _ = engine.multiply(&m, &m);
    let one = engine.metrics().snapshot();
    for _ in 1..K {
        let _ = engine.multiply(&m, &m);
    }
    let k = engine.metrics().snapshot();

    assert!(one.counters.contains_key("sim/lb/symbolic/global_lb_used"));
    // Fixed-name counters register on their first add, even of 0: this
    // multiply spills nothing.
    assert_eq!(one.counters["sim/symbolic/spilled_blocks"], 0);
    assert_eq!(one.counters["sim/numeric/spilled_blocks"], 0);
    // Stage counters register on their first non-zero add only.
    for (name, v) in &one.counters {
        if name.starts_with("sim/stage/") {
            assert!(*v > 0, "{name} registered at zero");
        }
    }
    assert_eq!(
        k.counters.keys().collect::<Vec<_>>(),
        one.counters.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        k.histograms.keys().collect::<Vec<_>>(),
        one.histograms.keys().collect::<Vec<_>>()
    );
    assert_eq!(gauge_names(&k), gauge_names(&one));
    for (name, v) in &one.counters {
        assert_eq!(k.counters[name], K * v, "counter {name}");
    }
    for (name, h) in &one.histograms {
        let hk = &k.histograms[name];
        assert_eq!(hk.count, K * h.count, "histogram {name} count");
        assert_eq!(hk.sum, K * h.sum, "histogram {name} sum");
        let scaled: Vec<(u32, u64)> = h.buckets.iter().map(|&(i, n)| (i, K * n)).collect();
        assert_eq!(hk.buckets, scaled, "histogram {name} buckets");
    }
}

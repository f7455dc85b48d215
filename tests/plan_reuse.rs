//! Plan reuse must be *algorithmically* transparent: a reused plan
//! returns bit-identical output and memory, its timeline holds only the
//! stages that actually ran (numeric + sorting), and each of those stages
//! costs exactly what it costs on the cold path.

use proptest::prelude::*;
use speck_repro::sparse::reference::spgemm_seq;
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::pipeline::stage;
use speck_repro::speck::{MultiplyReport, SpeckSpgemm};

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

/// Same pattern as `m`, deterministically perturbed values.
fn perturb(m: &Csr<f64>, salt: u64) -> Csr<f64> {
    Csr::from_parts_unchecked(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        m.vals()
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + ((i as u64 + salt) % 13) as f64 * 1e-3))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_multiply_is_bit_identical_and_skips_setup(
        a in arb_csr(24, 20, 160),
        b in arb_csr(20, 28, 160),
    ) {
        let engine = SpeckSpgemm::default();
        let (c_cold, r_cold) = engine.multiply(&a, &b);
        let (c_warm, r_warm) = engine.multiply(&a, &b);
        prop_assert!(!r_cold.reused_plan);
        prop_assert!(r_warm.reused_plan);

        // Identical output bytes.
        prop_assert_eq!(c_warm.row_ptr(), c_cold.row_ptr());
        prop_assert_eq!(c_warm.col_idx(), c_cold.col_idx());
        for (x, y) in c_warm.vals().iter().zip(c_cold.vals()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // Identical peak memory (plan structures stay device-resident),
        // no more simulated time than the cold call.
        prop_assert_eq!(r_warm.peak_mem_bytes, r_cold.peak_mem_bytes);
        prop_assert!(r_warm.sim_time_s <= r_cold.sim_time_s);

        // The warm timeline holds only the executed stages, and each one
        // is bit-identical to its cold counterpart.
        for (name, st) in r_warm.timeline.stages() {
            prop_assert!(
                name == stage::NUMERIC || name == stage::SORTING,
                "unexpected stage {} in a reused call", name
            );
            let cold_secs = r_cold
                .timeline
                .stages()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.seconds)
                .unwrap();
            prop_assert_eq!(st.seconds.to_bits(), cold_secs.to_bits());
        }
    }

    #[test]
    fn warm_multiply_with_fresh_values_is_correct(
        a in arb_csr(20, 16, 120),
        b in arb_csr(16, 22, 120),
        salt in 0u64..1000,
    ) {
        let engine = SpeckSpgemm::default();
        let _ = engine.multiply(&a, &b);
        // Same patterns, fresh values: the plan is reused, the values are
        // not — output must match the sequential reference on the new
        // values.
        let a2 = perturb(&a, salt);
        let b2 = perturb(&b, salt.wrapping_add(1));
        let (c, r) = engine.multiply(&a2, &b2);
        prop_assert!(r.reused_plan);
        let expect = spgemm_seq(&a2, &b2);
        prop_assert!(c.approx_eq(&expect, 1e-10, 1e-12));
    }
}

/// Multiplies every `(m, m)` on its own scoped thread, each through a
/// clone of `engine` (clones share the plan cache and workspaces);
/// results in input order.
fn multiply_concurrently(engine: &SpeckSpgemm, ms: &[Csr<f64>]) -> Vec<(Csr<f64>, MultiplyReport)> {
    std::thread::scope(|s| {
        let calls: Vec<_> = ms
            .iter()
            .map(|m| {
                let e = engine.clone();
                s.spawn(move || e.multiply(m, m))
            })
            .collect();
        calls.into_iter().map(|c| c.join().unwrap()).collect()
    })
}

#[test]
fn batch_agrees_with_sequential_multiplies() {
    let ms: Vec<Csr<f64>> = (0..6)
        .map(|s| {
            speck_repro::sparse::gen::uniform_random(150 + 10 * s, 150 + 10 * s, 2, 6, s as u64)
        })
        .collect();
    let solo = SpeckSpgemm::default();
    let batch = SpeckSpgemm::default();
    let outs = multiply_concurrently(&batch, &ms);
    assert_eq!(outs.len(), ms.len());
    for ((c_b, r_b), m) in outs.iter().zip(&ms) {
        let (c_s, r_s) = solo.multiply(m, m);
        assert!(c_b.approx_eq(&c_s, 0.0, 0.0), "batch result differs");
        assert_eq!(r_b.sim_time_s.to_bits(), r_s.sim_time_s.to_bits());
        assert_eq!(r_b.peak_mem_bytes, r_s.peak_mem_bytes);
    }
    // Second concurrent round over the same patterns: every multiply is
    // warm.
    let outs2 = multiply_concurrently(&batch, &ms);
    for ((c2, r2), (c1, r1)) in outs2.iter().zip(&outs) {
        assert!(r2.reused_plan);
        assert!(c2.approx_eq(c1, 0.0, 0.0));
        assert!(r2.sim_time_s < r1.sim_time_s);
    }
    assert_eq!(batch.cached_plans(), ms.len());
}

/// `m` with every row's columns cyclically shifted by one and re-sorted:
/// a valid CSR with the same shape, row lengths and NNZ, but a different
/// column pattern (for rows that are neither empty nor full).
fn shift_columns(m: &Csr<f64>) -> Csr<f64> {
    let mut col_idx = Vec::with_capacity(m.nnz());
    for r in 0..m.rows() {
        let (cols, _) = m.row(r);
        let mut row: Vec<u32> = cols.iter().map(|&c| (c + 1) % m.cols() as u32).collect();
        row.sort_unstable();
        col_idx.extend(row);
    }
    Csr::from_parts_unchecked(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        col_idx,
        m.vals().to_vec(),
    )
}

#[test]
#[should_panic(expected = "do not match the plan")]
fn execute_plan_rejects_a_same_shape_pattern() {
    let a = speck_repro::sparse::gen::uniform_random(200, 200, 2, 6, 9);
    let shifted = shift_columns(&a);
    shifted.validate().unwrap();
    assert_eq!((shifted.rows(), shifted.cols()), (a.rows(), a.cols()));
    assert_eq!(shifted.nnz(), a.nnz());
    assert_ne!(shifted.col_idx(), a.col_idx());
    let engine = SpeckSpgemm::default();
    let plan = engine.plan(&a, &a);
    // Same shape and NNZ, different columns: refused before any kernel.
    let _ = engine.execute_plan(&plan, &shifted, &shifted);
}

#[test]
fn explicit_plan_api_round_trips_through_the_facade() {
    let a = speck_repro::sparse::gen::banded(900, 3, 1.0, 5);
    let engine = SpeckSpgemm::default();
    let plan = engine.plan(&a, &a);
    let (c, r) = engine.execute_plan(&plan, &a, &a);
    assert!(r.reused_plan);
    assert_eq!(plan.nnz_c(), c.nnz());
    let (c_cold, r_cold) = SpeckSpgemm::default()
        .with_plan_cache_capacity(0)
        .multiply(&a, &a);
    assert!(c.approx_eq(&c_cold, 0.0, 0.0));
    let total = plan.setup_sim_time_s() + r.sim_time_s;
    assert!((total - r_cold.sim_time_s).abs() <= 1e-12 * r_cold.sim_time_s);
}

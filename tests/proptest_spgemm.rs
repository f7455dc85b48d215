//! Property-based tests of the SpGEMM algorithms: on arbitrary matrices,
//! spECK and every baseline must agree with the dense oracle, and the
//! expected algebraic identities must hold.

use proptest::prelude::*;
use speck_repro::baselines::all_methods;
use speck_repro::simt::{CostModel, DeviceConfig};
use speck_repro::sparse::reference::{spgemm_cpu_parallel, spgemm_row_nnz, spgemm_seq};
use speck_repro::sparse::transpose::transpose;
use speck_repro::sparse::{Coo, Csr, DenseMatrix};
use speck_repro::speck::SpeckSpgemm;

/// `(row, column, value)` triples with indices below `rows` and `cols`.
fn arb_trips(rows: u32, cols: u32, max_nnz: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec(
        (
            0..rows,
            0..cols,
            (-500i32..500).prop_map(|v| v as f64 / 16.0 + 0.03125),
        ),
        0..=max_nnz,
    )
}

fn arb_csr(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    arb_trips(rows as u32, cols as u32, max_nnz).prop_map(move |t| folded(rows, cols, &t))
}

/// `rows × cols` matrix of `trips`, indices folded into range (empty when
/// either dimension is 0).
fn folded(rows: usize, cols: usize, trips: &[(u32, u32, f64)]) -> Csr<f64> {
    let mut coo: Coo<f64> = Coo::new(rows, cols);
    for &(r, c, v) in trips.iter().filter(|_| rows > 0 && cols > 0) {
        coo.push(r % rows as u32, c % cols as u32, v);
    }
    coo.to_csr()
}

/// Operand chains `ops[0] · ops[1] (· ops[2])` of edge shapes, from triples
/// whose indices are below 64: a 0×k and an n×0 operand, an inner
/// dimension of 0, 1×1, 512 rows of which at most 64 hold entries, one
/// full hub row and column, and a rectangular chain `(A·B)·C`.
fn edge_chains((m, k, n): (usize, usize, usize), t: &[(u32, u32, f64)]) -> Vec<Vec<Csr<f64>>> {
    let h = (k / 2) as u32;
    let hub_trips: Vec<_> = (0..k as u32)
        .flat_map(|i| [(h, i, 3.0), (i, h, 5.0)])
        .chain(t.iter().copied())
        .collect();
    let hub = folded(k, k, &hub_trips);
    vec![
        vec![folded(0, k, t), folded(k, n, t)],
        vec![folded(m, k, t), folded(k, 0, t)],
        vec![folded(m, 0, t), folded(0, n, t)],
        vec![folded(1, 1, t), folded(1, 1, t)],
        vec![folded(512, k, t), folded(k, n, t)],
        vec![hub.clone(), hub],
        vec![folded(m, k, t), folded(k, n, t), folded(n, m, t)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn speck_handles_edge_shapes_cold_and_cached(
        dims in (1usize..24, 1usize..24, 1usize..24),
        trips in arb_trips(64, 64, 120),
    ) {
        for dev in [DeviceConfig::titan_v(), DeviceConfig::tiny()] {
            let mut cold = SpeckSpgemm::default().with_plan_cache_capacity(0);
            cold.device = dev.clone();
            for ops in edge_chains(dims, &trips) {
                let expect = ops[1..].iter().fold(ops[0].clone(), |c, m| spgemm_seq(&c, m));
                let mut cached = SpeckSpgemm::default();
                cached.device = dev.clone();
                // The cold engine never reuses a plan; the cached one must on
                // its second run (its first may: a chain can repeat a pattern).
                for (engine, reuse) in [(&cold, Some(false)), (&cached, None), (&cached, Some(true))] {
                    let c = ops[1..].iter().fold(ops[0].clone(), |c, m| {
                        let (c, report) = engine.multiply(&c, m);
                        assert!(reuse.is_none_or(|r| r == report.reused_plan));
                        c
                    });
                    prop_assert!(c.approx_eq(&expect, 1e-9, 1e-12));
                }
            }
        }
    }

    #[test]
    fn reference_matches_dense_oracle(
        a in arb_csr(12, 10, 50),
        b in arb_csr(10, 14, 50),
    ) {
        let c = spgemm_seq(&a, &b);
        let oracle = DenseMatrix::from_csr(&a).matmul(&DenseMatrix::from_csr(&b));
        // Compare dense values (sparse may store explicit zeros from
        // cancellation; oracle drops nothing either way in dense form).
        let cd = DenseMatrix::from_csr(&c);
        for r in 0..a.rows() {
            for col in 0..b.cols() {
                prop_assert!((cd.get(r, col) - oracle.get(r, col)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parallel_reference_matches_sequential(
        a in arb_csr(16, 12, 70),
        b in arb_csr(12, 16, 70),
    ) {
        let c1 = spgemm_seq(&a, &b);
        let c2 = spgemm_cpu_parallel(&a, &b);
        prop_assert!(c1.approx_eq(&c2, 1e-12, 1e-12));
    }

    #[test]
    fn speck_matches_reference_on_arbitrary_inputs(
        a in arb_csr(20, 16, 90),
        b in arb_csr(16, 20, 90),
    ) {
        let engine = SpeckSpgemm::default();
        let (c, _) = engine.multiply(&a, &b);
        prop_assert!(c.approx_eq(&spgemm_seq(&a, &b), 1e-9, 1e-12));
    }

    #[test]
    fn identity_is_two_sided_neutral(a in arb_csr(15, 15, 60)) {
        let i: Csr<f64> = Csr::identity(15);
        let engine = SpeckSpgemm::default();
        let (ai, _) = engine.multiply(&a, &i);
        let (ia, _) = engine.multiply(&i, &a);
        prop_assert!(ai.approx_eq(&a, 1e-12, 1e-14));
        prop_assert!(ia.approx_eq(&a, 1e-12, 1e-14));
    }

    #[test]
    fn transpose_of_product_matches_reversed_product(
        a in arb_csr(10, 8, 40),
        b in arb_csr(8, 12, 40),
    ) {
        // (A*B)^T == B^T * A^T, computed through spECK both ways.
        let engine = SpeckSpgemm::default();
        let (ab, _) = engine.multiply(&a, &b);
        let (btat, _) = engine.multiply(&transpose(&b), &transpose(&a));
        prop_assert!(transpose(&ab).approx_eq(&btat, 1e-9, 1e-12));
    }

    #[test]
    fn symbolic_counts_match_numeric_rows(
        a in arb_csr(18, 18, 80),
    ) {
        let counts = spgemm_row_nnz(&a, &a);
        let engine = SpeckSpgemm::default();
        let (c, _) = engine.multiply(&a, &a);
        for (i, &n) in counts.iter().enumerate() {
            prop_assert_eq!(c.row_nnz(i), n);
        }
    }
}

proptest! {
    // Fewer cases: runs all eight methods per input.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_methods_agree_on_arbitrary_inputs(a in arb_csr(14, 14, 60)) {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let expect = spgemm_seq(&a, &a);
        for m in all_methods() {
            let r = m.multiply(&dev, &cost, &a, &a);
            prop_assert!(r.ok(), "{} failed", m.name());
            let mut c = r.c.unwrap();
            if !r.sorted_output {
                c.sort_rows();
            }
            prop_assert!(
                c.approx_eq(&expect, 1e-9, 1e-12),
                "{} wrong", m.name()
            );
        }
    }
}

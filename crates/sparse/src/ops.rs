//! Element-wise sparse operations: addition, scaling, diagonal access.
//!
//! SpGEMM rarely appears alone — the paper's motivating applications
//! (algebraic multigrid \[2\], graph algorithms \[12\]) interleave it with
//! matrix addition and diagonal scaling (e.g. building the smoothed
//! prolongator `P = (I - w D^-1 A) T`). These helpers make the examples
//! real workloads instead of bare multiplications.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// `C = alpha * A + beta * B` with matching shapes; result rows stay
/// sorted and entries that appear in either operand are kept (including
/// exact numeric zeros produced by cancellation, matching SpGEMM's
/// structural semantics).
pub fn add_scaled<V: Scalar>(
    alpha: V,
    a: &Csr<V>,
    beta: V,
    b: &Csr<V>,
) -> Result<Csr<V>, SparseError> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(SparseError::DimensionMismatch {
            op: "add",
            lhs: (a.rows(), a.cols()),
            rhs: (b.rows(), b.cols()),
        });
    }
    let mut row_ptr = Vec::with_capacity(a.rows() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..a.rows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        while p < ac.len() || q < bc.len() {
            let take_a = q >= bc.len() || (p < ac.len() && ac[p] < bc[q]);
            let take_both = p < ac.len() && q < bc.len() && ac[p] == bc[q];
            if take_both {
                col_idx.push(ac[p]);
                vals.push(alpha * av[p] + beta * bv[q]);
                p += 1;
                q += 1;
            } else if take_a {
                col_idx.push(ac[p]);
                vals.push(alpha * av[p]);
                p += 1;
            } else {
                col_idx.push(bc[q]);
                vals.push(beta * bv[q]);
                q += 1;
            }
        }
        row_ptr.push(col_idx.len());
    }
    Ok(Csr::from_parts_unchecked(
        a.rows(),
        a.cols(),
        row_ptr,
        col_idx,
        vals,
    ))
}

/// `C = A + B`.
pub fn add<V: Scalar>(a: &Csr<V>, b: &Csr<V>) -> Result<Csr<V>, SparseError> {
    add_scaled(V::one(), a, V::one(), b)
}

/// Multiplies every stored value by `alpha` (pattern unchanged).
pub fn scale<V: Scalar>(a: &Csr<V>, alpha: V) -> Csr<V> {
    Csr::from_parts_unchecked(
        a.rows(),
        a.cols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.vals().iter().map(|&v| alpha * v).collect(),
    )
}

/// The main diagonal as a dense vector (`min(rows, cols)` entries; missing
/// diagonal entries are zero).
pub fn diagonal<V: Scalar>(a: &Csr<V>) -> Vec<V> {
    let n = a.rows().min(a.cols());
    let mut d = vec![V::zero(); n];
    for (i, item) in d.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        if let Ok(pos) = cols.binary_search(&(i as u32)) {
            *item = vals[pos];
        }
    }
    d
}

/// Scales row `i` of `A` by `scales[i]` (e.g. `D^-1 A` with
/// `scales[i] = 1/d_i`). Panics if `scales.len() != rows`.
pub fn scale_rows<V: Scalar>(a: &Csr<V>, scales: &[V]) -> Csr<V> {
    assert_eq!(scales.len(), a.rows(), "scale_rows: length mismatch");
    let mut vals = Vec::with_capacity(a.nnz());
    for (i, _, row_vals) in a.iter_rows() {
        for &v in row_vals {
            vals.push(scales[i] * v);
        }
    }
    Csr::from_parts_unchecked(
        a.rows(),
        a.cols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        vals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    fn sample_a() -> Csr<f64> {
        Csr::from_parts(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    fn sample_b() -> Csr<f64> {
        Csr::from_parts(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![1, 1, 2, 2],
            vec![5.0, 6.0, 7.0, 8.0],
        )
        .unwrap()
    }

    #[test]
    fn add_matches_dense() {
        let c = add(&sample_a(), &sample_b()).unwrap();
        c.validate().unwrap();
        let da = DenseMatrix::from_csr(&sample_a());
        let db = DenseMatrix::from_csr(&sample_b());
        let dc = DenseMatrix::from_csr(&c);
        for r in 0..3 {
            for col in 0..3 {
                assert_eq!(dc.get(r, col), da.get(r, col) + db.get(r, col));
            }
        }
    }

    #[test]
    fn add_scaled_applies_coefficients() {
        let c = add_scaled(2.0, &sample_a(), -1.0, &sample_b()).unwrap();
        // (1,2): a=3, b=6 -> 2*3 - 6 = 0 kept structurally.
        let (cols, vals) = c.row(1);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[0.0, -7.0]);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = sample_a();
        let b: Csr<f64> = Csr::identity(4);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn scale_and_identity() {
        let s = scale(&sample_a(), 0.5);
        assert!(s.pattern_eq(&sample_a()));
        assert_eq!(s.vals()[0], 0.5);
        let z = scale(&sample_a(), 1.0);
        assert!(z.approx_eq(&sample_a(), 0.0, 0.0));
    }

    #[test]
    fn diagonal_extraction() {
        let d = diagonal(&sample_a());
        assert_eq!(d, vec![1.0, 3.0, 4.0]);
        let i: Csr<f64> = Csr::identity(4);
        assert_eq!(diagonal(&i), vec![1.0; 4]);
    }

    #[test]
    fn scale_rows_applies_per_row() {
        let s = scale_rows(&sample_a(), &[1.0, 10.0, 100.0]);
        assert_eq!(s.vals(), &[1.0, 2.0, 30.0, 400.0]);
        s.validate().unwrap();
    }

    #[test]
    fn jacobi_smoother_shape() {
        // (I - w D^-1 A) stays square and keeps A's sparsity + diagonal.
        let a = sample_a();
        let d = diagonal(&a);
        let dinv: Vec<f64> = d
            .iter()
            .map(|&x| if x != 0.0 { 1.0 / x } else { 0.0 })
            .collect();
        let da = scale_rows(&a, &dinv);
        let i: Csr<f64> = Csr::identity(3);
        let s = add_scaled(1.0, &i, -0.5, &da).unwrap();
        s.validate().unwrap();
        assert_eq!(s.rows(), 3);
        // Diagonal entries: 1 - 0.5 * a_ii/d_i = 0.5 where d_i != 0.
        assert_eq!(s.row(0).1[0], 0.5);
    }
}

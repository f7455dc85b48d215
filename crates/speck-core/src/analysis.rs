//! Lightweight row analysis — paper Algorithm 1 (§4.1).
//!
//! For every row of A, gather in one O(NNZ(A)) pass: (a) the total number
//! of products, (b) the longest referenced row of B, and (c) the minimum
//! and maximum column index over all referenced rows of B. The global
//! maximum product count over rows is also extracted. This is all the
//! information the global and local load balancers and the accumulator
//! selection consume.
//!
//! Each block of the analysis kernel owns a contiguous run of rows and
//! writes their [`RowInfo`] records in place, into its piece of the final
//! per-row vector ([`speck_simt::launch_pieces`]); the host allocates that
//! vector once per call.

use crate::cascade::{symbolic_entry_bytes, KernelCascade};
use speck_simt::{
    launch_pieces, BlockCtx, BlockRecords, CostModel, DeviceConfig, KernelConfig, KernelReport,
};
use speck_sparse::{Csr, Scalar};

/// Per-row analysis record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowInfo {
    /// Total products of this row: sum of referenced B row lengths
    /// (upper bound on temporary elements; `prod_r` in Alg. 1).
    pub products: u64,
    /// Length of the longest referenced row of B (`prod_{r,max}`).
    pub max_b_row: u32,
    /// Smallest column index reachable in this output row.
    pub col_min: u32,
    /// Largest column index reachable in this output row (inclusive).
    pub col_max: u32,
    /// NNZ of this row of A.
    pub nnz_a: u32,
}

impl RowInfo {
    /// Width of the reachable column range (0 for empty rows).
    pub fn col_range(&self) -> u64 {
        if self.products == 0 {
            0
        } else {
            (self.col_max - self.col_min) as u64 + 1
        }
    }
}

/// Whole-matrix analysis result.
#[derive(Clone, Debug)]
pub struct AnalysisInfo {
    /// Per-row records, `a.rows()` entries.
    pub rows: Vec<RowInfo>,
    /// Maximum products over all rows (`prod_max` in Alg. 1).
    pub max_products: u64,
    /// Total products of the multiplication.
    pub total_products: u64,
    /// Rows whose conservative product count exceeds even the largest
    /// symbolic hash map of the device's kernel cascade — the rows that
    /// can force a global hash-map fallback (paper §4.3). Counted once
    /// here so the pipeline's overflow-pool sizing (cold path and plan
    /// reuse alike) doesn't re-scan all rows per call.
    pub overflow_rows: usize,
}

impl AnalysisInfo {
    /// Features of a block of `rows` that the local load balancer reads
    /// (paper §3.2): `(nnz_a, products, max_b_row)` — NZ of A and
    /// products summed over the rows, and the longest referenced row of
    /// B.
    #[inline]
    pub(crate) fn block_features(&self, rows: &[u32]) -> (u64, u64, u64) {
        let info = &self.rows;
        let nnz_a = rows.iter().map(|&r| info[r as usize].nnz_a as u64).sum();
        let products = rows.iter().map(|&r| info[r as usize].products).sum();
        let max_b_row = rows.iter().map(|&r| info[r as usize].max_b_row as u64);
        (nnz_a, products, max_b_row.max().unwrap_or(0))
    }
}

/// Runs the row analysis as a simulated kernel; returns the analysis and
/// the kernel report for stage accounting. The launch keeps no per-block
/// records.
pub fn analyze<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    a: &Csr<V>,
    b: &Csr<V>,
) -> (AnalysisInfo, KernelReport) {
    analyze_with(dev, cost, a, b, BlockRecords::Skip)
}

/// [`analyze`], with the launch keeping per-block records as `records`
/// asks (an observing engine keeps them).
pub(crate) fn analyze_with<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    a: &Csr<V>,
    b: &Csr<V>,
    records: BlockRecords,
) -> (AnalysisInfo, KernelReport) {
    assert_eq!(a.cols(), b.rows(), "analyze: dimension mismatch");
    let n = a.rows();
    let threads = 256usize.min(dev.max_threads_per_block);
    // The pass parallelises over the NZ of A (paper §4.1): size the grid to
    // saturate the device, keeping blocks at least a warp's worth of rows
    // but no more than ~1k NZ each (matrices with few, heavy rows would
    // otherwise leave most SMs idle).
    let by_rows = n.div_ceil(dev.num_sms * dev.blocks_per_sm(threads, 0));
    let by_nnz = (n * 1024).div_ceil(a.nnz().max(1));
    let rows_per_block = by_rows.min(by_nnz).clamp(1, 4096).max(1);
    let cfg = KernelConfig::new(threads, 0);

    // One block per `rows_per_block` rows; block `i` writes piece `i`.
    let mut rows = vec![RowInfo::default(); n];
    let report = launch_pieces(
        dev,
        cost,
        "row_analysis",
        &mut rows,
        rows_per_block,
        cfg,
        records,
        |ctx: &mut BlockCtx, out: &mut [RowInfo]| {
            let start = ctx.block_id() * rows_per_block;
            let mut nnz_in_block = 0usize;
            for (i, slot) in (start..).zip(out.iter_mut()) {
                let (a_cols, _) = a.row(i);
                let mut info = RowInfo {
                    products: 0,
                    max_b_row: 0,
                    col_min: u32::MAX,
                    col_max: 0,
                    nnz_a: a_cols.len() as u32,
                };
                for &k in a_cols {
                    let k = k as usize;
                    let len = b.row_nnz(k) as u64;
                    info.products += len;
                    info.max_b_row = info.max_b_row.max(len as u32);
                    if len > 0 {
                        let (b_cols, _) = b.row(k);
                        info.col_min = info.col_min.min(b_cols[0]);
                        info.col_max = info.col_max.max(*b_cols.last().unwrap());
                    }
                }
                if info.products == 0 {
                    info.col_min = 0;
                    info.col_max = 0;
                }
                nnz_in_block += a_cols.len();
                *slot = info;
            }
            // Cost: stream A's columns once (coalesced, 4 B each); per NZ of
            // A, fetch the B row-offset pair plus the first and last column
            // of the referenced row — amortised to ~1 scattered sector per
            // NZ, since clustered references (the common case, cf. paper
            // Fig. 8) hit cache (Alg. 1 lines 5-7). The block-level
            // prod_max reduction is a couple of scratchpad ops per row.
            let block_rows = out.len();
            ctx.charge_gmem_stream(ctx.threads(), block_rows + 1, 8); // A row_ptr
            ctx.charge_gmem_stream(ctx.threads(), nnz_in_block, 4); // A cols
            ctx.charge_gmem_scatter(nnz_in_block as u64);
            ctx.charge_smem(2 * block_rows as u64);
        },
    );

    // Host-side bookkeeping folded into one sweep over the records: it
    // charges nothing (the simulated kernel above already paid for
    // reading the per-row products).
    let cascade = KernelCascade::for_device(dev);
    let overflow_cap = cascade.hash_capacity(cascade.largest(), symbolic_entry_bytes(b.cols()));
    let (mut max_products, mut total_products, mut overflow_rows) = (0u64, 0u64, 0usize);
    for r in &rows {
        max_products = max_products.max(r.products);
        total_products += r.products;
        overflow_rows += usize::from(r.products as usize > overflow_cap);
    }
    (
        AnalysisInfo {
            rows,
            max_products,
            total_products,
            overflow_rows,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{rmat, uniform_random};

    fn run(a: &Csr<f64>, b: &Csr<f64>) -> AnalysisInfo {
        analyze(&DeviceConfig::tiny(), &CostModel::default(), a, b).0
    }

    #[test]
    fn matches_direct_computation_small() {
        let a =
            Csr::from_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0, 1.0, 1.0]).unwrap();
        let b =
            Csr::from_parts(3, 4, vec![0, 2, 3, 6], vec![1, 3, 0, 0, 1, 2], vec![1.0; 6]).unwrap();
        let info = run(&a, &b);
        // Row 0 references B rows 0 (len 2, cols 1..3) and 2 (len 3, cols 0..2).
        assert_eq!(info.rows[0].products, 5);
        assert_eq!(info.rows[0].max_b_row, 3);
        assert_eq!(info.rows[0].col_min, 0);
        assert_eq!(info.rows[0].col_max, 3);
        assert_eq!(info.rows[0].nnz_a, 2);
        // Row 1 is empty.
        assert_eq!(info.rows[1].products, 0);
        assert_eq!(info.rows[1].col_range(), 0);
        // Row 2 references B row 1 (len 1, col 0).
        assert_eq!(info.rows[2].products, 1);
        assert_eq!(info.rows[2].col_min, 0);
        assert_eq!(info.rows[2].col_max, 0);
        assert_eq!(info.max_products, 5);
        assert_eq!(info.total_products, 6);
    }

    #[test]
    fn total_products_matches_csr_products() {
        let a = uniform_random(300, 300, 1, 8, 3);
        let info = run(&a, &a);
        assert_eq!(info.total_products, a.products(&a));
        assert_eq!(info.rows.len(), 300);
    }

    #[test]
    fn demand_ratio_distinguishes_uniform_from_skewed() {
        let uniform = uniform_random(500, 500, 4, 4, 1);
        let skewed = rmat(9, 8, 0.57, 0.19, 0.19, 1);
        // The paper's `m_max / m_avg` load-variance measure (§5).
        let ratio = |info: AnalysisInfo| {
            info.max_products as f64 / (info.total_products as f64 / info.rows.len() as f64)
        };
        let ru = ratio(run(&uniform, &uniform));
        let rs = ratio(run(&skewed, &skewed));
        assert!(ru < 3.0, "uniform ratio {ru}");
        assert!(rs > 5.0, "skewed ratio {rs}");
    }

    #[test]
    fn col_range_covers_reachable_columns() {
        let a = uniform_random(100, 100, 1, 5, 9);
        let info = run(&a, &a);
        let c = speck_sparse::reference::spgemm_seq(&a, &a);
        for i in 0..100 {
            let (cols, _) = c.row(i);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                assert!(info.rows[i].col_min <= first);
                assert!(info.rows[i].col_max >= last);
            }
        }
    }

    #[test]
    fn analysis_cost_scales_with_nnz() {
        let small = uniform_random(200, 200, 2, 2, 5);
        let big = uniform_random(200, 200, 16, 16, 5);
        let dev = DeviceConfig::tiny();
        let cm = CostModel::default();
        let (_, r_small) = analyze(&dev, &cm, &small, &small);
        let (_, r_big) = analyze(&dev, &cm, &big, &big);
        assert!(r_big.sim_cycles > r_small.sim_cycles);
    }

    #[test]
    fn empty_matrix_analysis() {
        let a: Csr<f64> = Csr::empty(10, 10);
        let info = run(&a, &a);
        assert_eq!(info.total_products, 0);
        assert_eq!(info.max_products, 0);
    }
}

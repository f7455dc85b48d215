//! RMerge-style iterative row merging (Gremse et al., SISC 2015).
//!
//! Each output row is formed by repeatedly merging pairs of sorted lists:
//! level 0 holds the scaled rows of B referenced by the row of A, and each
//! level halves the list count with a pairwise sorted merge. Very fast for
//! thin matrices (one or two levels), but: work grows with
//! `products x log2(nnz_a_row)`, temporary buffers are equally sized per
//! row within a block (bad utilisation when densities vary — paper
//! Table 1 "fixed" load balancing), and memory is two ping-pong buffers of
//! intermediate size.

use crate::common::{csr_from_rows, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_simt::{launch_map, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;

/// RMerge-style method.
pub struct RMergeLike;

/// Rows per merging block.
const ROWS_PER_BLOCK: usize = 32;

/// Merges two sorted (col, val) lists, summing duplicate columns.
fn merge2(x: &[(u32, f64)], y: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = Vec::with_capacity(x.len() + y.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < x.len() || j < y.len() {
        let take_x = j >= y.len() || (i < x.len() && x[i].0 <= y[j].0);
        let (c, v) = if take_x {
            let e = x[i];
            i += 1;
            e
        } else {
            let e = y[j];
            j += 1;
            e
        };
        match out.last_mut() {
            Some(last) if last.0 == c => last.1 += v,
            _ => out.push((c, v)),
        }
    }
    out
}

/// Rows computed by one block: (columns, values) per row.
type RowList = Vec<(Vec<u32>, Vec<f64>)>;

impl SpgemmMethod for RMergeLike {
    fn name(&self) -> &'static str {
        "rmerge"
    }

    fn multiply(
        &self,
        dev: &DeviceConfig,
        cost: &CostModel,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> MethodResult {
        let mut acct = RunAccounting::new(dev);
        let products = a.products(b) as usize;

        // Ping-pong intermediate buffers: generation 0 holds the scaled
        // rows of B (the products), generation 1 the first merge outputs —
        // at most half of generation 0 and shrinking with deduplication
        // (paper Table 3 measures RMerge at ~2.7x spECK's peak).
        let gen0 = products.max(1) * 12;
        acct.alloc(gen0.min(dev.memory_bytes));
        acct.alloc((gen0 / 2).min(dev.memory_bytes / 2));
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        let n = a.rows();
        let grid = n.div_ceil(ROWS_PER_BLOCK).max(1);
        let threads = 256;
        let (report, rows_out): (_, Vec<RowList>) = launch_map(
            dev,
            cost,
            "rmerge_levels",
            grid,
            KernelConfig::new(threads, 32 * 1024),
            BlockRecords::Skip,
            |ctx| {
                let start = ctx.block_id() * ROWS_PER_BLOCK;
                let end = (start + ROWS_PER_BLOCK).min(n);
                let mut out = Vec::with_capacity(end - start);
                // Equal-sized temporary slots per row: the block pays for
                // its *longest* row at every level (the utilisation flaw).
                let mut level_max: Vec<u64> = Vec::new();
                for r in start..end {
                    let (a_cols, a_vals) = a.row(r);
                    let mut lists: Vec<Vec<(u32, f64)>> = a_cols
                        .iter()
                        .zip(a_vals)
                        .map(|(&k, &av)| {
                            let (bc, bv) = b.row(k as usize);
                            bc.iter().zip(bv).map(|(&c, &v)| (c, av * v)).collect()
                        })
                        .collect();
                    // Level 0 is materialised: read each scaled row of B
                    // and write it into the ping-pong buffer.
                    let mut tx = 0u64;
                    for l in &lists {
                        tx += 2 * ctx.stream_tx(32, l.len(), 12);
                    }
                    ctx.charge_gmem_tx(tx);
                    ctx.charge_gmem_scatter(2 * a_cols.len() as u64);
                    let mut level = 0usize;
                    while lists.len() > 1 {
                        let mut next = Vec::with_capacity(lists.len().div_ceil(2));
                        let mut pair_iter = lists.chunks(2);
                        let mut level_elems = 0u64;
                        for pair in &mut pair_iter {
                            let merged = if pair.len() == 2 {
                                merge2(&pair[0], &pair[1])
                            } else {
                                pair[0].clone()
                            };
                            level_elems += merged.len() as u64;
                            next.push(merged);
                        }
                        if level_max.len() <= level {
                            level_max.resize(level + 1, 0);
                        }
                        level_max[level] = level_max[level].max(level_elems);
                        lists = next;
                        level += 1;
                    }
                    let row = lists.pop().unwrap_or_default();
                    out.push((
                        row.iter().map(|&(c, _)| c).collect::<Vec<u32>>(),
                        row.iter().map(|&(_, v)| v).collect::<Vec<f64>>(),
                    ));
                }
                // Equal-sized arrays: each level costs the block
                // ROWS_PER_BLOCK x (max elems of any row at that level),
                // and the intermediate lists ping-pong through global
                // memory (RMerge materialises each merge generation). A
                // sorted merge step is ~8 instruction bundles per element
                // (binary search + compare + dedup + write), and the fixed
                // warp-per-row mapping costs every row a full warp's issue
                // slots per level no matter how short it is — RMerge's
                // "fixed" load balancing (paper Table 1), the reason it
                // only excels on very thin matrices.
                let rows_here = (end - start) as u64;
                for &mx in &level_max {
                    let padded = (mx * rows_here) as usize;
                    let elem_work = 8 * padded as u64;
                    let row_floor = 2 * 32 * rows_here; // 2 warp-wide bundles per row
                    ctx.charge_rounds((elem_work + row_floor).div_ceil(threads as u64));
                    let tx = ctx.stream_tx(threads, padded, 12);
                    ctx.charge_gmem_tx(2 * tx); // read gen i, write gen i+1
                    ctx.charge_smem(padded as u64);
                    ctx.charge_sync();
                }
                out
            },
        );
        acct.kernel(&report);

        // RMerge is *iterative*: every merge generation is its own kernel
        // launch over the whole matrix (the factor decomposition of A).
        let max_nnz_a = (0..n).map(|r| a.row_nnz(r)).max().unwrap_or(0);
        let levels = (max_nnz_a.max(2) as f64).log2().ceil() as usize;
        acct.fixed(
            levels.saturating_sub(1) as f64 * dev.cycles_to_seconds(dev.launch_overhead_cycles),
        );

        acct.finish(
            csr_from_rows(rows_out.into_iter().flatten(), b.cols(), true),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, rmat};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn merge2_sums_duplicates() {
        let x = vec![(1u32, 1.0), (3, 2.0)];
        let y = vec![(1u32, 0.5), (2, 1.0), (3, -2.0)];
        assert_eq!(merge2(&x, &y), vec![(1, 1.5), (2, 1.0), (3, 0.0)]);
        assert_eq!(merge2(&[], &y), y);
    }

    #[test]
    fn correct_on_mesh_and_graph() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        for a in [banded(700, 2, 1.0, 4), rmat(9, 4, 0.57, 0.19, 0.19, 5)] {
            let r = RMergeLike.multiply(&dev, &cost, &a, &a);
            assert!(r.ok());
            assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
        }
    }

    #[test]
    fn thin_matrices_are_its_sweet_spot() {
        // Very thin (2 NZ/row) vs denser (16 NZ/row) at equal product
        // count: RMerge's relative gap to spECK must shrink on the thin one.
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let thin = banded(16_000, 1, 1.0, 6); // ~3/row, 1 merge level
        let dense = banded(3_000, 8, 1.0, 7); // ~17/row, 5 levels
        let speck = crate::speck_method::SpeckMethod::default();
        let ratio = |a: &Csr<f64>| {
            let r = RMergeLike.multiply(&dev, &cost, a, a).sim_time_s;
            let s = speck.multiply(&dev, &cost, a, a).sim_time_s;
            r / s
        };
        assert!(ratio(&thin) < ratio(&dense));
    }
}

//! bhSPARSE-style hybrid SpGEMM (Liu & Vinter, IPDPS 2014).
//!
//! Rows are binned by their intermediate-product count into: zero/one
//! (trivial), tiny (heap accumulator), medium (bitonic ESC in scratchpad)
//! and large (iterative global-memory merge with buffer doubling). Binning
//! uses per-row atomics and each bin is its own kernel launch, so small
//! matrices drown in fixed overheads — the paper measures bhSPARSE at
//! ~13x spECK on average with ~4.4x its memory.

use crate::common::{charge_count_kernel, charge_scatter_binning, csr_from_rows, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_simt::{launch_map, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;
use std::collections::BTreeMap;

/// bhSPARSE-style method.
pub struct BhSparse;

/// Bin boundaries on intermediate products (following the original's 38
/// bins, coarsened to the four strategy classes).
const TINY_MAX: u64 = 32;
const MEDIUM_MAX: u64 = 256;

/// Rows computed by one block: (row id, (columns, values)).
type BlockRows = Vec<(u32, (Vec<u32>, Vec<f64>))>;

fn accumulate_row(a: &Csr<f64>, b: &Csr<f64>, r: usize) -> (Vec<u32>, Vec<f64>) {
    // Sorted-structure accumulation (heap/bitonic analogue).
    let mut map: BTreeMap<u32, f64> = BTreeMap::new();
    let (a_cols, a_vals) = a.row(r);
    for (&k, &av) in a_cols.iter().zip(a_vals) {
        let (bc, bv) = b.row(k as usize);
        for (&c, &v) in bc.iter().zip(bv) {
            *map.entry(c).or_insert(0.0) += av * v;
        }
    }
    (
        map.keys().copied().collect(),
        map.values().copied().collect(),
    )
}

impl SpgemmMethod for BhSparse {
    fn name(&self) -> &'static str {
        "bhsparse"
    }

    fn multiply(
        &self,
        dev: &DeviceConfig,
        cost: &CostModel,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> MethodResult {
        let mut acct = RunAccounting::new(dev);
        let n = a.rows();
        let products: Vec<u64> = crate::common::products_per_row(a, b);
        let total_products: u64 = products.iter().sum();

        // Analysis + atomic binning.
        acct.kernel(&charge_count_kernel(dev, cost, "bh_count", n, a.nnz()));
        acct.kernel(&charge_scatter_binning(dev, cost, "bh_bin", n));
        acct.alloc(n * 8 + 38 * 8);

        // Upper-bound buffers for the large bin (buffer-doubling merges):
        // every large row gets a products-sized scratch region.
        let large_products: u64 = products.iter().filter(|&&p| p > MEDIUM_MAX).sum();
        acct.alloc(large_products as usize * 18); // 1.5x for buffer doubling
                                                  // Medium/tiny staging buffers.
        acct.alloc((total_products - large_products) as usize * 12);
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        let mut bins: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (r, &p) in products.iter().enumerate() {
            let idx = if p <= TINY_MAX {
                0
            } else if p <= MEDIUM_MAX {
                1
            } else {
                2
            };
            bins[idx].push(r as u32);
        }

        let mut rows_out: Vec<Option<(Vec<u32>, Vec<f64>)>> = vec![None; n];
        for (bin_idx, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                // The original still launches (and pays for) bin kernels
                // unconditionally; model one no-op launch per empty class.
                acct.fixed(dev.cycles_to_seconds(dev.launch_overhead_cycles));
                continue;
            }
            let (threads, rows_per_block, scratch) = match bin_idx {
                0 => (256usize, 64usize, 8 * 1024usize),
                1 => (256, 8, 32 * 1024),
                _ => (512, 1, 0),
            };
            let grid = bin.len().div_ceil(rows_per_block);
            let (report, outs): (_, Vec<BlockRows>) = launch_map(
                dev,
                cost,
                format!("bh_bin{bin_idx}"),
                grid,
                KernelConfig::new(threads, scratch),
                BlockRecords::Skip,
                |ctx| {
                    let start = ctx.block_id() * rows_per_block;
                    let end = (start + rows_per_block).min(bin.len());
                    let mut out = Vec::with_capacity(end - start);
                    for &r in &bin[start..end] {
                        let p = products[r as usize];
                        let (a_cols, _) = a.row(r as usize);
                        let mut tx = 0u64;
                        for &k in a_cols {
                            tx += ctx.stream_tx(32, b.row_nnz(k as usize), 12);
                        }
                        ctx.charge_gmem_tx(tx);
                        ctx.charge_gmem_scatter(2 * a_cols.len() as u64);
                        match bin_idx {
                            0 => {
                                // Heap insertion: log-factor scratch ops.
                                ctx.charge_smem_atomic(p * 6);
                                ctx.charge_rounds(p.div_ceil(32));
                            }
                            1 => {
                                // Bitonic ESC: products are staged in the
                                // global temp buffer (the ESC expand),
                                // sorted with n log^2 n compare-exchanges
                                // (warp-op units like the AC baseline) and
                                // re-read for the compress step.
                                ctx.charge_gmem_store(p as usize, 12);
                                ctx.charge_gmem_stream(threads, p as usize, 12);
                                let logn = (p.max(2) as f64).log2().ceil() as u64;
                                let warps = (threads as u64).div_ceil(32);
                                ctx.charge_sort_steps(
                                    p * logn * logn / threads as u64 * warps + logn,
                                );
                                ctx.charge_smem(2 * p);
                                ctx.charge_rounds(p.div_ceil(threads as u64));
                            }
                            _ => {
                                // Global merge with buffer doubling: every
                                // product is read and written through
                                // global memory on each of the ~log rounds.
                                let logk = (a_cols.len().max(2) as f64).log2().ceil() as u64;
                                ctx.charge_gmem_tx(2 * p * logk * 12 / 32 + logk);
                                ctx.charge_gmem_scatter(p / 2);
                                ctx.charge_rounds(p * logk / threads as u64 + 1);
                            }
                        }
                        let row = accumulate_row(a, b, r as usize);
                        ctx.charge_gmem_store(row.0.len(), 12);
                        out.push((r, row));
                    }
                    ctx.charge_sync();
                    out
                },
            );
            acct.kernel(&report);
            for block in outs {
                for (r, row) in block {
                    rows_out[r as usize] = Some(row);
                }
            }
        }

        let rows = rows_out.into_iter().map(Option::unwrap_or_default);
        acct.finish(csr_from_rows(rows, b.cols(), true), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn correct_across_bins() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        for a in [
            banded(500, 1, 1.0, 1),             // tiny bin
            uniform_random(300, 300, 8, 12, 2), // medium bin
            rmat(9, 8, 0.57, 0.19, 0.19, 3),    // mixed, incl. large
        ] {
            let r = BhSparse.multiply(&dev, &cost, &a, &a);
            assert!(r.ok());
            assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
        }
    }

    #[test]
    fn memory_is_product_bound() {
        let a = uniform_random(400, 400, 10, 20, 9);
        let dev = DeviceConfig::titan_v();
        let r = BhSparse.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.peak_mem_bytes >= a.products(&a) as usize * 12);
    }

    #[test]
    fn empty_rows_survive() {
        let a: Csr<f64> = Csr::empty(10, 10);
        let dev = DeviceConfig::titan_v();
        let r = BhSparse.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.ok());
        assert_eq!(r.c.unwrap().nnz(), 0);
    }
}

//! KokkosKernels-style portable SpGEMM (Deveci et al., IPDPSW 2017).
//!
//! A performance-portable two-level hash accumulator with one fixed team
//! configuration. Two deliberate behaviours from the paper's evaluation
//! (§6): (a) the returned columns are **unsorted**, skipping "one of the
//! most expensive steps in SpGEMM"; (b) large/irregular inputs fail
//! outright (815 of 2672 matrices in the paper) — modelled here as rows
//! whose product count exceeds the portable accumulator's bound.

use crate::common::{charge_count_kernel, csr_from_rows, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_core::hashacc::Accumulator;
use speck_simt::{launch_map, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;

/// KokkosKernels-style method.
pub struct KokkosLike;

/// Fixed team configuration.
const THREADS: usize = 256;
const SCRATCH: usize = 16 * 1024;
/// Rows per team block.
const ROWS_PER_BLOCK: usize = 16;
/// A row above this product count makes the whole multiplication fail
/// (calibrated so roughly the paper's share of irregular matrices fails —
/// KokkosKernels could not complete 815 of 2672, §6.1).
const MAX_ROW_PRODUCTS: u64 = 1 << 15;

/// Rows computed by one block: (columns, values) per row.
type RowList = Vec<(Vec<u32>, Vec<f64>)>;

impl SpgemmMethod for KokkosLike {
    fn name(&self) -> &'static str {
        "kokkos"
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
        let products = crate::common::products_per_row(a, b);
        acct.kernel(&charge_count_kernel(dev, cost, "kk_count", n, a.nnz()));

        if let Some(p) = products.iter().find(|&&p| p > MAX_ROW_PRODUCTS) {
            return MethodResult::failure(format!(
                "row with {p} products exceeds the portable accumulator bound"
            ));
        }

        // Global second-level tables sized by products.
        let total: u64 = products.iter().sum();
        acct.alloc(total as usize * 12);
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        let grid = n.div_ceil(ROWS_PER_BLOCK).max(1);
        let kc = KernelConfig::new(THREADS, SCRATCH);
        let scratch_cap = SCRATCH / 12;
        let (report, rows): (_, Vec<RowList>) =
            launch_map(dev, cost, "kk_hash", grid, kc, BlockRecords::Skip, |ctx| {
                let start = ctx.block_id() * ROWS_PER_BLOCK;
                let end = (start + ROWS_PER_BLOCK).min(n);
                let mut out = Vec::with_capacity(end - start);
                for r in start..end {
                    let (a_cols, a_vals) = a.row(r);
                    let mut acc: Accumulator<f64> = Accumulator::new(scratch_cap.max(4));
                    let mut tx = 0u64;
                    let mut p = 0u64;
                    for (&k, &av) in a_cols.iter().zip(a_vals) {
                        let (bc, bv) = b.row(k as usize);
                        tx += ctx.stream_tx(16, bc.len(), 12);
                        for (&c, &v) in bc.iter().zip(bv) {
                            acc.insert(c as u64, av * v);
                            p += 1;
                        }
                    }
                    ctx.charge_gmem_tx(tx);
                    ctx.charge_gmem_scatter(2 * a_cols.len() as u64);
                    ctx.charge_probes(acc.stats.probes);
                    ctx.charge_gmem_atomic(acc.stats.gmem_inserts);
                    ctx.charge_spill(acc.stats.spilled);
                    // Portable team overhead: extra bookkeeping rounds per
                    // row regardless of size.
                    ctx.charge_rounds(p.div_ceil(16) + 8);
                    let entries = acc.drain_sorted();
                    ctx.charge_gmem_store(entries.len(), 12);
                    // Emit UNSORTED (insertion-order-ish): deterministically
                    // rotate the sorted list so downstream consumers notice.
                    let m = entries.len();
                    let rot = if m > 1 { (r % (m - 1)) + 1 } else { 0 };
                    let mut cols: Vec<u32> = Vec::with_capacity(m);
                    let mut vals: Vec<f64> = Vec::with_capacity(m);
                    for i in 0..m {
                        let (k, v) = entries[(i + rot) % m];
                        cols.push(k as u32);
                        vals.push(v);
                    }
                    out.push((cols, vals));
                }
                ctx.charge_sync();
                out
            });
        acct.kernel(&report);
        // KokkosKernels is two-phase like every hash method: a symbolic
        // count pass precedes the numeric pass, with essentially the same
        // cost profile (we charge the numeric kernel's simulated time once
        // more, minus nothing — the symbolic pass walks the same data).
        acct.kernel(&report);
        acct.alloc((n + 1) * 8);

        // NOT sorted CSR — flagged to the harness.
        acct.finish(
            csr_from_rows(rows.into_iter().flatten(), b.cols(), false),
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::uniform_random;
    use speck_sparse::reference::spgemm_seq;
    use speck_sparse::Coo;

    #[test]
    fn correct_after_host_side_sort() {
        let a = uniform_random(200, 200, 2, 6, 31);
        let dev = DeviceConfig::titan_v();
        let r = KokkosLike.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.ok());
        assert!(!r.sorted_output);
        let mut c = r.c.unwrap();
        c.sort_rows();
        assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
    }

    #[test]
    fn output_is_actually_unsorted() {
        let a = uniform_random(100, 100, 4, 8, 7);
        let dev = DeviceConfig::titan_v();
        let r = KokkosLike.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(!r.c.unwrap().is_sorted(), "kokkos must violate CSR order");
    }

    #[test]
    fn fails_on_huge_rows() {
        // One row referencing everything: products >> bound.
        let n = 2000u32;
        let mut coo = Coo::<f64>::new(n as usize, n as usize);
        for j in 0..n {
            coo.push(0, j, 1.0);
            coo.push(j, (j + 1) % n, 1.0);
        }
        for i in 0..n {
            for d in 0..100u32 {
                coo.push(i, (i * 7 + d * 13) % n, 0.5);
            }
        }
        let a = coo.to_csr();
        // Row 0 references ~2000 rows of ~100 -> ~200k products > bound.
        let dev = DeviceConfig::titan_v();
        let r = KokkosLike.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(!r.ok());
    }
}

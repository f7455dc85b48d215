//! CUSP-style global Expand–Sort–Compress (Bell & Garland).
//!
//! All intermediate products are materialised in global memory (*expand*),
//! radix-sorted by (row, column) (*sort*) and summed (*compress*). No
//! analysis, automatic load balance — but O(products) temporary memory and
//! sorting work proportional to the *intermediate* count, which is why ESC
//! loses badly on high-compaction matrices (paper Table 1).

use crate::common::RunAccounting;
use crate::{MethodResult, SpgemmMethod};
use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;

/// The CUSP-style ESC method.
pub struct CuspEsc;

impl SpgemmMethod for CuspEsc {
    fn name(&self) -> &'static str {
        "cusp-esc"
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

        // Expand buffer: (row|col key, value) per product.
        acct.alloc(products * 16);
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        // --- Expand: every product written once, fully coalesced.
        let threads = dev.max_threads_per_block;
        let per_block = threads * 8;
        let grid = products.div_ceil(per_block).max(1);
        let expand = launch(
            dev,
            cost,
            "esc_expand",
            grid,
            KernelConfig::new(threads, 0),
            BlockRecords::Skip,
            |ctx| {
                let n = per_block.min(products.saturating_sub(ctx.block_id() * per_block));
                ctx.charge_gmem_stream(threads, n, 12); // read A/B elements
                ctx.charge_gmem_stream(threads, n, 16); // write expanded pairs
            },
        );
        acct.kernel(&expand);

        // Functional expand on the host side.
        let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(products);
        for i in 0..a.rows() {
            let (a_cols, a_vals) = a.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k as usize);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    pairs.push((((i as u64) << 32) | j as u64, av * bv));
                }
            }
        }

        // --- Sort: 8-bit-digit radix over 64-bit keys = 8 passes, each a
        // full read + scatter write of every product, plus ping-pong buffer.
        acct.alloc(products * 16);
        let sort = launch(
            dev,
            cost,
            "esc_sort",
            grid,
            KernelConfig::new(threads, 8 * 1024),
            BlockRecords::Skip,
            |ctx| {
                let n = per_block.min(products.saturating_sub(ctx.block_id() * per_block));
                for _ in 0..8 {
                    ctx.charge_gmem_stream(threads, n, 16);
                    ctx.charge_smem_atomic(n as u64);
                    ctx.charge_gmem_scatter(n as u64 / 4);
                    ctx.charge_sync();
                }
            },
        );
        acct.kernel(&sort);
        pairs.sort_unstable_by_key(|&(k, _)| k);

        // --- Compress: segmented reduction, one pass.
        let compress = launch(
            dev,
            cost,
            "esc_compress",
            grid,
            KernelConfig::new(threads, 4 * 1024),
            BlockRecords::Skip,
            |ctx| {
                let n = per_block.min(products.saturating_sub(ctx.block_id() * per_block));
                ctx.charge_gmem_stream(threads, n, 16);
                ctx.charge_smem(2 * n as u64);
                ctx.charge_gmem_store(n / 4, 12);
            },
        );
        acct.kernel(&compress);

        let mut row_ptr = vec![0usize; a.rows() + 1];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut i = 0usize;
        while i < pairs.len() {
            let key = pairs[i].0;
            let mut v = pairs[i].1;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == key {
                v += pairs[j].1;
                j += 1;
            }
            col_idx.push((key & 0xFFFF_FFFF) as u32);
            vals.push(v);
            row_ptr[(key >> 32) as usize + 1] += 1;
            i = j;
        }
        for r in 0..a.rows() {
            row_ptr[r + 1] += row_ptr[r];
        }
        let c = Csr::from_parts_unchecked(a.rows(), b.cols(), row_ptr, col_idx, vals);
        acct.finish(c, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{block_diagonal, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn correct_on_random() {
        let a = uniform_random(300, 300, 1, 7, 9);
        let dev = DeviceConfig::titan_v();
        let r = CuspEsc.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.ok());
        assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
    }

    #[test]
    fn memory_scales_with_products_not_output() {
        // High compaction: ESC still pays for every intermediate product.
        let a = block_diagonal(4, 64, 1.0, 2);
        let dev = DeviceConfig::titan_v();
        let r = CuspEsc.multiply(&dev, &CostModel::default(), &a, &a);
        let products = a.products(&a) as usize;
        assert!(r.peak_mem_bytes >= products * 16);
    }

    #[test]
    fn fails_when_expand_exceeds_device_memory() {
        let a = block_diagonal(8, 96, 1.0, 3);
        let mut dev = DeviceConfig::titan_v();
        dev.memory_bytes = 1 << 20; // 1 MiB device
        let r = CuspEsc.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(!r.ok());
    }
}

//! AC-SpGEMM-style adaptive chunked ESC (Winter et al., PPoPP 2019).
//!
//! The NZ of A are split into equal-*work* chunks; each thread block
//! expands its chunk's products into scratchpad, sorts and compresses them
//! locally, and emits partial rows. A merge stage combines the partial
//! results of rows that straddle chunk boundaries. Strengths and
//! weaknesses follow the paper's Table 1: adaptive local balancing and
//! good memory access (fast on thin-to-medium matrices), but temporary
//! memory is heavily over-allocated (the authors "leave exact memory
//! estimates to future work"; allocation *time* is excluded from the
//! paper's measurements and from ours, the bytes are counted).

use crate::common::{csr_from_rows, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_simt::{launch_map, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;

/// AC-SpGEMM-style method.
pub struct AcSpgemm {
    /// Products per chunk (the scratchpad ESC capacity).
    pub chunk_products: usize,
    /// Temporary-memory over-allocation factor. The paper notes AC "may
    /// over-allocate temporary memory by a factor of 10x" in the worst
    /// case; 3x is the typical factor consistent with the measured 5.6x
    /// peak-memory ratio of paper Table 3.
    pub overalloc: usize,
}

impl Default for AcSpgemm {
    fn default() -> Self {
        Self {
            chunk_products: 4096,
            overalloc: 3,
        }
    }
}

/// One chunk: a contiguous range of (row, a-index) work covering about
/// `chunk_products` products.
struct Chunk {
    /// (row, a_nz_index) pairs, in CSR order.
    work: Vec<(u32, usize)>,
}

/// A chunk's emitted partial rows: (row id, columns, values).
type PartialRows = Vec<(u32, Vec<u32>, Vec<f64>)>;

impl SpgemmMethod for AcSpgemm {
    fn name(&self) -> &'static str {
        "ac"
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

        // Greedy chunking over the NZ of A by product budget (AC's global
        // work distribution; cheap, O(NNZ_A) on the host queue).
        let mut chunks: Vec<Chunk> = Vec::new();
        {
            let mut cur = Chunk { work: Vec::new() };
            let mut budget = 0usize;
            for i in 0..a.rows() {
                let (a_cols, _) = a.row(i);
                for (ai, &k) in a_cols.iter().enumerate() {
                    let len = b.row_nnz(k as usize);
                    if budget + len > self.chunk_products && !cur.work.is_empty() {
                        chunks.push(std::mem::replace(&mut cur, Chunk { work: Vec::new() }));
                        budget = 0;
                    }
                    cur.work.push((i as u32, a.row_range(i).start + ai));
                    budget += len;
                }
            }
            if !cur.work.is_empty() {
                chunks.push(cur);
            }
        }

        // Temporary chunk memory, over-allocated (bytes counted, alloc time
        // excluded per the paper's AC measurement convention).
        acct.alloc_output(products.max(1) * 12 * self.overalloc);
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        // ESC each chunk in scratchpad.
        let threads = 256;
        let kc = KernelConfig::new(threads, 48 * 1024);
        let (report, partials): (_, Vec<PartialRows>) = launch_map(
            dev,
            cost,
            "ac_chunk_esc",
            chunks.len(),
            kc,
            BlockRecords::Skip,
            |ctx| {
                let chunk = &chunks[ctx.block_id()];
                let mut pairs: Vec<(u64, f64)> = Vec::new();
                let mut tx = 0u64;
                for &(row, a_idx) in &chunk.work {
                    let k = a.col_idx()[a_idx] as usize;
                    let av = a.vals()[a_idx];
                    let (b_cols, b_vals) = b.row(k);
                    tx += ctx.stream_tx(threads, b_cols.len(), 12);
                    for (&j, &bv) in b_cols.iter().zip(b_vals) {
                        pairs.push((((row as u64) << 32) | j as u64, av * bv));
                    }
                }
                let n = pairs.len();
                ctx.charge_gmem_tx(tx);
                ctx.charge_gmem_scatter(2 * chunk.work.len() as u64);
                ctx.charge_rounds((n as u64).div_ceil(threads as u64));
                // Local sort: bitonic-style, n log^2 n compare-exchanges
                // shared by the block's lanes, in warp-op units.
                let logn = (n.max(2) as f64).log2().ceil() as u64;
                let warps = (threads as u64).div_ceil(32);
                ctx.charge_sort_steps((n as u64) * logn * logn / threads as u64 * warps + logn);
                pairs.sort_unstable_by_key(|&(k, _)| k);
                ctx.charge_smem(2 * n as u64);
                ctx.charge_sync();
                // Compress + emit partial rows.
                let mut out: PartialRows = Vec::new();
                let mut i = 0usize;
                while i < n {
                    let row = (pairs[i].0 >> 32) as u32;
                    let mut cols = Vec::new();
                    let mut vals = Vec::new();
                    while i < n && (pairs[i].0 >> 32) as u32 == row {
                        let key = pairs[i].0;
                        let mut v = pairs[i].1;
                        let mut j = i + 1;
                        while j < n && pairs[j].0 == key {
                            v += pairs[j].1;
                            j += 1;
                        }
                        cols.push((key & 0xFFFF_FFFF) as u32);
                        vals.push(v);
                        i = j;
                    }
                    out.push((row, cols, vals));
                }
                let emitted: usize = out.iter().map(|(_, c, _)| c.len()).sum();
                // Chunk results live in global temporary memory and are
                // re-read by the assembly stage; the persistent-threads
                // chunk queue costs a couple of global atomics per chunk.
                ctx.charge_gmem_store(emitted, 12);
                ctx.charge_gmem_stream(threads, emitted, 12);
                ctx.charge_gmem_store(emitted, 12);
                ctx.charge_gmem_atomic(3);
                out
            },
        );
        acct.kernel(&report);

        // The real AC pipeline is several kernels beyond the ESC itself:
        // chunk setup, the chunk-pointer prefix scan, and the copy of chunk
        // storage into the final CSR (every output element moves once more
        // through global memory).
        let nnz_out: usize = partials.iter().flatten().map(|(_, c, _)| c.len()).sum();
        acct.fixed(3.0 * dev.cycles_to_seconds(dev.launch_overhead_cycles));
        {
            let threads = 256;
            let grid = nnz_out.div_ceil(threads * 8).max(1);
            let copy = speck_simt::launch(
                dev,
                cost,
                "ac_chunks_to_csr",
                grid,
                KernelConfig::new(threads, 0),
                BlockRecords::Skip,
                |ctx| {
                    let n = (threads * 8).min(nnz_out.saturating_sub(ctx.block_id() * threads * 8));
                    ctx.charge_gmem_stream(threads, n, 12);
                    ctx.charge_gmem_store(n, 12);
                },
            );
            acct.kernel(&copy);
        }

        // Merge stage: rows split across chunks get their partials merged.
        let n_rows = a.rows();
        let mut per_row: Vec<Vec<(Vec<u32>, Vec<f64>)>> = vec![Vec::new(); n_rows];
        for chunk_out in partials {
            for (row, cols, vals) in chunk_out {
                per_row[row as usize].push((cols, vals));
            }
        }
        let split_elems: usize = per_row
            .iter()
            .filter(|p| p.len() > 1)
            .map(|p| p.iter().map(|(c, _)| c.len()).sum::<usize>())
            .sum();
        if split_elems > 0 {
            let grid = split_elems.div_ceil(threads * 8).max(1);
            let merge = speck_simt::launch(
                dev,
                cost,
                "ac_merge",
                grid,
                KernelConfig::new(threads, 16 * 1024),
                BlockRecords::Skip,
                |ctx| {
                    let n = (threads * 8).min(split_elems);
                    ctx.charge_gmem_stream(threads, n, 12);
                    ctx.charge_smem(2 * n as u64);
                    ctx.charge_gmem_store(n, 12);
                },
            );
            acct.kernel(&merge);
        }

        // Assemble: a row split across chunks is a k-way merge of its
        // partials by sorted column index with duplicate sum.
        let rows = per_row.into_iter().map(|mut parts| {
            if parts.len() <= 1 {
                return parts.pop().unwrap_or_default();
            }
            let mut merged: Vec<(u32, f64)> = Vec::new();
            for (c, v) in &parts {
                merged.extend(c.iter().copied().zip(v.iter().copied()));
            }
            merged.sort_unstable_by_key(|&(c, _)| c);
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            let mut i = 0;
            while i < merged.len() {
                let (c, mut v) = merged[i];
                let mut j = i + 1;
                while j < merged.len() && merged[j].0 == c {
                    v += merged[j].1;
                    j += 1;
                }
                cols.push(c);
                vals.push(v);
                i = j;
            }
            (cols, vals)
        });
        acct.finish(csr_from_rows(rows, b.cols(), true), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn correct_across_families() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        for a in [
            banded(600, 2, 1.0, 1),
            uniform_random(300, 300, 1, 9, 2),
            rmat(9, 6, 0.57, 0.19, 0.19, 3),
        ] {
            let r = AcSpgemm::default().multiply(&dev, &cost, &a, &a);
            assert!(r.ok());
            assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
        }
    }

    #[test]
    fn memory_overallocation_dominates() {
        let a = uniform_random(500, 500, 4, 8, 7);
        let dev = DeviceConfig::titan_v();
        let r = AcSpgemm::default().multiply(&dev, &CostModel::default(), &a, &a);
        let products = a.products(&a) as usize;
        assert!(r.peak_mem_bytes >= 3 * products * 12);
    }

    #[test]
    fn rows_split_across_chunks_are_merged_correctly() {
        // A single long row far larger than one chunk.
        let a = uniform_random(4, 5000, 3000, 3000, 4);
        // Make it square for A*A: pad rows.
        let a = {
            let mut coo = speck_sparse::Coo::<f64>::new(5000, 5000);
            for (i, cols, vals) in a.iter_rows() {
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(i as u32, c, v);
                }
            }
            for i in 4..5000u32 {
                coo.push(i, i, 1.0);
            }
            coo.to_csr()
        };
        let dev = DeviceConfig::titan_v();
        let r = AcSpgemm::default().multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.ok());
        assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
    }
}

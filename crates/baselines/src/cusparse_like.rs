//! cuSPARSE-style SpGEMM (csrgemm): two-phase hashing in *global* memory.
//!
//! A symbolic pass counts row sizes and a numeric pass accumulates, both
//! inserting every product into per-row global hash tables with global
//! atomics — no scratchpad staging. Memory stays low (the paper measures
//! 1.01x spECK: only the tables sized by output rows plus the result), but
//! every product pays global-atomic latency, which is why cuSPARSE sits
//! ~13x behind spECK on average (Table 3).

use crate::common::{csr_from_rows, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_core::hashacc::Accumulator;
use speck_simt::{launch_map, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use speck_sparse::Csr;

/// cuSPARSE-style method.
pub struct CusparseLike;

/// Rows per block (fixed work partitioning, 32 threads per row).
const ROWS_PER_BLOCK: usize = 32;

impl SpgemmMethod for CusparseLike {
    fn name(&self) -> &'static str {
        "cusparse"
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
        let grid = n.div_ceil(ROWS_PER_BLOCK).max(1);
        let threads = 256;
        let kc = KernelConfig::new(threads, 0);

        // Working buffers: per-row counters now; the global hash tables are
        // allocated after the symbolic pass, sized by the exact output
        // (cuSPARSE's csrgemm2 workspace is output-proportional — the
        // paper measures it at 1.01x spECK's peak).
        acct.alloc(n * 8);
        if let Err(e) = acct.check_memory() {
            return MethodResult::failure(e);
        }

        // Phase 1: symbolic, every product one global atomic insert.
        let run_phase = |name: &'static str, numeric: bool| {
            launch_map(dev, cost, name, grid, kc, BlockRecords::Skip, |ctx| {
                let start = ctx.block_id() * ROWS_PER_BLOCK;
                let end = (start + ROWS_PER_BLOCK).min(n);
                let mut out: Vec<(Vec<u32>, Vec<f64>)> = Vec::with_capacity(end - start);
                for r in start..end {
                    let (a_cols, a_vals) = a.row(r);
                    // Oversized so collisions stay bounded; still global.
                    let cap =
                        (a_cols.iter().map(|&k| b.row_nnz(k as usize)).sum::<usize>() * 2).max(4);
                    let mut acc: Accumulator<f64> = Accumulator::new(cap);
                    let mut tx = 0u64;
                    let mut p = 0u64;
                    for (&k, &av) in a_cols.iter().zip(a_vals) {
                        let (bc, bv) = b.row(k as usize);
                        tx += ctx.stream_tx(32, bc.len(), if numeric { 12 } else { 4 });
                        for (&c, &v) in bc.iter().zip(bv) {
                            acc.insert(c as u64, if numeric { av * v } else { 0.0 });
                            p += 1;
                        }
                    }
                    ctx.charge_gmem_tx(tx);
                    ctx.charge_gmem_scatter(2 * a_cols.len() as u64);
                    // The defining cost: all accumulation atomics hit
                    // global memory.
                    ctx.charge_gmem_atomic(p + acc.stats.probes);
                    ctx.charge_rounds(p.div_ceil(32));
                    let entries = acc.drain_sorted();
                    if numeric {
                        ctx.charge_gmem_store(entries.len(), 12);
                        out.push((
                            entries.iter().map(|&(k, _)| k as u32).collect(),
                            entries.iter().map(|&(_, v)| v).collect(),
                        ));
                    } else {
                        ctx.charge_gmem_scatter(1);
                        out.push((Vec::new(), Vec::new()));
                    }
                }
                out
            })
        };

        let (sym_report, _) = run_phase("cusparse_symbolic", false);
        acct.kernel(&sym_report);
        acct.alloc((n + 1) * 8);
        // Hash tables for the numeric phase, sized by the counted output.
        let nnz_c_sym = speck_sparse::reference::spgemm_row_nnz(a, b)
            .iter()
            .sum::<usize>();
        acct.alloc(nnz_c_sym * 12 / 2);

        let (num_report, rows) = run_phase("cusparse_numeric", true);
        acct.kernel(&num_report);

        // Per-row sort pass (cuSPARSE returns sorted CSR).
        let nnz_c: usize = rows.iter().flatten().map(|(c, _)| c.len()).sum();
        if let Some(r) = speck_core::sort::radix_sort_pass(dev, cost, nnz_c, 12, BlockRecords::Skip)
        {
            acct.kernel(&r);
        }

        acct.finish(
            csr_from_rows(rows.into_iter().flatten(), b.cols(), true),
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn correct_on_random() {
        let a = uniform_random(250, 250, 1, 8, 17);
        let dev = DeviceConfig::titan_v();
        let r = CusparseLike.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.ok());
        assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
    }

    #[test]
    fn much_slower_than_speck_at_scale() {
        let a = banded(8_000, 8, 1.0, 3);
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cu = CusparseLike.multiply(&dev, &cost, &a, &a).sim_time_s;
        let sp = crate::speck_method::SpeckMethod::default()
            .multiply(&dev, &cost, &a, &a)
            .sim_time_s;
        assert!(cu > 2.0 * sp, "cusparse {cu} vs speck {sp}");
    }

    #[test]
    fn memory_close_to_output_size() {
        // Low-memory method: no product-sized expand buffers beyond the
        // (bounded) hash tables.
        let a = uniform_random(300, 300, 4, 8, 5);
        let dev = DeviceConfig::titan_v();
        let r = CusparseLike.multiply(&dev, &CostModel::default(), &a, &a);
        let esc = crate::cusp_esc::CuspEsc.multiply(&dev, &CostModel::default(), &a, &a);
        assert!(r.peak_mem_bytes < esc.peak_mem_bytes);
    }
}

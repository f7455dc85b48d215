//! nsparse-style SpGEMM (Nagasaka et al., ICPP 2017).
//!
//! Hash-based with two analysis steps (temporary-product counting and a
//! symbolic pass), *unconditional* binning by product counts with per-row
//! atomic scatter, a fixed 32 threads per row of B, hash maps sized to the
//! next power of two (fill approaching 1), and sorting of all hash output.
//! The differences from spECK are exactly the ones the paper calls out:
//! no conditional analysis (≈30 % overhead on uniform matrices), no local
//! load balancing (idle threads on short rows), no dense accumulator
//! (expensive sorting and global hashing for long rows).

use crate::common::{charge_count_kernel, charge_scatter_binning, RunAccounting};
use crate::{MethodResult, SpgemmMethod};
use speck_core::analysis::analyze;
use speck_core::cascade::{numeric_entry_bytes, smallest_fit, symbolic_entry_bytes, KernelCascade};
use speck_core::config::{GlobalLbMode, LocalLbMode, SpeckConfig};
use speck_core::global_lb::{AccMethod, GateProvenance, PassPlan, ThresholdSet};
use speck_core::numeric::{row_ptr_from_nnz, run_numeric, NumericPlan};
use speck_core::symbolic::run_symbolic;
use speck_core::WorkspacePool;
use speck_simt::{BlockRecords, CostModel, DeviceConfig};
use speck_sparse::Csr;

/// The nsparse-style method.
pub struct NsparseLike;

/// Rows packed per block in the smallest (PWARP-style) bin.
const SMALL_BIN_PACK: usize = 32;

fn nsparse_config() -> SpeckConfig {
    SpeckConfig {
        local_lb: LocalLbMode::Fixed(32),
        enable_dense: false,
        enable_direct: false,
        ..SpeckConfig::default()
    }
}

/// Builds nsparse's unconditional product-count binning plan.
fn plan(cascade: &KernelCascade, entries: &[u64], entry_bytes: usize) -> PassPlan {
    let caps = cascade.hash_capacities(entry_bytes);
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); cascade.len()];
    for (r, &e) in entries.iter().enumerate() {
        bins[smallest_fit(&caps, e)].push(r as u32);
    }
    let mut plan = PassPlan {
        blocks: Vec::new(),
        rows: Vec::with_capacity(entries.len()),
        launches: Vec::new(),
        lb_reports: Vec::new(),
        lb_alloc_bytes: entries.len() * 4 + cascade.len() * 8,
        // nsparse bins unconditionally — there is no gate decision, so
        // the provenance records an always-on gate with no thresholds.
        gate: GateProvenance {
            mode: GlobalLbMode::AlwaysOn,
            ratio: 0.0,
            rows: entries.len(),
            needs_large_kernel: false,
            threshold_set: ThresholdSet::Base,
            thr_ratio: 0.0,
            thr_rows: 0,
            used_global_lb: true,
        },
    };
    for (idx, bin) in bins.iter().enumerate() {
        if idx == 0 {
            // PWARP-style small bin: sequential fill up to the shared map
            // capacity (but no demand-aware neighbour merging like spECK's
            // Alg. 2 — order is whatever the scatter binning produced).
            let cap = caps[idx];
            let mut start = 0usize;
            let mut used = 0u64;
            for (i, &r) in bin.iter().enumerate() {
                let e = entries[r as usize];
                if i > start && (used + e > cap || i - start >= SMALL_BIN_PACK) {
                    plan.push_block(&bin[start..i], idx, AccMethod::Hash);
                    start = i;
                    used = 0;
                }
                used += e;
            }
            if start < bin.len() {
                plan.push_block(&bin[start..], idx, AccMethod::Hash);
            }
        } else {
            for &r in bin {
                plan.push_block(&[r], idx, AccMethod::Hash);
            }
        }
    }
    plan
}

impl SpgemmMethod for NsparseLike {
    fn name(&self) -> &'static str {
        "nsparse"
    }

    fn multiply(
        &self,
        dev: &DeviceConfig,
        cost: &CostModel,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> MethodResult {
        let cascade = KernelCascade::for_device(dev);
        let cfg = nsparse_config();
        let mut acct = RunAccounting::new(dev);

        // Step 1: count temporary products per row (first analysis).
        acct.kernel(&charge_count_kernel(
            dev,
            cost,
            "nsparse_count",
            a.rows(),
            a.nnz(),
        ));
        // Host-side: we also need the full analysis record to drive the
        // shared kernels, but charge only what nsparse actually reads.
        let (info, _) = analyze(dev, cost, a, b);
        acct.alloc(a.rows() * 8);

        // Step 2: unconditional scatter binning for the symbolic pass.
        acct.kernel(&charge_scatter_binning(
            dev,
            cost,
            "nsparse_bin_sym",
            a.rows(),
        ));
        let sym_entry = symbolic_entry_bytes(b.cols());
        let sym_entries: Vec<u64> = info.rows.iter().map(|r| r.products).collect();
        let splan = plan(&cascade, &sym_entries, sym_entry);
        acct.alloc(splan.lb_alloc_bytes);

        // Eager global hash tables for every row of the overflow bin.
        let overflow: u64 = info
            .rows
            .iter()
            .map(|r| r.products)
            .filter(|&p| p as usize > cascade.hash_capacity(cascade.largest(), sym_entry))
            .sum();
        if overflow > 0 {
            acct.alloc(overflow as usize * (8 + 8));
        }

        // Step 3: symbolic pass.
        let pool = WorkspacePool::new();
        let sym = run_symbolic(
            dev,
            cost,
            &cascade,
            &cfg,
            a,
            b,
            &info,
            &splan,
            &pool,
            BlockRecords::Skip,
        );
        for r in &sym.reports {
            acct.kernel(r);
        }
        acct.alloc((a.rows() + 1) * 8);

        // Step 4: numeric binning (scatter again) on exact sizes; hash maps
        // are the next power of two of the row size (fill up to ~1.0).
        acct.kernel(&charge_scatter_binning(
            dev,
            cost,
            "nsparse_bin_num",
            a.rows(),
        ));
        let num_entry = numeric_entry_bytes(b.cols(), 8);
        let num_entries: Vec<u64> = sym
            .row_nnz
            .iter()
            .map(|&n| (n.max(1) as u64).next_power_of_two())
            .collect();
        let nplan = plan(&cascade, &num_entries, num_entry);
        acct.alloc(nplan.lb_alloc_bytes);
        let nplan = NumericPlan::new(nplan, row_ptr_from_nnz(&sym.row_nnz));

        // Step 5: numeric pass + sorting (run_numeric charges the trailing
        // radix pass for the larger bins).
        let num = run_numeric(
            dev,
            cost,
            &cascade,
            &cfg,
            a,
            b,
            &info,
            &nplan,
            &pool,
            BlockRecords::Skip,
        );
        for r in &num.reports {
            acct.kernel(r);
        }
        if let Some(r) = &num.sort_report {
            acct.kernel(r);
            acct.alloc(num.radix_elems * 12);
        }
        // `finish` tracks the output matrix, whose bytes the symbolic
        // counts already fix; nothing is freed, so the peak does not
        // depend on when they are tracked.
        acct.finish(num.c, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, rmat};
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn correct_on_mesh_and_graph() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        for a in [banded(800, 3, 1.0, 1), rmat(9, 6, 0.57, 0.19, 0.19, 2)] {
            let r = NsparseLike.multiply(&dev, &cost, &a, &a);
            assert!(r.ok());
            assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
        }
    }

    #[test]
    fn slower_than_speck_on_uniform_short_rows() {
        // The stat96v2 effect (paper §6.2): short rows of B + fixed g=32
        // waste most threads; spECK picks a small g. Plus nsparse's
        // unconditional binning overhead on a uniform matrix.
        let a = banded(60_000, 1, 1.0, 5); // ~3 NZ/row
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let n = NsparseLike.multiply(&dev, &cost, &a, &a);
        let s = crate::speck_method::SpeckMethod::default().multiply(&dev, &cost, &a, &a);
        assert!(n.ok() && s.ok());
        assert!(
            n.sim_time_s > 1.3 * s.sim_time_s,
            "nsparse {} vs speck {}",
            n.sim_time_s,
            s.sim_time_s
        );
    }
}

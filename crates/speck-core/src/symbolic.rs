//! Symbolic SpGEMM — exact output-size counting (paper §4.3).
//!
//! Executes the pass plan from [`crate::global_lb`]: hash blocks count
//! distinct columns in a scratchpad map, dense blocks count bits in a
//! chunked bitmask, and direct blocks read row lengths straight from B's
//! offsets. Hash and dense blocks borrow their buffers from a
//! [`WorkspacePool`], one checkout per host chunk of blocks.

use crate::analysis::AnalysisInfo;
use crate::cascade::{symbolic_entry_bytes, KernelCascade};
use crate::config::SpeckConfig;
use crate::global_lb::{direct_kernel_config, AccMethod, PassPlan, DIRECT_ROWS_PER_BLOCK};
use crate::hashacc::MAX_HASH_BLOCK_ROWS;
use crate::local_lb::{rounds_for_g, select_group_size};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::workspace::{Workspace, WorkspacePool};
use speck_simt::{
    launch_map, launch_map_init, BlockCtx, BlockRecords, CostModel, DeviceConfig, KernelReport,
};
use speck_sparse::{Csr, Scalar};
use std::collections::BTreeMap;

/// Result of the symbolic pass.
#[derive(Clone, Debug)]
pub struct SymbolicOutput {
    /// Exact NNZ of every row of C.
    pub row_nnz: Vec<u32>,
    /// One report per kernel launch, in `groups` order.
    pub reports: Vec<KernelReport>,
    /// The launch groups the pass ran.
    pub groups: LaunchGroups,
    /// Blocks that fell back to a global hash map.
    pub spilled_blocks: usize,
}

impl SymbolicOutput {
    /// Records the pass's deterministic outputs under `sim/symbolic/`:
    /// spilled-block count and the exact C row-size distribution.
    pub(crate) fn record_metrics(&self, m: &MetricsRegistry) {
        m.add("sim/symbolic/spilled_blocks", self.spilled_blocks as u64);
        let mut h = Histogram::default();
        for &n in &self.row_nnz {
            h.record(n as u64);
        }
        m.merge_histogram("sim/symbolic/row_nnz", &h);
    }
}

/// Plan blocks grouped into launches of identical (accumulator, cascade
/// config), as indices into `plan.blocks`. Iteration order is launch order.
pub type LaunchGroups = BTreeMap<(AccMethod, usize), Vec<usize>>;

/// Groups plan blocks into launches of identical (accumulator, config).
/// The groups hold indices into `plan.blocks` — the blocks (and the plan's
/// row list) stay where they are instead of being copied per launch.
///
/// Public so callers that drive [`crate::numeric::run_numeric`] directly
/// (reusable plans, the nsparse-style baseline) can precompute the
/// launch groups once and reuse them across executions.
pub fn group_blocks(plan: &PassPlan) -> LaunchGroups {
    let mut groups = LaunchGroups::new();
    for (i, b) in plan.blocks.iter().enumerate() {
        groups.entry((b.method, b.cfg_idx)).or_default().push(i);
    }
    groups
}

/// Per-block symbolic hash kernel: counts distinct output columns of up to
/// [`MAX_HASH_BLOCK_ROWS`] rows in one scratchpad map. Returns the counts in
/// `rows` order (the rest of the array stays zero) and whether the map
/// spilled to global memory.
#[allow(clippy::too_many_arguments)]
fn hash_block<V: Scalar>(
    ctx: &mut BlockCtx,
    ws: &mut Workspace<V>,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    rows: &[u32],
    capacity: usize,
    entry_bytes: usize,
    cfg: &SpeckConfig,
) -> ([u32; MAX_HASH_BLOCK_ROWS], bool) {
    assert!(
        rows.len() <= MAX_HASH_BLOCK_ROWS,
        "a hash block holds at most {MAX_HASH_BLOCK_ROWS} rows, got {}",
        rows.len()
    );
    let threads = ctx.threads();
    let (nnz_a, products, max_b) = info.block_features(rows);
    let g = select_group_size(cfg.local_lb, threads, nnz_a, products, max_b);

    ctx.scratch
        .reserve(capacity * entry_bytes, "symbolic hash map");
    let acc = &mut ws.acc;
    acc.reset(capacity);
    let mut tx = 0u64;
    let mut counts = [0u32; MAX_HASH_BLOCK_ROWS];

    for (li, &r) in rows.iter().enumerate() {
        let (a_cols, _) = a.row(r as usize);
        for &kc in a_cols {
            let (b_cols, _) = b.row(kc as usize);
            tx += ctx.stream_tx(g, b_cols.len(), 4);
            counts[li] += acc.insert_row_keys(li as u32, b_cols, g);
        }
    }

    // One task per NZ of A: its row of B, `g` entries per iteration.
    let b_row_lens = rows
        .iter()
        .flat_map(|&r| a.row(r as usize).0)
        .map(|&kc| b.row_nnz(kc as usize) as u64);
    ctx.charge_rounds(rounds_for_g(g, threads, b_row_lens));
    ctx.charge_gmem_tx(tx);
    ctx.charge_gmem_scatter(nnz_a); // B row-offset pair per NZ of A (one sector)
                                    // Insert issue cost is part of the loop rounds; only contention
                                    // beyond the first probe is charged separately.
    ctx.charge_probes(acc.stats.probes);
    ctx.charge_spill(acc.stats.spilled);
    ctx.charge_gmem_atomic(acc.stats.gmem_inserts);
    ctx.charge_sync();
    // Extraction: the per-row counters were bumped at insert time (folded
    // into the iteration's instruction bundle, i.e. the issue rounds), so
    // no map rescan is needed — just write the counts out.
    ctx.charge_gmem_scatter(rows.len() as u64);

    (counts, acc.spilled_to_global())
}

/// Per-block symbolic dense kernel: one (huge) row counted with a chunked
/// bitmask (paper Fig. 5, symbolic variant).
fn dense_block<V: Scalar>(
    ctx: &mut BlockCtx,
    ws: &mut Workspace<V>,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    row: u32,
    bits: usize,
) -> u32 {
    let threads = ctx.threads();
    let ri = &info.rows[row as usize];
    let range = ri.col_range();
    if range == 0 {
        return 0;
    }
    ctx.scratch.reserve(bits / 8, "symbolic dense bitmask");
    let (a_cols, _) = a.row(row as usize);
    let cursors = &mut ws.cursors;
    cursors.clear();
    cursors.extend(a_cols.iter().map(|&k| b.row_range(k as usize).start));
    let iterations = range.div_ceil(bits as u64);
    let width = (bits as u64).min(range) as usize;
    let chunk = &mut ws.dense;
    chunk.reuse_symbolic(ri.col_min, width);
    let mut count = 0u32;
    let cols_b = b.col_idx();
    for it in 0..iterations {
        let base = ri.col_min as u64 + it * bits as u64;
        if it > 0 {
            let w = (range - it * bits as u64).min(bits as u64) as usize;
            if w != chunk.width() {
                chunk.reuse_symbolic(base as u32, w);
            } else {
                chunk.reset(base as u32);
            }
        }
        let end = base + bits as u64;
        for (cur, &k) in cursors.iter_mut().zip(a_cols) {
            let row_end = b.row_range(k as usize).end;
            // The one-iteration common case consumes whole rows; otherwise
            // split the sorted row at the window end.
            let stop = if iterations == 1 {
                row_end
            } else {
                *cur + cols_b[*cur..row_end].partition_point(|&c| (c as u64) < end)
            };
            chunk.mark_all(&cols_b[*cur..stop]);
            *cur = stop;
        }
        count += chunk.touched() as u32;
        // Per-chunk cost: cursor bookkeeping and the bit-count reduction.
        ctx.charge_smem(a_cols.len() as u64);
        ctx.charge_rounds(ctx.thread_rounds(width as u64 / 64) + 1);
        ctx.charge_sync();
    }
    // Streaming cost: every element of every referenced row is visited
    // exactly once across all chunks (the cursors make the sweep linear).
    let mut tx = 0u64;
    for &k in a_cols {
        tx += ctx.stream_tx(threads, b.row_nnz(k as usize), 4);
    }
    ctx.charge_gmem_tx(tx);
    ctx.charge_rounds(ctx.thread_rounds(ri.products));
    ctx.charge_gmem_scatter(a_cols.len() as u64 + 1);
    count
}

/// Per-block direct kernel: rows with at most one NZ of A need only B's
/// row offsets (paper §4.3 "Single entry rows of A"). Returns the counts in
/// `rows` order (the rest of the array stays zero).
fn direct_block<V: Scalar>(
    ctx: &mut BlockCtx,
    a: &Csr<V>,
    b: &Csr<V>,
    rows: &[u32],
) -> [u32; DIRECT_ROWS_PER_BLOCK] {
    assert!(
        rows.len() <= DIRECT_ROWS_PER_BLOCK,
        "a direct block holds at most {DIRECT_ROWS_PER_BLOCK} rows, got {}",
        rows.len()
    );
    let mut counts = [0u32; DIRECT_ROWS_PER_BLOCK];
    for (count, &r) in counts.iter_mut().zip(rows) {
        let (a_cols, _) = a.row(r as usize);
        debug_assert!(a_cols.len() <= 1, "direct path requires <= 1 NZ per row");
        if let Some(&k) = a_cols.first() {
            *count = b.row_nnz(k as usize) as u32;
        }
    }
    // Two offset reads of A and two of B per row, one count written.
    ctx.charge_rounds(ctx.thread_rounds(rows.len() as u64) * 2);
    ctx.charge_gmem_scatter(4 * rows.len() as u64);
    ctx.charge_gmem_scatter(rows.len() as u64);
    counts
}

/// Runs the symbolic pass over the plan. Its launches keep per-block
/// records as `records` asks.
#[allow(clippy::too_many_arguments)]
pub fn run_symbolic<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    plan: &PassPlan,
    pool: &WorkspacePool<V>,
    records: BlockRecords,
) -> SymbolicOutput {
    let entry_bytes = symbolic_entry_bytes(b.cols());
    let mut row_nnz = vec![0u32; a.rows()];
    let mut reports = Vec::new();
    let mut spilled_blocks = 0usize;

    let groups = group_blocks(plan);
    for (&(method, cfg_idx), group) in &groups {
        let kc = cascade.config(cfg_idx);
        let rows = |ctx: &BlockCtx| plan.block_rows(group[ctx.block_id()]);
        match method {
            AccMethod::Hash => {
                let capacity = cascade.hash_capacity(cfg_idx, entry_bytes);
                let (report, outs) = launch_map_init(
                    dev,
                    cost,
                    format!("symbolic_hash_c{cfg_idx}"),
                    group.len(),
                    kc,
                    records,
                    || pool.acquire(),
                    |ws, ctx| {
                        let rows = rows(ctx);
                        hash_block(ctx, ws, a, b, info, rows, capacity, entry_bytes, cfg)
                    },
                );
                for (&bi, (counts, spilled)) in group.iter().zip(outs) {
                    spilled_blocks += usize::from(spilled);
                    for (&r, c) in plan.block_rows(bi).iter().zip(counts) {
                        row_nnz[r as usize] = c;
                    }
                }
                reports.push(report);
            }
            AccMethod::Dense => {
                let bits = cascade.dense_symbolic_bits(cfg_idx);
                let (report, outs) = launch_map_init(
                    dev,
                    cost,
                    format!("symbolic_dense_c{cfg_idx}"),
                    group.len(),
                    kc,
                    records,
                    || pool.acquire(),
                    |ws, ctx| {
                        let row = rows(ctx)[0];
                        dense_block(ctx, ws, a, b, info, row, bits)
                    },
                );
                for (&bi, count) in group.iter().zip(outs) {
                    row_nnz[plan.block_rows(bi)[0] as usize] = count;
                }
                reports.push(report);
            }
            AccMethod::Direct => {
                let dk = direct_kernel_config(dev);
                let (report, outs) = launch_map(
                    dev,
                    cost,
                    "symbolic_direct",
                    group.len(),
                    dk,
                    records,
                    |ctx| {
                        let rows = rows(ctx);
                        direct_block(ctx, a, b, rows)
                    },
                );
                for (&bi, counts) in group.iter().zip(outs) {
                    for (&r, c) in plan.block_rows(bi).iter().zip(counts) {
                        row_nnz[r as usize] = c;
                    }
                }
                reports.push(report);
            }
        }
    }

    SymbolicOutput {
        row_nnz,
        reports,
        groups,
        spilled_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::global_lb::plan_symbolic;
    use speck_sparse::gen::{block_diagonal, rmat, uniform_random};
    use speck_sparse::reference::spgemm_row_nnz;

    fn check_counts(a: &Csr<f64>, cfg: &SpeckConfig) -> SymbolicOutput {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cascade = KernelCascade::for_device(&dev);
        let (info, _) = analyze(&dev, &cost, a, a);
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let pool = WorkspacePool::new();
        let out = run_symbolic(
            &dev,
            &cost,
            &cascade,
            cfg,
            a,
            a,
            &info,
            &plan,
            &pool,
            BlockRecords::Skip,
        );
        let expect = spgemm_row_nnz(a, a);
        for (i, (&got, &want)) in out.row_nnz.iter().zip(expect.iter()).enumerate() {
            assert_eq!(got as usize, want, "row {i}");
        }
        out
    }

    #[test]
    fn counts_match_reference_uniform() {
        let a = uniform_random(400, 400, 2, 8, 11);
        check_counts(&a, &SpeckConfig::default());
    }

    #[test]
    fn counts_match_reference_skewed() {
        let a = rmat(9, 8, 0.57, 0.19, 0.19, 4);
        check_counts(&a, &SpeckConfig::default());
    }

    #[test]
    fn counts_match_reference_identity() {
        let a: Csr<f64> = Csr::identity(300);
        let out = check_counts(&a, &SpeckConfig::default());
        assert!(out.row_nnz.iter().all(|&c| c == 1));
    }

    #[test]
    fn counts_match_with_dense_path() {
        // Big dense block rows force the symbolic dense accumulator.
        let a = block_diagonal(1, 300, 1.0, 9);
        let out = check_counts(&a, &SpeckConfig::default());
        assert_eq!(out.row_nnz[0], 300);
    }

    #[test]
    fn counts_match_hash_only_ablation() {
        // A single row whose output has more distinct columns than even the
        // largest hash map (24 576 symbolic entries) holds: identity plus a
        // full first row of width 30 000. Hash-only (dense disabled) must
        // fall back to the global map and still count exactly.
        let n = 30_000u32;
        let mut coo = speck_sparse::Coo::<f64>::new(n as usize, n as usize);
        for j in 0..n {
            coo.push(0, j, 1.0);
        }
        for i in 1..n {
            coo.push(i, i, 1.0);
        }
        let a = coo.to_csr();
        let out = check_counts(&a, &SpeckConfig::hash_only());
        assert!(out.spilled_blocks > 0, "expected global hash fallback");
        assert_eq!(out.row_nnz[0], n);
    }

    #[test]
    fn counts_match_all_lb_modes() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 2);
        for mode in [
            crate::GlobalLbMode::Auto,
            crate::GlobalLbMode::AlwaysOn,
            crate::GlobalLbMode::AlwaysOff,
        ] {
            let cfg = SpeckConfig {
                global_lb: mode,
                ..SpeckConfig::default()
            };
            check_counts(&a, &cfg);
        }
    }

    #[test]
    fn empty_matrix_counts_zero() {
        let a: Csr<f64> = Csr::empty(50, 50);
        let out = check_counts(&a, &SpeckConfig::default());
        assert!(out.row_nnz.iter().all(|&c| c == 0));
    }

    #[test]
    fn fixed_local_lb_still_correct() {
        let a = uniform_random(300, 300, 1, 12, 5);
        check_counts(&a, &SpeckConfig::fixed_local_lb());
    }
}

//! Numeric SpGEMM — value computation and output assembly (paper §4.3).
//!
//! Hash blocks accumulate `a_ik * b_kj` in the scratchpad map; the three
//! smallest configurations sort in scratchpad, larger ones defer to a
//! device-wide radix pass. Dense blocks sweep the column range in chunks
//! (already sorted). Direct blocks scale one row of B.
//!
//! Kernels borrow their accumulators from a [`WorkspacePool`], one
//! checkout per host chunk of blocks, and write C in place as the paper's
//! kernel does: the symbolic pass's exact counts fix every row's offset up
//! front, so C's arrays are cut into per-row slices, each cut by the one
//! block that computes the row. No block claims its rows: a
//! [`NumericPlan`] is checked once, when it is built, to list every row in
//! exactly one block of one launch, and the executor runs each block once.
//! A cached plan runs any number of numeric passes without checking again.

use crate::analysis::AnalysisInfo;
use crate::cascade::{numeric_entry_bytes, KernelCascade};
use crate::config::SpeckConfig;
use crate::global_lb::{direct_kernel_config, AccMethod, PassPlan};
use crate::hashacc::split_key;
use crate::local_lb::{rounds_for_g, select_group_size};
use crate::metrics::MetricsRegistry;
use crate::sort::{
    radix_sort_pass, scratch_sort_steps, MAX_SCRATCH_SORT_CFG, MAX_SCRATCH_SORT_ENTRIES,
};
use crate::workspace::{Workspace, WorkspacePool};
use speck_simt::{
    launch_map, launch_map_init, BlockCtx, BlockRecords, CostModel, DeviceConfig, KernelReport,
};
use speck_sparse::{Csr, Scalar};
use std::marker::PhantomData;

/// What one numeric block reports back besides the rows it wrote: whether
/// it spilled to a global hash map, whether its rows still need the global
/// radix pass, and how many entries it wrote.
type BlockResult = (bool, bool, usize);

/// One row of C: its column and value slices in the final arrays.
type RowOut<'c, V> = (&'c mut [u32], &'c mut [V]);

/// C's column and value arrays, cut a row at a time: row `r` is
/// `row_ptr[r]..row_ptr[r + 1]` of both. Nothing is stored per row, so
/// handing out a 300,000-row C costs nothing beyond `row_ptr`.
struct RowSlices<'c, V> {
    row_ptr: &'c [usize],
    cols: *mut u32,
    vals: *mut V,
    _out: PhantomData<RowOut<'c, V>>,
}

// SAFETY: each row is cut once (see `take_row`), so sharing the arrays
// moves each `&mut` row to at most one other thread; `row_ptr` is only
// read.
unsafe impl<V: Send> Sync for RowSlices<'_, V> {}

impl<'c, V> RowSlices<'c, V> {
    /// Cuts `cols`/`vals` at the offsets of a checked plan's `row_ptr`,
    /// which never decrease. Panics unless both arrays end at the last
    /// offset.
    fn new(nplan: &'c NumericPlan, cols: &'c mut [u32], vals: &'c mut [V]) -> Self {
        let end = nplan.row_ptr.last().copied().unwrap_or(0);
        assert!(
            cols.len() == end && vals.len() == end,
            "C's arrays must end at the last row offset"
        );
        Self {
            row_ptr: &nplan.row_ptr,
            cols: cols.as_mut_ptr(),
            vals: vals.as_mut_ptr(),
            _out: PhantomData,
        }
    }

    /// Row `r`'s slices.
    ///
    /// # Safety
    ///
    /// No row may be cut twice while the arrays are borrowed.
    #[inline]
    unsafe fn cut(&self, r: usize) -> RowOut<'c, V> {
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        // SAFETY: the plan's check found the offsets never decreasing and
        // `new` that the arrays end at the last one, so rows are disjoint
        // in-bounds ranges of arrays borrowed mutably for `'c`; the caller
        // cuts each row once.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.cols.add(start), end - start),
                std::slice::from_raw_parts_mut(self.vals.add(start), end - start),
            )
        }
    }
}

/// Cuts row `r`'s output slices, for the one block that computes it.
#[inline]
fn take_row<'c, V>(out: &RowSlices<'c, V>, r: u32) -> RowOut<'c, V> {
    // SAFETY: `out` was cut from a `NumericPlan`, whose one constructor
    // runs `check_partition` on its plan and offsets, which lists row `r`
    // in exactly one block of one launch. The executor runs each block id
    // of a launch once, and the block kernels below call this once per row
    // of their block. So this is row `r`'s only cut.
    unsafe { out.cut(r as usize) }
}

/// Checks that row `r` produced exactly as many entries as its slice has.
fn check_row_len(r: u32, computed: usize, slot_len: usize) {
    assert_eq!(
        computed, slot_len,
        "numeric row {r} disagrees with the symbolic count"
    );
}

/// Result of the numeric pass.
pub struct NumericOutput<V> {
    /// The final output matrix C (sorted CSR).
    pub c: Csr<V>,
    /// Reports of the numeric kernels.
    pub reports: Vec<KernelReport>,
    /// Report of the trailing radix sort pass, when one was needed.
    pub sort_report: Option<KernelReport>,
    /// Elements that had to be sorted globally (radix pass input size).
    pub radix_elems: usize,
    /// Blocks that fell back to a global hash map.
    pub spilled_blocks: usize,
}

impl<V> NumericOutput<V> {
    /// Records the pass's deterministic outputs under `sim/numeric/`:
    /// spilled-block count and elements routed through the global radix
    /// sort.
    pub(crate) fn record_metrics(&self, m: &MetricsRegistry) {
        m.add("sim/numeric/spilled_blocks", self.spilled_blocks as u64);
        m.add("sim/numeric/radix_elems", self.radix_elems as u64);
    }
}

/// Numeric hash kernel for one block of up to 32 rows.
#[allow(clippy::too_many_arguments)]
fn hash_block<V: Scalar>(
    ctx: &mut BlockCtx,
    ws: &mut Workspace<V>,
    out: &RowSlices<'_, V>,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    rows: &[u32],
    capacity: usize,
    entry_bytes: usize,
    cfg: &SpeckConfig,
    scratch_sorted: bool,
) -> BlockResult {
    let threads = ctx.threads();
    let (nnz_a, products, max_b) = info.block_features(rows);
    let g = select_group_size(cfg.local_lb, threads, nnz_a, products, max_b);

    ctx.scratch
        .reserve(capacity * entry_bytes, "numeric hash map");
    let Workspace { acc, entries, .. } = ws;
    acc.reset(capacity);
    let mut tx = 0u64;

    for (li, &r) in rows.iter().enumerate() {
        let (a_cols, a_vals) = a.row(r as usize);
        for (&kc, &av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(kc as usize);
            // Numeric reads column + value of B (4 + val bytes).
            tx += ctx.stream_tx(g, b_cols.len(), entry_bytes);
            acc.insert_row_scaled(li as u32, b_cols, b_vals, av, g);
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

    let spilled = acc.spilled_to_global();
    acc.drain_sorted_into(entries);
    let n = entries.len();
    // Rank-sort in scratchpad only while the O(n^2) stays cheaper than a
    // radix pass over the rows; spilled or oversized maps defer to radix.
    let scratch_sorted = scratch_sorted && !spilled && n <= MAX_SCRATCH_SORT_ENTRIES;
    if scratch_sorted {
        ctx.charge_sort_steps(scratch_sort_steps(n, threads));
    }
    // Write n (col, val) pairs out, coalesced.
    ctx.charge_gmem_store(n, entry_bytes);
    ctx.charge_rounds(ctx.thread_rounds(capacity as u64));

    // Keys sort row-major, so each local row's entries are one run.
    let mut rest = &entries[..];
    for (li, &r) in rows.iter().enumerate() {
        let len = rest
            .iter()
            .take_while(|&&(key, _)| split_key(key).0 == li as u32)
            .count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        let (cols, vals) = take_row(out, r);
        check_row_len(r, len, cols.len());
        for ((c, v), &(key, val)) in cols.iter_mut().zip(vals.iter_mut()).zip(run) {
            *c = split_key(key).1;
            *v = val;
        }
    }
    (spilled, !scratch_sorted, n)
}

/// Numeric dense kernel for one row (paper Fig. 5).
#[allow(clippy::too_many_arguments)]
fn dense_block<V: Scalar>(
    ctx: &mut BlockCtx,
    ws: &mut Workspace<V>,
    out: &RowSlices<'_, V>,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    row: u32,
    slots: usize,
) -> BlockResult {
    let threads = ctx.threads();
    let ri = &info.rows[row as usize];
    let range = ri.col_range();
    let (cols_out, vals_out) = take_row(out, row);
    if range == 0 {
        check_row_len(row, 0, cols_out.len());
        return (false, false, 0);
    }
    ctx.scratch.reserve(
        slots * crate::cascade::dense_numeric_slot_bytes(std::mem::size_of::<V>()),
        "dense row",
    );
    let Workspace { dense, cursors, .. } = ws;
    let (a_cols, a_vals) = a.row(row as usize);
    cursors.clear();
    cursors.extend(a_cols.iter().map(|&k| b.row_range(k as usize).start));
    let iterations = range.div_ceil(slots as u64);
    let width = (slots as u64).min(range) as usize;
    dense.reuse_numeric(ri.col_min, width);
    let mut written = 0usize;
    let cols_b = b.col_idx();
    let vals_b = b.vals();
    for it in 0..iterations {
        let base = ri.col_min as u64 + it * slots as u64;
        if it > 0 {
            let w = (range - it * slots as u64).min(slots as u64) as usize;
            dense.slide(base as u32, w);
        }
        let end = base + slots as u64;
        for (cur, (&k, &av)) in cursors.iter_mut().zip(a_cols.iter().zip(a_vals)) {
            let row_end = b.row_range(k as usize).end;
            // The one-iteration common case consumes whole rows; otherwise
            // split the sorted row at the window end.
            let stop = if iterations == 1 {
                row_end
            } else {
                *cur + cols_b[*cur..row_end].partition_point(|&c| (c as u64) < end)
            };
            dense.add_scaled_row(&cols_b[*cur..stop], &vals_b[*cur..stop], av);
            *cur = stop;
        }
        // Prefix-sum compaction + partial store after every iteration
        // (draining leaves the chunk clean for the next window). Entries
        // past the row's slice are only counted, for the check below.
        let start = written;
        dense.drain_set(|c, v| {
            if written < cols_out.len() {
                cols_out[written] = c;
                vals_out[written] = v;
            }
            written += 1;
        });
        let stored = written - start;
        ctx.charge_smem((dense.width() as u64) / 8);
        ctx.charge_rounds(ctx.thread_rounds(dense.width() as u64));
        ctx.charge_gmem_store(stored, 12);
        ctx.charge_smem(a_cols.len() as u64);
        ctx.charge_sync();
    }
    check_row_len(row, written, cols_out.len());
    let mut tx = 0u64;
    for &k in a_cols {
        tx += ctx.stream_tx(threads, b.row_nnz(k as usize), 12);
    }
    ctx.charge_gmem_tx(tx);
    ctx.charge_rounds(ctx.thread_rounds(ri.products));
    ctx.charge_gmem_scatter(a_cols.len() as u64 + 1);
    (false, false, written)
}

/// Direct kernel: each row is one scaled row of B, already sorted
/// (paper §4.3 "Single entry rows of A").
fn direct_block<V: Scalar>(
    ctx: &mut BlockCtx,
    out: &RowSlices<'_, V>,
    a: &Csr<V>,
    b: &Csr<V>,
    rows: &[u32],
) -> BlockResult {
    let threads = ctx.threads();
    let mut elems = 0usize;
    for &r in rows {
        let (a_cols, a_vals) = a.row(r as usize);
        let (cols, vals) = take_row(out, r);
        if let (Some(&k), Some(&av)) = (a_cols.first(), a_vals.first()) {
            let (b_cols, b_vals) = b.row(k as usize);
            check_row_len(r, b_cols.len(), cols.len());
            elems += b_cols.len();
            cols.copy_from_slice(b_cols);
            for (v, &bv) in vals.iter_mut().zip(b_vals) {
                *v = av * bv;
            }
        } else {
            check_row_len(r, 0, cols.len());
        }
    }
    // Stream every referenced row in and out once, no accumulation.
    ctx.charge_gmem_scatter(4 * rows.len() as u64);
    let rounds_in = ctx.charge_gmem_stream(threads, elems, 12);
    ctx.charge_gmem_store(elems, 12);
    ctx.charge_rounds(rounds_in / 2);
    (false, false, elems)
}

/// Builds C's prefix-summed row offsets from the symbolic pass's exact
/// per-row counts (`row_nnz.len() + 1` entries; the last one is NNZ(C)).
pub fn row_ptr_from_nnz(row_nnz: &[u32]) -> Vec<usize> {
    let mut row_ptr = Vec::with_capacity(row_nnz.len() + 1);
    row_ptr.push(0usize);
    let mut total = 0usize;
    for &c in row_nnz {
        total += c as usize;
        row_ptr.push(total);
    }
    row_ptr
}

/// The numeric pass's pattern-only inputs: the block plan with its
/// launches and C's exact row structure, checked once, when built, to fit
/// each other. One [`crate::plan::SpgemmPlan`] holds one and runs its
/// numeric pass any number of times without checking again. The fields
/// are private, so the checked pair cannot change and no struct literal
/// skips the check:
///
/// ```compile_fail,E0451
/// use speck_core::global_lb::PassPlan;
/// use speck_core::numeric::NumericPlan;
///
/// fn unchecked(plan: PassPlan, row_ptr: Vec<usize>) -> NumericPlan {
///     NumericPlan { plan, row_ptr }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct NumericPlan {
    plan: PassPlan,
    row_ptr: Vec<usize>,
}

impl NumericPlan {
    /// The numeric pass's inputs: the block plan `plan` and C's row
    /// offsets `row_ptr` ([`row_ptr_from_nnz`] of the symbolic pass's
    /// exact row counts).
    ///
    /// Panics, before any kernel runs, unless `plan`'s launches list every
    /// row of C (`0..row_ptr.len() - 1`) in exactly one block, every dense
    /// block computes one row, and `row_ptr` never decreases.
    pub fn new(plan: PassPlan, row_ptr: Vec<usize>) -> Self {
        check_partition(&plan, &row_ptr);
        Self { plan, row_ptr }
    }

    /// The numeric block plan.
    pub fn plan(&self) -> &PassPlan {
        &self.plan
    }

    /// Prefix-summed row offsets of C (`rows + 1` entries; the last one is
    /// NNZ(C)).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }
}

/// The one serial check that lets the numeric pass hand C's rows out
/// without a claim per block: `row_ptr` never decreases, `plan`'s
/// launches list every row of C in exactly one block, and every dense
/// block computes one row (the dense kernel writes only its first).
///
/// Panics with "numeric row {r} computed twice" for a row listed twice,
/// and "some rows were never computed" for a row left out.
fn check_partition(plan: &PassPlan, row_ptr: &[usize]) {
    let ordered = row_ptr.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
    assert!(ordered, "row offsets must never decrease");
    let n = row_ptr.len().saturating_sub(1);
    let (mut listed, mut count) = (vec![false; n], 0usize);
    for l in &plan.launches {
        for i in l.blocks.clone() {
            let rows = plan.block_rows(i);
            assert!(
                l.method != AccMethod::Dense || rows.len() == 1,
                "a dense block computes one row"
            );
            for &r in rows {
                let seen = listed
                    .get_mut(r as usize)
                    .unwrap_or_else(|| panic!("numeric row {r} is not a row of C ({n} rows)"));
                assert!(!*seen, "numeric row {r} computed twice");
                *seen = true;
            }
            count += rows.len();
        }
    }
    // No row was listed twice, so `n` listings cover every row.
    assert!(count == n, "some rows were never computed");
}

/// Runs the numeric pass and assembles C. Its launches keep per-block
/// events as `records` asks.
///
/// Panics if a row's computed entry count disagrees with the plan's row
/// offsets, or if `a` does not have one row per row of C.
#[allow(clippy::too_many_arguments)]
pub fn run_numeric<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    nplan: &NumericPlan,
    pool: &WorkspacePool<V>,
    records: BlockRecords,
) -> NumericOutput<V> {
    let entry_bytes = numeric_entry_bytes(b.cols(), std::mem::size_of::<V>());
    let (plan, row_ptr) = (&nplan.plan, &nplan.row_ptr);
    let mut reports = Vec::new();
    let mut spilled_blocks = 0usize;
    let mut radix_elems = 0usize;

    // The symbolic counts are exact, so C's layout is known before the
    // numeric kernels run: every block writes its rows in place.
    let n = a.rows();
    assert_eq!(row_ptr.len(), n + 1, "C has one row per row of A");
    let total = *row_ptr.last().unwrap_or(&0);
    let mut col_idx = vec![0u32; total];
    let mut vals = vec![V::zero(); total];
    let out = RowSlices::new(nplan, &mut col_idx, &mut vals);

    for l in &plan.launches {
        let (cfg_idx, first, grid) = (l.cfg_idx, l.blocks.start, l.blocks.len());
        let kc = cascade.config(cfg_idx);
        let rows = |ctx: &BlockCtx| plan.block_rows(first + ctx.block_id());
        let (report, results) = match l.method {
            AccMethod::Hash => {
                let capacity = cascade.hash_capacity(cfg_idx, entry_bytes);
                let scratch_sorted = cfg_idx <= MAX_SCRATCH_SORT_CFG;
                launch_map_init(
                    dev,
                    cost,
                    format!("numeric_hash_c{cfg_idx}"),
                    grid,
                    kc,
                    records,
                    || pool.acquire(),
                    |ws, ctx| {
                        let rows = rows(ctx);
                        hash_block(
                            ctx,
                            ws,
                            &out,
                            a,
                            b,
                            info,
                            rows,
                            capacity,
                            entry_bytes,
                            cfg,
                            scratch_sorted,
                        )
                    },
                )
            }
            AccMethod::Dense => {
                let slots = cascade.dense_numeric_slots(cfg_idx, std::mem::size_of::<V>());
                launch_map_init(
                    dev,
                    cost,
                    format!("numeric_dense_c{cfg_idx}"),
                    grid,
                    kc,
                    records,
                    || pool.acquire(),
                    |ws, ctx| {
                        let row = rows(ctx)[0];
                        dense_block(ctx, ws, &out, a, b, info, row, slots)
                    },
                )
            }
            AccMethod::Direct => {
                let dk = direct_kernel_config(dev);
                launch_map(dev, cost, "numeric_direct", grid, dk, records, |ctx| {
                    let rows = rows(ctx);
                    direct_block(ctx, &out, a, b, rows)
                })
            }
        };
        for (spilled, needs_radix, elems) in results {
            spilled_blocks += usize::from(spilled);
            if needs_radix {
                radix_elems += elems;
            }
        }
        reports.push(report);
    }

    // Trailing radix sort pass for rows the hash kernels left unsorted.
    // (Functionally our accumulator already emits sorted entries; the pass
    // exists to charge its cost, like the real implementation's CUB pass.)
    let sort_report = radix_sort_pass(dev, cost, radix_elems, entry_bytes, records);

    let c = Csr::from_parts_unchecked(n, b.cols(), row_ptr.to_vec(), col_idx, vals);

    NumericOutput {
        c,
        reports,
        sort_report,
        radix_elems,
        spilled_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::global_lb::{plan_numeric, plan_symbolic};
    use crate::symbolic::run_symbolic;
    use speck_sparse::gen::{block_diagonal, rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    fn full_multiply(a: &Csr<f64>, cfg: &SpeckConfig) -> NumericOutput<f64> {
        tampered_multiply(a, cfg, |_, _| {})
    }

    /// Runs both passes on `a * a`, letting `tamper` edit the numeric
    /// plan and C's row offsets before the numeric pass.
    fn tampered_multiply(
        a: &Csr<f64>,
        cfg: &SpeckConfig,
        tamper: impl FnOnce(&mut PassPlan, &mut Vec<usize>),
    ) -> NumericOutput<f64> {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cascade = KernelCascade::for_device(&dev);
        let pool = WorkspacePool::new();
        let (info, nplan) = numeric_plan(a, cfg, &pool);
        let NumericPlan {
            mut plan,
            mut row_ptr,
        } = nplan;
        tamper(&mut plan, &mut row_ptr);
        run_numeric(
            &dev,
            &cost,
            &cascade,
            cfg,
            a,
            a,
            &info,
            &NumericPlan::new(plan, row_ptr),
            &pool,
            BlockRecords::Skip,
        )
    }

    /// The analysis and the numeric plan of `a * a`, after the symbolic
    /// pass.
    fn numeric_plan(
        a: &Csr<f64>,
        cfg: &SpeckConfig,
        pool: &WorkspacePool<f64>,
    ) -> (AnalysisInfo, NumericPlan) {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cascade = KernelCascade::for_device(&dev);
        let (info, _) = analyze(&dev, &cost, a, a);
        let splan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let sym = run_symbolic(
            &dev,
            &cost,
            &cascade,
            cfg,
            a,
            a,
            &info,
            &splan,
            pool,
            BlockRecords::Skip,
        );
        let (nplan, _) = plan_numeric(
            &dev,
            &cost,
            &cascade,
            cfg,
            &info,
            &sym.row_nnz,
            a.cols(),
            8,
            BlockRecords::Skip,
        );
        assert_eq!(nplan.row_ptr, row_ptr_from_nnz(&sym.row_nnz));
        (info, nplan)
    }

    fn check(a: &Csr<f64>, cfg: &SpeckConfig) -> NumericOutput<f64> {
        let out = full_multiply(a, cfg);
        let expect = spgemm_seq(a, a);
        out.c.validate().unwrap();
        assert!(
            out.c.approx_eq(&expect, 1e-10, 1e-12),
            "numeric result mismatch"
        );
        out
    }

    #[test]
    fn values_match_reference_uniform() {
        let a = uniform_random(300, 300, 2, 8, 21);
        check(&a, &SpeckConfig::default());
    }

    #[test]
    fn values_match_reference_skewed() {
        let a = rmat(9, 8, 0.57, 0.19, 0.19, 6);
        check(&a, &SpeckConfig::default());
    }

    #[test]
    fn values_match_dense_path() {
        let a = block_diagonal(2, 128, 1.0, 3);
        let out = check(&a, &SpeckConfig::default());
        // All rows are 100% dense: the dense accumulator handles them and
        // nothing needs the radix pass.
        assert_eq!(out.radix_elems, 0);
    }

    #[test]
    fn values_match_direct_path() {
        let a: Csr<f64> = Csr::identity(500);
        let out = check(&a, &SpeckConfig::default());
        assert!(out.reports.iter().any(|r| r.name == "numeric_direct"));
    }

    #[test]
    fn values_match_hash_only() {
        // One output row with 30 000 distinct columns exceeds the largest
        // numeric hash capacity (98 304 B / 12 B = 8 192 entries): hash-only
        // must spill to the global map yet stay exact.
        let n = 30_000u32;
        let mut coo = speck_sparse::Coo::<f64>::new(n as usize, n as usize);
        for j in 0..n {
            coo.push(0, j, 0.5 + (j % 7) as f64);
        }
        for i in 1..n {
            coo.push(i, i, 1.0);
        }
        let a = coo.to_csr();
        let out = check(&a, &SpeckConfig::hash_only());
        assert!(out.spilled_blocks > 0, "expected global hash fallback");
        assert!(out.radix_elems > 0, "spilled rows must be radix-sorted");
    }

    #[test]
    fn values_match_fixed_local_lb() {
        let a = uniform_random(256, 256, 1, 10, 13);
        check(&a, &SpeckConfig::fixed_local_lb());
    }

    #[test]
    fn values_match_lb_always_on_and_off() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 14);
        for mode in [
            crate::GlobalLbMode::AlwaysOn,
            crate::GlobalLbMode::AlwaysOff,
        ] {
            let cfg = SpeckConfig {
                global_lb: mode,
                ..SpeckConfig::default()
            };
            check(&a, &cfg);
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with the symbolic count")]
    fn short_row_slice_panics_in_the_block() {
        let a = uniform_random(300, 300, 2, 8, 21);
        tampered_multiply(&a, &SpeckConfig::default(), |_, row_ptr| {
            // Row 200 gets one slot fewer than it computes.
            for p in &mut row_ptr[201..] {
                *p -= 1;
            }
        });
    }

    #[test]
    #[should_panic(expected = "computed twice")]
    fn row_listed_in_two_blocks_panics() {
        let a = uniform_random(300, 300, 2, 8, 21);
        tampered_multiply(&a, &SpeckConfig::default(), |plan, _| {
            duplicate_last_block(plan)
        });
    }

    #[test]
    #[should_panic(expected = "some rows were never computed")]
    fn row_left_out_of_the_plan_panics() {
        let a = uniform_random(300, 300, 2, 8, 21);
        tampered_multiply(&a, &SpeckConfig::default(), |plan, _| {
            for r in plan.block_rows(plan.blocks.len() - 1).to_vec() {
                drop_row(plan, r);
            }
        });
    }

    /// Pushes a copy of the plan's last block, so its rows are computed twice.
    fn duplicate_last_block(plan: &mut PassPlan) {
        let last = plan.launches.last().unwrap().clone();
        let rows = plan.block_rows(last.blocks.end - 1).to_vec();
        plan.push_block(&rows, last.cfg_idx, last.method);
    }

    /// Removes row `r` from whichever block computes it (and the block,
    /// if that was its only row).
    fn drop_row(plan: &mut PassPlan, r: u32) {
        let blocks: Vec<(Vec<u32>, usize, AccMethod)> = plan
            .launches
            .iter()
            .flat_map(|l| l.blocks.clone().map(move |i| (i, l.cfg_idx, l.method)))
            .map(|(i, cfg_idx, method)| {
                let rows = plan.block_rows(i).iter().copied().filter(|&x| x != r);
                (rows.collect(), cfg_idx, method)
            })
            .collect();
        plan.blocks.clear();
        plan.rows.clear();
        plan.launches.clear();
        for (rows, cfg_idx, method) in blocks.iter().filter(|b| !b.0.is_empty()) {
            plan.push_block(rows, *cfg_idx, *method);
        }
    }

    #[test]
    fn two_launches_over_one_block_panic_before_any_kernel_runs() {
        let a = uniform_random(300, 300, 2, 8, 21);
        let pool = WorkspacePool::new();
        let (_, nplan) = numeric_plan(&a, &SpeckConfig::default(), &pool);
        let mut plan = nplan.plan.clone();
        let last = plan.launches.last().unwrap().clone();
        plan.launches.push(last);
        // The plan is rejected when it is built, before `run_numeric` can
        // launch a kernel.
        let msg = panic_message(|| {
            NumericPlan::new(plan, nplan.row_ptr.clone());
        });
        assert!(msg.contains("computed twice"), "{msg}");
    }

    #[test]
    fn a_caller_built_job_over_a_tampered_plan_is_rejected() {
        let a = uniform_random(300, 300, 2, 8, 21);
        let pool = WorkspacePool::new();
        let (_, nplan) = numeric_plan(&a, &SpeckConfig::default(), &pool);
        let reject = |plan: &PassPlan, row_ptr: &[usize]| {
            panic_message(|| {
                NumericPlan::new(plan.clone(), row_ptr.to_vec());
            })
        };
        // The plan as built passes.
        NumericPlan::new(nplan.plan.clone(), nplan.row_ptr.clone());
        // Row offsets that decrease.
        let mut row_ptr = nplan.row_ptr.clone();
        row_ptr[150] = row_ptr[151] + 1;
        let msg = reject(&nplan.plan, &row_ptr);
        assert!(msg.contains("row offsets must never decrease"), "{msg}");
        // Row offsets one row short of the plan's rows.
        let msg = reject(&nplan.plan, &nplan.row_ptr[..300]);
        assert!(msg.contains("is not a row of C"), "{msg}");
        // A row dropped from its block.
        let mut plan = nplan.plan.clone();
        drop_row(&mut plan, 7);
        let msg = reject(&plan, &nplan.row_ptr);
        assert!(msg.contains("some rows were never computed"), "{msg}");
        // Dense blocks of several rows, all but the first of which their
        // kernel would skip.
        let mut plan = nplan.plan.clone();
        let l = (plan.launches.iter())
            .position(|l| plan.block_rows(l.blocks.start).len() > 1)
            .expect("some block computes several rows");
        plan.launches[l].method = AccMethod::Dense;
        let msg = reject(&plan, &nplan.row_ptr);
        assert!(msg.contains("a dense block computes one row"), "{msg}");
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("the multiply must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn row_hand_out_checks_hold_around_the_bitmap_word_boundary() {
        // Row counts on both sides of 64, a word of any per-row bitmap:
        // the partition check must catch the last row left out or listed
        // twice at every one.
        for n in [0usize, 63, 64, 65] {
            let cfg = SpeckConfig::default();
            if n == 0 {
                let a: Csr<f64> = Csr::empty(0, 0);
                assert_eq!(check(&a, &cfg).c.rows(), 0);
                continue;
            }
            let a = uniform_random(n, n, 2, 8, 40 + n as u64);
            check(&a, &cfg);
            let last = n as u32 - 1;
            let msg = panic_message(|| {
                tampered_multiply(&a, &cfg, |plan, _| drop_row(plan, last));
            });
            assert!(
                msg.contains("some rows were never computed"),
                "{n} rows: {msg}"
            );
            let msg = panic_message(|| {
                tampered_multiply(&a, &cfg, |plan, _| duplicate_last_block(plan));
            });
            assert!(msg.contains("computed twice"), "{n} rows: {msg}");
        }
    }

    #[test]
    fn many_row_multiply_matches_reference() {
        // 300,000 rows, cut from C's arrays by 300,000 one-row blocks.
        let a = speck_sparse::gen::banded(300_000, 1, 1.0, 1);
        check(&a, &SpeckConfig::default());
    }

    #[test]
    fn empty_matrix_produces_empty_c() {
        let a: Csr<f64> = Csr::empty(20, 20);
        let out = check(&a, &SpeckConfig::default());
        assert_eq!(out.c.nnz(), 0);
    }

    #[test]
    fn f32_values_supported() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cascade = KernelCascade::for_device(&dev);
        let cfg = SpeckConfig::default();
        let pool = WorkspacePool::new();
        let a64 = uniform_random(128, 128, 1, 6, 8);
        // Rebuild as f32.
        let a: Csr<f32> = Csr::from_parts_unchecked(
            a64.rows(),
            a64.cols(),
            a64.row_ptr().to_vec(),
            a64.col_idx().to_vec(),
            a64.vals().iter().map(|&v| v as f32).collect(),
        );
        let (info, _) = analyze(&dev, &cost, &a, &a);
        let splan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let sym = run_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &a,
            &a,
            &info,
            &splan,
            &pool,
            BlockRecords::Skip,
        );
        let (nplan, _) = plan_numeric(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            &sym.row_nnz,
            a.cols(),
            4,
            BlockRecords::Skip,
        );
        let out = run_numeric(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &a,
            &a,
            &info,
            &nplan,
            &pool,
            BlockRecords::Skip,
        );
        let expect64 = spgemm_seq(&a64, &a64);
        assert_eq!(out.c.nnz(), expect64.nnz());
    }
}

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
//! front, so C's arrays are split into per-row slices, each taken once by
//! the block that computes the row.

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
use crate::symbolic::LaunchGroups;
use crate::workspace::{RowOut, RowSlices, Workspace, WorkspacePool};
use speck_simt::{
    launch_map, launch_map_init, BlockCtx, BlockRecords, CostModel, DeviceConfig, KernelReport,
};
use speck_sparse::{Csr, Scalar};

/// What one numeric block reports back besides the rows it wrote: whether
/// it spilled to a global hash map, whether its rows still need the global
/// radix pass, and how many entries it wrote.
type BlockResult = (bool, bool, usize);

/// Takes row `r`'s output slices; panics if the row was taken before.
#[inline]
fn take_row<'c, V>(out: &RowSlices<'c, V>, r: u32) -> RowOut<'c, V> {
    out.take(r as usize)
        .unwrap_or_else(|| panic!("numeric row {r} computed twice"))
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

/// Precomputed, pattern-only inputs of the numeric pass: the block plan
/// with its launch groups and C's exact row structure.
///
/// Borrowed rather than owned so one [`crate::SpgemmPlan`] can drive any
/// number of executions; the cold path builds these fresh per call.
pub struct NumericJob<'a> {
    /// The numeric block plan.
    pub plan: &'a PassPlan,
    /// `plan`'s blocks grouped by (method, config) for launching — the
    /// output of [`crate::symbolic::group_blocks`].
    pub groups: &'a LaunchGroups,
    /// Prefix-summed row offsets of C — [`row_ptr_from_nnz`] of the
    /// symbolic pass's exact row counts.
    pub row_ptr: &'a [usize],
}

/// Runs the numeric pass and assembles C. Its launches keep per-block
/// records as `records` asks.
///
/// Panics if a row's computed entry count disagrees with `job.row_ptr`,
/// if the plan lists a row in two blocks, or if it leaves a row out.
#[allow(clippy::too_many_arguments)]
pub fn run_numeric<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    info: &AnalysisInfo,
    job: &NumericJob<'_>,
    pool: &WorkspacePool<V>,
    records: BlockRecords,
) -> NumericOutput<V> {
    let entry_bytes = numeric_entry_bytes(b.cols(), std::mem::size_of::<V>());
    let plan = job.plan;
    let row_ptr = job.row_ptr;
    let mut reports = Vec::new();
    let mut spilled_blocks = 0usize;
    let mut radix_elems = 0usize;

    // The symbolic counts are exact, so C's layout is known before the
    // numeric kernels run: every block writes its rows in place.
    let n = a.rows();
    debug_assert_eq!(row_ptr.len(), n + 1);
    let total = *row_ptr.last().unwrap_or(&0);
    let mut col_idx = vec![0u32; total];
    let mut vals = vec![V::zero(); total];
    let out = RowSlices::new(row_ptr, &mut col_idx, &mut vals);

    for (&(method, cfg_idx), group) in job.groups {
        let kc = cascade.config(cfg_idx);
        let rows = |ctx: &BlockCtx| plan.block_rows(group[ctx.block_id()]);
        let (report, results) = match method {
            AccMethod::Hash => {
                let capacity = cascade.hash_capacity(cfg_idx, entry_bytes);
                let scratch_sorted = cfg_idx <= MAX_SCRATCH_SORT_CFG;
                launch_map_init(
                    dev,
                    cost,
                    format!("numeric_hash_c{cfg_idx}"),
                    group.len(),
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
                    group.len(),
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
                launch_map(
                    dev,
                    cost,
                    "numeric_direct",
                    group.len(),
                    dk,
                    records,
                    |ctx| {
                        let rows = rows(ctx);
                        direct_block(ctx, &out, a, b, rows)
                    },
                )
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
    assert!(out.all_taken(), "some rows were never computed");

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
    use crate::symbolic::{group_blocks, run_symbolic};
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
            &pool,
            BlockRecords::Skip,
        );
        let mut nplan = plan_numeric(
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
        let mut row_ptr = row_ptr_from_nnz(&sym.row_nnz);
        tamper(&mut nplan, &mut row_ptr);
        let groups = group_blocks(&nplan);
        run_numeric(
            &dev,
            &cost,
            &cascade,
            cfg,
            a,
            a,
            &info,
            &NumericJob {
                plan: &nplan,
                groups: &groups,
                row_ptr: &row_ptr,
            },
            &pool,
            BlockRecords::Skip,
        )
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
            let last = *plan.blocks.last().unwrap();
            plan.blocks.push(last);
        });
    }

    #[test]
    #[should_panic(expected = "some rows were never computed")]
    fn row_left_out_of_the_plan_panics() {
        let a = uniform_random(300, 300, 2, 8, 21);
        tampered_multiply(&a, &SpeckConfig::default(), |plan, _| {
            plan.blocks.pop();
        });
    }

    /// Removes row `r` from whichever block computes it (and the block,
    /// if that was its only row).
    fn drop_row(plan: &mut PassPlan, r: u32) {
        let blocks: Vec<(Vec<u32>, usize, AccMethod)> = (0..plan.blocks.len())
            .map(|i| {
                let rows = plan.block_rows(i).iter().copied().filter(|&x| x != r);
                (
                    rows.collect(),
                    plan.blocks[i].cfg_idx,
                    plan.blocks[i].method,
                )
            })
            .collect();
        plan.blocks.clear();
        plan.rows.clear();
        for (rows, cfg_idx, method) in blocks.iter().filter(|b| !b.0.is_empty()) {
            plan.push_block(rows, *cfg_idx, *method);
        }
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
        // C's rows are handed out through one take-once bit each, 64 to a
        // word: the last row sits in a partial, a full and a one-bit word.
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
                tampered_multiply(&a, &cfg, |plan, _| {
                    let block = *plan.blocks.last().unwrap();
                    plan.blocks.push(block);
                });
            });
            assert!(msg.contains("computed twice"), "{n} rows: {msg}");
        }
    }

    #[test]
    fn many_row_multiply_matches_reference() {
        // 300,000 rows: C's hand-out spans thousands of bitmap words.
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
        let nplan = plan_numeric(
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
        let groups = group_blocks(&nplan);
        let row_ptr = row_ptr_from_nnz(&sym.row_nnz);
        let out = run_numeric(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &a,
            &a,
            &info,
            &NumericJob {
                plan: &nplan,
                groups: &groups,
                row_ptr: &row_ptr,
            },
            &pool,
            BlockRecords::Skip,
        );
        let expect64 = spgemm_seq(&a64, &a64);
        assert_eq!(out.c.nnz(), expect64.nnz());
    }
}

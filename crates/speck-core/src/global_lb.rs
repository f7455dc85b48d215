//! Global load balancing (paper §4.2): deciding *whether* to bin, binning
//! rows into the six kernel configurations by scratchpad demand, merging
//! the smallest bin, and producing the block plan each SpGEMM pass
//! executes.
//!
//! A [`PassPlan`] is flat and in launch order: one row list holding every
//! block's rows back to back, per block a copyable run of it
//! ([`BlockPlan`]), and per kernel launch a range of blocks
//! ([`LaunchGroup`]). One sweep routes each row to its accumulator's run;
//! the runs are then laid out launch by launch. Building a plan allocates
//! per pass, not per block or row.

use crate::analysis::AnalysisInfo;
use crate::block_merge::block_merge;
use crate::cascade::{numeric_entry_bytes, smallest_fit, symbolic_entry_bytes, KernelCascade};
use crate::config::{GlobalLbMode, SpeckConfig};
use crate::hashacc::MAX_HASH_BLOCK_ROWS;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::numeric::NumericPlan;
use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig, KernelReport};

/// Accumulation method chosen for a block (paper Fig. 2: Hash / Dense /
/// Direct in both passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccMethod {
    /// Scratchpad hash map with linear probing.
    Hash,
    /// Chunked dense accumulation.
    Dense,
    /// Direct referencing for rows of A with at most one NZ.
    Direct,
}

impl AccMethod {
    /// Lower-case name used in exports and tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AccMethod::Hash => "hash",
            AccMethod::Dense => "dense",
            AccMethod::Direct => "direct",
        }
    }

    /// Inverse of [`AccMethod::name`].
    pub(crate) fn from_name(s: &str) -> Option<AccMethod> {
        [AccMethod::Hash, AccMethod::Dense, AccMethod::Direct]
            .into_iter()
            .find(|a| a.name() == s)
    }
}

/// One thread block of a SpGEMM pass: a run of its plan's row list
/// ([`PassPlan::block_rows`]). Its launch ([`LaunchGroup`]) holds the
/// accumulator and the configuration it runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockPlan {
    /// Offset of the block's first row in [`PassPlan::rows`].
    pub start: usize,
    /// Rows of A this block computes (1–32 for hash, 1 for dense, up to
    /// [`DIRECT_ROWS_PER_BLOCK`] for direct).
    pub len: usize,
}

/// One kernel launch of a pass: a run of consecutive blocks of
/// [`PassPlan::blocks`] sharing an accumulator and a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchGroup {
    /// Accumulator of the launch's blocks.
    pub method: AccMethod,
    /// Kernel-cascade index of the launch's blocks.
    pub cfg_idx: usize,
    /// The launch's blocks, as indices into [`PassPlan::blocks`].
    pub blocks: std::ops::Range<usize>,
}

/// Which threshold set gated the decision (for reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdSet {
    /// The base set (small kernels suffice).
    Base,
    /// The starred set for the largest kernels (Table 2 columns `*`).
    Large,
}

/// Everything the global-LB gate of one pass consulted, captured at
/// decision time (paper §5 / Table 2): the measured features that drove
/// the decision, the threshold values that fired, and the outcome. This
/// is the provenance record the decision-audit layer
/// ([`crate::audit`]) reconciles against measured execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateProvenance {
    /// Configured mode the decision ran under.
    pub mode: GlobalLbMode,
    /// Measured demand-variance ratio `m_max / m_avg` over the hash rows.
    pub ratio: f64,
    /// Row count the decision consulted.
    pub rows: usize,
    /// Whether the longest row already demanded one of the large kernels
    /// (selects the starred Table 2 column).
    pub needs_large_kernel: bool,
    /// Which threshold set gated the decision.
    pub threshold_set: ThresholdSet,
    /// Ratio threshold of the fired set.
    pub thr_ratio: f64,
    /// Min-rows threshold of the fired set.
    pub thr_rows: usize,
    /// The outcome: whether binning ran.
    pub used_global_lb: bool,
}

/// Plan for one SpGEMM pass.
#[derive(Clone, Debug)]
pub struct PassPlan {
    /// All blocks, in launch order: by (method, cfg) ascending, and in
    /// plan order within one (method, cfg).
    pub blocks: Vec<BlockPlan>,
    /// The rows of every block, back to back in block order.
    pub rows: Vec<u32>,
    /// The kernel launches, in launch order: one per (method, cfg) when
    /// blocks are pushed in launch order.
    pub launches: Vec<LaunchGroup>,
    /// Simulated cost of binning / merging kernels (empty when skipped).
    pub lb_reports: Vec<KernelReport>,
    /// Device bytes allocated for load-balancing bookkeeping.
    pub lb_alloc_bytes: usize,
    /// The global-LB gate: the features it consulted, the thresholds
    /// that fired, and whether binning ran.
    pub gate: GateProvenance,
}

impl PassPlan {
    /// Rows of A that block `i` computes.
    pub fn block_rows(&self, i: usize) -> &[u32] {
        let b = &self.blocks[i];
        &self.rows[b.start..b.start + b.len]
    }

    /// Appends a block computing `rows` (at least one) at cascade index
    /// `cfg_idx`, in launch order (see [`PassPlan::blocks`]).
    pub fn push_block(&mut self, rows: &[u32], cfg_idx: usize, method: AccMethod) {
        assert!(!rows.is_empty(), "a block computes at least one row");
        self.push_chunks(rows, rows.len(), cfg_idx, method);
    }

    /// Appends `rows` as blocks of up to `per_block` rows each, to the
    /// last launch when that has the same (method, cfg). Blocks must come
    /// in launch order: (method, cfg) never below the last launch's.
    fn push_chunks(&mut self, rows: &[u32], per_block: usize, cfg_idx: usize, method: AccMethod) {
        let last = self.launches.last().map(|l| (l.method, l.cfg_idx));
        debug_assert!(rows.is_empty() || last <= Some((method, cfg_idx)));
        let (first, start) = (self.blocks.len(), self.rows.len());
        let blocks = (0..rows.len()).step_by(per_block).map(|off| BlockPlan {
            start: start + off,
            len: per_block.min(rows.len() - off),
        });
        self.blocks.extend(blocks);
        self.rows.extend_from_slice(rows);
        let end = self.blocks.len();
        match self.launches.last_mut() {
            Some(l) if (l.method, l.cfg_idx, l.blocks.end) == (method, cfg_idx, first) => {
                l.blocks.end = end
            }
            _ if end > first => self.launches.push(LaunchGroup {
                method,
                cfg_idx,
                blocks: first..end,
            }),
            _ => {}
        }
    }

    /// Number of blocks per method, for reports and tests.
    pub(crate) fn method_counts(&self) -> (usize, usize, usize) {
        let mut n = [0; 3];
        for l in &self.launches {
            n[l.method as usize] += l.blocks.len();
        }
        (n[0], n[1], n[2])
    }

    /// Records the pass's load-balancing outcome under `sim/lb/<pass>/`:
    /// whether binning engaged, blocks per accumulation method, the rows
    /// the decision consulted, and a rows-per-block histogram. All values
    /// derive from the deterministic plan, so they belong to the canonical
    /// snapshot section.
    pub fn record_metrics(&self, m: &MetricsRegistry, pass: &'static str) {
        let (h, d, r) = self.method_counts();
        let mut rows = Histogram::default();
        for l in &self.launches {
            let blocks = &self.blocks[l.blocks.clone()];
            let (first, last) = (blocks[0], blocks[blocks.len() - 1]);
            // Blocks are never empty: as many rows as blocks means one each.
            if last.start + last.len - first.start == blocks.len() {
                rows.record_n(1, blocks.len() as u64);
            } else {
                blocks.iter().for_each(|b| rows.record(b.len as u64));
            }
        }
        m.record_pass(
            pass,
            self.gate.used_global_lb,
            self.gate.rows as u64,
            [h, d, r].map(|n| n as u64),
            &rows,
        );
    }
}

/// Rows per block of the bulk direct-referencing kernel — small enough
/// that a handful of direct blocks still spreads over the whole device
/// (hub rows can carry most of the matrix's data through this path).
pub const DIRECT_ROWS_PER_BLOCK: usize = 128;

/// Launch shape of the bulk direct-referencing kernel: 256 threads (or
/// the device's block limit, if lower) and no scratchpad.
pub(crate) fn direct_kernel_config(dev: &DeviceConfig) -> KernelConfig {
    KernelConfig::new(256.min(dev.max_threads_per_block), 0)
}

/// The Table 2 threshold rule for one pass: global load balancing fires
/// when the demand-variance ratio `m_max / m_avg` reaches `thr_ratio`
/// *and* the matrix has at least `thr_rows` rows to amortise the binning
/// kernels. Shared by the pipeline's gate ([`plan_symbolic`] /
/// [`plan_numeric`]) and the auto-tuner's predictor
/// (`tuning::predict`), so audits of the one are claims about
/// the other.
pub fn lb_threshold_fires(ratio: f64, rows: usize, thr_ratio: f64, thr_rows: usize) -> bool {
    ratio >= thr_ratio && rows >= thr_rows
}

/// Decides whether a pass should run the global load balancer.
///
/// The paper's rule (§5): run it when the demand variance `m_max / m_avg`
/// exceeds a threshold *and* the matrix has enough rows to amortise the
/// binning kernels, with a separate (starred) threshold set when the
/// longest row already demands one of the largest kernel sizes.
fn decide_lb(
    mode: GlobalLbMode,
    ratio: f64,
    rows: usize,
    needs_large_kernel: bool,
    (thr_ratio, thr_rows, thr_ratio_large, thr_rows_large): (f64, usize, f64, usize),
) -> GateProvenance {
    let (set, fired_ratio, fired_rows) = if needs_large_kernel {
        (ThresholdSet::Large, thr_ratio_large, thr_rows_large)
    } else {
        (ThresholdSet::Base, thr_ratio, thr_rows)
    };
    let on = match mode {
        GlobalLbMode::AlwaysOn => true,
        GlobalLbMode::AlwaysOff => false,
        GlobalLbMode::Auto => lb_threshold_fires(ratio, rows, fired_ratio, fired_rows),
    };
    GateProvenance {
        mode,
        ratio,
        rows,
        needs_large_kernel,
        threshold_set: set,
        thr_ratio: fired_ratio,
        thr_rows: fired_rows,
        used_global_lb: on,
    }
}

/// Charges the simulated cost of the order-preserving binning kernel
/// (local prefix sums per 1024-row block, one global append per bin).
fn charge_binning(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: &'static str,
    rows: usize,
    bins: usize,
    records: BlockRecords,
) -> KernelReport {
    let threads = dev.max_threads_per_block;
    let grid = rows.div_ceil(threads).max(1);
    launch(
        dev,
        cost,
        name,
        grid,
        KernelConfig::new(threads, 4096),
        records,
        |ctx| {
            let start = ctx.block_id() * threads;
            let n = threads.min(rows.saturating_sub(start));
            // Read demands, compute bin, prefix-scan per potentially non-empty
            // bin, append globally in one transaction per bin (paper §4.2).
            ctx.charge_gmem_stream(threads, n, 4);
            ctx.charge_smem((n * 2) as u64);
            // One Hillis-Steele scan per potentially non-empty bin; each scan
            // is ~log2(1024) warp-parallel steps over the block's warps, which
            // amortises to about one block round per bin.
            ctx.charge_rounds(bins as u64);
            ctx.charge_gmem_atomic(bins as u64);
            ctx.charge_gmem_stream(threads, n, 4); // write row ids to bins
            ctx.charge_sync();
        },
    )
}

/// Hash entries a numeric row of `nnz` outputs needs so the final fill
/// rate stays below `max_fill` (paper: 66 %): `f64::ceil(nnz / max_fill)`
/// cast to `u64`, bit for bit, with the ceiling taken by a compare.
pub fn numeric_entries(nnz: u32, max_fill: f64) -> u64 {
    let q = nnz as f64 / max_fill;
    let t = q as u64;
    t.saturating_add(u64::from((t as f64) < q))
}

/// Where the planning sweep sends one row: the hash path with the row's
/// demand in hash entries, the dense accumulator at a cascade index, or
/// the direct path.
enum Route {
    Hash(u64),
    Dense(usize),
    Direct,
}

/// Common planner for both passes: one sweep routes each of the `n` rows
/// and appends it to its run, then the runs are laid out in launch order
/// (hash blocks by configuration, dense blocks by configuration, direct
/// blocks).
///
/// * `route(r)` — row `r`'s accumulator, with its hash demand.
/// * `entries(r)` — row `r`'s hash demand, read again when binning runs.
/// * `caps` — [`KernelCascade::hash_capacities`] at this pass's entry size.
#[allow(clippy::too_many_arguments)]
fn plan_pass(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    n: usize,
    mut route: impl FnMut(usize) -> Route,
    entries: impl Fn(u32) -> u64,
    caps: &[u64],
    entry_bytes: usize,
    pass_name: &'static str,
    thr: (f64, usize, f64, usize),
    large_kernel_cut: usize,
    records: BlockRecords,
) -> PassPlan {
    // The sweep: hash rows with their demand statistics, dense rows by
    // configuration, direct rows.
    let (mut hash, mut direct) = (Vec::new(), Vec::new());
    let mut dense: Vec<Vec<u32>> = vec![Vec::new(); cascade.len()];
    let (mut max_entries, mut sum_entries) = (0u64, 0u64);
    for r in 0..n {
        let run = match route(r) {
            Route::Hash(e) => {
                max_entries = max_entries.max(e);
                sum_entries += e;
                &mut hash
            }
            Route::Dense(cfg_idx) => &mut dense[cfg_idx],
            Route::Direct => &mut direct,
        };
        // A run's first row reserves room for every row left.
        if run.capacity() == 0 {
            run.reserve_exact(n - r);
        }
        run.push(r as u32);
    }
    let avg = sum_entries as f64 / hash.len().max(1) as f64;
    let ratio = if avg <= 0.0 {
        1.0
    } else {
        max_entries as f64 / avg
    };
    let max_cfg = smallest_fit(caps, max_entries);
    let gate = decide_lb(cfg.global_lb, ratio, n, max_cfg >= large_kernel_cut, thr);
    // Without binning (paper §4.2 "No load balancing"): one kernel size
    // that holds the longest row, a fixed number of rows per block.
    let per_block = ((caps[max_cfg] / max_entries.max(1)).max(1) as usize).min(MAX_HASH_BLOCK_ROWS);
    let blocks = hash
        .len()
        .div_ceil(if gate.used_global_lb { 1 } else { per_block })
        + dense.iter().map(Vec::len).sum::<usize>()
        + direct.len().div_ceil(DIRECT_ROWS_PER_BLOCK);
    let mut plan = PassPlan {
        blocks: Vec::with_capacity(blocks),
        rows: Vec::with_capacity(n),
        launches: Vec::new(),
        lb_reports: Vec::new(),
        lb_alloc_bytes: 0,
        gate,
    };

    if gate.used_global_lb && !hash.is_empty() {
        // Bin rows by the smallest configuration that fits them.
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); cascade.len()];
        for &r in &hash {
            bins[smallest_fit(caps, entries(r))].push(r);
        }
        plan.lb_reports
            .push(charge_binning(dev, cost, pass_name, n, bins.len(), records));
        plan.lb_alloc_bytes += n * 4 + bins.len() * 8;

        // Smallest non-empty bin: merge neighbouring rows into blocks.
        // Larger bins: one row per block.
        let mut bins = bins.iter().enumerate().filter(|(_, bin)| !bin.is_empty());
        if let Some((idx, bin)) = bins.next() {
            let cap = caps[idx] * entry_bytes as u64;
            let demands: Vec<u64> = bin
                .iter()
                .map(|&r| entries(r) * entry_bytes as u64)
                .collect();
            let (segs, work) = block_merge(&demands, cap.max(1), cfg.block_merge);
            if work > 0 {
                plan.lb_reports.push(launch(
                    dev,
                    cost,
                    "block_merge",
                    (bin.len().div_ceil(dev.max_threads_per_block)).max(1),
                    KernelConfig::new(dev.max_threads_per_block, 0),
                    records,
                    |ctx| {
                        ctx.charge_rounds(work / dev.max_threads_per_block.max(1) as u64 + 5);
                        ctx.charge_smem(work);
                    },
                ));
            }
            for seg in segs {
                plan.push_block(&bin[seg.start..seg.start + seg.len], idx, AccMethod::Hash);
            }
        }
        for (idx, bin) in bins {
            plan.push_chunks(bin, 1, idx, AccMethod::Hash);
        }
    } else {
        plan.push_chunks(&hash, per_block, max_cfg, AccMethod::Hash);
    }
    // Dense blocks: one row each at the configuration sized for the row.
    for (cfg_idx, rows) in dense.iter().enumerate() {
        plan.push_chunks(rows, 1, cfg_idx, AccMethod::Dense);
    }
    // Direct blocks: many rows per block, no scratchpad.
    plan.push_chunks(&direct, DIRECT_ROWS_PER_BLOCK, 0, AccMethod::Direct);
    plan
}

/// Plans the symbolic pass from the row analysis. Its load-balancing
/// launches keep per-block events as `records` asks.
pub fn plan_symbolic(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    info: &AnalysisInfo,
    cols_b: usize,
    records: BlockRecords,
) -> PassPlan {
    let entry_bytes = symbolic_entry_bytes(cols_b);
    let caps = cascade.hash_capacities(entry_bytes);
    let largest = cascade.largest();
    // Symbolic dense: only rows more than `symbolic_dense_factor` times the
    // largest hash capacity (paper §4.3 "Symbolic SpGEMM"); such rows run
    // at the largest configuration. A row's demand is its conservative
    // no-compaction product count (paper §4.2).
    let dense_cut = cfg.symbolic_dense_factor * caps[largest] as f64;
    let route = |r: usize| {
        let row = &info.rows[r];
        if cfg.enable_direct && row.nnz_a <= 1 {
            Route::Direct
        } else if cfg.enable_dense && row.products as f64 > dense_cut {
            Route::Dense(largest)
        } else {
            Route::Hash(row.products)
        }
    };
    let t = &cfg.thresholds;
    plan_pass(
        dev,
        cost,
        cascade,
        cfg,
        info.rows.len(),
        route,
        |r| info.rows[r as usize].products,
        &caps,
        entry_bytes,
        "symbolic_binning",
        (
            t.symbolic_ratio,
            t.symbolic_min_rows,
            t.symbolic_ratio_large,
            t.symbolic_min_rows_large,
        ),
        cascade.len() - 3, // starred set: three largest of six (Table 2)
        records,
    )
}

/// Plans the numeric pass from the exact row sizes the symbolic pass
/// produced, and builds C's row offsets and the distribution of the row
/// sizes (`sim/symbolic/row_nnz`) in the same sweep. The plan is checked
/// as [`NumericPlan::new`] checks it. Its load-balancing launches keep
/// per-block events as `records` asks.
#[allow(clippy::too_many_arguments)]
pub fn plan_numeric(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    info: &AnalysisInfo,
    row_nnz: &[u32],
    cols_b: usize,
    val_bytes: usize,
    records: BlockRecords,
) -> (NumericPlan, Histogram) {
    let entry_bytes = numeric_entry_bytes(cols_b, val_bytes);
    let caps = cascade.hash_capacities(entry_bytes);
    let three_chunks: Vec<u64> = (0..cascade.len())
        .map(|i| 3 * cascade.dense_numeric_slots(i, val_bytes) as u64)
        .collect();
    let mut row_ptr = Vec::with_capacity(row_nnz.len() + 1);
    row_ptr.push(0usize);
    let (mut nnz_c, mut row_nnz_hist) = (0usize, Histogram::default());
    let route = |r: usize| {
        let nnz = row_nnz[r];
        nnz_c += nnz as usize;
        row_ptr.push(nnz_c);
        row_nnz_hist.record(nnz as u64);
        let row = &info.rows[r];
        if cfg.enable_direct && row.nnz_a <= 1 {
            return Route::Direct;
        }
        let entries = numeric_entries(nnz, cfg.numeric_max_fill);
        if cfg.enable_dense && nnz > 0 {
            // Rows that need the largest hash map, or don't fit even that,
            // always go dense at the largest configuration (paper §4.3
            // "Numeric SpGEMM", last paragraph). Medium rows go dense if
            // locally dense enough that at most three chunk iterations
            // cover their column range (paper's 18 % rule), at the kernel
            // size the row was binned for.
            let idx = smallest_fit(&caps, entries);
            let (range, min) = (row.col_range(), cfg.dense_min_density);
            let medium = || match range {
                0 => 0.0 >= min,
                _ => range <= three_chunks[idx] && nnz as f64 / range as f64 >= min,
            };
            if idx == cascade.largest() || medium() {
                return Route::Dense(idx);
            }
        }
        Route::Hash(entries)
    };
    let t = &cfg.thresholds;
    let plan = plan_pass(
        dev,
        cost,
        cascade,
        cfg,
        row_nnz.len(),
        route,
        |r| numeric_entries(row_nnz[r as usize], cfg.numeric_max_fill),
        &caps,
        entry_bytes,
        "numeric_binning",
        (
            t.numeric_ratio,
            t.numeric_min_rows,
            t.numeric_ratio_large,
            t.numeric_min_rows_large,
        ),
        cascade.len() - 2, // starred set: two largest of six (Table 2)
        records,
    );
    (NumericPlan::new(plan, row_ptr), row_nnz_hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use speck_sparse::gen::{block_diagonal, rmat, uniform_random};
    use speck_sparse::Csr;

    fn setup(a: &Csr<f64>) -> (DeviceConfig, CostModel, KernelCascade, AnalysisInfo) {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let cascade = KernelCascade::for_device(&dev);
        let info = analyze(&dev, &cost, a, a).0;
        (dev, cost, cascade, info)
    }

    fn rows_covered(plan: &PassPlan) -> Vec<u32> {
        let mut all: Vec<u32> = (0..plan.blocks.len())
            .flat_map(|i| plan.block_rows(i).iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_row_assigned_exactly_once() {
        let a = rmat(10, 8, 0.57, 0.19, 0.19, 3);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        assert_eq!(
            rows_covered(&plan),
            (0..a.rows() as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_matrix_skips_lb_in_auto_mode() {
        let a = uniform_random(1000, 1000, 4, 4, 1);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        assert!(!plan.gate.used_global_lb, "uniform rows must not be binned");
        assert!(plan.lb_reports.is_empty());
    }

    #[test]
    fn skewed_matrix_uses_lb_in_auto_mode() {
        // A few huge hub rows drive m_max/m_avg far beyond any threshold.
        let a = speck_sparse::gen::with_hub_rows(6_000, 1, 4, 3_000, 3);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        assert!(
            plan.gate.used_global_lb,
            "skewed demands should trigger binning"
        );
        assert!(!plan.lb_reports.is_empty());
        // Binned blocks use more than one configuration.
        let cfgs: std::collections::BTreeSet<usize> = plan
            .launches
            .iter()
            .filter(|l| l.method == AccMethod::Hash)
            .map(|l| l.cfg_idx)
            .collect();
        assert!(cfgs.len() > 1, "expected multiple bins, got {cfgs:?}");
    }

    #[test]
    fn always_modes_override_auto() {
        let a = uniform_random(500, 500, 4, 4, 1);
        let (dev, cost, cascade, info) = setup(&a);
        let mut cfg = SpeckConfig {
            global_lb: GlobalLbMode::AlwaysOn,
            ..SpeckConfig::default()
        };
        assert!(
            plan_symbolic(&dev, &cost, &cascade, &cfg, &info, 500, BlockRecords::Skip)
                .gate
                .used_global_lb
        );
        cfg.global_lb = GlobalLbMode::AlwaysOff;
        assert!(
            !plan_symbolic(&dev, &cost, &cascade, &cfg, &info, 500, BlockRecords::Skip)
                .gate
                .used_global_lb
        );
    }

    #[test]
    fn single_nz_rows_take_direct_path() {
        let a: Csr<f64> = Csr::identity(5000);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let (h, d, r) = plan.method_counts();
        assert_eq!(h, 0);
        assert_eq!(d, 0);
        assert_eq!(r, 5000usize.div_ceil(DIRECT_ROWS_PER_BLOCK));
        // Direct disabled: all rows through hash.
        let plan2 = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &SpeckConfig::hash_only(),
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let (h2, d2, r2) = plan2.method_counts();
        assert!(h2 > 0);
        assert_eq!((d2, r2), (0, 0));
    }

    #[test]
    fn huge_rows_go_dense_in_symbolic() {
        // One block of 200x200 dense: squaring gives rows with 40k products
        // > 2 * largest hash capacity (24576)? 200*200=40000 products.
        let a = block_diagonal(1, 200, 1.0, 5);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        // products per row = 200 * 200 = 40000 < 2*24576 = 49152 -> hash!
        let (_, d, _) = plan.method_counts();
        assert_eq!(d, 0, "40k products still fit twice the largest hash");

        let b = block_diagonal(1, 300, 1.0, 5); // 90k products > 49152
        let info_b = analyze(&dev, &cost, &b, &b).0;
        let plan_b = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info_b,
            b.cols(),
            BlockRecords::Skip,
        );
        let (_, d_b, _) = plan_b.method_counts();
        assert_eq!(d_b, 300, "every row must go dense");
    }

    #[test]
    fn numeric_dense_for_dense_medium_rows() {
        // Dense block rows: output rows are 100% dense over their range.
        let a = block_diagonal(4, 64, 1.0, 5);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let row_nnz = vec![64u32; 256];
        let (plan, _) = plan_numeric(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            &row_nnz,
            a.cols(),
            8,
            BlockRecords::Skip,
        );
        let (h, d, _) = plan.plan().method_counts();
        assert_eq!(h, 0, "fully dense rows must use the dense accumulator");
        assert_eq!(d, 256);
        // With dense disabled they fall back to hash.
        let (plan2, _) = plan_numeric(
            &dev,
            &cost,
            &cascade,
            &SpeckConfig::hash_only(),
            &info,
            &row_nnz,
            a.cols(),
            8,
            BlockRecords::Skip,
        );
        let (h2, d2, _) = plan2.plan().method_counts();
        assert!(h2 > 0);
        assert_eq!(d2, 0);
    }

    #[test]
    fn no_lb_blocks_share_one_config_and_pack_rows() {
        let a = uniform_random(2000, 2000, 3, 5, 2);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig {
            global_lb: GlobalLbMode::AlwaysOff,
            enable_direct: false,
            ..SpeckConfig::default()
        };
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        let cfgs: std::collections::BTreeSet<usize> =
            plan.launches.iter().map(|l| l.cfg_idx).collect();
        assert_eq!(cfgs.len(), 1);
        // Rows are packed multiple per block (short rows).
        let lens: Vec<usize> = (0..plan.blocks.len())
            .map(|i| plan.block_rows(i).len())
            .collect();
        assert!(lens.iter().any(|&l| l > 1));
        assert!(lens.iter().all(|&l| l <= 32));
    }

    #[test]
    fn numeric_plan_covers_all_rows() {
        let a = rmat(9, 6, 0.57, 0.19, 0.19, 8);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let c = speck_sparse::reference::spgemm_seq(&a, &a);
        let row_nnz: Vec<u32> = (0..c.rows()).map(|i| c.row_nnz(i) as u32).collect();
        let (plan, _) = plan_numeric(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            &row_nnz,
            a.cols(),
            8,
            BlockRecords::Skip,
        );
        assert_eq!(
            rows_covered(plan.plan()),
            (0..a.rows() as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hash_blocks_never_exceed_32_rows() {
        let a = uniform_random(3000, 3000, 1, 2, 7);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig {
            global_lb: GlobalLbMode::AlwaysOn,
            enable_direct: false,
            ..SpeckConfig::default()
        };
        let plan = plan_symbolic(
            &dev,
            &cost,
            &cascade,
            &cfg,
            &info,
            a.cols(),
            BlockRecords::Skip,
        );
        for l in plan.launches.iter().filter(|l| l.method == AccMethod::Hash) {
            for i in l.blocks.clone() {
                assert!(plan.block_rows(i).len() <= 32);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "last <= Some((method, cfg_idx))")]
    fn blocks_pushed_out_of_launch_order_panic() {
        let a = uniform_random(50, 50, 1, 2, 7);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let skip = BlockRecords::Skip;
        let mut plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols(), skip);
        plan.push_block(&[0], 1, AccMethod::Dense);
        plan.push_block(&[0], 0, AccMethod::Dense);
    }
}

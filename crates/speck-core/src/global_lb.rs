//! Global load balancing (paper §4.2): deciding *whether* to bin, binning
//! rows into the six kernel configurations by scratchpad demand, merging
//! the smallest bin, and producing the block plan each SpGEMM pass
//! executes.

use crate::analysis::AnalysisInfo;
use crate::block_merge::block_merge;
use crate::cascade::{numeric_entry_bytes, symbolic_entry_bytes, KernelCascade};
use crate::config::{GlobalLbMode, SpeckConfig};
use crate::denseacc::dense_iterations;
use crate::metrics::{LocalHistogram, MetricsSink};
use speck_simt::{launch, CostModel, DeviceConfig, KernelConfig, KernelReport};

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
    pub fn name(self) -> &'static str {
        match self {
            AccMethod::Hash => "hash",
            AccMethod::Dense => "dense",
            AccMethod::Direct => "direct",
        }
    }

    /// Inverse of [`AccMethod::name`].
    pub fn from_name(s: &str) -> Option<AccMethod> {
        [AccMethod::Hash, AccMethod::Dense, AccMethod::Direct]
            .into_iter()
            .find(|a| a.name() == s)
    }
}

/// One thread block of a SpGEMM pass.
#[derive(Clone, Debug)]
pub struct BlockPlan {
    /// Rows of A this block computes (1–32 for hash, 1 for dense, many for
    /// direct).
    pub rows: Vec<u32>,
    /// Kernel-cascade index the block runs at.
    pub cfg_idx: usize,
    /// Accumulator.
    pub method: AccMethod,
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
    /// All blocks, grouped by (method, cfg) for launching.
    pub blocks: Vec<BlockPlan>,
    /// Whether the global load balancer (binning) ran.
    pub used_global_lb: bool,
    /// Which threshold set the Auto decision consulted.
    pub threshold_set: ThresholdSet,
    /// Simulated cost of binning / merging kernels (empty when skipped).
    pub lb_reports: Vec<KernelReport>,
    /// Device bytes allocated for load-balancing bookkeeping.
    pub lb_alloc_bytes: usize,
    /// The `m_max / m_avg` demand-variance ratio the decision consulted.
    pub decision_ratio: f64,
    /// The row count the decision consulted.
    pub decision_rows: usize,
    /// Full decision-time provenance of the gate (features + fired
    /// thresholds), for the audit layer.
    pub gate: GateProvenance,
}

/// Copyable decision summary of one pass plan — everything a
/// [`crate::MultiplyReport`] needs about the pass, without keeping the
/// full block list alive. Reusable multiplication plans
/// ([`crate::SpgemmPlan`]) retain one per pass.
#[derive(Clone, Copy, Debug)]
pub struct PassSummary {
    /// Whether the global load balancer (binning) ran.
    pub used_global_lb: bool,
    /// Which threshold set the Auto decision consulted.
    pub threshold_set: ThresholdSet,
    /// The `m_max / m_avg` demand-variance ratio the decision consulted.
    pub decision_ratio: f64,
    /// Blocks per method: (hash, dense, direct).
    pub method_counts: (usize, usize, usize),
}

impl PassPlan {
    /// The pass's copyable decision summary (for reports).
    pub fn summary(&self) -> PassSummary {
        PassSummary {
            used_global_lb: self.used_global_lb,
            threshold_set: self.threshold_set,
            decision_ratio: self.decision_ratio,
            method_counts: self.method_counts(),
        }
    }

    /// Number of blocks per method, for reports and tests.
    pub fn method_counts(&self) -> (usize, usize, usize) {
        let mut h = 0;
        let mut d = 0;
        let mut r = 0;
        for b in &self.blocks {
            match b.method {
                AccMethod::Hash => h += 1,
                AccMethod::Dense => d += 1,
                AccMethod::Direct => r += 1,
            }
        }
        (h, d, r)
    }

    /// Records the pass's load-balancing outcome under `sim/lb/<pass>/`:
    /// whether binning engaged, blocks per accumulation method, the rows
    /// the decision consulted, and a rows-per-block histogram. All values
    /// derive from the deterministic plan, so they belong to the canonical
    /// snapshot section.
    pub(crate) fn record_metrics(&self, m: &MetricsSink<'_>, pass: &str) {
        if m.registry().is_none() {
            return;
        }
        m.add(&format!("sim/lb/{pass}/decisions"), 1);
        if self.used_global_lb {
            m.add(&format!("sim/lb/{pass}/global_lb_used"), 1);
        }
        m.add(
            &format!("sim/lb/{pass}/decision_rows"),
            self.decision_rows as u64,
        );
        let (h, d, r) = self.method_counts();
        m.add(&format!("sim/lb/{pass}/blocks_hash"), h as u64);
        m.add(&format!("sim/lb/{pass}/blocks_dense"), d as u64);
        m.add(&format!("sim/lb/{pass}/blocks_direct"), r as u64);
        let mut rows = LocalHistogram::new();
        for b in &self.blocks {
            rows.record(b.rows.len() as u64);
        }
        m.record_local(&format!("sim/lb/{pass}/rows_per_block"), &rows);
    }
}

/// Rows per block of the bulk direct-referencing kernel — small enough
/// that a handful of direct blocks still spreads over the whole device
/// (hub rows can carry most of the matrix's data through this path).
pub const DIRECT_ROWS_PER_BLOCK: usize = 128;

/// The Table 2 threshold rule for one pass: global load balancing fires
/// when the demand-variance ratio `m_max / m_avg` reaches `thr_ratio`
/// *and* the matrix has at least `thr_rows` rows to amortise the binning
/// kernels. Shared by the pipeline's gate ([`plan_symbolic`] /
/// [`plan_numeric`]) and the auto-tuner's predictor
/// ([`crate::tuning::predict`]), so audits of the one are claims about
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
#[allow(clippy::too_many_arguments)]
fn decide_lb(
    mode: GlobalLbMode,
    ratio: f64,
    rows: usize,
    needs_large_kernel: bool,
    thr_ratio: f64,
    thr_rows: usize,
    thr_ratio_large: f64,
    thr_rows_large: usize,
) -> GateProvenance {
    let set = if needs_large_kernel {
        ThresholdSet::Large
    } else {
        ThresholdSet::Base
    };
    let (fired_ratio, fired_rows) = match set {
        ThresholdSet::Base => (thr_ratio, thr_rows),
        ThresholdSet::Large => (thr_ratio_large, thr_rows_large),
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
) -> KernelReport {
    let threads = dev.max_threads_per_block;
    let grid = rows.div_ceil(threads).max(1);
    launch(
        dev,
        cost,
        name,
        grid,
        KernelConfig::new(threads, 4096),
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

/// Builds the per-row demand (in hash entries) of the symbolic pass: the
/// conservative no-compaction product count (paper §4.2).
pub fn symbolic_entries(info: &AnalysisInfo) -> Vec<u64> {
    info.rows.iter().map(|r| r.products).collect()
}

/// Builds the per-row demand (in hash entries) of the numeric pass from the
/// exact row sizes, inflated so the final fill rate stays below
/// `max_fill` (paper: 66 %).
pub fn numeric_entries(row_nnz: &[u32], max_fill: f64) -> Vec<u64> {
    row_nnz
        .iter()
        .map(|&n| ((n as f64 / max_fill).ceil()) as u64)
        .collect()
}

/// Common planner for both passes.
///
/// * `entries[r]` — hash entries row `r` needs.
/// * `entry_bytes` — bytes per hash entry in this pass.
/// * `dense_rows[r]` — `Some(cfg)` routes row `r` to the dense accumulator
///   at cascade index `cfg`.
/// * `direct_rows[r]` — rows taking the direct path.
#[allow(clippy::too_many_arguments)]
fn plan_pass(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    mode: GlobalLbMode,
    entries: &[u64],
    entry_bytes: usize,
    dense_rows: &[Option<usize>],
    direct_rows: &[bool],
    pass_name: &'static str,
    thr: (f64, usize, f64, usize),
    large_kernel_cut: usize,
    block_merge_enabled: bool,
) -> PassPlan {
    let n = entries.len();
    let largest = cascade.largest();

    // Rows going through the hash path and their demand statistics.
    let mut hash_rows: Vec<u32> = Vec::new();
    let mut max_entries = 0u64;
    let mut sum_entries = 0u64;
    for r in 0..n {
        if direct_rows[r] || dense_rows[r].is_some() {
            continue;
        }
        hash_rows.push(r as u32);
        max_entries = max_entries.max(entries[r]);
        sum_entries += entries[r];
    }
    let avg = if hash_rows.is_empty() {
        0.0
    } else {
        sum_entries as f64 / hash_rows.len() as f64
    };
    let ratio = if avg <= 0.0 {
        1.0
    } else {
        max_entries as f64 / avg
    };
    let max_cfg = cascade
        .fit_hash(max_entries as usize, entry_bytes)
        .unwrap_or(largest);
    let needs_large = max_cfg >= large_kernel_cut;
    let gate = decide_lb(mode, ratio, n, needs_large, thr.0, thr.1, thr.2, thr.3);
    let (use_lb, set) = (gate.used_global_lb, gate.threshold_set);

    let mut blocks: Vec<BlockPlan> = Vec::new();
    let mut lb_reports = Vec::new();
    let mut lb_alloc_bytes = 0usize;

    // Direct blocks: many rows per block, no scratchpad.
    let directs: Vec<u32> = (0..n as u32).filter(|&r| direct_rows[r as usize]).collect();
    for chunk in directs.chunks(DIRECT_ROWS_PER_BLOCK) {
        blocks.push(BlockPlan {
            rows: chunk.to_vec(),
            cfg_idx: 0,
            method: AccMethod::Direct,
        });
    }

    // Dense blocks: one row each at the configuration sized for the row.
    for r in 0..n as u32 {
        if let Some(cfg_idx) = dense_rows[r as usize] {
            blocks.push(BlockPlan {
                rows: vec![r],
                cfg_idx,
                method: AccMethod::Dense,
            });
        }
    }

    if use_lb && !hash_rows.is_empty() {
        // Bin rows by the smallest configuration that fits them.
        let n_bins = cascade.len();
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); n_bins];
        for &r in &hash_rows {
            let need = entries[r as usize] as usize;
            let idx = cascade.fit_hash(need, entry_bytes).unwrap_or(largest);
            bins[idx].push(r);
        }
        lb_reports.push(charge_binning(dev, cost, pass_name, n, n_bins));
        lb_alloc_bytes += n * 4 + n_bins * 8;

        // Smallest non-empty bin: merge neighbouring rows into blocks.
        // Larger bins: one row per block.
        let mut merged_smallest = false;
        for (idx, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            if !merged_smallest {
                merged_smallest = true;
                let cap = (cascade.hash_capacity(idx, entry_bytes) as u64) * entry_bytes as u64;
                let demands: Vec<u64> = bin
                    .iter()
                    .map(|&r| entries[r as usize] * entry_bytes as u64)
                    .collect();
                let (segs, work) = block_merge(&demands, cap.max(1), block_merge_enabled);
                if work > 0 {
                    lb_reports.push(launch(
                        dev,
                        cost,
                        "block_merge",
                        (bin.len().div_ceil(dev.max_threads_per_block)).max(1),
                        KernelConfig::new(dev.max_threads_per_block, 0),
                        |ctx| {
                            ctx.charge_rounds(work / dev.max_threads_per_block.max(1) as u64 + 5);
                            ctx.charge_smem(work);
                        },
                    ));
                }
                for seg in segs {
                    blocks.push(BlockPlan {
                        rows: bin[seg.start..seg.start + seg.len].to_vec(),
                        cfg_idx: idx,
                        method: AccMethod::Hash,
                    });
                }
            } else {
                for &r in bin {
                    blocks.push(BlockPlan {
                        rows: vec![r],
                        cfg_idx: idx,
                        method: AccMethod::Hash,
                    });
                }
            }
        }
    } else if !hash_rows.is_empty() {
        // No load balancing: one kernel size that can hold the longest row
        // (paper §4.2 "No load balancing"), a fixed number of rows per
        // block, processing rows in CSR order.
        let cfg_idx = max_cfg;
        let cap = cascade.hash_capacity(cfg_idx, entry_bytes) as u64;
        let per_row = max_entries.max(1);
        let rows_per_block = ((cap / per_row).max(1) as usize).min(32);
        for chunk in hash_rows.chunks(rows_per_block) {
            blocks.push(BlockPlan {
                rows: chunk.to_vec(),
                cfg_idx,
                method: AccMethod::Hash,
            });
        }
    }

    PassPlan {
        blocks,
        used_global_lb: use_lb,
        threshold_set: set,
        lb_reports,
        lb_alloc_bytes,
        decision_ratio: ratio,
        decision_rows: n,
        gate,
    }
}

/// Plans the symbolic pass from the row analysis.
pub fn plan_symbolic(
    dev: &DeviceConfig,
    cost: &CostModel,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    info: &AnalysisInfo,
    cols_b: usize,
) -> PassPlan {
    let n = info.rows.len();
    let entry_bytes = symbolic_entry_bytes(cols_b);
    let entries = symbolic_entries(info);
    let largest_cap = cascade.hash_capacity(cascade.largest(), entry_bytes) as f64;

    let direct: Vec<bool> = info
        .rows
        .iter()
        .map(|r| cfg.enable_direct && r.nnz_a <= 1)
        .collect();
    // Symbolic dense: only rows more than `symbolic_dense_factor` times the
    // largest hash capacity (paper §4.3 "Symbolic SpGEMM"); such rows run
    // at the largest configuration.
    let dense: Vec<Option<usize>> = (0..n)
        .map(|r| {
            (!direct[r]
                && cfg.enable_dense
                && entries[r] as f64 > cfg.symbolic_dense_factor * largest_cap)
                .then_some(cascade.largest())
        })
        .collect();

    let t = &cfg.thresholds;
    plan_pass(
        dev,
        cost,
        cascade,
        cfg.global_lb,
        &entries,
        entry_bytes,
        &dense,
        &direct,
        "symbolic_binning",
        (
            t.symbolic_ratio,
            t.symbolic_min_rows,
            t.symbolic_ratio_large,
            t.symbolic_min_rows_large,
        ),
        cascade.len() - 3, // starred set: three largest of six (Table 2)
        cfg.block_merge,
    )
}

/// Plans the numeric pass from the exact row sizes the symbolic pass
/// produced.
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
) -> PassPlan {
    let n = row_nnz.len();
    let entry_bytes = numeric_entry_bytes(cols_b, val_bytes);
    let entries = numeric_entries(row_nnz, cfg.numeric_max_fill);
    let largest = cascade.largest();

    let direct: Vec<bool> = info
        .rows
        .iter()
        .map(|r| cfg.enable_direct && r.nnz_a <= 1)
        .collect();

    let mut dense: Vec<Option<usize>> = vec![None; n];
    if cfg.enable_dense {
        for r in 0..n {
            if direct[r] || row_nnz[r] == 0 {
                continue;
            }
            let need = entries[r] as usize;
            match cascade.fit_hash(need, entry_bytes) {
                None => {
                    // Doesn't fit even the largest hash map: always dense
                    // at the largest configuration (paper §4.3 "Numeric
                    // SpGEMM", last paragraph).
                    dense[r] = Some(largest);
                }
                Some(idx) => {
                    if idx == largest {
                        // Requires the largest kernel: always dense.
                        dense[r] = Some(largest);
                    } else {
                        // Medium rows: dense if the row is locally dense
                        // enough that at most three chunk iterations cover
                        // its column range (paper's 18 % rule), at the
                        // kernel size the row was binned for.
                        let range = info.rows[r].col_range();
                        let density = if range == 0 {
                            0.0
                        } else {
                            row_nnz[r] as f64 / range as f64
                        };
                        let slots = cascade.dense_numeric_slots(idx, val_bytes);
                        if density >= cfg.dense_min_density && dense_iterations(range, slots) <= 3 {
                            dense[r] = Some(idx);
                        }
                    }
                }
            }
        }
    }

    let t = &cfg.thresholds;
    plan_pass(
        dev,
        cost,
        cascade,
        cfg.global_lb,
        &entries,
        entry_bytes,
        &dense,
        &direct,
        "numeric_binning",
        (
            t.numeric_ratio,
            t.numeric_min_rows,
            t.numeric_ratio_large,
            t.numeric_min_rows_large,
        ),
        cascade.len() - 2, // starred set: two largest of six (Table 2)
        cfg.block_merge,
    )
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
        let mut all: Vec<u32> = plan.blocks.iter().flat_map(|b| b.rows.clone()).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_row_assigned_exactly_once() {
        let a = rmat(10, 8, 0.57, 0.19, 0.19, 3);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
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
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
        assert!(!plan.used_global_lb, "uniform rows must not be binned");
        assert!(plan.lb_reports.is_empty());
    }

    #[test]
    fn skewed_matrix_uses_lb_in_auto_mode() {
        // A few huge hub rows drive m_max/m_avg far beyond any threshold.
        let a = speck_sparse::gen::with_hub_rows(6_000, 1, 4, 3_000, 3);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
        assert!(plan.used_global_lb, "skewed demands should trigger binning");
        assert!(!plan.lb_reports.is_empty());
        // Binned blocks use more than one configuration.
        let cfgs: std::collections::BTreeSet<usize> = plan
            .blocks
            .iter()
            .filter(|b| b.method == AccMethod::Hash)
            .map(|b| b.cfg_idx)
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
        assert!(plan_symbolic(&dev, &cost, &cascade, &cfg, &info, 500).used_global_lb);
        cfg.global_lb = GlobalLbMode::AlwaysOff;
        assert!(!plan_symbolic(&dev, &cost, &cascade, &cfg, &info, 500).used_global_lb);
    }

    #[test]
    fn single_nz_rows_take_direct_path() {
        let a: Csr<f64> = Csr::identity(5000);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
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
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
        // products per row = 200 * 200 = 40000 < 2*24576 = 49152 -> hash!
        let (_, d, _) = plan.method_counts();
        assert_eq!(d, 0, "40k products still fit twice the largest hash");

        let b = block_diagonal(1, 300, 1.0, 5); // 90k products > 49152
        let info_b = analyze(&dev, &cost, &b, &b).0;
        let plan_b = plan_symbolic(&dev, &cost, &cascade, &cfg, &info_b, b.cols());
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
        let plan = plan_numeric(&dev, &cost, &cascade, &cfg, &info, &row_nnz, a.cols(), 8);
        let (h, d, _) = plan.method_counts();
        assert_eq!(h, 0, "fully dense rows must use the dense accumulator");
        assert_eq!(d, 256);
        // With dense disabled they fall back to hash.
        let plan2 = plan_numeric(
            &dev,
            &cost,
            &cascade,
            &SpeckConfig::hash_only(),
            &info,
            &row_nnz,
            a.cols(),
            8,
        );
        let (h2, d2, _) = plan2.method_counts();
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
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
        let cfgs: std::collections::BTreeSet<usize> =
            plan.blocks.iter().map(|b| b.cfg_idx).collect();
        assert_eq!(cfgs.len(), 1);
        // Rows are packed multiple per block (short rows).
        assert!(plan.blocks.iter().any(|b| b.rows.len() > 1));
        assert!(plan.blocks.iter().all(|b| b.rows.len() <= 32));
    }

    #[test]
    fn numeric_plan_covers_all_rows() {
        let a = rmat(9, 6, 0.57, 0.19, 0.19, 8);
        let (dev, cost, cascade, info) = setup(&a);
        let cfg = SpeckConfig::default();
        let c = speck_sparse::reference::spgemm_seq(&a, &a);
        let row_nnz: Vec<u32> = (0..c.rows()).map(|i| c.row_nnz(i) as u32).collect();
        let plan = plan_numeric(&dev, &cost, &cascade, &cfg, &info, &row_nnz, a.cols(), 8);
        assert_eq!(
            rows_covered(&plan),
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
        let plan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
        for b in &plan.blocks {
            if b.method == AccMethod::Hash {
                assert!(b.rows.len() <= 32);
            }
        }
    }
}

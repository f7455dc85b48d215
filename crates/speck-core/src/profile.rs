//! Folds an [`ExecutionTrace`] into load-imbalance and hot-row reports.
//!
//! Answers the profiler questions the raw trace only implies: which output
//! rows cost the most cycles, how each cascade bin/accumulator contributes
//! per stage, how evenly work spread over SMs, and which block is on each
//! kernel's critical path.
//!
//! The folds read the trace's block view
//! (`KernelTraceRecord::traced_blocks`) and its per-row
//! attribution (`ExecutionTrace::row_cycles`). The `(stage, accumulator,
//! bin)` cell key, its table labels and the `(old, new)` pairing of two
//! reports are shared with the decision audit's summary and diff.

use crate::global_lb::AccMethod;
use crate::trace::ExecutionTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of buckets in the SM-utilization histogram.
pub const UTIL_BUCKETS: usize = 10;

/// One entry of the hot-row ranking.
#[derive(Clone, Debug)]
pub struct HotRow {
    /// Output row of C.
    pub row: u32,
    /// Serial block cycles attributed to this row (a block's serial
    /// cycles divided equally across the rows it computes, summed over
    /// all kernels).
    pub cycles: f64,
    /// Number of block events that touched the row.
    pub events: usize,
}

/// One entry of the hot-block ranking.
#[derive(Clone, Debug)]
pub struct HotBlock {
    /// Kernel name the block ran in.
    pub kernel: String,
    /// Record sequence index of that kernel in the trace.
    pub seq: usize,
    /// Grid index of the block.
    pub grid_idx: u32,
    /// Serial cycles of the block.
    pub cycles: f64,
    /// Rows the block computed (empty for helper kernels).
    pub rows: Vec<u32>,
}

/// Per-kernel load-imbalance summary.
#[derive(Clone, Debug)]
pub struct KernelImbalance {
    /// Kernel name.
    pub name: String,
    /// Record sequence index in the trace.
    pub seq: usize,
    /// Pipeline stage.
    pub stage: String,
    /// Number of blocks launched.
    pub grid: usize,
    /// Body makespan in cycles.
    pub body_cycles: f64,
    /// Load-imbalance index: max per-SM busy cycles over the mean across
    /// *all* SMs (1.0 = perfectly balanced; large values mean a few SMs
    /// carried the kernel).
    pub imbalance: f64,
    /// Grid index of the tail block — the block with the latest slot-clock
    /// end (lowest grid index on ties): the critical path of the launch.
    pub tail_block: u32,
    /// Serial cycles of the tail block.
    pub tail_cycles: f64,
}

/// Aggregate cycles of one `(stage, accumulator, bin)` attribution cell.
#[derive(Clone, Debug, Default)]
pub struct BinCycles {
    /// Kernel launches in this cell.
    pub launches: usize,
    /// Blocks scheduled in this cell.
    pub blocks: usize,
    /// Summed serial block cycles.
    pub block_cycles: f64,
    /// Summed kernel wall seconds (launch overhead included).
    pub seconds: f64,
}

/// Attribution-cell key: `(stage, accumulator, bin)`; helper kernels use
/// `(stage, None, None)`. The decision audit keys its summary cells the
/// same way, with `stage/kind` in the first slot.
pub(crate) type BinKey = (String, Option<AccMethod>, Option<usize>);

/// The accumulator and bin of a cell key as table text, `-` when absent.
pub(crate) fn cell_labels(acc: Option<AccMethod>, bin: Option<usize>) -> (&'static str, String) {
    let bin = bin.map_or_else(|| "-".to_string(), |b| b.to_string());
    (acc.map_or("-", AccMethod::name), bin)
}

/// Joins two maps on their keys into `(old, new)` pairs of `f(value)`; a
/// key missing on one side reads `T::default()` there.
pub(crate) fn pair_by_key<K: Ord + Clone, V, T: Default>(
    old: &BTreeMap<K, V>,
    new: &BTreeMap<K, V>,
    f: impl Fn(&V) -> T,
) -> BTreeMap<K, (T, T)> {
    let mut pairs: BTreeMap<K, (T, T)> = BTreeMap::new();
    for (k, v) in old {
        pairs.entry(k.clone()).or_default().0 = f(v);
    }
    for (k, v) in new {
        pairs.entry(k.clone()).or_default().1 = f(v);
    }
    pairs
}

/// Everything [`profile_trace`] computes.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Simulated seconds of the whole trace.
    pub total_s: f64,
    /// Seconds per pipeline stage (record-order fold — matches the
    /// `Timeline` bitwise).
    pub stages: BTreeMap<String, f64>,
    /// Cycle attribution per `(stage, accumulator, bin)` for SpGEMM
    /// kernels; helper kernels land in `(stage, None, None)`.
    pub bins: BTreeMap<BinKey, BinCycles>,
    /// Hottest output rows by attributed cycles (descending; row index
    /// ascending on ties).
    pub top_rows: Vec<HotRow>,
    /// Hottest single blocks by serial cycles.
    pub top_blocks: Vec<HotBlock>,
    /// Per-kernel imbalance, trace order.
    pub kernels: Vec<KernelImbalance>,
    /// Per-SM utilization, averaged over kernels weighted by body cycles:
    /// `util_i = Σ_k (busy_i,k / bpsm_k) / Σ_k body_k`.
    pub sm_util: Vec<f64>,
    /// Histogram of `sm_util` over [`UTIL_BUCKETS`] equal buckets of
    /// `[0, 1]`.
    pub util_histogram: [usize; UTIL_BUCKETS],
}

/// Folds a trace into a [`ProfileReport`]. `top_k` caps the hot-row and
/// hot-block rankings.
pub fn profile_trace(tr: &ExecutionTrace, top_k: usize) -> ProfileReport {
    let stages = tr.per_stage_seconds();
    let total_s = tr.total_seconds();

    let mut bins: BTreeMap<BinKey, BinCycles> = BTreeMap::new();
    let mut blocks: Vec<HotBlock> = Vec::new();
    let mut kernels: Vec<KernelImbalance> = Vec::new();
    // Per-SM: busy/bpsm summed over kernels; weight = body cycles.
    let mut sm_busy = vec![0.0f64; tr.num_sms.max(1)];
    let mut body_total = 0.0f64;

    for (seq, rec, k) in tr.kernels() {
        let cell = bins
            .entry((rec.stage.to_string(), k.acc, k.bin))
            .or_default();
        cell.launches += 1;
        cell.seconds += rec.dur_s;

        let Some(bt) = &k.blocks else { continue };
        cell.blocks += bt.len();

        let bpsm = k.blocks_per_sm.max(1) as f64;
        let mut busy = vec![0.0f64; tr.num_sms.max(1)];
        let mut tail: Option<(f64, u32, f64)> = None; // (end, grid_idx, serial)
        for (e, rows, _) in k.traced_blocks() {
            let serial = e.serial_cycles();
            cell.block_cycles += serial;
            if let Some(sm) = busy.get_mut(e.sm as usize) {
                *sm += serial;
            }
            blocks.push(HotBlock {
                kernel: k.name.clone(),
                seq,
                grid_idx: e.grid_idx,
                cycles: serial,
                rows: rows.to_vec(),
            });
            let better = match tail {
                None => true,
                Some((end, gi, _)) => {
                    e.end_cycles > end || (e.end_cycles == end && e.grid_idx < gi)
                }
            };
            if better {
                tail = Some((e.end_cycles, e.grid_idx, serial));
            }
        }

        let max_busy = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        let imbalance = if mean_busy > 0.0 {
            max_busy / mean_busy
        } else {
            1.0
        };
        let (_, tail_block, tail_cycles) = tail.unwrap_or((0.0, 0, 0.0));
        kernels.push(KernelImbalance {
            name: k.name.clone(),
            seq,
            stage: rec.stage.to_string(),
            grid: k.grid,
            body_cycles: k.body_cycles,
            imbalance,
            tail_block,
            tail_cycles,
        });

        if k.body_cycles > 0.0 {
            body_total += k.body_cycles;
            for (acc, b) in sm_busy.iter_mut().zip(&busy) {
                *acc += b / bpsm;
            }
        }
    }

    let sm_util: Vec<f64> = if body_total > 0.0 {
        sm_busy
            .iter()
            .map(|b| (b / body_total).clamp(0.0, 1.0))
            .collect()
    } else {
        vec![0.0; sm_busy.len()]
    };
    let mut util_histogram = [0usize; UTIL_BUCKETS];
    for &u in &sm_util {
        let b = ((u * UTIL_BUCKETS as f64) as usize).min(UTIL_BUCKETS - 1);
        util_histogram[b] += 1;
    }

    let mut top_rows: Vec<HotRow> = tr
        .row_cycles(None)
        .into_iter()
        .map(|(row, (cycles, events))| HotRow {
            row,
            cycles,
            events,
        })
        .collect();
    top_rows.sort_by(|a, b| b.cycles.total_cmp(&a.cycles).then(a.row.cmp(&b.row)));
    top_rows.truncate(top_k);

    blocks.sort_by(|a, b| {
        b.cycles
            .total_cmp(&a.cycles)
            .then(a.seq.cmp(&b.seq))
            .then(a.grid_idx.cmp(&b.grid_idx))
    });
    blocks.truncate(top_k);

    ProfileReport {
        total_s,
        stages,
        bins,
        top_rows,
        top_blocks: blocks,
        kernels,
        sm_util,
        util_histogram,
    }
}

fn fmt_rows(rows: &[u32]) -> String {
    match rows.len() {
        0 => "-".to_string(),
        1 => rows[0].to_string(),
        n => format!("{} rows [{}..{}]", n, rows[0], rows[n - 1]),
    }
}

impl ProfileReport {
    /// Renders the report as aligned text tables.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "total simulated time: {:.3} us", self.total_s * 1e6);

        let _ = writeln!(out, "\nper-stage time:");
        let _ = writeln!(out, "  {:<14} {:>12} {:>7}", "stage", "us", "%");
        for (stage, s) in &self.stages {
            let pct = if self.total_s > 0.0 {
                100.0 * s / self.total_s
            } else {
                0.0
            };
            let _ = writeln!(out, "  {:<14} {:>12.3} {:>6.1}%", stage, s * 1e6, pct);
        }

        let _ = writeln!(out, "\nper-bin cycle attribution:");
        let _ = writeln!(
            out,
            "  {:<14} {:<7} {:>4} {:>9} {:>8} {:>14}",
            "stage", "acc", "bin", "launches", "blocks", "block cycles"
        );
        for ((stage, acc, bin), c) in &self.bins {
            let (acc, bin) = cell_labels(*acc, *bin);
            let _ = writeln!(
                out,
                "  {:<14} {:<7} {:>4} {:>9} {:>8} {:>14.0}",
                stage, acc, bin, c.launches, c.blocks, c.block_cycles
            );
        }

        if !self.top_rows.is_empty() {
            let _ = writeln!(out, "\nhottest rows (by attributed serial cycles):");
            let _ = writeln!(out, "  {:>8} {:>14} {:>7}", "row", "cycles", "events");
            for r in &self.top_rows {
                let _ = writeln!(out, "  {:>8} {:>14.1} {:>7}", r.row, r.cycles, r.events);
            }
        }

        if !self.top_blocks.is_empty() {
            let _ = writeln!(out, "\nhottest blocks:");
            let _ = writeln!(
                out,
                "  {:<22} {:>5} {:>14}  rows",
                "kernel", "blk", "cycles"
            );
            for b in &self.top_blocks {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>5} {:>14.1}  {}",
                    b.kernel,
                    b.grid_idx,
                    b.cycles,
                    fmt_rows(&b.rows)
                );
            }
        }

        if !self.kernels.is_empty() {
            let _ = writeln!(out, "\nper-kernel load imbalance:");
            let _ = writeln!(
                out,
                "  {:<22} {:<14} {:>6} {:>12} {:>9} {:>9}",
                "kernel", "stage", "grid", "body cyc", "imbal", "tail blk"
            );
            for k in &self.kernels {
                let _ = writeln!(
                    out,
                    "  {:<22} {:<14} {:>6} {:>12.0} {:>9.3} {:>9}",
                    k.name, k.stage, k.grid, k.body_cycles, k.imbalance, k.tail_block
                );
            }
        }

        let used: usize = self.util_histogram.iter().sum();
        if used > 0 {
            let mean = self.sm_util.iter().sum::<f64>() / self.sm_util.len() as f64;
            let _ = writeln!(
                out,
                "\nSM utilization ({} SMs, mean {:.1}%):",
                self.sm_util.len(),
                mean * 100.0
            );
            for (i, &n) in self.util_histogram.iter().enumerate() {
                let lo = i * 100 / UTIL_BUCKETS;
                let hi = (i + 1) * 100 / UTIL_BUCKETS;
                let bar = "#".repeat(n.min(60));
                let _ = writeln!(out, "  {:>3}-{:>3}% {:>4} {}", lo, hi, n, bar);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Trace diff (cold vs warm plan)
// ---------------------------------------------------------------------------

/// Per-stage and per-bin deltas between two traces of the *same* multiply
/// — typically a cold (plan + execute) run against a warm (plan-reuse)
/// run, quantifying exactly which stages and bins the cached plan skips.
#[derive(Clone, Debug)]
pub struct TraceDiff {
    /// `new - old` total seconds.
    pub total_delta_s: f64,
    /// Per-stage `(old, new)` seconds; stages missing on one side read 0.
    pub stages: BTreeMap<String, (f64, f64)>,
    /// Per-`(stage, acc, bin)` `(old, new)` serial block cycles.
    pub bins: BTreeMap<BinKey, (f64, f64)>,
}

/// Diffs two traces (see [`TraceDiff`]).
pub fn diff_traces(old: &ExecutionTrace, new: &ExecutionTrace) -> TraceDiff {
    let po = profile_trace(old, 0);
    let pn = profile_trace(new, 0);
    TraceDiff {
        total_delta_s: pn.total_s - po.total_s,
        stages: pair_by_key(&po.stages, &pn.stages, |s| *s),
        bins: pair_by_key(&po.bins, &pn.bins, |c| c.block_cycles),
    }
}

impl TraceDiff {
    /// Renders the diff as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "total delta: {:+.3} us", self.total_delta_s * 1e6);
        let _ = writeln!(
            out,
            "\n  {:<14} {:>12} {:>12} {:>12}",
            "stage", "old us", "new us", "delta us"
        );
        for (stage, (o, n)) in &self.stages {
            let _ = writeln!(
                out,
                "  {:<14} {:>12.3} {:>12.3} {:>+12.3}",
                stage,
                o * 1e6,
                n * 1e6,
                (n - o) * 1e6
            );
        }
        let any_bins = self.bins.keys().any(|(_, acc, _)| acc.is_some());
        if any_bins {
            let _ = writeln!(
                out,
                "\n  {:<14} {:<7} {:>4} {:>14} {:>14} {:>14}",
                "stage", "acc", "bin", "old cycles", "new cycles", "delta"
            );
            for ((stage, acc, bin), (o, n)) in &self.bins {
                let (acc, bin) = cell_labels(*acc, *bin);
                let _ = writeln!(
                    out,
                    "  {:<14} {:<7} {:>4} {:>14.0} {:>14.0} {:>+14.0}",
                    stage,
                    acc,
                    bin,
                    o,
                    n,
                    n - o
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BlockAnnotation, Recorder};
    use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig};

    fn traced_report(
        dev: &DeviceConfig,
        name: &'static str,
        grid: usize,
    ) -> speck_simt::KernelReport {
        let cost = CostModel::default();
        let cfg = KernelConfig::new(64, 0);
        launch(dev, &cost, name, grid, cfg, BlockRecords::Keep, |ctx| {
            ctx.charge_rounds((ctx.block_id() as u64 % 4) * 11 + 2);
        })
    }

    fn sample() -> ExecutionTrace {
        let dev = DeviceConfig::tiny();
        let rep = traced_report(&dev, "numeric_hash_c1", 8);
        let mut rec = Recorder::new(&dev, &[]);
        rec.kernel(
            "num. SpGEMM",
            &rep,
            Some(1),
            Some(AccMethod::Hash),
            Some(
                (0..8)
                    .map(|i| BlockAnnotation {
                        rows: vec![i as u32],
                        group_size: Some(8),
                    })
                    .collect(),
            ),
        );
        ExecutionTrace::new(&dev, rec.into_records())
    }

    #[test]
    fn hot_rows_rank_by_cycles() {
        let p = profile_trace(&sample(), 5);
        assert_eq!(p.top_rows.len(), 5);
        // Rows 3 and 7 charge (3 % 4) * 11 + 2 = 35 rounds — the hottest.
        assert_eq!(p.top_rows[0].row, 3);
        assert_eq!(p.top_rows[1].row, 7);
        assert!(p.top_rows[0].cycles >= p.top_rows[1].cycles);
        for w in p.top_rows.windows(2) {
            assert!(w[0].cycles >= w[1].cycles);
        }
    }

    #[test]
    fn bins_attribute_blocks_and_kernels() {
        let p = profile_trace(&sample(), 3);
        let key = ("num. SpGEMM".to_string(), Some(AccMethod::Hash), Some(1));
        let cell = &p.bins[&key];
        assert_eq!(cell.launches, 1);
        assert_eq!(cell.blocks, 8);
        assert!(cell.block_cycles > 0.0);
        assert_eq!(p.kernels.len(), 1);
        assert!(p.kernels[0].imbalance >= 1.0);
    }

    #[test]
    fn utilization_is_bounded_and_histogrammed() {
        let p = profile_trace(&sample(), 3);
        assert_eq!(p.sm_util.len(), 4); // tiny device: 4 SMs
        for &u in &p.sm_util {
            assert!((0.0..=1.0).contains(&u));
        }
        assert_eq!(p.util_histogram.iter().sum::<usize>(), 4);
        let t = p.render_table();
        assert!(t.contains("hottest rows"));
        assert!(t.contains("SM utilization"));
        assert!(t.contains("per-bin cycle attribution"));
    }

    #[test]
    fn diff_reports_stage_deltas() {
        let dev = DeviceConfig::tiny();
        let rep = traced_report(&dev, "numeric_direct", 4);
        let mut cold = Recorder::new(&dev, &[]);
        cold.fixed("analysis", "alloc", 2e-6);
        cold.kernel("num. SpGEMM", &rep, None, Some(AccMethod::Direct), None);
        let cold = ExecutionTrace::new(&dev, cold.into_records());
        let mut warm = Recorder::new(&dev, &[]);
        warm.kernel("num. SpGEMM", &rep, None, Some(AccMethod::Direct), None);
        let warm = ExecutionTrace::new(&dev, warm.into_records());

        let d = diff_traces(&cold, &warm);
        assert!(d.total_delta_s < 0.0);
        let (o, n) = d.stages["analysis"];
        assert_eq!(o, 2e-6);
        assert_eq!(n, 0.0);
        let (ko, kn) = d.stages["num. SpGEMM"];
        assert_eq!(ko.to_bits(), kn.to_bits());
        let t = d.render_table();
        assert!(t.contains("total delta"));
        assert!(t.contains("analysis"));
    }
}

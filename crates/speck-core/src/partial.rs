//! Partial (partitioned) multiplication of large matrices — the paper's
//! stated future work (§7: "We plan to solve that in future work with
//! partial multiplications of large matrices on single GPUs").
//!
//! spECK keeps `A`, `B` and `C` resident for the whole multiplication, so
//! device memory bounds the largest solvable problem. This module splits
//! `A` into horizontal bands, multiplies one band at a time (only the band
//! of `A`, all of `B`, and the band of `C` are resident together), and
//! concatenates the band results — trading extra kernel launches and
//! repeated reads of `B` for a peak footprint the caller controls.
//!
//! [`multiply_multi_gpu`] covers the second half of §7 ("shared matrix
//! storage in multi-GPU setups"): `B` is replicated on every device, the
//! bands of `A` are distributed by product count, the devices run
//! independently, and the multiplication finishes when the slowest one
//! does.

use crate::config::SpeckConfig;
use crate::pipeline::{MultiplyReport, SpeckSpgemm};
use speck_simt::{CostModel, DeviceConfig, Timeline};
use speck_sparse::{Csr, Scalar};

/// Result of a partitioned multiplication.
#[derive(Clone, Debug)]
pub struct PartialReport {
    /// Number of bands the multiplication was split into.
    pub bands: usize,
    /// Total simulated time over all bands.
    pub sim_time_s: f64,
    /// Peak simulated device memory over any single band (plus the
    /// resident `B`).
    pub peak_mem_bytes: usize,
    /// Stage timeline summed over bands.
    pub timeline: Timeline,
}

/// Extracts rows `[start, end)` of `m` as a standalone matrix.
fn row_band<V: Scalar>(m: &Csr<V>, start: usize, end: usize) -> Csr<V> {
    let base = m.row_ptr()[start];
    let stop = m.row_ptr()[end];
    let row_ptr: Vec<usize> = m.row_ptr()[start..=end].iter().map(|&p| p - base).collect();
    Csr::from_parts_unchecked(
        end - start,
        m.cols(),
        row_ptr,
        m.col_idx()[base..stop].to_vec(),
        m.vals()[base..stop].to_vec(),
    )
}

/// Vertically concatenates band results (shapes must agree on columns).
fn vcat<V: Scalar>(bands: &[Csr<V>]) -> Csr<V> {
    let cols = bands.first().map_or(0, |b| b.cols());
    let rows: usize = bands.iter().map(|b| b.rows()).sum();
    let nnz: usize = bands.iter().map(|b| b.nnz()).sum();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for b in bands {
        let off = col_idx.len();
        col_idx.extend_from_slice(b.col_idx());
        vals.extend_from_slice(b.vals());
        for &p in &b.row_ptr()[1..] {
            row_ptr.push(off + p);
        }
    }
    Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, vals)
}

/// The greedy bands of A's rows [`multiply_partitioned`] runs for a
/// device budget of `budget` bytes. Each band's footprint is kept
/// running, so banding reads each row at most twice.
fn memory_bands<V: Scalar>(a: &Csr<V>, b: &Csr<V>, budget: usize) -> Vec<(usize, usize)> {
    let (elem, b_bytes) = (4 + std::mem::size_of::<V>(), b.size_bytes());
    // Row `r`'s NZ and products.
    let row = |r: usize| {
        let cols = a.row(r).0;
        let products: u64 = cols.iter().map(|&k| b.row_nnz(k as usize) as u64).sum();
        (cols.len(), products)
    };
    let n = a.rows();
    let mut bands = Vec::new();
    let mut start = 0usize;
    while start < n {
        let (mut end, mut size) = (start + 1, row(start));
        while end < n {
            let (nnz_a, products) = row(end);
            let grown = (size.0 + nnz_a, size.1 + products);
            if b_bytes + grown.0 * elem + (grown.1 as usize) * elem > budget {
                break;
            }
            end += 1;
            size = grown;
        }
        bands.push((start, end));
        start = end;
    }
    if bands.is_empty() {
        bands.push((0, 0));
    }
    bands
}

/// Multiplies each band `(start, end)` of A's rows by `B` on one engine
/// over `dev`/`cost`/`cfg` with plan caching off, so every band runs the
/// full cold pipeline. Returns `C` stacked from the band results, each
/// band's report, the peak memory of any band (its own plus the resident
/// `B` and the band of `A`), and the engine.
fn run_bands<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    bands: &[(usize, usize)],
) -> (Csr<V>, Vec<MultiplyReport>, usize, SpeckSpgemm) {
    let mut engine = SpeckSpgemm::with_config(cfg.clone()).with_plan_cache_capacity(0);
    engine.device = dev.clone();
    engine.cost = cost.clone();
    let mut results = Vec::with_capacity(bands.len());
    let mut reports = Vec::with_capacity(bands.len());
    let mut peak = 0usize;
    for &(s, e) in bands {
        let band = row_band(a, s, e);
        let (c, report) = engine.multiply(&band, b);
        peak = peak.max(report.peak_mem_bytes + b.size_bytes() + band.size_bytes());
        results.push(c);
        reports.push(report);
    }
    (vcat(&results), reports, peak, engine)
}

/// Multiplies `A · B` in row bands of `A`, each chosen so the estimated
/// footprint stays below `mem_budget_bytes`. Returns the full `C` and an
/// aggregate report.
///
/// Bands are greedy: rows are appended while the conservative footprint
/// (resident `B` + band of `A` + uncompacted band of `C`) fits the budget;
/// a single row whose footprint alone exceeds the budget still gets its
/// own band (the device's spill paths handle it, as in the monolithic
/// case).
pub fn multiply_partitioned<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    mem_budget_bytes: usize,
) -> (Csr<V>, PartialReport) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "multiply_partitioned: dimension mismatch"
    );
    let bands = memory_bands(a, b, mem_budget_bytes);
    let (c, reports, peak, _) = run_bands(dev, cost, cfg, a, b, &bands);
    let mut timeline = Timeline::new();
    let mut total = 0.0f64;
    for report in &reports {
        total += report.sim_time_s;
        timeline.merge(&report.timeline);
    }
    (
        c,
        PartialReport {
            bands: bands.len(),
            sim_time_s: total,
            peak_mem_bytes: peak,
            timeline,
        },
    )
}

/// Result of a simulated multi-GPU multiplication.
#[derive(Clone, Debug)]
pub struct MultiGpuReport {
    /// Simulated time of each device's band (the multiplication finishes
    /// at the maximum).
    pub device_times_s: Vec<f64>,
    /// Makespan: the slowest device.
    pub sim_time_s: f64,
    /// Speedup over running the same work on one device.
    pub speedup: f64,
    /// Peak memory of any single device (its band + replicated B).
    pub peak_mem_bytes: usize,
}

/// Multiplies `A · B` across `n_devices` identical simulated GPUs:
/// `B` is replicated, rows of `A` are split into contiguous bands of
/// roughly equal *product* count (the work measure the paper's analysis
/// uses), and each device computes its band independently.
pub fn multiply_multi_gpu<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    n_devices: usize,
    a: &Csr<V>,
    b: &Csr<V>,
) -> (Csr<V>, MultiGpuReport) {
    assert!(
        n_devices >= 1,
        "multiply_multi_gpu: need at least one device"
    );
    assert_eq!(a.cols(), b.rows(), "multiply_multi_gpu: dimension mismatch");
    let n = a.rows();

    // Contiguous banding by cumulative products.
    let per_row: Vec<u64> = (0..n)
        .map(|i| {
            a.row(i)
                .0
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum()
        })
        .collect();
    let total: u64 = per_row.iter().sum();
    let target = total / n_devices as u64 + 1;
    let mut bands: Vec<(usize, usize)> = Vec::with_capacity(n_devices);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &p) in per_row.iter().enumerate() {
        acc += p;
        if acc >= target && bands.len() + 1 < n_devices {
            bands.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    bands.push((start, n));

    let (c, reports, peak, engine) = run_bands(dev, cost, cfg, a, b, &bands);
    let device_times_s: Vec<f64> = reports.iter().map(|r| r.sim_time_s).collect();
    let makespan = device_times_s.iter().cloned().fold(0.0f64, f64::max);
    let single = engine.multiply(a, b).1.sim_time_s;
    (
        c,
        MultiGpuReport {
            sim_time_s: makespan,
            speedup: if makespan > 0.0 {
                single / makespan
            } else {
                1.0
            },
            device_times_s,
            peak_mem_bytes: peak,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;

    fn setup() -> (DeviceConfig, CostModel, SpeckConfig) {
        (
            DeviceConfig::titan_v(),
            CostModel::default(),
            SpeckConfig::default(),
        )
    }

    /// Footprint of rows `start..end` as the banding loop first summed
    /// it: from the band's first row, on every call.
    fn footprint(a: &Csr<f64>, b: &Csr<f64>, start: usize, end: usize) -> usize {
        let elem = 4 + std::mem::size_of::<f64>();
        let nnz_a = a.row_ptr()[end] - a.row_ptr()[start];
        let products: u64 = a.col_idx()[a.row_ptr()[start]..a.row_ptr()[end]]
            .iter()
            .map(|&k| b.row_nnz(k as usize) as u64)
            .sum();
        b.size_bytes() + nnz_a * elem + (products as usize) * elem
    }

    /// The banding loop as first written, each candidate band re-summed.
    fn reference_bands(a: &Csr<f64>, b: &Csr<f64>, budget: usize) -> Vec<(usize, usize)> {
        let n = a.rows();
        let mut bands = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && footprint(a, b, start, end + 1) <= budget {
                end += 1;
            }
            bands.push((start, end));
            start = end;
        }
        if bands.is_empty() {
            bands.push((0, 0));
        }
        bands
    }

    #[test]
    fn running_bands_match_the_resumming_loop() {
        let mut split = false;
        for seed in 0..32u64 {
            let n = [1usize, 7, 60, 300][seed as usize / 4 % 4];
            let a = match seed % 4 {
                0 => Csr::empty(n % 3, n % 3),
                1 => uniform_random(n, n, 0, 9, seed),
                2 => rmat(6 + seed as u32 % 3, 6, 0.57, 0.19, 0.19, seed),
                _ => speck_sparse::gen::with_hub_rows(n.max(3), 1, 3, n / 2, seed),
            };
            // Budgets at no band, every band, and exactly at (and one byte
            // either side of) the footprint of the first half of the rows.
            let base = a.size_bytes();
            let half = footprint(&a, &a, 0, a.rows() / 2);
            let budgets = [
                0,
                1,
                base,
                base + 5_000,
                half - 1,
                half,
                half + 1,
                2 * base,
                usize::MAX,
            ];
            for budget in budgets {
                let bands = memory_bands(&a, &a, budget);
                assert_eq!(
                    bands,
                    reference_bands(&a, &a, budget),
                    "seed {seed}, budget {budget}"
                );
                split |= bands.len() > 1 && bands.iter().any(|&(s, e)| e - s > 1);
            }
        }
        assert!(split, "no case grew a band of several rows among several");
    }

    #[test]
    fn partitioned_matches_monolithic() {
        let (dev, cost, cfg) = setup();
        let a = uniform_random(800, 800, 2, 10, 61);
        let expect = spgemm_seq(&a, &a);
        // Budget small enough to force several bands.
        let budget = a.size_bytes() + 64 * 1024;
        let (c, report) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, budget);
        assert!(report.bands > 1, "expected banding, got {}", report.bands);
        c.validate().unwrap();
        assert!(c.approx_eq(&expect, 1e-9, 1e-12));
    }

    #[test]
    fn huge_budget_gives_single_band() {
        let (dev, cost, cfg) = setup();
        let a = uniform_random(300, 300, 1, 6, 62);
        let (c, report) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, usize::MAX);
        assert_eq!(report.bands, 1);
        assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
    }

    #[test]
    fn oversized_single_rows_still_complete() {
        let (dev, cost, cfg) = setup();
        let a = rmat(9, 8, 0.57, 0.19, 0.19, 63);
        // Budget below even B's footprint: every row becomes its own band.
        let (c, report) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, 1);
        assert_eq!(report.bands, a.rows());
        assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
    }

    #[test]
    fn banding_costs_extra_time_but_caps_memory() {
        let (dev, cost, cfg) = setup();
        let a = uniform_random(1_000, 1_000, 4, 8, 64);
        let (_, mono) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, usize::MAX);
        let budget = a.size_bytes() * 2;
        let (_, banded) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, budget);
        assert!(banded.bands > 1);
        assert!(banded.sim_time_s > mono.sim_time_s);
        assert!(banded.peak_mem_bytes <= mono.peak_mem_bytes);
    }

    #[test]
    fn multi_gpu_matches_single_and_scales() {
        let (dev, cost, cfg) = setup();
        // Large enough that kernel bodies dominate the per-device fixed
        // overheads (launches, allocations), like the paper's matrices.
        let a = uniform_random(30_000, 30_000, 4, 10, 65);
        let expect = spgemm_seq(&a, &a);
        let (c1, r1) = multiply_multi_gpu(&dev, &cost, &cfg, 1, &a, &a);
        let (c4, r4) = multiply_multi_gpu(&dev, &cost, &cfg, 4, &a, &a);
        assert!(c1.approx_eq(&expect, 1e-9, 1e-12));
        assert!(c4.approx_eq(&expect, 1e-9, 1e-12));
        assert_eq!(r4.device_times_s.len(), 4);
        // Four devices must clearly beat one, though not perfectly (fixed
        // per-device overheads and band imbalance).
        assert!(r4.speedup > 2.0, "speedup {}", r4.speedup);
        assert!(r4.speedup <= 4.2);
        assert!(r1.speedup > 0.9 && r1.speedup < 1.1);
    }

    #[test]
    fn multi_gpu_band_work_is_balanced() {
        let (dev, cost, cfg) = setup();
        let a = uniform_random(6_000, 6_000, 4, 8, 66);
        let (_, r) = multiply_multi_gpu(&dev, &cost, &cfg, 3, &a, &a);
        let max = r.device_times_s.iter().cloned().fold(0.0f64, f64::max);
        let min = r
            .device_times_s
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max / min < 2.0, "device imbalance {max}/{min}");
    }

    #[test]
    fn more_devices_than_rows_still_works() {
        let (dev, cost, cfg) = setup();
        let a = uniform_random(3, 3, 1, 2, 67);
        let (c, r) = multiply_multi_gpu(&dev, &cost, &cfg, 8, &a, &a);
        assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
        assert!(r.device_times_s.len() <= 8);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let (dev, cost, cfg) = setup();
        let a: Csr<f64> = Csr::empty(10, 10);
        let (c, report) = multiply_partitioned(&dev, &cost, &cfg, &a, &a, 1 << 20);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.rows(), 10);
        assert!(report.bands >= 1);
    }
}

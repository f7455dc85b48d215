//! Shared helpers for the baseline implementations.

use crate::MethodResult;
use speck_simt::{
    launch, BlockRecords, CostModel, DeviceConfig, KernelConfig, KernelReport, MemTracker,
};
use speck_sparse::Csr;

/// Per-row product counts (`sum of referenced B row lengths`) — the upper
/// bound every baseline's first analysis step computes.
pub fn products_per_row(a: &Csr<f64>, b: &Csr<f64>) -> Vec<u64> {
    (0..a.rows())
        .map(|i| {
            a.row(i)
                .0
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum()
        })
        .collect()
}

/// Charges the analysis kernel common to hash-based baselines: one pass
/// over NNZ(A) summing B row extents.
pub fn charge_count_kernel(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: &'static str,
    rows: usize,
    nnz_a: usize,
) -> KernelReport {
    let threads = 256;
    let rows_per_block = rows
        .div_ceil(dev.num_sms * dev.blocks_per_sm(threads, 0))
        .clamp(dev.warp_size, 4096);
    let grid = rows.div_ceil(rows_per_block).max(1);
    let per_block_nnz = nnz_a.div_ceil(grid.max(1));
    launch(
        dev,
        cost,
        name,
        grid,
        KernelConfig::new(threads, 0),
        BlockRecords::Skip,
        |ctx| {
            ctx.charge_gmem_stream(threads, rows_per_block, 8);
            ctx.charge_gmem_stream(threads, per_block_nnz, 4);
            ctx.charge_gmem_scatter(per_block_nnz as u64);
        },
    )
}

/// Charges the scatter-style binning kernel used by nsparse/bhSPARSE: one
/// global atomic *per row* (the paper contrasts this with spECK's
/// order-preserving batched binning, §4.2).
pub fn charge_scatter_binning(
    dev: &DeviceConfig,
    cost: &CostModel,
    name: &'static str,
    rows: usize,
) -> KernelReport {
    let threads = 256;
    let per_block = threads * 16;
    let grid = rows.div_ceil(per_block).max(1);
    launch(
        dev,
        cost,
        name,
        grid,
        KernelConfig::new(threads, 0),
        BlockRecords::Skip,
        |ctx| {
            let n = per_block.min(rows.saturating_sub(ctx.block_id() * per_block));
            ctx.charge_gmem_stream(threads, n, 4);
            ctx.charge_gmem_atomic(n as u64); // per-row atomic append
            ctx.charge_gmem_scatter(n as u64); // scattered row-id store
        },
    )
}

/// Simple accumulator of kernel reports + fixed costs into a total time,
/// with a memory tracker and the device-memory failure check. Nothing is
/// ever freed, so the peak is the sum of all allocations.
pub struct RunAccounting {
    dev: DeviceConfig,
    seconds: f64,
    mem: MemTracker,
}

impl RunAccounting {
    /// New accounting context for `dev`.
    pub fn new(dev: &DeviceConfig) -> Self {
        Self {
            dev: dev.clone(),
            seconds: 0.0,
            mem: MemTracker::new(),
        }
    }

    /// Adds a kernel's simulated time.
    pub fn kernel(&mut self, r: &KernelReport) {
        self.seconds += r.sim_time_s;
    }

    /// Adds one allocation's fixed overhead and tracks its bytes.
    pub fn alloc(&mut self, bytes: usize) {
        self.mem.alloc(bytes);
        self.seconds += self.dev.cycles_to_seconds(self.dev.alloc_overhead_cycles);
    }

    /// Tracks the output matrix: memory counted, allocation time not
    /// (paper §6 convention).
    pub fn alloc_output(&mut self, bytes: usize) {
        self.mem.alloc(bytes);
    }

    /// Adds raw seconds (host-side steps).
    pub fn fixed(&mut self, seconds: f64) {
        self.seconds += seconds;
    }

    /// Err(reason) when the peak allocation exceeded device memory.
    pub fn check_memory(&self) -> Result<(), String> {
        if self.mem.peak() > self.dev.memory_bytes {
            Err(format!(
                "out of device memory: needs {} MiB, device has {} MiB",
                self.mem.peak() >> 20,
                self.dev.memory_bytes >> 20
            ))
        } else {
            Ok(())
        }
    }

    /// Ends a run that produced `c`: tracks the output matrix's bytes
    /// (see [`RunAccounting::alloc_output`]), then runs the device-memory
    /// check and returns the failure or the measured result.
    pub(crate) fn finish(mut self, c: Csr<f64>, sorted_output: bool) -> MethodResult {
        self.alloc_output(csr_bytes(c.rows(), c.nnz()));
        if let Err(e) = self.check_memory() {
            return MethodResult::failure(e);
        }
        MethodResult {
            c: Some(c),
            sim_time_s: self.seconds,
            peak_mem_bytes: self.mem.peak(),
            sorted_output,
            failed: None,
        }
    }
}

/// Assembles C from its rows, each a `(columns, values)` pair, in row
/// order. `sorted` says whether every row's columns ascend; when false
/// the matrix is built unsorted (see [`Csr::from_parts_unsorted`]).
pub(crate) fn csr_from_rows(
    rows: impl IntoIterator<Item = (Vec<u32>, Vec<f64>)>,
    cols: usize,
    sorted: bool,
) -> Csr<f64> {
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for (c, v) in rows {
        col_idx.extend_from_slice(&c);
        vals.extend_from_slice(&v);
        row_ptr.push(col_idx.len());
    }
    let n = row_ptr.len() - 1;
    if sorted {
        Csr::from_parts_unchecked(n, cols, row_ptr, col_idx, vals)
    } else {
        Csr::from_parts_unsorted(n, cols, row_ptr, col_idx, vals)
    }
}

/// Output-matrix bytes in CSR (offsets + columns + f64 values).
pub fn csr_bytes(rows: usize, nnz: usize) -> usize {
    (rows + 1) * 8 + nnz * 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::uniform_random;

    #[test]
    fn products_per_row_matches_total() {
        let a = uniform_random(100, 100, 1, 6, 3);
        let per_row = products_per_row(&a, &a);
        assert_eq!(per_row.iter().sum::<u64>(), a.products(&a));
    }

    #[test]
    fn accounting_accumulates_and_checks_memory() {
        let dev = DeviceConfig::tiny();
        let mut acc = RunAccounting::new(&dev);
        acc.fixed(1e-3);
        acc.alloc(1024);
        assert!(acc.check_memory().is_ok());

        // An unsorted result keeps its flag, and its output bytes join
        // the peak.
        let c = csr_from_rows(vec![(vec![2, 0], vec![1.0, 2.0])], 3, false);
        let r = acc.finish(c, false);
        assert!(r.ok() && !r.sorted_output);
        assert!(r.sim_time_s > 1e-3);
        assert!(!r.c.unwrap().is_sorted());
        assert_eq!(r.peak_mem_bytes, 1024 + csr_bytes(1, 2));

        // An over-memory run ends in a failure, whatever it computed.
        let mut acc = RunAccounting::new(&dev);
        acc.alloc(dev.memory_bytes);
        assert!(acc.check_memory().is_ok());
        acc.alloc(1);
        assert!(acc.check_memory().is_err());
        let r = acc.finish(Csr::empty(2, 2), true);
        assert!(!r.ok() && r.c.is_none());
        assert!(r.failed.unwrap().contains("out of device memory"));
    }

    #[test]
    fn scatter_binning_costs_scale_with_rows() {
        let dev = DeviceConfig::titan_v();
        let cm = CostModel::default();
        // Large enough that the device's block slots saturate and the
        // makespan becomes throughput-bound.
        let small = charge_scatter_binning(&dev, &cm, "bin", 500_000);
        let large = charge_scatter_binning(&dev, &cm, "bin", 5_000_000);
        assert!(large.sim_cycles > small.sim_cycles);
    }

    #[test]
    fn csr_bytes_formula() {
        assert_eq!(csr_bytes(10, 100), 11 * 8 + 1200);

        // Rows assembled from (cols, vals) lists, empty rows included.
        let rows = vec![
            (vec![], vec![]),
            (vec![0, 3], vec![1.0, 2.0]),
            (vec![], vec![]),
            (vec![1], vec![4.0]),
        ];
        let c = csr_from_rows(rows, 4, true);
        assert_eq!((c.rows(), c.cols(), c.nnz()), (4, 4, 3));
        assert_eq!(c.row_ptr(), &[0, 0, 2, 2, 3]);
        assert_eq!(c.row(1), (&[0u32, 3][..], &[1.0, 2.0][..]));
        assert_eq!(c.row_nnz(2), 0);
        assert_eq!(csr_bytes(c.rows(), c.nnz()), 5 * 8 + 36);
    }
}

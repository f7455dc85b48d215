//! Sorting of hash-accumulated rows (paper §4.3 "Numeric SpGEMM").
//!
//! The three smallest kernel configurations sort their results inside
//! scratchpad by rank ("counting the number of elements in the hashmap
//! with smaller indices" — O(n²) work shared by the block's threads).
//! Larger hash kernels write unsorted output and a device-wide radix sort
//! pass fixes the order afterwards. Dense and direct rows need no sorting.

use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig, KernelReport};

/// Largest cascade index (inclusive) that sorts in scratchpad.
pub(crate) const MAX_SCRATCH_SORT_CFG: usize = 2;

/// Largest block map for which the quadratic rank sort beats handing the
/// rows to the radix pass (the paper's small-kernel sizes keep `n` in this
/// range; beyond it O(n^2) loses to O(n)-per-pass radix).
pub(crate) const MAX_SCRATCH_SORT_ENTRIES: usize = 512;

/// Rank-sort cost for `n` entries on a `threads`-wide block, in warp-op
/// units: each entry compares against all others (`n^2` comparisons
/// total), the block's `T` lanes work in parallel (`ceil(n^2/T)` steps),
/// and each step issues one op per resident warp (`T/32`).
pub(crate) fn scratch_sort_steps(n: usize, threads: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let warps = (threads as u64).div_ceil(32).max(1);
    ((n as u64) * (n as u64)).div_ceil(threads as u64) * warps
}

/// Radix passes: 11-bit digits over 32-bit keys, CUB-style.
const RADIX_PASSES: u64 = 3;

/// Simulated device-wide radix sort over `elems` key/value pairs of
/// `elem_bytes` each; returns `None` when nothing needs sorting. The
/// launch keeps per-block records as `records` asks.
pub fn radix_sort_pass(
    dev: &DeviceConfig,
    cost: &CostModel,
    elems: usize,
    elem_bytes: usize,
    records: BlockRecords,
) -> Option<KernelReport> {
    if elems == 0 {
        return None;
    }
    let threads = dev.max_threads_per_block;
    let per_block = threads * 8;
    let grid = elems.div_ceil(per_block).max(1);
    let report = launch(
        dev,
        cost,
        "radix_sort",
        grid,
        KernelConfig::new(threads, 8 * 1024),
        records,
        |ctx| {
            let start = ctx.block_id() * per_block;
            let n = per_block.min(elems.saturating_sub(start));
            for _ in 0..RADIX_PASSES {
                // Read keys+values, histogram in scratchpad, scatter out.
                ctx.charge_gmem_stream(threads, n, elem_bytes);
                ctx.charge_smem_atomic(n as u64);
                ctx.charge_gmem_scatter(n as u64 / 4); // partially coalesced scatter
                ctx.charge_sync();
            }
        },
    );
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_sort_work_is_quadratic() {
        assert_eq!(scratch_sort_steps(0, 64), 0);
        assert_eq!(scratch_sort_steps(1, 64), 0);
        assert_eq!(scratch_sort_steps(64, 64), 128); // 64 steps x 2 warps
        assert_eq!(scratch_sort_steps(128, 64), 512);
        // Formula is ceil(n^2/T) * warps.
        assert_eq!(
            scratch_sort_steps(144, 128),
            (144u64 * 144).div_ceil(128) * 4
        );
        // Growing n 2x grows work 4x once past the thread count.
        let a = scratch_sort_steps(1000, 64);
        let b = scratch_sort_steps(2000, 64);
        assert!(b > 3 * a && b < 5 * a);
    }

    #[test]
    fn radix_cost_scales_linearly() {
        let dev = DeviceConfig::titan_v();
        let cm = CostModel::default();
        // Sizes large enough to saturate the device's block slots, so the
        // makespan becomes throughput-bound and scales with the input.
        let r1 = radix_sort_pass(&dev, &cm, 2_000_000, 12, BlockRecords::Skip).unwrap();
        let r2 = radix_sort_pass(&dev, &cm, 4_000_000, 12, BlockRecords::Skip).unwrap();
        let body1 = r1.sim_cycles - dev.launch_overhead_cycles;
        let body2 = r2.sim_cycles - dev.launch_overhead_cycles;
        assert!(
            body2 > 1.4 * body1 && body2 < 3.0 * body1,
            "body1={body1} body2={body2}"
        );
    }

    #[test]
    fn empty_sort_is_free() {
        let dev = DeviceConfig::titan_v();
        assert!(radix_sort_pass(&dev, &CostModel::default(), 0, 12, BlockRecords::Skip).is_none());
    }

    #[test]
    fn scratch_sort_cutoff_matches_paper() {
        // Three smallest of six kernels sort in scratchpad.
        assert_eq!(MAX_SCRATCH_SORT_CFG, 2);
    }
}

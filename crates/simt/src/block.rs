//! Per-block execution context: the API a kernel closure uses to do work
//! and to record its cost.

use crate::cost::BlockCost;
use crate::device::DeviceConfig;
use crate::kernel::KernelConfig;
use crate::scratchpad::Scratchpad;

/// A divisor prepared for repeated division: a shift and a mask when it
/// is a power of two, a hardware division otherwise. Every result equals
/// the plain integer operation's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two, `u32::MAX` otherwise.
    shift: u32,
}

impl Divisor {
    /// Prepares `d`. Panics if `d` is zero.
    #[inline]
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "Divisor: division by zero");
        let shift = if d.is_power_of_two() {
            d.trailing_zeros()
        } else {
            u32::MAX
        };
        Self { d, shift }
    }

    /// The divisor.
    #[inline]
    pub fn get(self) -> u64 {
        self.d
    }

    /// `x.div_ceil(d)`.
    #[inline]
    pub fn quotient_ceil(self, x: u64) -> u64 {
        if self.shift != u32::MAX {
            (x >> self.shift) + u64::from(x & (self.d - 1) != 0)
        } else {
            x.div_ceil(self.d)
        }
    }

    /// `(x / d, x % d)`.
    #[inline]
    pub fn quotient_rem(self, x: u64) -> (u64, u64) {
        if self.shift != u32::MAX {
            (x >> self.shift, x & (self.d - 1))
        } else {
            (x / self.d, x % self.d)
        }
    }
}

/// What every block of one launch prices with, prepared once per launch
/// so a charge never divides by the block or transaction size.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaunchPricing {
    cfg: KernelConfig,
    warp_size: usize,
    /// Warps resident in a block (rounded up).
    warps: u64,
    threads: Divisor,
    transaction_bytes: Divisor,
}

impl LaunchPricing {
    pub(crate) fn new(dev: &DeviceConfig, cfg: KernelConfig) -> Self {
        Self {
            cfg,
            warp_size: dev.warp_size,
            warps: (cfg.threads as u64).div_ceil(dev.warp_size as u64),
            threads: Divisor::new(cfg.threads as u64),
            transaction_bytes: Divisor::new(dev.transaction_bytes as u64),
        }
    }
}

/// Context handed to a kernel closure, one per thread block.
#[derive(Debug)]
pub struct BlockCtx {
    block_id: usize,
    pricing: LaunchPricing,
    /// Scratchpad arena of this block.
    pub scratch: Scratchpad,
    cost: BlockCost,
}

impl BlockCtx {
    /// Creates a context (called by the executor).
    #[inline]
    pub(crate) fn new(block_id: usize, pricing: LaunchPricing) -> Self {
        Self {
            block_id,
            pricing,
            scratch: Scratchpad::new(pricing.cfg.scratch_bytes),
            cost: BlockCost::default(),
        }
    }

    /// Index of this block in the grid.
    #[inline]
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Threads in this block.
    #[inline]
    pub fn threads(&self) -> usize {
        self.pricing.cfg.threads
    }

    /// SIMT width of the device.
    #[inline]
    pub fn warp_size(&self) -> usize {
        self.pricing.warp_size
    }

    /// Events recorded so far.
    pub fn cost(&self) -> &BlockCost {
        &self.cost
    }

    pub(crate) fn into_cost(self) -> BlockCost {
        self.cost
    }

    /// Warps resident in this block (rounded up).
    #[inline]
    pub fn warps(&self) -> u64 {
        self.pricing.warps
    }

    /// Rounds the whole block needs to cover `n` items, one per thread:
    /// `ceil(n / threads)`.
    #[inline]
    pub fn thread_rounds(&self, n: u64) -> u64 {
        self.pricing.threads.quotient_ceil(n)
    }

    // ---- low-level charges -------------------------------------------------

    /// Charges `n` cooperative block-level issue rounds. Every round issues
    /// one instruction bundle per resident warp, so the recorded unit is
    /// *warp*-rounds — oversized groups with idle lanes pay full price.
    #[inline]
    pub fn charge_rounds(&mut self, n: u64) {
        self.cost.issue_rounds += n * self.warps();
    }

    /// Charges `n` coalesced global transactions directly.
    #[inline]
    pub fn charge_gmem_tx(&mut self, n: u64) {
        self.cost.gmem_tx += n;
    }

    /// Charges `count` scattered global accesses (uncoalesced gathers).
    #[inline]
    pub fn charge_gmem_scatter(&mut self, count: u64) {
        self.cost.gmem_scatter += count;
    }

    /// Charges `n` global atomics.
    #[inline]
    pub fn charge_gmem_atomic(&mut self, n: u64) {
        self.cost.gmem_atomics += n;
    }

    /// Charges `n` scratchpad accesses.
    #[inline]
    pub fn charge_smem(&mut self, n: u64) {
        self.cost.smem_ops += n;
    }

    /// Charges `n` scratchpad atomics.
    #[inline]
    pub fn charge_smem_atomic(&mut self, n: u64) {
        self.cost.smem_atomics += n;
    }

    /// Charges `n` extra linear-probe steps.
    #[inline]
    pub fn charge_probes(&mut self, n: u64) {
        self.cost.hash_probes += n;
    }

    /// Charges `n` sorting comparison steps.
    #[inline]
    pub fn charge_sort_steps(&mut self, n: u64) {
        self.cost.sort_steps += n;
    }

    /// Charges one block-wide barrier.
    #[inline]
    pub fn charge_sync(&mut self) {
        self.cost.syncs += 1;
    }

    /// Charges `n` elements spilled to a global hash map.
    #[inline]
    pub fn charge_spill(&mut self, n: u64) {
        self.cost.spilled_elems += n;
    }

    // ---- composite helpers -------------------------------------------------

    /// Cost of a group of `g` threads streaming `len` consecutive elements
    /// of `elem_bytes` each from global memory: `ceil(len/g)` issue rounds;
    /// every round moves up to `g * elem_bytes` contiguous bytes =
    /// `ceil(g*elem_bytes/tx)` transactions (the coalescing model of paper
    /// Fig. 1). Returns the number of rounds.
    pub fn charge_gmem_stream(&mut self, g: usize, len: usize, elem_bytes: usize) -> u64 {
        self.charge_stream_by(Divisor::new(g.max(1) as u64), len, elem_bytes)
    }

    /// Cost of writing `len` consecutive elements back to global memory by
    /// the whole block (coalesced, `threads`-wide).
    pub fn charge_gmem_store(&mut self, len: usize, elem_bytes: usize) -> u64 {
        self.charge_stream_by(self.pricing.threads, len, elem_bytes)
    }

    /// [`BlockCtx::charge_gmem_stream`] for a prepared group size.
    #[inline]
    fn charge_stream_by(&mut self, g: Divisor, len: usize, elem_bytes: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let rounds = g.quotient_ceil(len as u64);
        self.cost.issue_rounds += rounds * self.pricing.warps;
        self.cost.gmem_tx += self.stream_tx_by(g, len as u64, elem_bytes as u64);
        rounds
    }

    /// Transaction count of a `g`-wide stream over `len` elements of
    /// `elem_bytes` each, *without* charging anything. Kernels that compute
    /// their issue rounds separately (via [`simulate_group_rounds`]) use
    /// this to charge memory traffic without double-counting rounds.
    #[inline]
    pub fn stream_tx(&self, g: usize, len: usize, elem_bytes: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.stream_tx_by(Divisor::new(g.max(1) as u64), len as u64, elem_bytes as u64)
    }

    /// Full rounds move `g` elements, `ceil(g * elem_bytes / tx)`
    /// transactions each; the last round moves the remainder.
    #[inline]
    fn stream_tx_by(&self, g: Divisor, len: u64, elem_bytes: u64) -> u64 {
        let tx = self.pricing.transaction_bytes;
        let (full, rem) = g.quotient_rem(len);
        let mut total = full * tx.quotient_ceil(g.get() * elem_bytes);
        if rem > 0 {
            total += tx.quotient_ceil(rem * elem_bytes);
        }
        total
    }
}

/// Iteration count of a block whose `k` groups dynamically pick tasks.
///
/// The paper's local load balancer assigns groups "successively to the NZ
/// of A" (§4.3): the block finishes after roughly `total/k` rounds but can
/// never beat the single longest task. Returns
/// `max(ceil(total_iters / k), max_task_iters)`.
pub fn simulate_group_rounds(k: usize, iters_per_task: impl IntoIterator<Item = u64>) -> u64 {
    let k = Divisor::new(k.max(1) as u64);
    let mut total = 0u64;
    let mut max_task = 0u64;
    for it in iters_per_task {
        total += it;
        max_task = max_task.max(it);
    }
    max_task.max(k.quotient_ceil(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BlockCtx {
        let dev = DeviceConfig {
            transaction_bytes: 128,
            ..DeviceConfig::titan_v()
        };
        BlockCtx::new(
            0,
            LaunchPricing::new(&dev, KernelConfig::new(256, 16 * 1024)),
        )
    }

    #[test]
    fn stream_rounds_match_paper_figure_1() {
        // Fig. 1: 8 threads, rows of B with 1,7,3,1 entries.
        // g=8: 4 iterations; g=4: lengths ceil(1/4)+ceil(7/4)+... = 1+2+1+1=5
        //       split over 2 groups -> 3 rounds; g=2: 1+4+2+1=8 over 4 groups
        //       -> max(ceil(8/4), 4) = 4; g=1: longest row alone needs 7.
        let rows = [1u64, 7, 3, 1];
        let iters = |g: u64| rows.iter().map(move |&l| l.div_ceil(g));
        assert_eq!(simulate_group_rounds(1, iters(8)), 4);
        assert_eq!(simulate_group_rounds(2, iters(4)), 3);
        assert_eq!(simulate_group_rounds(4, iters(2)), 4);
        assert_eq!(simulate_group_rounds(8, iters(1)), 7);
    }

    #[test]
    fn stream_counts_transactions_by_coalescing() {
        let mut c = ctx();
        // 32 threads reading 64 doubles: 2 rounds, each 32*8=256 B = 2 tx.
        let rounds = c.charge_gmem_stream(32, 64, 8);
        assert_eq!(rounds, 2);
        assert_eq!(c.cost().gmem_tx, 4);
        // 256-thread block = 8 warps; 2 rounds -> 16 warp-rounds.
        assert_eq!(c.cost().issue_rounds, 16);
    }

    #[test]
    fn stream_remainder_rounds_up() {
        let mut c = ctx();
        // 32 threads reading 33 u32s: 2 rounds; first 32*4=128B=1tx, then 4B=1tx.
        let rounds = c.charge_gmem_stream(32, 33, 4);
        assert_eq!(rounds, 2);
        assert_eq!(c.cost().gmem_tx, 2);
    }

    #[test]
    fn narrow_group_wastes_transactions() {
        // Same 64 doubles with g=2: 32 rounds, each 16 B still costs 1 tx.
        let mut a = ctx();
        a.charge_gmem_stream(2, 64, 8);
        let mut b = ctx();
        b.charge_gmem_stream(32, 64, 8);
        assert!(a.cost().gmem_tx > b.cost().gmem_tx);
        assert!(a.cost().issue_rounds > b.cost().issue_rounds);
    }

    #[test]
    fn empty_stream_is_free() {
        let mut c = ctx();
        assert_eq!(c.charge_gmem_stream(32, 0, 8), 0);
        assert_eq!(*c.cost(), BlockCost::default());
    }

    #[test]
    fn group_rounds_balances_work() {
        // 10 tasks of 3 iterations over 5 groups: 6 rounds.
        assert_eq!(simulate_group_rounds(5, std::iter::repeat_n(3, 10)), 6);
        // Straggler dominates.
        assert_eq!(simulate_group_rounds(8, [100u64, 1, 1].into_iter()), 100);
        // Zero tasks: zero rounds.
        assert_eq!(simulate_group_rounds(4, std::iter::empty()), 0);
    }

    #[test]
    fn charges_accumulate() {
        let mut c = ctx();
        c.charge_rounds(5);
        c.charge_smem(10);
        c.charge_smem_atomic(3);
        c.charge_probes(2);
        c.charge_sync();
        c.charge_spill(7);
        c.charge_gmem_atomic(1);
        c.charge_gmem_scatter(4);
        c.charge_sort_steps(6);
        let cost = c.cost();
        // 5 block rounds x 8 warps.
        assert_eq!(cost.issue_rounds, 40);
        assert_eq!(cost.smem_ops, 10);
        assert_eq!(cost.smem_atomics, 3);
        assert_eq!(cost.hash_probes, 2);
        assert_eq!(cost.syncs, 1);
        assert_eq!(cost.spilled_elems, 7);
        assert_eq!(cost.gmem_atomics, 1);
        assert_eq!(cost.gmem_scatter, 4);
        assert_eq!(cost.sort_steps, 6);
    }
}

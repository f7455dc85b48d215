//! Device description: the hardware limits the paper's decisions key off.

/// Static description of a simulated GPU.
///
/// The defaults mirror the paper's test device (NVIDIA Titan V, §4.2/§6):
/// 48 KiB default scratchpad per block, up to 96 KiB opt-in dynamic
/// scratchpad (which halves occupancy), 1024-thread blocks, warp size 32.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, used only in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// SIMT width.
    pub warp_size: usize,
    /// Hardware cap on threads per block.
    pub max_threads_per_block: usize,
    /// Threads resident per SM.
    pub max_threads_per_sm: usize,
    /// Blocks resident per SM.
    pub max_blocks_per_sm: usize,
    /// Default (static) scratchpad limit per block, bytes.
    pub scratch_static_per_block: usize,
    /// Maximum opt-in (dynamic) scratchpad per block, bytes.
    pub scratch_max_per_block: usize,
    /// Scratchpad capacity per SM, bytes; bounds occupancy.
    pub scratch_per_sm: usize,
    /// Core clock in GHz; converts cycles to seconds.
    pub clock_ghz: f64,
    /// Fixed host-side cost of one kernel launch, in cycles.
    pub launch_overhead_cycles: f64,
    /// Fixed host-side cost of one device allocation, in cycles
    /// (cudaMalloc-style; the paper includes allocation in timings, §6).
    pub alloc_overhead_cycles: f64,
    /// Size of one global-memory transaction, bytes (the 32 B sector
    /// granularity of modern GPU DRAM systems).
    pub transaction_bytes: usize,
    /// Total device memory, bytes; methods whose peak allocation exceeds
    /// this fail the multiplication (the paper's "#inv." row, Table 3).
    pub memory_bytes: usize,
}

impl DeviceConfig {
    /// The paper's evaluation device.
    pub fn titan_v() -> Self {
        DeviceConfig {
            name: "SimTitanV",
            num_sms: 80,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            scratch_static_per_block: 48 * 1024,
            scratch_max_per_block: 96 * 1024,
            scratch_per_sm: 96 * 1024,
            clock_ghz: 1.2,
            // ~5 us launch, ~2.5 us allocation at 1.2 GHz.
            launch_overhead_cycles: 6_000.0,
            alloc_overhead_cycles: 3_000.0,
            transaction_bytes: 32,
            memory_bytes: 12 * 1024 * 1024 * 1024,
        }
    }

    /// A deliberately small device for tests: 4 SMs, 16 KiB scratchpad.
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "SimTiny",
            num_sms: 4,
            warp_size: 32,
            max_threads_per_block: 256,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 8,
            scratch_static_per_block: 16 * 1024,
            scratch_max_per_block: 32 * 1024,
            scratch_per_sm: 32 * 1024,
            clock_ghz: 1.0,
            launch_overhead_cycles: 1_000.0,
            alloc_overhead_cycles: 1_000.0,
            transaction_bytes: 32,
            memory_bytes: 256 * 1024 * 1024,
        }
    }

    /// Seconds represented by `cycles` on this device.
    #[inline]
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Number of blocks of the given shape that can be resident on one SM,
    /// limited by thread count, block slots and scratchpad capacity.
    pub fn blocks_per_sm(&self, threads: usize, scratch_bytes: usize) -> usize {
        let by_threads = self.max_threads_per_sm / threads.max(1);
        let by_scratch = self
            .scratch_per_sm
            .checked_div(scratch_bytes)
            .unwrap_or(usize::MAX);
        self.max_blocks_per_sm
            .min(by_threads)
            .min(by_scratch)
            .max(1)
    }

    /// Maximum number of blocks concurrently resident on the whole device —
    /// the paper sizes its global hash-map fallback pool with this (§4.3).
    pub fn max_concurrent_blocks(&self, threads: usize, scratch_bytes: usize) -> usize {
        self.num_sms * self.blocks_per_sm(threads, scratch_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_matches_paper_limits() {
        let d = DeviceConfig::titan_v();
        assert_eq!(d.scratch_static_per_block, 48 * 1024);
        assert_eq!(d.scratch_max_per_block, 96 * 1024);
        assert_eq!(d.max_threads_per_block, 1024);
        assert_eq!(d.warp_size, 32);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let d = DeviceConfig::titan_v();
        assert_eq!(d.blocks_per_sm(1024, 0), 2);
        assert_eq!(d.blocks_per_sm(256, 0), 8);
        assert_eq!(d.blocks_per_sm(64, 0), 32); // block-slot cap
    }

    #[test]
    fn occupancy_limited_by_scratchpad() {
        let d = DeviceConfig::titan_v();
        // Paper: 96 KiB scratch with 1024 threads halves occupancy vs 48 KiB.
        assert_eq!(d.blocks_per_sm(1024, 48 * 1024), 2);
        assert_eq!(d.blocks_per_sm(1024, 96 * 1024), 1);
    }

    #[test]
    fn occupancy_never_zero() {
        let d = DeviceConfig::tiny();
        // Oversized request still schedules one block at a time.
        assert_eq!(d.blocks_per_sm(4096, 1 << 20), 1);
    }

    #[test]
    fn cycle_time_conversion() {
        let d = DeviceConfig::titan_v();
        let t = d.cycles_to_seconds(1.2e9);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_blocks_scales_with_sms() {
        let d = DeviceConfig::titan_v();
        assert_eq!(d.max_concurrent_blocks(1024, 96 * 1024), 80);
        assert_eq!(d.max_concurrent_blocks(1024, 48 * 1024), 160);
    }
}

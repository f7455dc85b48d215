//! The six kernel configurations of paper §4.2 and their accumulator
//! capacities.
//!
//! "The first and largest uses the maximum available scratchpad memory
//! (48 KB on Titan V) and maximum kernel size (1024 threads) ... Each
//! successive kernel configuration uses half the amount of scratchpad
//! memory and half the number of threads ... We additionally use [the
//! 96 KB double-shared-memory] configuration ... resulting in six kernels
//! in total."

use speck_simt::{DeviceConfig, KernelConfig};

/// Bytes of a symbolic hash entry: a 32-bit compound key (5-bit local row +
/// 27-bit column, paper §4.3) when B's column count fits 2^27, else 64-bit.
pub fn symbolic_entry_bytes(cols_b: usize) -> usize {
    if cols_b < (1 << 27) {
        4
    } else {
        8
    }
}

/// Bytes of a numeric hash entry: key plus a value of `val_bytes`.
pub fn numeric_entry_bytes(cols_b: usize, val_bytes: usize) -> usize {
    symbolic_entry_bytes(cols_b) + val_bytes
}

/// Bytes per slot of the numeric dense accumulator: one value plus
/// presence/compaction bookkeeping (bitmask word share + prefix-sum slot).
pub(crate) fn dense_numeric_slot_bytes(val_bytes: usize) -> usize {
    // value + 1 bit presence (rounded into words) + u16-equivalent of the
    // compaction prefix sum, conservatively 2 extra bytes.
    val_bytes + 2
}

/// The ordered cascade of kernel configurations, smallest first.
#[derive(Clone, Debug)]
pub struct KernelCascade {
    configs: Vec<KernelConfig>,
}

impl KernelCascade {
    /// Builds the paper's cascade for a device: five halvings of
    /// (max threads, static scratch) plus the double-scratch configuration.
    pub fn for_device(dev: &DeviceConfig) -> Self {
        let mut configs = Vec::with_capacity(6);
        for i in (0..5).rev() {
            let threads = (dev.max_threads_per_block >> i).max(dev.warp_size);
            let scratch = dev.scratch_static_per_block >> i;
            configs.push(KernelConfig::new(threads, scratch));
        }
        configs.push(KernelConfig::new(
            dev.max_threads_per_block,
            dev.scratch_max_per_block,
        ));
        Self { configs }
    }

    /// Number of configurations (6 on the paper's device).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True if the cascade is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configuration at cascade index `i`.
    pub(crate) fn config(&self, i: usize) -> KernelConfig {
        self.configs[i]
    }

    /// Index of the largest configuration.
    pub fn largest(&self) -> usize {
        self.configs.len() - 1
    }

    /// Hash-map entry capacity of configuration `i` at `entry_bytes` per
    /// entry.
    pub fn hash_capacity(&self, i: usize, entry_bytes: usize) -> usize {
        self.configs[i].scratch_bytes / entry_bytes
    }

    /// Bit capacity of the symbolic dense accumulator of configuration `i`.
    pub(crate) fn dense_symbolic_bits(&self, i: usize) -> usize {
        self.configs[i].scratch_bytes * 8
    }

    /// Slot capacity of the numeric dense accumulator of configuration `i`.
    pub fn dense_numeric_slots(&self, i: usize, val_bytes: usize) -> usize {
        self.configs[i].scratch_bytes / dense_numeric_slot_bytes(val_bytes)
    }

    /// Hash capacity of every configuration at `entry_bytes` per entry,
    /// smallest first: a table to fit many rows against with
    /// [`smallest_fit`], without a division each.
    pub fn hash_capacities(&self, entry_bytes: usize) -> Vec<u64> {
        (0..self.len())
            .map(|i| self.hash_capacity(i, entry_bytes) as u64)
            .collect()
    }
}

/// Smallest cascade index whose capacity in `caps` (a
/// [`KernelCascade::hash_capacities`] table) holds `need` entries, or the
/// largest index if none does.
pub fn smallest_fit(caps: &[u64], need: u64) -> usize {
    caps.iter()
        .position(|&c| c >= need)
        .unwrap_or(caps.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_cascade_matches_paper() {
        let c = KernelCascade::for_device(&DeviceConfig::titan_v());
        assert_eq!(c.len(), 6);
        let shapes: Vec<(usize, usize)> = c
            .configs
            .iter()
            .map(|k| (k.threads, k.scratch_bytes))
            .collect();
        assert_eq!(
            shapes,
            vec![
                (64, 3 * 1024),
                (128, 6 * 1024),
                (256, 12 * 1024),
                (512, 24 * 1024),
                (1024, 48 * 1024),
                (1024, 96 * 1024),
            ]
        );
    }

    #[test]
    fn paper_capacity_claims_hold() {
        let c = KernelCascade::for_device(&DeviceConfig::titan_v());
        let i = c.largest();
        // §4.3: symbolic dense bitmask holds >500k entries at 96 KiB...
        assert!(c.dense_symbolic_bits(i) > 500_000);
        // ...versus "roughly 24 000 when using hashmaps".
        let hash = c.hash_capacity(i, symbolic_entry_bytes(1000));
        assert!((20_000..30_000).contains(&hash), "hash capacity {hash}");
    }

    #[test]
    fn entry_bytes_switch_at_2_pow_27() {
        assert_eq!(symbolic_entry_bytes((1 << 27) - 1), 4);
        assert_eq!(symbolic_entry_bytes(1 << 27), 8);
        assert_eq!(numeric_entry_bytes(100, 8), 12);
        assert_eq!(numeric_entry_bytes(1 << 28, 8), 16);
    }

    #[test]
    fn symbolic_stores_three_times_numeric() {
        // Paper §4.3: "the symbolic step can store three times as many
        // elements as the numeric step" (4 B vs 12 B entries).
        let c = KernelCascade::for_device(&DeviceConfig::titan_v());
        let s = c.hash_capacity(4, symbolic_entry_bytes(1000));
        let n = c.hash_capacity(4, numeric_entry_bytes(1000, 8));
        assert_eq!(s, 3 * n);
    }

    #[test]
    fn smallest_fit_finds_smallest_sufficient() {
        let caps = KernelCascade::for_device(&DeviceConfig::titan_v()).hash_capacities(4);
        // 3 KiB / 4 B = 768 entries in the smallest config; none holds
        // 30 000, so the largest is the fallback.
        assert_eq!((caps[0], caps[5] < 30_000), (768, true));
        let needs = [700, 768, 769, 800, 20_000, 30_000];
        assert_eq!(needs.map(|n| smallest_fit(&caps, n)), [0, 0, 1, 1, 5, 5]);
    }

    #[test]
    fn cascade_is_monotone() {
        let c = KernelCascade::for_device(&DeviceConfig::titan_v());
        for w in c.configs.windows(2) {
            assert!(w[0].scratch_bytes < w[1].scratch_bytes);
            assert!(w[0].threads <= w[1].threads);
        }
    }
}

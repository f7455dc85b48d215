//! The adaptable hash accumulator (paper §4.3, Fig. 4).
//!
//! A scratchpad hash map with linear probing. Keys are compound "local row
//! | column" indices (5 + 27 bits when B's columns fit 2^27, 64-bit
//! otherwise — the arithmetic is done in `u64` either way; the width only
//! changes the *capacity* via the entry size in [`crate::cascade`]).
//!
//! When the local map can no longer guarantee that a whole group insert
//! succeeds, all entries move to a *global* hash map and accumulation
//! continues there — the paper's global fallback pool (§4.3). Every probe,
//! insert and spilled element is counted so the cost model can price it.

use speck_sparse::Scalar;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the hash function: the paper multiplies the element index
/// by a prime and takes the modulo of the map size. 2^32 - 5 is prime.
const HASH_PRIME: u64 = 4_294_967_291;

/// Sentinel for an empty slot.
const EMPTY: u64 = u64::MAX;

/// Builds the compound key for (local row, column) — 5 bits of row, the
/// rest column (paper limits blocks to 32 rows so 5 bits suffice).
#[inline]
pub fn compound_key(local_row: u32, col: u32) -> u64 {
    debug_assert!(local_row < 32, "blocks hold at most 32 rows");
    ((local_row as u64) << 59) | col as u64
}

/// Splits a compound key back into (local row, column).
#[inline]
pub fn split_key(key: u64) -> (u32, u32) {
    ((key >> 59) as u32, (key & ((1u64 << 59) - 1)) as u32)
}

/// Counters the kernels feed into the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccStats {
    /// Scratchpad insert attempts (each a shared-memory atomic).
    pub smem_inserts: u64,
    /// Linear-probe steps beyond the first slot.
    pub probes: u64,
    /// Entries moved from the local to the global map.
    pub spilled: u64,
    /// Inserts performed directly in the global map (each a global atomic).
    pub gmem_inserts: u64,
}

/// Deterministic trivial hasher for the global fallback map (keys are
/// already well-mixed compound indices; avoid SipHash overhead).
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("KeyHasher only hashes u64 keys");
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type GlobalMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// Hash accumulator with scratchpad storage and global spill.
#[derive(Debug)]
pub struct Accumulator<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    capacity: usize,
    /// `ceil(2^64 / capacity)` — lets [`Accumulator::slot_of`] reduce the
    /// hash with two multiplies instead of a hardware divide (exact for
    /// any 32-bit hash and capacity; Lemire's fastmod).
    mod_magic: u64,
    local_len: usize,
    global: Option<GlobalMap<V>>,
    /// Event counters for the cost model.
    pub stats: AccStats,
}

/// `ceil(2^64 / cap)` for the multiply-based modulo in
/// [`Accumulator::slot_of`].
fn mod_magic(cap: usize) -> u64 {
    assert!(cap > 0 && cap <= u32::MAX as usize);
    // Wraps to 0 for cap == 1, where the product below is 0 == x % 1.
    (u64::MAX / cap as u64).wrapping_add(1)
}

impl<V: Scalar> Accumulator<V> {
    /// A local map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        Self {
            keys: vec![EMPTY; capacity],
            vals: vec![V::zero(); capacity],
            capacity,
            mod_magic: mod_magic(capacity),
            local_len: 0,
            global: None,
            stats: AccStats::default(),
        }
    }

    /// Re-arms the accumulator for a fresh block at `capacity` slots,
    /// reusing the key/value allocations. Equivalent to
    /// `*self = Accumulator::new(capacity)` but without the heap traffic:
    /// stale values are never read (an insert writes the slot before any
    /// read), so only the keys need clearing. The statistics reset too —
    /// they feed the cost model, and a reused accumulator must charge
    /// exactly what a fresh one would.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        if capacity != self.capacity {
            // A shrinking resize would keep a stale prefix: rebuild whole.
            self.keys.clear();
            self.keys.resize(capacity, EMPTY);
            self.vals.clear();
            self.vals.resize(capacity, V::zero());
            self.capacity = capacity;
            self.mod_magic = mod_magic(capacity);
        } else if self.local_len != 0 {
            // `local_len` counts the non-EMPTY keys exactly (each local
            // insert of a new key increments it; drain and spill zero it
            // after clearing), so a drained accumulator skips the O(n)
            // sweep.
            self.keys.fill(EMPTY);
        }
        self.local_len = 0;
        self.global = None;
        self.stats = AccStats::default();
    }

    /// Number of distinct keys stored (local + global).
    pub fn len(&self) -> usize {
        self.local_len + self.global.as_ref().map_or(0, |g| g.len())
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the accumulator has fallen back to global memory.
    pub fn spilled_to_global(&self) -> bool {
        self.global.is_some()
    }

    /// Current local fill rate in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.local_len as f64 / self.capacity as f64
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Multiply-shift before the modulo: `(key * prime) % capacity`
        // alone keeps only the *low* bits of the product, which depend
        // only on the low bits of the key — the compound key's local-row
        // field (bits 59+) would never influence the slot and all rows of
        // a merged block would collide on the same probe clusters. Taking
        // the product's high half first mixes every key bit into the slot.
        let h = key.wrapping_mul(HASH_PRIME).rotate_right(32) ^ key;
        let x = h.wrapping_mul(HASH_PRIME) >> 32;
        // `x % capacity` by Lemire's multiply-based reduction (exact for
        // 32-bit `x`): the hardware divide would dominate the probe loop.
        let m = ((self.mod_magic.wrapping_mul(x) as u128 * self.capacity as u128) >> 64) as usize;
        debug_assert_eq!(m, x as usize % self.capacity);
        m
    }

    /// Ensures `headroom` more inserts can all land locally; if not,
    /// moves everything to the global map (the paper spills *before*
    /// threads race on the last slots, then continues globally).
    pub fn reserve_or_spill(&mut self, headroom: usize) {
        if self.global.is_some() {
            return;
        }
        if self.local_len + headroom > self.capacity {
            self.spill();
        }
    }

    fn spill(&mut self) {
        let mut g: GlobalMap<V> =
            HashMap::with_capacity_and_hasher(self.capacity * 2, BuildHasherDefault::default());
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                g.insert(k, self.vals[i]);
            }
        }
        self.stats.spilled += self.local_len as u64;
        self.keys.fill(EMPTY);
        self.local_len = 0;
        self.global = Some(g);
    }

    /// Inserts `key` adding `val`; returns `true` when the key is new.
    ///
    /// Call [`Accumulator::reserve_or_spill`] with the group width before
    /// batched inserts; a completely full local map spills automatically
    /// as a safety net.
    pub fn insert(&mut self, key: u64, val: V) -> bool {
        if let Some(g) = self.global.as_mut() {
            self.stats.gmem_inserts += 1;
            return match g.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += val;
                    false
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(val);
                    true
                }
            };
        }
        self.stats.smem_inserts += 1;
        let mut slot = self.slot_of(key);
        let mut probes = 0u64;
        loop {
            let k = self.keys[slot];
            if k == key {
                self.stats.probes += probes;
                self.vals[slot] += val;
                return false;
            }
            if k == EMPTY {
                self.stats.probes += probes;
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.local_len += 1;
                return true;
            }
            probes += 1;
            slot += 1;
            if slot == self.capacity {
                slot = 0;
            }
            if probes as usize > self.capacity {
                // Local map completely full: spill and retry globally.
                self.stats.probes += probes;
                self.spill();
                return self.insert(key, val);
            }
        }
    }

    /// Symbolic insert: records the key only; returns `true` when new.
    ///
    /// Skips the value array entirely — the slot's stale value is fine
    /// because a later *numeric* insert always writes a new slot before
    /// reading it, and the symbolic pass never reads values at all.
    pub fn insert_key(&mut self, key: u64) -> bool {
        if self.global.is_some() {
            return self.insert(key, V::zero());
        }
        self.stats.smem_inserts += 1;
        let mut slot = self.slot_of(key);
        let mut probes = 0u64;
        loop {
            let k = self.keys[slot];
            if k == key {
                self.stats.probes += probes;
                return false;
            }
            if k == EMPTY {
                self.stats.probes += probes;
                self.keys[slot] = key;
                self.local_len += 1;
                return true;
            }
            probes += 1;
            slot += 1;
            if slot == self.capacity {
                slot = 0;
            }
            if probes as usize > self.capacity {
                // Local map completely full: spill and retry globally.
                self.stats.probes += probes;
                self.spill();
                return self.insert(key, V::zero());
            }
        }
    }

    /// Extracts all `(key, value)` pairs, sorted by key. (Compound keys
    /// sort by local row then column, exactly the output order the
    /// numeric kernel needs.)
    pub fn drain_sorted(&mut self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        self.drain_sorted_into(&mut out);
        out
    }

    /// [`Accumulator::drain_sorted`] into a caller-provided buffer
    /// (cleared first), so a reused workspace pays no allocation.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u64, V)>) {
        out.clear();
        out.reserve(self.len());
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                out.push((k, self.vals[i]));
            }
        }
        if let Some(g) = self.global.take() {
            out.extend(g);
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        self.keys.fill(EMPTY);
        self.local_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_key_roundtrip() {
        for row in [0u32, 1, 17, 31] {
            for col in [0u32, 1, 12345, (1 << 27) - 1, u32::MAX >> 5] {
                let (r, c) = split_key(compound_key(row, col));
                assert_eq!((r, c), (row, col));
            }
        }
    }

    #[test]
    fn compound_keys_sort_row_major() {
        let a = compound_key(0, u32::MAX >> 5);
        let b = compound_key(1, 0);
        assert!(a < b);
        let c = compound_key(1, 5);
        let d = compound_key(1, 6);
        assert!(c < d);
    }

    #[test]
    fn insert_accumulates_values() {
        let mut acc: Accumulator<f64> = Accumulator::new(16);
        assert!(acc.insert(compound_key(0, 3), 1.0));
        assert!(!acc.insert(compound_key(0, 3), 2.5));
        assert!(acc.insert(compound_key(0, 4), 1.0));
        assert_eq!(acc.len(), 2);
        let out = acc.drain_sorted();
        assert_eq!(out[0], (compound_key(0, 3), 3.5));
        assert_eq!(out[1], (compound_key(0, 4), 1.0));
    }

    #[test]
    fn probes_counted_on_collision() {
        // Capacity 2: two distinct keys with same slot must probe.
        let mut acc: Accumulator<f64> = Accumulator::new(2);
        acc.insert(0, 1.0);
        acc.insert(2, 1.0); // 0 and 2 both even * prime % 2 -> same parity slot
        assert!(acc.stats.probes >= 1 || acc.len() == 2);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn reserve_or_spill_moves_to_global() {
        let mut acc: Accumulator<f64> = Accumulator::new(8);
        for i in 0..6 {
            acc.insert(i, 1.0);
        }
        assert!(!acc.spilled_to_global());
        acc.reserve_or_spill(4); // 6 + 4 > 8 -> spill
        assert!(acc.spilled_to_global());
        assert_eq!(acc.stats.spilled, 6);
        // Continue inserting globally; old values survive.
        acc.insert(0, 1.0);
        assert_eq!(acc.stats.gmem_inserts, 1);
        let out = acc.drain_sorted();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], (0, 2.0));
    }

    #[test]
    fn full_local_map_spills_as_safety_net() {
        let mut acc: Accumulator<f64> = Accumulator::new(4);
        for i in 0..10 {
            acc.insert(i, 1.0);
        }
        assert!(acc.spilled_to_global());
        assert_eq!(acc.len(), 10);
        let out = acc.drain_sorted();
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn insert_key_counts_global_entries_once() {
        // The symbolic kernel counts a row's output from `insert_key`'s
        // "new key" answers, so they must stay exact after a spill.
        let mut acc: Accumulator<f64> = Accumulator::new(4);
        let mut new_keys = 0;
        for c in (0..10u32).chain(0..10) {
            new_keys += u32::from(acc.insert_key(compound_key(1, c)));
        }
        assert!(acc.spilled_to_global());
        assert_eq!(new_keys, 10);
        assert_eq!(acc.len(), 10);
    }

    #[test]
    fn drain_matches_btreemap_oracle() {
        use std::collections::BTreeMap;
        let mut acc: Accumulator<f64> = Accumulator::new(64);
        let mut oracle: BTreeMap<u64, f64> = BTreeMap::new();
        let mut state = 99u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = compound_key(((state >> 40) % 32) as u32, ((state >> 8) % 50) as u32);
            let val = ((state % 17) as f64) - 8.0;
            acc.insert(key, val);
            *oracle.entry(key).or_insert(0.0) += val;
        }
        let out = acc.drain_sorted();
        assert_eq!(out.len(), oracle.len());
        for ((k, v), (ok, ov)) in out.iter().zip(oracle.iter()) {
            assert_eq!(k, ok);
            assert!((v - ov).abs() < 1e-9);
        }
    }

    #[test]
    fn fill_rate_reported() {
        let mut acc: Accumulator<f64> = Accumulator::new(10);
        for i in 0..5 {
            acc.insert(i, 1.0);
        }
        assert!((acc.fill() - 0.5).abs() < 1e-12);
    }
}

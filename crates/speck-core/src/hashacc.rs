//! The adaptable hash accumulator (paper §4.3, Fig. 4).
//!
//! A scratchpad hash map with linear probing. Keys are compound "local row
//! | column" indices (5 + 27 bits when B's columns fit 2^27, 64-bit
//! otherwise — the arithmetic is done in `u64` either way; the width only
//! changes the *capacity* via the entry size in [`crate::cascade`]).
//!
//! The kernels insert one referenced row of B per call
//! ([`Accumulator::insert_row_keys`] in the symbolic pass,
//! [`Accumulator::insert_row_scaled`] in the numeric pass), `g` keys at a
//! time as the paper's thread groups do. Before each group the local map
//! must be able to take the whole group; when it can no longer guarantee
//! that, all entries move to a *global* hash map and accumulation
//! continues there — the paper's global fallback pool (§4.3). A row that
//! fits the local map as a whole cannot trigger that rule in any of its
//! groups, so it runs in one probe loop. Every probe, insert and spilled
//! element is counted so the cost model can price it; the per-key
//! [`Accumulator::insert`] / [`Accumulator::insert_key`] (baselines,
//! tests) count exactly the same events.
//!
//! The map records the slots it claims, so re-arming it for the next block
//! ([`Accumulator::reset`]) and draining it visit only those slots, not the
//! whole bin-sized table.

use speck_sparse::Scalar;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the hash function: the paper multiplies the element index
/// by a prime and takes the modulo of the map size. 2^32 - 5 is prime.
const HASH_PRIME: u64 = 4_294_967_291;

/// Sentinel for an empty slot.
const EMPTY: u64 = u64::MAX;

/// Most rows one hash block may hold: the compound key's row field is
/// 5 bits wide (the paper limits blocks to 32 rows).
pub const MAX_HASH_BLOCK_ROWS: usize = 32;

/// Builds the compound key for (local row, column) — 5 bits of row, the
/// rest column.
#[inline]
pub fn compound_key(local_row: u32, col: u32) -> u64 {
    debug_assert!(
        (local_row as usize) < MAX_HASH_BLOCK_ROWS,
        "blocks hold at most 32 rows"
    );
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

/// `ceil(2^64 / cap)` for the multiply-based modulo in [`slot_of`].
fn mod_magic(cap: usize) -> u64 {
    assert!(cap > 0 && cap <= u32::MAX as usize);
    // Wraps to 0 for cap == 1, where the product below is 0 == x % 1.
    (u64::MAX / cap as u64).wrapping_add(1)
}

/// The home slot of `key` in a table of `capacity` slots whose
/// [`mod_magic`] is `magic`.
#[inline]
fn slot_of(key: u64, magic: u64, capacity: usize) -> usize {
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
    let m = ((magic.wrapping_mul(x) as u128 * capacity as u128) >> 64) as usize;
    debug_assert_eq!(m, x as usize % capacity);
    m
}

/// Where a linear probe for a key ended.
enum Probe {
    /// The slot holding the key.
    Hit(usize),
    /// The first empty slot on the key's probe path.
    Empty(usize),
    /// The table is full and lacks the key.
    Full,
}

/// Linear probe for `key` from its home slot in `keys` (a table whose
/// [`mod_magic`] is `magic`), and the steps taken beyond the home slot —
/// `capacity + 1` of them when the table is full.
#[inline]
fn probe(keys: &[u64], magic: u64, key: u64) -> (Probe, u64) {
    let capacity = keys.len();
    let mut slot = slot_of(key, magic, capacity);
    let mut probes = 0u64;
    loop {
        let k = keys[slot];
        if k == key {
            return (Probe::Hit(slot), probes);
        }
        if k == EMPTY {
            return (Probe::Empty(slot), probes);
        }
        probes += 1;
        slot += 1;
        if slot == capacity {
            slot = 0;
        }
        if probes as usize > capacity {
            return (Probe::Full, probes);
        }
    }
}

/// Stores `key` where [`probe`] found its place: adds `val` to a hit's
/// value, or claims the empty slot (recording it in `touched`) and returns
/// `true`. `val == None` (symbolic) leaves the values alone — a stale value
/// is never read, because a numeric insert writes a slot it claims before
/// any read. A full table has no place for the key: the caller spills
/// first.
#[inline]
fn store<V: Scalar>(
    keys: &mut [u64],
    vals: &mut [V],
    touched: &mut Vec<u32>,
    found: Probe,
    key: u64,
    val: Option<V>,
) -> bool {
    match found {
        Probe::Hit(slot) => {
            if let Some(v) = val {
                vals[slot] += v;
            }
            false
        }
        Probe::Empty(slot) => {
            keys[slot] = key;
            touched.push(slot as u32);
            if let Some(v) = val {
                vals[slot] = v;
            }
            true
        }
        Probe::Full => unreachable!("a full local map spills before storing"),
    }
}

/// Hash accumulator with scratchpad storage and global spill.
#[derive(Debug)]
pub struct Accumulator<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    /// `ceil(2^64 / capacity)` — lets [`slot_of`] reduce the hash with two
    /// multiplies instead of a hardware divide (exact for any 32-bit hash
    /// and capacity; Lemire's fastmod).
    mod_magic: u64,
    /// The claimed local slots in claim order: exactly the non-EMPTY
    /// `keys`. Holds at most `capacity` entries, so it is reserved with
    /// the table and never grows while inserting.
    touched: Vec<u32>,
    global: Option<GlobalMap<V>>,
    /// Event counters for the cost model.
    pub stats: AccStats,
}

impl<V: Scalar> Accumulator<V> {
    /// A local map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        Self {
            keys: vec![EMPTY; capacity],
            vals: vec![V::zero(); capacity],
            mod_magic: mod_magic(capacity),
            touched: Vec::with_capacity(capacity),
            global: None,
            stats: AccStats::default(),
        }
    }

    /// Re-arms the accumulator for a fresh block at `capacity` slots,
    /// reusing the key/value allocations. Equivalent to
    /// `*self = Accumulator::new(capacity)` but without the heap traffic.
    /// At the same capacity only the slots claimed since the last clear
    /// are emptied (a block claims far fewer slots than a bin-sized table
    /// holds); stale values are never read, so they stay. A new capacity
    /// rebuilds the whole table. The statistics reset too — they feed the
    /// cost model, and a reused accumulator must charge exactly what a
    /// fresh one would.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        if capacity != self.capacity() {
            // A shrinking resize would keep a stale prefix: rebuild whole.
            self.keys.clear();
            self.keys.resize(capacity, EMPTY);
            self.vals.clear();
            self.vals.resize(capacity, V::zero());
            self.mod_magic = mod_magic(capacity);
            self.touched.clear();
            self.touched.reserve(capacity);
        } else {
            self.clear_touched();
        }
        self.global = None;
        self.stats = AccStats::default();
    }

    /// Empties the claimed local slots only.
    fn clear_touched(&mut self) {
        for &s in &self.touched {
            self.keys[s as usize] = EMPTY;
        }
        self.touched.clear();
    }

    /// Number of distinct keys stored (local + global).
    pub fn len(&self) -> usize {
        self.touched.len() + self.global.as_ref().map_or(0, |g| g.len())
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local slot capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// True once the accumulator has fallen back to global memory.
    pub fn spilled_to_global(&self) -> bool {
        self.global.is_some()
    }

    /// Current local fill rate in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.touched.len() as f64 / self.capacity() as f64
    }

    /// Ensures `headroom` more inserts can all land locally; if not,
    /// moves everything to the global map (the paper spills *before*
    /// threads race on the last slots, then continues globally).
    pub fn reserve_or_spill(&mut self, headroom: usize) {
        if self.global.is_none() && self.touched.len() + headroom > self.capacity() {
            self.spill();
        }
    }

    fn spill(&mut self) {
        let mut g: GlobalMap<V> =
            HashMap::with_capacity_and_hasher(self.capacity() * 2, BuildHasherDefault::default());
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                g.insert(k, self.vals[i]);
            }
        }
        self.stats.spilled += self.touched.len() as u64;
        self.keys.fill(EMPTY);
        self.touched.clear();
        self.global = Some(g);
    }

    /// Inserts `key` adding `val`; returns `true` when the key is new.
    ///
    /// Call [`Accumulator::reserve_or_spill`] with the group width before
    /// batched inserts; a completely full local map spills automatically
    /// as a safety net.
    pub fn insert(&mut self, key: u64, val: V) -> bool {
        self.insert_one(key, Some(val))
    }

    /// Symbolic insert: records the key only; returns `true` when new.
    ///
    /// Skips the value array entirely — the symbolic pass never reads
    /// values.
    pub fn insert_key(&mut self, key: u64) -> bool {
        self.insert_one(key, None)
    }

    fn insert_one(&mut self, key: u64, val: Option<V>) -> bool {
        if let Some(g) = self.global.as_mut() {
            self.stats.gmem_inserts += 1;
            let val = val.unwrap_or_else(V::zero);
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
        let (found, probes) = probe(&self.keys, self.mod_magic, key);
        self.stats.probes += probes;
        if let Probe::Full = found {
            // Local map completely full: spill and retry globally.
            self.spill();
            return self.insert_one(key, val);
        }
        store(
            &mut self.keys,
            &mut self.vals,
            &mut self.touched,
            found,
            key,
            val,
        )
    }

    /// Symbolic whole-row insert: the keys of local row `li` at columns
    /// `cols` (one referenced row of B), `g` at a time. Returns how many
    /// keys were new. Counts, statistics and spill point are exactly those
    /// of `reserve_or_spill(group.len())` followed by
    /// [`Accumulator::insert_key`] per key, for each group of `g`.
    pub fn insert_row_keys(&mut self, li: u32, cols: &[u32], g: usize) -> u32 {
        self.insert_row(li, cols, g, |_| None)
    }

    /// Numeric whole-row insert: adds `a_val * vals[i]` under column
    /// `cols[i]` of local row `li`, `g` at a time. Returns how many keys
    /// were new. Equivalent to `reserve_or_spill(group.len())` followed by
    /// [`Accumulator::insert`] per product, for each group of `g` — the
    /// same statistics, spill point and per-key addition order.
    pub fn insert_row_scaled(
        &mut self,
        li: u32,
        cols: &[u32],
        vals: &[V],
        a_val: V,
        g: usize,
    ) -> u32 {
        debug_assert_eq!(cols.len(), vals.len());
        self.insert_row(li, cols, g, |i| Some(a_val * vals[i]))
    }

    // Out of line on purpose: one call per NZ of A is cheap against the
    // row's probe loop, and when the compiler inlined this into numeric
    // `hash_block` (a choice that flipped with unrelated code elsewhere
    // in the crate), perfbench `table4` ran about 3% slower.
    #[inline(never)]
    fn insert_row(
        &mut self,
        li: u32,
        cols: &[u32],
        g: usize,
        val: impl Fn(usize) -> Option<V>,
    ) -> u32 {
        if self.global.is_none() && self.touched.len() + cols.len() <= self.capacity() {
            // The whole row fits, so no group's reserve can spill.
            return self.insert_run(li, cols, 0, &val);
        }
        let g = g.max(1);
        let mut new = 0;
        for (n, group) in cols.chunks(g).enumerate() {
            let offset = n * g;
            self.reserve_or_spill(group.len());
            new += if self.global.is_some() {
                let mut group_new = 0;
                for (i, &c) in group.iter().enumerate() {
                    group_new += u32::from(self.insert_one(compound_key(li, c), val(offset + i)));
                }
                group_new
            } else {
                self.insert_run(li, group, offset, &val)
            };
        }
        new
    }

    /// Inserts the keys of local row `li` at columns `cols`, with
    /// `val(offset + i)` the value of `cols[i]`, into a local map that has
    /// room for all of them. Returns how many keys were new; adds the
    /// inserts and probe steps to the statistics once, after the run.
    #[inline]
    fn insert_run(
        &mut self,
        li: u32,
        cols: &[u32],
        offset: usize,
        val: &impl Fn(usize) -> Option<V>,
    ) -> u32 {
        // The table's parts and the counters in locals, so the loop keeps
        // them in registers.
        let Self {
            keys,
            vals,
            mod_magic,
            touched,
            stats,
            ..
        } = self;
        let mut probes = 0u64;
        let mut new = 0u32;
        for (i, &c) in cols.iter().enumerate() {
            let key = compound_key(li, c);
            let (found, steps) = probe(keys, *mod_magic, key);
            probes += steps;
            new += u32::from(store(keys, vals, touched, found, key, val(offset + i)));
        }
        stats.smem_inserts += cols.len() as u64;
        stats.probes += probes;
        new
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
    /// (cleared first), so a reused workspace pays no allocation. Gathers
    /// from the claimed slots only and empties them.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u64, V)>) {
        out.clear();
        out.reserve(self.len());
        out.extend(
            self.touched
                .iter()
                .map(|&s| (self.keys[s as usize], self.vals[s as usize])),
        );
        self.clear_touched();
        if let Some(g) = self.global.take() {
            out.extend(g);
        }
        // Local and global keys are disjoint, so the order is total.
        out.sort_unstable_by_key(|&(k, _)| k);
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
        // "New key" answers must stay exact after a spill: the symbolic
        // kernel builds its row counts from them.
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
    fn row_insert_spills_at_the_first_group_that_does_not_fit() {
        // Capacity 8, groups of 4: the first row (6 keys) fits whole; the
        // second row's first group would need 6 + 4 > 8 slots, so all six
        // local entries move to the global map before it inserts.
        let mut acc: Accumulator<f64> = Accumulator::new(8);
        assert_eq!(acc.insert_row_keys(0, &[0, 1, 2, 3, 4, 5], 4), 6);
        assert!(!acc.spilled_to_global());
        assert_eq!(acc.insert_row_keys(1, &[0, 1, 2, 3, 4, 5], 4), 6);
        assert!(acc.spilled_to_global());
        assert_eq!(acc.stats.smem_inserts, 6);
        assert_eq!(acc.stats.spilled, 6);
        assert_eq!(acc.stats.gmem_inserts, 6);
        assert_eq!(acc.len(), 12);
    }

    #[test]
    fn row_insert_scales_and_accumulates() {
        let mut acc: Accumulator<f64> = Accumulator::new(16);
        assert_eq!(acc.insert_row_scaled(2, &[3, 5], &[1.0, 2.0], 0.5, 1), 2);
        assert_eq!(acc.insert_row_scaled(2, &[5, 7], &[4.0, 1.0], 2.0, 1), 1);
        let out = acc.drain_sorted();
        assert_eq!(
            out,
            vec![
                (compound_key(2, 3), 0.5),
                (compound_key(2, 5), 9.0),
                (compound_key(2, 7), 2.0)
            ]
        );
        assert_eq!(acc.stats.smem_inserts, 4);
    }

    #[test]
    fn reset_and_drain_leave_no_stale_key() {
        let mut acc: Accumulator<f64> = Accumulator::new(32);
        acc.insert_row_keys(0, &[1, 2, 3, 4, 5], 2);
        acc.reset(32);
        assert!(acc.is_empty());
        // Every key is new again after the reset.
        assert_eq!(acc.insert_row_keys(0, &[1, 2, 3, 4, 5], 2), 5);
        acc.drain_sorted();
        assert_eq!(acc.insert_row_keys(0, &[1, 2, 3, 4, 5], 2), 5);
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

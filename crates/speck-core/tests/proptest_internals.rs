//! Property-based tests of spECK's internal data structures and
//! heuristics: the hash accumulator against a BTreeMap oracle, its
//! whole-row inserts against per-key group inserts, the dense
//! chunk against direct accumulation, Algorithm 2's invariants, and the
//! local load balancer's contracts.

use proptest::prelude::*;
use speck_core::block_merge::{block_merge, MERGE_LEVELS};
use speck_core::denseacc::{dense_iterations, DenseChunk};
use speck_core::hashacc::{compound_key, split_key, Accumulator};
use speck_core::local_lb::{rounds_for_g, select_group_size};
use speck_core::LocalLbMode;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accumulator_matches_btreemap_oracle(
        capacity in 1usize..64,
        ops in proptest::collection::vec((0u32..32, 0u32..200, -100i32..100), 0..400),
    ) {
        let mut acc: Accumulator<f64> = Accumulator::new(capacity);
        let mut oracle: BTreeMap<u64, f64> = BTreeMap::new();
        for (row, col, v) in ops {
            let key = compound_key(row, col);
            let val = v as f64 / 4.0;
            let new = acc.insert(key, val);
            let was_new = !oracle.contains_key(&key);
            prop_assert_eq!(new, was_new);
            *oracle.entry(key).or_insert(0.0) += val;
        }
        prop_assert_eq!(acc.len(), oracle.len());
        let drained = acc.drain_sorted();
        prop_assert_eq!(drained.len(), oracle.len());
        for ((k, v), (ok, ov)) in drained.iter().zip(oracle.iter()) {
            prop_assert_eq!(k, ok);
            prop_assert!((v - ov).abs() < 1e-9);
        }
        // Drained output is sorted row-major.
        for w in drained.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn compound_key_roundtrip_and_order(
        r1 in 0u32..32, c1 in 0u32..(1 << 27),
        r2 in 0u32..32, c2 in 0u32..(1 << 27),
    ) {
        prop_assert_eq!(split_key(compound_key(r1, c1)), (r1, c1));
        // Keys order row-major (row, col) lexicographically.
        let ord_key = compound_key(r1, c1).cmp(&compound_key(r2, c2));
        let ord_pair = (r1, c1).cmp(&(r2, c2));
        prop_assert_eq!(ord_key, ord_pair);
    }

    #[test]
    fn insert_key_reports_each_distinct_key_once(
        entries in proptest::collection::vec((0u32..8, 0u32..100), 0..200),
    ) {
        let mut acc: Accumulator<f64> = Accumulator::new(64);
        let mut new_keys = 0usize;
        for &(r, c) in &entries {
            new_keys += usize::from(acc.insert_key(compound_key(r, c)));
        }
        let distinct: std::collections::BTreeSet<_> = entries.iter().collect();
        prop_assert_eq!(new_keys, distinct.len());
        prop_assert_eq!(acc.len(), distinct.len());
    }

    #[test]
    fn whole_row_key_inserts_match_per_key_group_inserts(
        capacity in 1usize..64,
        g_log in 0u32..6,
        rows in proptest::collection::vec(
            (0u32..32, proptest::collection::vec(0u32..96, 0..40)),
            0..12,
        ),
    ) {
        let g = 1usize << g_log;
        let mut whole: Accumulator<f64> = Accumulator::new(capacity);
        let mut per_key: Accumulator<f64> = Accumulator::new(capacity);
        for (li, cols) in &rows {
            let new_whole = whole.insert_row_keys(*li, cols, g);
            let mut new_per_key = 0u32;
            for group in cols.chunks(g) {
                per_key.reserve_or_spill(group.len());
                for &c in group {
                    new_per_key += u32::from(per_key.insert_key(compound_key(*li, c)));
                }
            }
            prop_assert_eq!(new_whole, new_per_key);
            prop_assert_eq!(whole.stats, per_key.stats);
            prop_assert_eq!(whole.spilled_to_global(), per_key.spilled_to_global());
        }
        prop_assert_eq!(whole.len(), per_key.len());
        let keys = |acc: &mut Accumulator<f64>| -> Vec<u64> {
            acc.drain_sorted().into_iter().map(|(k, _)| k).collect()
        };
        prop_assert_eq!(keys(&mut whole), keys(&mut per_key));
    }

    #[test]
    fn whole_row_scaled_inserts_match_per_key_group_inserts(
        capacity in 1usize..64,
        g_log in 0u32..6,
        rows in proptest::collection::vec(
            (0u32..32, proptest::collection::vec((0u32..96, -50i32..50), 0..40), -8i32..8),
            0..12,
        ),
    ) {
        let g = 1usize << g_log;
        let mut whole: Accumulator<f64> = Accumulator::new(capacity);
        let mut per_key: Accumulator<f64> = Accumulator::new(capacity);
        for (li, entries, a) in &rows {
            let a_val = *a as f64 / 4.0;
            let cols: Vec<u32> = entries.iter().map(|&(c, _)| c).collect();
            let vals: Vec<f64> = entries.iter().map(|&(_, v)| v as f64 / 8.0).collect();
            let new_whole = whole.insert_row_scaled(*li, &cols, &vals, a_val, g);
            let mut new_per_key = 0u32;
            for (group, group_vals) in cols.chunks(g).zip(vals.chunks(g)) {
                per_key.reserve_or_spill(group.len());
                for (&c, &v) in group.iter().zip(group_vals) {
                    new_per_key += u32::from(per_key.insert(compound_key(*li, c), a_val * v));
                }
            }
            prop_assert_eq!(new_whole, new_per_key);
            prop_assert_eq!(whole.stats, per_key.stats);
            prop_assert_eq!(whole.spilled_to_global(), per_key.spilled_to_global());
        }
        let bits = |acc: &mut Accumulator<f64>| -> Vec<(u64, u64)> {
            acc.drain_sorted().into_iter().map(|(k, v)| (k, v.to_bits())).collect()
        };
        prop_assert_eq!(bits(&mut whole), bits(&mut per_key));
    }

    #[test]
    fn block_merge_invariants(
        demands in proptest::collection::vec(0u64..1000, 0..300),
        capacity in 1u64..2000,
    ) {
        let (segs, _) = block_merge(&demands, capacity, true);
        // Tiling: segments cover the input contiguously, in order.
        let mut pos = 0usize;
        for s in &segs {
            prop_assert_eq!(s.start, pos);
            prop_assert!(s.len >= 1);
            prop_assert!(s.len <= 1 << MERGE_LEVELS);
            pos += s.len;
        }
        prop_assert_eq!(pos, demands.len());
        // Conservation and capacity: merged (len > 1) segments fit.
        for s in &segs {
            let sum: u64 = demands[s.start..s.start + s.len].iter().sum();
            prop_assert_eq!(s.demand, sum);
            if s.len > 1 {
                prop_assert!(s.demand < capacity);
            }
        }
    }

    #[test]
    fn merge_never_worse_than_no_merge(
        demands in proptest::collection::vec(1u64..100, 1..200),
    ) {
        let (merged, _) = block_merge(&demands, 256, true);
        let (plain, _) = block_merge(&demands, 256, false);
        prop_assert!(merged.len() <= plain.len());
    }

    #[test]
    fn local_lb_contracts(
        threads_log in 5u32..11,
        nnz_a in 0u64..100_000,
        avg_len in 1u64..200,
        max_factor in 1u64..50,
    ) {
        let threads = 1usize << threads_log;
        let products = nnz_a.saturating_mul(avg_len);
        let max_b = (avg_len * max_factor).min(products.max(1));
        let g = select_group_size(LocalLbMode::Dynamic, threads, nnz_a, products, max_b);
        prop_assert!(g >= 1 && g <= threads);
        prop_assert!(g.is_power_of_two());
        if nnz_a > 0 && products > 0 {
            // No more groups than work items.
            prop_assert!((threads / g).max(1) as u64 <= nnz_a.max(1) || g == threads);
        }
    }

    #[test]
    fn dynamic_g_not_catastrophic(
        lens in proptest::collection::vec(1u64..300, 1..150),
    ) {
        let total: u64 = lens.iter().sum();
        let max = *lens.iter().max().unwrap();
        let threads = 256;
        let g = select_group_size(LocalLbMode::Dynamic, threads, lens.len() as u64, total, max);
        let dynamic = rounds_for_g(g, threads, lens.iter().copied());
        let best = (0..=8).map(|l| rounds_for_g(1 << l, threads, lens.iter().copied())).min().unwrap();
        // Paper: dynamic g averages 1.02x of the optimum; allow 3x on any
        // single adversarial instance.
        prop_assert!(dynamic <= 3 * best.max(1), "dynamic {} vs best {}", dynamic, best);
    }

    #[test]
    fn dense_chunk_matches_direct_accumulation(
        base in 0u32..1000,
        width in 1usize..300,
        ops in proptest::collection::vec((0usize..300, -50i32..50), 0..300),
    ) {
        let mut chunk: DenseChunk<f64> = DenseChunk::numeric(base, width);
        let mut oracle: BTreeMap<u32, f64> = BTreeMap::new();
        for (off, v) in ops {
            if off < width {
                let col = base + off as u32;
                chunk.add(col, v as f64);
                *oracle.entry(col).or_insert(0.0) += v as f64;
            }
        }
        let out = chunk.extract_sorted();
        prop_assert_eq!(out.len(), oracle.len());
        for ((c, v), (oc, ov)) in out.iter().zip(oracle.iter()) {
            prop_assert_eq!(c, oc);
            prop_assert!((v - ov).abs() < 1e-9);
        }
    }

    #[test]
    fn dense_iterations_covers_range(range in 0u64..1_000_000, slots in 1usize..10_000) {
        let it = dense_iterations(range, slots);
        prop_assert!(it * (slots as u64) >= range);
        if it > 0 {
            prop_assert!((it - 1).saturating_mul(slots as u64) < range);
        }
    }
}

//! Property-based tests of spECK's internal data structures and
//! heuristics: the hash accumulator against a BTreeMap oracle, its
//! whole-row inserts (and their hit memo) against per-key group inserts
//! over several blocks, the dense chunk against direct accumulation and its
//! bulk merges against per-element ones, Algorithm 2's invariants, and
//! the local load balancer's contracts.

use proptest::prelude::*;
use speck_core::block_merge::{block_merge, MERGE_LEVELS};
use speck_core::denseacc::{dense_iterations, DenseChunk};
use speck_core::hashacc::{compound_key, split_key, Accumulator, MEMO_ENTRIES};
use speck_core::local_lb::{rounds_for_g, select_group_size};
use speck_core::LocalLbMode;
use std::collections::BTreeMap;

/// One step of a multi-block accumulator script: `(kind, local row,
/// (column, value) entries, scale)`. `kind` picks a whole-row insert (most
/// steps), the same entries as per-key inserts, a drain or a re-arm.
type Step = (u32, u32, Vec<(u32, i32)>, i32);

/// Scripts of [`Step`]s over local rows 0..32 (often only 0..4, so rows
/// repeat) and columns 0..160 with duplicates, in any order. A third of
/// the steps spread the columns [`MEMO_ENTRIES`] apart, so they share
/// memo entries.
fn script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u32..24,
            0u32..32,
            proptest::collection::vec((0u32..160, -50i32..50), 0..40),
            -8i32..8,
        ),
        0..40,
    )
}

/// Drained `(key, value bits)` pairs; `with_values == false` zeroes the
/// values, which a symbolic map never writes.
fn drained(acc: &mut Accumulator<f64>, with_values: bool) -> Vec<(u64, u64)> {
    acc.drain_sorted()
        .into_iter()
        .map(|(k, v)| (k, if with_values { v.to_bits() } else { 0 }))
        .collect()
}

/// Runs `steps` on an accumulator fed whole rows (`insert_row_scaled`, or
/// `insert_row_keys` when `numeric` is false) and on one fed the same keys
/// one at a time after a `reserve_or_spill` per group of `g`, re-armed
/// alternately at `capacities.0` and `.1`. Requires the same new-key
/// counts, statistics, spill state and drained entries at every step.
fn whole_rows_match_per_key(capacities: (usize, usize), g: usize, steps: &[Step], numeric: bool) {
    let mut whole: Accumulator<f64> = Accumulator::new(capacities.0);
    let mut per_key: Accumulator<f64> = Accumulator::new(capacities.0);
    for (kind, li, entries, a) in steps {
        let li = if kind % 2 == 0 { li % 4 } else { *li };
        let a_val = *a as f64 / 4.0;
        let spread = |c: u32| c % 40 + c / 40 * MEMO_ENTRIES as u32;
        let cols: Vec<u32> = entries
            .iter()
            .map(|&(c, _)| if kind % 3 == 0 { spread(c) } else { c })
            .collect();
        let vals: Vec<f64> = entries.iter().map(|&(_, v)| v as f64 / 8.0).collect();
        match kind {
            0..=17 => {
                let new_whole = if numeric {
                    whole.insert_row_scaled(li, &cols, &vals, a_val, g)
                } else {
                    whole.insert_row_keys(li, &cols, g)
                };
                let mut new_per_key = 0u32;
                for (group, group_vals) in cols.chunks(g).zip(vals.chunks(g)) {
                    per_key.reserve_or_spill(group.len());
                    for (&c, &v) in group.iter().zip(group_vals) {
                        let key = compound_key(li, c);
                        new_per_key += u32::from(if numeric {
                            per_key.insert(key, a_val * v)
                        } else {
                            per_key.insert_key(key)
                        });
                    }
                }
                assert_eq!(new_whole, new_per_key);
            }
            18..=19 => {
                // Per-key inserts into the memoized accumulator too.
                for (&c, &v) in cols.iter().zip(&vals) {
                    let key = compound_key(li, c);
                    let (w, p) = if numeric {
                        (whole.insert(key, v), per_key.insert(key, v))
                    } else {
                        (whole.insert_key(key), per_key.insert_key(key))
                    };
                    assert_eq!(w, p);
                }
            }
            20..=21 => {
                assert_eq!(drained(&mut whole, numeric), drained(&mut per_key, numeric));
            }
            _ => {
                let capacity = if a % 2 == 0 {
                    capacities.0
                } else {
                    capacities.1
                };
                whole.reset(capacity);
                per_key.reset(capacity);
            }
        }
        assert_eq!(whole.stats, per_key.stats);
        assert_eq!(whole.spilled_to_global(), per_key.spilled_to_global());
        assert_eq!(whole.len(), per_key.len());
    }
    assert_eq!(drained(&mut whole, numeric), drained(&mut per_key, numeric));
}

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
        capacity in 1usize..96,
        capacity2 in 1usize..96,
        g_log in 0u32..6,
        steps in script(),
    ) {
        whole_rows_match_per_key((capacity, capacity2), 1 << g_log, &steps, false);
    }

    #[test]
    fn whole_row_scaled_inserts_match_per_key_group_inserts(
        capacity in 1usize..96,
        capacity2 in 1usize..96,
        g_log in 0u32..6,
        steps in script(),
    ) {
        whole_rows_match_per_key((capacity, capacity2), 1 << g_log, &steps, true);
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
    fn dense_bulk_merges_match_per_element_ones(
        base in 0u32..1000,
        width in 1usize..300,
        slices in proptest::collection::vec(
            (proptest::collection::vec((0usize..300, -50i32..50), 0..80), 0u32..2, -8i32..8),
            0..8,
        ),
    ) {
        let mut bulk: DenseChunk<f64> = DenseChunk::numeric(base, width);
        let mut single: DenseChunk<f64> = DenseChunk::numeric(base, width);
        let mut bulk_mask: DenseChunk<f64> = DenseChunk::symbolic(base, width);
        let mut single_mask: DenseChunk<f64> = DenseChunk::symbolic(base, width);
        for (entries, sorted, a) in &slices {
            // Offsets wrap into the window; runs cross word boundaries.
            let mut entries: Vec<(u32, f64)> = entries
                .iter()
                .map(|&(off, v)| (base + (off % width) as u32, v as f64 / 8.0))
                .collect();
            if *sorted == 1 {
                entries.sort_by_key(|&(c, _)| c);
            }
            let cols: Vec<u32> = entries.iter().map(|&(c, _)| c).collect();
            let vals: Vec<f64> = entries.iter().map(|&(_, v)| v).collect();
            let scale = *a as f64 / 4.0;
            bulk.add_scaled_row(&cols, &vals, scale);
            bulk_mask.mark_all(&cols);
            for (&c, &v) in cols.iter().zip(&vals) {
                single.add(c, scale * v);
                single_mask.mark(c);
            }
            prop_assert_eq!(bulk.touched(), single.touched());
            prop_assert_eq!(bulk.ops, single.ops);
            prop_assert_eq!(bulk_mask.touched(), single_mask.touched());
            prop_assert_eq!(bulk_mask.ops, single_mask.ops);
        }
        let bits = |c: &DenseChunk<f64>| -> Vec<(u32, u64)> {
            c.extract_sorted().into_iter().map(|(col, v)| (col, v.to_bits())).collect()
        };
        prop_assert_eq!(bits(&bulk), bits(&single));
        prop_assert_eq!(bits(&bulk_mask), bits(&single_mask));
        prop_assert_eq!(bulk_mask.touched(), bulk.touched());
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

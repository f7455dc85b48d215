//! Property-based tests of spECK's internal data structures and
//! heuristics: the hash accumulator against a BTreeMap oracle, its
//! whole-row inserts (and their hit memo) against per-key group inserts
//! over several blocks, the dense chunk against direct accumulation and its
//! bulk merges against per-element ones, Algorithm 2's invariants, the
//! local load balancer's contracts, and the one-sweep pass planner against
//! the per-row planner it replaced.

use proptest::prelude::*;
use speck_core::block_merge::{block_merge, MERGE_LEVELS};
use speck_core::denseacc::{dense_iterations, DenseChunk};
use speck_core::global_lb::{numeric_entries, plan_numeric, plan_symbolic, AccMethod, PassPlan};
use speck_core::hashacc::{compound_key, split_key, Accumulator, MEMO_ENTRIES};
use speck_core::local_lb::{rounds_for_g, select_group_size};
use speck_core::numeric::row_ptr_from_nnz;
use speck_core::{analyze, GlobalLbMode, KernelCascade, LocalLbMode, MetricsRegistry, SpeckConfig};
use speck_simt::{BlockRecords, CostModel, DeviceConfig, KernelReport};
use speck_sparse::gen::{
    banded, block_diagonal, rectangular_lp, rmat, uniform_random, with_hub_rows,
};
use speck_sparse::reference::spgemm_row_nnz;
use speck_sparse::transpose::transpose;
use speck_sparse::Csr;
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

/// The pass planner as it stood before plans were built in one sweep:
/// per-row demand, dense and direct arrays, blocks in plan order (direct,
/// dense, then hash), and launches grouped afterwards by (method, cfg) in
/// a `BTreeMap`. The streaming planner must reproduce it launch for launch.
mod reference {
    use speck_core::analysis::AnalysisInfo;
    use speck_core::block_merge::block_merge;
    use speck_core::cascade::{numeric_entry_bytes, symbolic_entry_bytes};
    use speck_core::denseacc::dense_iterations;
    use speck_core::global_lb::{
        lb_threshold_fires, AccMethod, GateProvenance, ThresholdSet, DIRECT_ROWS_PER_BLOCK,
    };
    use speck_core::hashacc::MAX_HASH_BLOCK_ROWS;
    use speck_core::{GlobalLbMode, KernelCascade, SpeckConfig};
    use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig, KernelReport};
    use std::collections::BTreeMap;

    /// Smallest configuration index whose hash map holds at least
    /// `entries` entries; `None` if even the largest cannot.
    pub fn fit_hash(cascade: &KernelCascade, entries: usize, entry_bytes: usize) -> Option<usize> {
        (0..cascade.len()).find(|&i| cascade.hash_capacity(i, entry_bytes) >= entries)
    }

    /// A plan with its blocks as `(method, cfg, rows)` in plan order.
    pub struct Plan {
        pub blocks: Vec<(AccMethod, usize, Vec<u32>)>,
        pub lb_reports: Vec<KernelReport>,
        pub lb_alloc_bytes: usize,
        pub gate: GateProvenance,
    }

    /// The launches, grouped as the `BTreeMap` grouping launched them:
    /// (method, cfg) ascending, plan order within one key.
    #[allow(clippy::type_complexity)]
    pub fn launches(plan: &Plan) -> Vec<(AccMethod, usize, Vec<Vec<u32>>)> {
        let mut groups: BTreeMap<(AccMethod, usize), Vec<Vec<u32>>> = BTreeMap::new();
        for (method, cfg_idx, rows) in &plan.blocks {
            groups
                .entry((*method, *cfg_idx))
                .or_default()
                .push(rows.clone());
        }
        groups.into_iter().map(|((m, c), b)| (m, c, b)).collect()
    }

    fn decide_lb(
        mode: GlobalLbMode,
        ratio: f64,
        rows: usize,
        needs_large_kernel: bool,
        thr: (f64, usize, f64, usize),
    ) -> GateProvenance {
        let set = if needs_large_kernel {
            ThresholdSet::Large
        } else {
            ThresholdSet::Base
        };
        let (thr_ratio, thr_rows) = match set {
            ThresholdSet::Base => (thr.0, thr.1),
            ThresholdSet::Large => (thr.2, thr.3),
        };
        let used_global_lb = match mode {
            GlobalLbMode::AlwaysOn => true,
            GlobalLbMode::AlwaysOff => false,
            GlobalLbMode::Auto => lb_threshold_fires(ratio, rows, thr_ratio, thr_rows),
        };
        GateProvenance {
            mode,
            ratio,
            rows,
            needs_large_kernel,
            threshold_set: set,
            thr_ratio,
            thr_rows,
            used_global_lb,
        }
    }

    fn charge_binning(
        dev: &DeviceConfig,
        cost: &CostModel,
        name: &'static str,
        rows: usize,
        bins: usize,
    ) -> KernelReport {
        let threads = dev.max_threads_per_block;
        let grid = rows.div_ceil(threads).max(1);
        let cfg = KernelConfig::new(threads, 4096);
        launch(dev, cost, name, grid, cfg, BlockRecords::Skip, |ctx| {
            let start = ctx.block_id() * threads;
            let n = threads.min(rows.saturating_sub(start));
            ctx.charge_gmem_stream(threads, n, 4);
            ctx.charge_smem((n * 2) as u64);
            ctx.charge_rounds(bins as u64);
            ctx.charge_gmem_atomic(bins as u64);
            ctx.charge_gmem_stream(threads, n, 4);
            ctx.charge_sync();
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn plan_pass(
        dev: &DeviceConfig,
        cost: &CostModel,
        cascade: &KernelCascade,
        cfg: &SpeckConfig,
        entries: &[u64],
        entry_bytes: usize,
        dense_rows: &[Option<usize>],
        direct_rows: &[bool],
        pass_name: &'static str,
        thr: (f64, usize, f64, usize),
        large_kernel_cut: usize,
    ) -> Plan {
        let n = entries.len();
        let largest = cascade.largest();
        let mut hash_rows: Vec<u32> = Vec::new();
        let (mut max_entries, mut sum_entries) = (0u64, 0u64);
        for r in 0..n {
            if direct_rows[r] || dense_rows[r].is_some() {
                continue;
            }
            hash_rows.push(r as u32);
            max_entries = max_entries.max(entries[r]);
            sum_entries += entries[r];
        }
        let avg = if hash_rows.is_empty() {
            0.0
        } else {
            sum_entries as f64 / hash_rows.len() as f64
        };
        let ratio = if avg <= 0.0 {
            1.0
        } else {
            max_entries as f64 / avg
        };
        let max_cfg = fit_hash(cascade, max_entries as usize, entry_bytes).unwrap_or(largest);
        let gate = decide_lb(cfg.global_lb, ratio, n, max_cfg >= large_kernel_cut, thr);
        let mut plan = Plan {
            blocks: Vec::new(),
            lb_reports: Vec::new(),
            lb_alloc_bytes: 0,
            gate,
        };
        let directs: Vec<u32> = (0..n as u32).filter(|&r| direct_rows[r as usize]).collect();
        for chunk in directs.chunks(DIRECT_ROWS_PER_BLOCK) {
            plan.blocks.push((AccMethod::Direct, 0, chunk.to_vec()));
        }
        for r in 0..n as u32 {
            if let Some(cfg_idx) = dense_rows[r as usize] {
                plan.blocks.push((AccMethod::Dense, cfg_idx, vec![r]));
            }
        }
        if gate.used_global_lb && !hash_rows.is_empty() {
            let n_bins = cascade.len();
            let mut bins: Vec<Vec<u32>> = vec![Vec::new(); n_bins];
            for &r in &hash_rows {
                let need = entries[r as usize] as usize;
                bins[fit_hash(cascade, need, entry_bytes).unwrap_or(largest)].push(r);
            }
            plan.lb_reports
                .push(charge_binning(dev, cost, pass_name, n, n_bins));
            plan.lb_alloc_bytes += n * 4 + n_bins * 8;
            let mut merged_smallest = false;
            for (idx, bin) in bins.iter().enumerate() {
                if bin.is_empty() {
                    continue;
                }
                if merged_smallest {
                    for &r in bin {
                        plan.blocks.push((AccMethod::Hash, idx, vec![r]));
                    }
                    continue;
                }
                merged_smallest = true;
                let cap = (cascade.hash_capacity(idx, entry_bytes) as u64) * entry_bytes as u64;
                let demands: Vec<u64> = bin
                    .iter()
                    .map(|&r| entries[r as usize] * entry_bytes as u64)
                    .collect();
                let (segs, work) = block_merge(&demands, cap.max(1), cfg.block_merge);
                if work > 0 {
                    let threads = dev.max_threads_per_block;
                    let grid = bin.len().div_ceil(threads).max(1);
                    let kc = KernelConfig::new(threads, 0);
                    plan.lb_reports.push(launch(
                        dev,
                        cost,
                        "block_merge",
                        grid,
                        kc,
                        BlockRecords::Skip,
                        |ctx| {
                            ctx.charge_rounds(work / threads.max(1) as u64 + 5);
                            ctx.charge_smem(work);
                        },
                    ));
                }
                for seg in segs {
                    let rows = bin[seg.start..seg.start + seg.len].to_vec();
                    plan.blocks.push((AccMethod::Hash, idx, rows));
                }
            }
        } else if !hash_rows.is_empty() {
            let cap = cascade.hash_capacity(max_cfg, entry_bytes) as u64;
            let rows_per_block =
                ((cap / max_entries.max(1)).max(1) as usize).min(MAX_HASH_BLOCK_ROWS);
            for chunk in hash_rows.chunks(rows_per_block) {
                plan.blocks.push((AccMethod::Hash, max_cfg, chunk.to_vec()));
            }
        }
        plan
    }

    pub fn plan_symbolic(
        dev: &DeviceConfig,
        cost: &CostModel,
        cascade: &KernelCascade,
        cfg: &SpeckConfig,
        info: &AnalysisInfo,
        cols_b: usize,
    ) -> Plan {
        let n = info.rows.len();
        let entry_bytes = symbolic_entry_bytes(cols_b);
        let entries: Vec<u64> = info.rows.iter().map(|r| r.products).collect();
        let largest_cap = cascade.hash_capacity(cascade.largest(), entry_bytes) as f64;
        let direct: Vec<bool> = info
            .rows
            .iter()
            .map(|r| cfg.enable_direct && r.nnz_a <= 1)
            .collect();
        let dense: Vec<Option<usize>> = (0..n)
            .map(|r| {
                (!direct[r]
                    && cfg.enable_dense
                    && entries[r] as f64 > cfg.symbolic_dense_factor * largest_cap)
                    .then_some(cascade.largest())
            })
            .collect();
        let t = &cfg.thresholds;
        let thr = (
            t.symbolic_ratio,
            t.symbolic_min_rows,
            t.symbolic_ratio_large,
            t.symbolic_min_rows_large,
        );
        let cut = cascade.len() - 3;
        let name = "symbolic_binning";
        plan_pass(
            dev,
            cost,
            cascade,
            cfg,
            &entries,
            entry_bytes,
            &dense,
            &direct,
            name,
            thr,
            cut,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn plan_numeric(
        dev: &DeviceConfig,
        cost: &CostModel,
        cascade: &KernelCascade,
        cfg: &SpeckConfig,
        info: &AnalysisInfo,
        row_nnz: &[u32],
        cols_b: usize,
        val_bytes: usize,
    ) -> Plan {
        let n = row_nnz.len();
        let entry_bytes = numeric_entry_bytes(cols_b, val_bytes);
        let entries: Vec<u64> = row_nnz
            .iter()
            .map(|&n| ((n as f64 / cfg.numeric_max_fill).ceil()) as u64)
            .collect();
        let largest = cascade.largest();
        let direct: Vec<bool> = info
            .rows
            .iter()
            .map(|r| cfg.enable_direct && r.nnz_a <= 1)
            .collect();
        let mut dense: Vec<Option<usize>> = vec![None; n];
        if cfg.enable_dense {
            for r in 0..n {
                if direct[r] || row_nnz[r] == 0 {
                    continue;
                }
                match fit_hash(cascade, entries[r] as usize, entry_bytes) {
                    None => dense[r] = Some(largest),
                    Some(idx) if idx == largest => dense[r] = Some(largest),
                    Some(idx) => {
                        let range = info.rows[r].col_range();
                        let density = if range == 0 {
                            0.0
                        } else {
                            row_nnz[r] as f64 / range as f64
                        };
                        let slots = cascade.dense_numeric_slots(idx, val_bytes);
                        if density >= cfg.dense_min_density && dense_iterations(range, slots) <= 3 {
                            dense[r] = Some(idx);
                        }
                    }
                }
            }
        }
        let t = &cfg.thresholds;
        let thr = (
            t.numeric_ratio,
            t.numeric_min_rows,
            t.numeric_ratio_large,
            t.numeric_min_rows_large,
        );
        let cut = cascade.len() - 2;
        let name = "numeric_binning";
        plan_pass(
            dev,
            cost,
            cascade,
            cfg,
            &entries,
            entry_bytes,
            &dense,
            &direct,
            name,
            thr,
            cut,
        )
    }
}

/// `A` and `B` of one planner case: `family` picks uniform (with empty
/// rows), rmat, banded, block-diagonal, rectangular `A·Aᵀ`, hub rows or a
/// 0-row matrix; `size` and `seed` shape it.
fn planner_operands(family: u32, size: usize, seed: u64) -> (Csr<f64>, Csr<f64>) {
    let square = |a: Csr<f64>| (a.clone(), a);
    let fill = 0.3 + (seed % 8) as f64 / 10.0;
    match family {
        0 => square(uniform_random(1 + size, 1 + size, 0, 1 + size % 12, seed)),
        1 => square(rmat(
            4 + (size % 6) as u32,
            2 + size % 7,
            0.57,
            0.19,
            0.19,
            seed,
        )),
        2 => square(banded(1 + size, 1 + size % 6, fill, seed)),
        3 => square(block_diagonal(1 + size % 5, 4 + size % 70, fill, seed)),
        4 => {
            let a = rectangular_lp(1 + size / 2, 1 + size * 3, 0, 1 + size % 9, seed);
            let at = transpose(&a);
            (a, at)
        }
        5 => square(with_hub_rows(
            100 + size * 3,
            1,
            1 + size % 4,
            40 + size,
            seed,
        )),
        _ => square(Csr::empty(0, 0)),
    }
}

/// Requires `new` to match the reference plan `old`: gate provenance,
/// every launch's (method, cfg, rows), the load-balancing launches (name,
/// grid, cycles) and bookkeeping, and the method counts and rows-per-block
/// histogram the pass's metrics record.
fn assert_plans_match(new: &PassPlan, old: &reference::Plan, pass: &'static str) {
    assert_eq!(new.gate, old.gate, "{pass} gate");
    let got: Vec<(AccMethod, usize, Vec<Vec<u32>>)> = new
        .launches
        .iter()
        .map(|l| {
            let blocks = l.blocks.clone().map(|b| new.block_rows(b).to_vec());
            (l.method, l.cfg_idx, blocks.collect())
        })
        .collect();
    assert_eq!(got, reference::launches(old), "{pass} launches");
    let lb = |reports: &[KernelReport]| -> Vec<(String, usize, u64)> {
        reports
            .iter()
            .map(|r| (r.name.to_string(), r.grid, r.sim_cycles.to_bits()))
            .collect()
    };
    assert_eq!(
        lb(&new.lb_reports),
        lb(&old.lb_reports),
        "{pass} lb reports"
    );
    assert_eq!(new.lb_alloc_bytes, old.lb_alloc_bytes, "{pass} lb bytes");

    let registry = MetricsRegistry::new();
    new.record_metrics(&registry, pass);
    let snap = registry.snapshot();
    let mut counts = [0u64; 3];
    let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
    for (method, _, rows) in &old.blocks {
        counts[*method as usize] += 1;
        *buckets
            .entry(64 - (rows.len() as u64).leading_zeros())
            .or_default() += 1;
    }
    for (name, n) in ["blocks_hash", "blocks_dense", "blocks_direct"]
        .iter()
        .zip(counts)
    {
        assert_eq!(
            snap.counters[&format!("sim/lb/{pass}/{name}")],
            n,
            "{pass} {name}"
        );
    }
    let h = &snap.histograms[&format!("sim/lb/{pass}/rows_per_block")];
    let sum: usize = old.blocks.iter().map(|b| b.2.len()).sum();
    assert_eq!(h.count, old.blocks.len() as u64, "{pass} histogram count");
    assert_eq!(h.sum, sum as u64, "{pass} histogram sum");
    assert_eq!(h.buckets, buckets.into_iter().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_planner_matches_per_row_reference(
        family in 0u32..7,
        size in 0usize..400,
        seed in 0u64..1_000,
        knobs in 0u32..256,
    ) {
        let (a, b) = planner_operands(family, size, seed);
        let row_nnz: Vec<u32> = spgemm_row_nnz(&a, &b).iter().map(|&n| n as u32).collect();
        for dev in [DeviceConfig::titan_v(), DeviceConfig::tiny()] {
            let cost = CostModel::default();
            let cascade = KernelCascade::for_device(&dev);
            let (info, _) = analyze(&dev, &cost, &a, &b);
            for mode in [GlobalLbMode::Auto, GlobalLbMode::AlwaysOn, GlobalLbMode::AlwaysOff] {
                for flags in 0..8u32 {
                    // Per-case knobs move the dense cut-offs, so the dense
                    // paths run on small operands too.
                    let cfg = SpeckConfig {
                        global_lb: mode,
                        enable_dense: flags & 1 != 0,
                        enable_direct: flags & 2 != 0,
                        block_merge: flags & 4 != 0,
                        symbolic_dense_factor: [2.0, 0.05, 0.0, 0.5][(knobs % 4) as usize],
                        dense_min_density: [0.18, 0.02, 0.6, 0.0][(knobs / 4 % 4) as usize],
                        numeric_max_fill: [0.66, 1.0, 0.3, 0.9][(knobs / 16 % 4) as usize],
                        ..SpeckConfig::default()
                    };
                    let new = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, b.cols(), BlockRecords::Skip);
                    let old = reference::plan_symbolic(&dev, &cost, &cascade, &cfg, &info, b.cols());
                    assert_plans_match(&new, &old, "symbolic");
                    for val_bytes in [4, 8] {
                        let (new, _) = plan_numeric(
                            &dev, &cost, &cascade, &cfg, &info, &row_nnz, b.cols(), val_bytes,
                            BlockRecords::Skip,
                        );
                        let old = reference::plan_numeric(
                            &dev, &cost, &cascade, &cfg, &info, &row_nnz, b.cols(), val_bytes,
                        );
                        assert_plans_match(new.plan(), &old, "numeric");
                        prop_assert_eq!(new.row_ptr(), &row_ptr_from_nnz(&row_nnz)[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn numeric_entries_is_the_float_ceiling(
        nnz in 0u32..u32::MAX,
        fill_bits in 0u64..u64::MAX,
        pick in 0usize..12,
    ) {
        // Arbitrary bit patterns (NaN, infinities, negatives, subnormals)
        // and the fill rates configurations use.
        let fill = [
            f64::from_bits(fill_bits), 0.66, 1.0, 0.3, 1e-300, 5e-324, 0.0, -0.0, -0.5,
            f64::INFINITY, f64::NAN, 1e300,
        ][pick];
        let nnz = if pick % 3 == 0 { nnz } else { nnz % 10_000 };
        prop_assert_eq!(numeric_entries(nnz, fill), ((nnz as f64 / fill).ceil()) as u64);
    }
}

//! Local load balancing — dynamic selection of `g`, the number of threads
//! cooperating on one row of B (paper §3.2, §4.3, Fig. 1).
//!
//! The block's `T` threads are divided into `k = T/g` groups that take NZ
//! of A (and hence rows of B) successively. `g` starts at the average
//! referenced row length, is corrected when the longest row would need
//! disproportionately many iterations (`iter_max` vs `n_rows` rule), is
//! clamped so every thread has work, and is rounded to a power of two.

use crate::config::LocalLbMode;
use speck_simt::{simulate_group_rounds, Divisor};

/// Rounds to the nearest power of two (ties go up), result >= 1.
fn round_pow2(x: f64) -> usize {
    if x <= 1.0 {
        return 1;
    }
    let l = x.log2().round().max(0.0) as u32;
    1usize << l.min(20)
}

/// Selects the group size for one block.
///
/// * `threads` — block size `T`.
/// * `nnz_a` — number of NZ of A processed by the block (= rows of B).
/// * `products` — total products of the block (sum of B row lengths).
/// * `max_b_row` — longest referenced row of B.
pub fn select_group_size(
    mode: LocalLbMode,
    threads: usize,
    nnz_a: u64,
    products: u64,
    max_b_row: u64,
) -> usize {
    match mode {
        LocalLbMode::Fixed(g) => g.min(threads).max(1),
        LocalLbMode::Dynamic => {
            if nnz_a == 0 || products == 0 {
                return 1;
            }
            // Start from the average referenced row length.
            let avg = products as f64 / nnz_a as f64;
            let mut g = avg.max(1.0);

            // Straggler correction: compare the iterations of the longest
            // row against the number of rows each group processes.
            let iter_max = (max_b_row as f64 / g).ceil().max(1.0);
            let k = (threads as f64 / g).max(1.0);
            let n_rows = (nnz_a as f64 / k).max(1.0);
            if iter_max > 2.0 * n_rows {
                g *= iter_max / (2.0 * n_rows);
            } else if n_rows > 2.0 * iter_max {
                g *= iter_max / n_rows;
            }

            let mut g = round_pow2(g).clamp(1, threads);
            // Never leave threads without any NZ of A: k <= nnz_a (the
            // paper reduces k when there are more groups than work items).
            while ((threads / g).max(1) as u64) > nnz_a && g < threads {
                g *= 2;
            }
            g
        }
    }
}

/// Iterations a block of `threads` threads needs at group size `g` for
/// the given per-task B row lengths (one task per NZ of A) — what the hash
/// kernels charge as issue rounds, and what tests use to count how close
/// dynamic `g` comes to optimal (paper Fig. 13: within 1.02x on average).
pub fn rounds_for_g(g: usize, threads: usize, b_row_lens: impl IntoIterator<Item = u64>) -> u64 {
    let g = g.max(1);
    let k = (threads / g).max(1);
    let per_task = Divisor::new(g as u64);
    simulate_group_rounds(k, b_row_lens.into_iter().map(|l| per_task.quotient_ceil(l)))
}

/// Work/span lower bound on the issue rounds a block needs at group size
/// `g`, from the same summary features [`select_group_size`] consulted
/// (`nnz_a` tasks totalling `products` B entries, longest row
/// `max_b_row`). Total group iterations are `sum(ceil(l_r / g)) >=
/// max(ceil(products / g), nnz_a)` — the `nnz_a` floor is what makes
/// oversized groups expensive (idle lanes still cost a round per task,
/// paper Fig. 1/13). The work bound spreads those iterations over the
/// `k = T/g` groups; the span bound is the longest row alone. The
/// decision-audit layer scales a block's *measured* rounds by the ratio
/// of these estimates to shadow-cost a rejected group size.
pub fn estimated_rounds(
    g: usize,
    threads: usize,
    nnz_a: u64,
    products: u64,
    max_b_row: u64,
) -> u64 {
    if nnz_a == 0 || products == 0 {
        return 1;
    }
    let g = g.max(1) as u64;
    let k = ((threads as u64) / g).max(1);
    let iters = products.div_ceil(g).max(nnz_a);
    let work = iters.div_ceil(k);
    let span = max_b_row.div_ceil(g);
    work.max(span).max(1)
}

/// The group sizes the dynamic selector rejected in favour of `g`: the
/// neighbouring powers of two (half and double), clamped to
/// `[1, threads]` — the counterfactual candidates a decision audit
/// shadow-costs against the chosen `g`.
pub fn alternative_group_sizes(g: usize, threads: usize) -> Vec<usize> {
    let g = g.clamp(1, threads.max(1));
    let mut alts = Vec::new();
    if g > 1 {
        alts.push(g / 2);
    }
    if g.saturating_mul(2) <= threads {
        alts.push(g * 2);
    }
    alts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_clamps_to_block() {
        assert_eq!(
            select_group_size(LocalLbMode::Fixed(32), 1024, 10, 100, 10),
            32
        );
        assert_eq!(
            select_group_size(LocalLbMode::Fixed(64), 32, 10, 100, 10),
            32
        );
        assert_eq!(select_group_size(LocalLbMode::Fixed(0), 32, 10, 100, 10), 1);
    }

    #[test]
    fn dynamic_tracks_average_row_length() {
        // Uniform rows: g starts at the average length and may shrink when
        // there are many rows per group (the paper prioritises low n_rows).
        let g8 = select_group_size(LocalLbMode::Dynamic, 256, 100, 800, 8);
        assert!((2..=8).contains(&g8), "g8={g8}");
        let g2 = select_group_size(LocalLbMode::Dynamic, 256, 400, 800, 2);
        assert!(g2 <= 2, "g2={g2}");
        // Longer average rows must not get a smaller g than shorter ones.
        let g32 = select_group_size(LocalLbMode::Dynamic, 256, 100, 3200, 32);
        assert!(g32 >= g8, "g32={g32} g8={g8}");
    }

    #[test]
    fn straggler_increases_g() {
        // avg 4, but one row of 4096: iter_max=1024 dwarfs n_rows -> grow g.
        let g_skew = select_group_size(LocalLbMode::Dynamic, 256, 100, 400 + 4096, 4096);
        let g_flat = select_group_size(LocalLbMode::Dynamic, 256, 100, 400, 4);
        assert!(g_skew > g_flat, "g_skew={g_skew} g_flat={g_flat}");
    }

    #[test]
    fn many_short_rows_shrink_g_for_more_groups() {
        // avg 32 with tons of rows: n_rows per group large, iter_max 1 ->
        // n_rows > 2*iter_max reduces g.
        let g = select_group_size(LocalLbMode::Dynamic, 64, 10_000, 320_000, 32);
        assert!(g <= 32);
    }

    #[test]
    fn never_more_groups_than_work() {
        // 4 NZ of A on a 256-thread block: k must be <= 4 -> g >= 64.
        let g = select_group_size(LocalLbMode::Dynamic, 256, 4, 16, 4);
        assert!(g >= 64, "g={g}");
    }

    #[test]
    fn result_is_power_of_two_within_block() {
        for &(nnz, prod, mx) in &[(7u64, 93u64, 40u64), (1000, 3000, 3), (5, 5000, 4000)] {
            let g = select_group_size(LocalLbMode::Dynamic, 512, nnz, prod, mx);
            assert!(g.is_power_of_two());
            assert!(g <= 512);
        }
    }

    #[test]
    fn empty_block_yields_one() {
        assert_eq!(select_group_size(LocalLbMode::Dynamic, 128, 0, 0, 0), 1);
    }

    #[test]
    fn dynamic_beats_fixed_32_on_short_rows() {
        // The Fig. 13 effect: rows of length 2 with g=32 waste 16x the
        // iterations' parallel width.
        let lens: Vec<u64> = vec![2; 512];
        let g_dyn = select_group_size(LocalLbMode::Dynamic, 256, 512, 1024, 2);
        let r_dyn = rounds_for_g(g_dyn, 256, lens.iter().copied());
        let r_fix = rounds_for_g(32, 256, lens.iter().copied());
        assert!(
            r_dyn * 4 <= r_fix,
            "dynamic rounds {r_dyn} vs fixed-32 rounds {r_fix}"
        );
    }

    #[test]
    fn group_size_boundaries_one_and_thread_cap() {
        // g pinned at the low boundary.
        assert_eq!(
            select_group_size(LocalLbMode::Fixed(1), 1024, 10, 100, 10),
            1
        );
        // Fixed g above the block size clamps to the thread-count cap.
        assert_eq!(
            select_group_size(LocalLbMode::Fixed(usize::MAX), 128, 10, 100, 10),
            128
        );
        // Dynamic with one giant row saturates at g == threads.
        assert_eq!(
            select_group_size(LocalLbMode::Dynamic, 64, 1, 1 << 20, 1 << 20),
            64
        );
        // Dynamic with uniform length-1 rows and ample work stays at g == 1.
        assert_eq!(
            select_group_size(LocalLbMode::Dynamic, 64, 4096, 4096, 1),
            1
        );
    }

    #[test]
    fn estimated_rounds_work_and_span_bounds() {
        // Empty block: one round by convention, like the selector's g=1.
        assert_eq!(estimated_rounds(32, 256, 0, 0, 0), 1);
        // Span-bound: one row of 4096 at g=32 needs 128 iterations.
        assert_eq!(estimated_rounds(32, 256, 1, 4096, 4096), 128);
        // Work-bound: 8 groups of g=32 over 2048 products -> 8 rounds.
        assert_eq!(estimated_rounds(32, 256, 64, 2048, 32), 8);
        // Oversized groups idle lanes: every task still needs at least
        // one round, and fewer groups serialise the tasks (the Fig. 1/13
        // waste the dynamic selector avoids).
        assert_eq!(estimated_rounds(256, 256, 64, 2048, 32), 64);
        // Undersized groups stretch the longest row (straggler span).
        assert_eq!(estimated_rounds(1, 256, 1, 4096, 4096), 4096);
    }

    #[test]
    fn alternative_group_sizes_are_neighbours_within_block() {
        assert_eq!(alternative_group_sizes(32, 256), vec![16, 64]);
        // At the boundaries only the inward neighbour survives.
        assert_eq!(alternative_group_sizes(1, 256), vec![2]);
        assert_eq!(alternative_group_sizes(256, 256), vec![128]);
        // Degenerate one-thread block has no alternatives at all.
        assert_eq!(alternative_group_sizes(1, 1), Vec::<usize>::new());
        for &(g, t) in &[(8usize, 64usize), (1, 32), (64, 64)] {
            for alt in alternative_group_sizes(g, t) {
                assert!(alt >= 1 && alt <= t && alt != g);
                assert!(alt.is_power_of_two());
            }
        }
    }

    #[test]
    fn dynamic_close_to_best_g() {
        // Sweep candidate g over mixed row lengths; dynamic should land
        // within 2x of the best (paper reports 1.02x on average).
        let lens: Vec<u64> = (0..200).map(|i| 1 + (i % 17) as u64).collect();
        let total: u64 = lens.iter().sum();
        let max = *lens.iter().max().unwrap();
        let g_dyn = select_group_size(LocalLbMode::Dynamic, 256, lens.len() as u64, total, max);
        let r_dyn = rounds_for_g(g_dyn, 256, lens.iter().copied());
        let best = (0..=8)
            .map(|l| rounds_for_g(1 << l, 256, lens.iter().copied()))
            .min()
            .unwrap();
        assert!(r_dyn <= 2 * best, "dyn {r_dyn} vs best {best}");
    }
}

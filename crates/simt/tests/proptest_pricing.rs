//! Property-based tests of block pricing: the shift-and-mask arithmetic
//! `BlockCtx` uses for power-of-two group, block and transaction sizes
//! must charge exactly what the plain division formulas charge, for
//! power-of-two and other sizes alike.

use proptest::prelude::*;
use speck_simt::{
    launch_map, simulate_group_rounds, BlockCost, BlockRecords, CostModel, DeviceConfig, Divisor,
    KernelConfig,
};

/// `(warp_size, transaction_bytes)` of the devices priced: the paper's
/// device, a wider transaction, and sizes that are not powers of two.
const DEVICES: [(usize, usize); 5] = [(32, 32), (32, 128), (24, 48), (7, 33), (1, 1)];

/// The division formulas the pricing must reproduce.
mod oracle {
    pub fn stream_tx(tx_bytes: usize, g: usize, len: usize, elem_bytes: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let g = g.max(1);
        let full = (len / g) as u64;
        let mut tx = full * ((g * elem_bytes).div_ceil(tx_bytes) as u64);
        let rem = len % g;
        if rem > 0 {
            tx += (rem * elem_bytes).div_ceil(tx_bytes) as u64;
        }
        tx
    }

    pub fn stream_rounds(g: usize, len: usize) -> u64 {
        len.div_ceil(g.max(1)) as u64
    }

    pub fn warps(threads: usize, warp_size: usize) -> u64 {
        (threads as u64).div_ceil(warp_size as u64)
    }

    pub fn group_rounds(k: usize, tasks: &[u64]) -> u64 {
        let total: u64 = tasks.iter().sum();
        let longest = tasks.iter().copied().max().unwrap_or(0);
        longest.max(total.div_ceil(k.max(1) as u64))
    }
}

/// Sizes in 1..=1024, half of them powers of two.
fn size() -> impl Strategy<Value = usize> {
    (0usize..2, 0u32..=10, 1usize..=1024)
        .prop_map(|(pow2, e, x)| if pow2 == 0 { 1 << e } else { x })
}

/// Lengths from 0 to 10^6, a third of them under 70 so empty streams and
/// partial last rounds are common.
fn length() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..=1_000_000, 0usize..70)
        .prop_map(|(small, big, s)| if small == 0 { s } else { big })
}

/// Any `u64`, with `u64::MAX` and values under 4096 common.
fn dividend() -> impl Strategy<Value = u64> {
    (0usize..4, 0u64..u64::MAX).prop_map(|(edge, x)| match edge {
        0 => u64::MAX,
        1 => x % 4096,
        _ => x,
    })
}

fn device(i: usize) -> DeviceConfig {
    let (warp_size, transaction_bytes) = DEVICES[i];
    DeviceConfig {
        warp_size,
        transaction_bytes,
        ..DeviceConfig::titan_v()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn block_charges_match_the_division_formulas(
        dev_idx in 0usize..DEVICES.len(),
        threads in size(),
        g in size(),
        len in length(),
        elem_bytes in 1usize..=16,
        n in 0u64..=1_000_000,
    ) {
        let dev = device(dev_idx);
        let cfg = KernelConfig::new(threads, 0);
        let tx_bytes = dev.transaction_bytes;
        let warps = oracle::warps(threads, dev.warp_size);
        let (report, got) = launch_map(
            &dev,
            &CostModel::default(),
            "pricing",
            1,
            cfg,
            BlockRecords::Skip,
            |ctx| {
                let tx = ctx.stream_tx(g, len, elem_bytes);
                let thread_rounds = ctx.thread_rounds(n);
                ctx.charge_rounds(n);
                let after_rounds = *ctx.cost();
                let stream_rounds = ctx.charge_gmem_stream(g, len, elem_bytes);
                let after_stream = *ctx.cost();
                let store_rounds = ctx.charge_gmem_store(len, elem_bytes);
                (ctx.warps(), tx, thread_rounds, after_rounds, stream_rounds, after_stream, store_rounds)
            },
        );
        let (got_warps, tx, thread_rounds, after_rounds, stream_rounds, after_stream, store_rounds) =
            got[0];
        prop_assert_eq!(got_warps, warps);
        prop_assert_eq!(tx, oracle::stream_tx(tx_bytes, g, len, elem_bytes));
        prop_assert_eq!(thread_rounds, n.div_ceil(threads as u64));

        let mut want = BlockCost { issue_rounds: n * warps, ..BlockCost::default() };
        prop_assert_eq!(after_rounds, want);

        prop_assert_eq!(stream_rounds, oracle::stream_rounds(g, len));
        want.issue_rounds += oracle::stream_rounds(g, len) * warps;
        want.gmem_tx += oracle::stream_tx(tx_bytes, g, len, elem_bytes);
        prop_assert_eq!(after_stream, want);

        prop_assert_eq!(store_rounds, oracle::stream_rounds(threads, len));
        want.issue_rounds += oracle::stream_rounds(threads, len) * warps;
        want.gmem_tx += oracle::stream_tx(tx_bytes, threads, len, elem_bytes);
        prop_assert_eq!(report.total_cost, want);
    }

    #[test]
    fn group_rounds_match_the_division_formula(
        k in size(),
        tasks in proptest::collection::vec(0u64..=1_000_000, 0..40),
    ) {
        prop_assert_eq!(
            simulate_group_rounds(k, tasks.iter().copied()),
            oracle::group_rounds(k, &tasks)
        );
    }

    #[test]
    fn divisor_matches_integer_division(d in size(), x in dividend()) {
        let div = Divisor::new(d as u64);
        let d = d as u64;
        prop_assert_eq!(div.get(), d);
        prop_assert_eq!(div.quotient_ceil(x), x.div_ceil(d));
        prop_assert_eq!(div.quotient_rem(x), (x / d, x % d));
    }
}

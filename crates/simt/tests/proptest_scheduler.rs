//! Property-based tests of the simulator's scheduler: agreement with the
//! naive scan it replaces, lower bounds, monotonicity and determinism on
//! arbitrary block-cost distributions.

use proptest::prelude::*;
use speck_simt::exec::{schedule_blocks, schedule_blocks_placed};
use speck_simt::{launch, BlockPlacement, BlockRecords, CostModel, DeviceConfig, KernelConfig};

/// The greedy deal as the plain O(grid · num_SMs) scan: each block goes
/// to the SM with the least serial load so far (strict `<`, so the lowest
/// index wins ties) and to that SM's earliest-free resident slot. Returns
/// the makespan and every placement.
fn reference_deal(
    dev: &DeviceConfig,
    cfg: KernelConfig,
    blocks: &[(f64, f64)],
) -> (f64, Vec<BlockPlacement>) {
    let sms = dev.num_sms;
    let slots = dev.blocks_per_sm(cfg.threads, cfg.scratch_bytes);
    let mut compute = vec![0.0f64; sms];
    let mut memory = vec![0.0f64; sms];
    let mut serial = vec![0.0f64; sms];
    let mut longest = vec![0.0f64; sms];
    let mut slot_end = vec![0.0f64; sms * slots];
    let mut placements = Vec::new();
    for &(c, m) in blocks {
        let mut sm = 0;
        for s in 1..sms {
            if serial[s] < serial[sm] {
                sm = s;
            }
        }
        let path = c.max(m);
        compute[sm] += c;
        memory[sm] += m;
        serial[sm] += path;
        longest[sm] = longest[sm].max(path);
        let mut slot = 0;
        for s in 1..slots {
            if slot_end[sm * slots + s] < slot_end[sm * slots + slot] {
                slot = s;
            }
        }
        let start = slot_end[sm * slots + slot];
        slot_end[sm * slots + slot] = start + path;
        placements.push(BlockPlacement {
            sm: sm as u32,
            slot: slot as u32,
            start_cycles: start,
            end_cycles: start + path,
        });
    }
    let makespan = (0..sms)
        .map(|s| {
            compute[s]
                .max(memory[s])
                .max(longest[s])
                .max(serial[s] / slots as f64)
        })
        .fold(0.0f64, f64::max);
    (makespan, placements)
}

/// Block costs drawn from a few values, so ties between SM loads are
/// common, zero-cost blocks appear, and a large value makes stragglers.
fn tied_blocks_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    const VALUES: [f64; 6] = [0.0, 0.0, 1.0, 2.0, 2.5, 1_000.0];
    proptest::collection::vec(
        (0usize..VALUES.len(), 0usize..VALUES.len()).prop_map(|(c, m)| (VALUES[c], VALUES[m])),
        0..40,
    )
}

fn blocks_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec(
        (0u32..100_000, 0u32..100_000).prop_map(|(c, m)| (c as f64, m as f64)),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn deal_matches_the_naive_scan(
        num_sms in 1usize..13,
        max_blocks_per_sm in 1usize..5,
        blocks in tied_blocks_strategy(),
    ) {
        // Grids from empty to a few blocks per SM, most of them smaller
        // than the SM count; one to four resident slots per SM.
        let mut dev = DeviceConfig::tiny();
        dev.num_sms = num_sms;
        dev.max_blocks_per_sm = max_blocks_per_sm;
        let cfg = KernelConfig::new(32, 0);
        prop_assert_eq!(dev.blocks_per_sm(cfg.threads, cfg.scratch_bytes), max_blocks_per_sm);
        let (want, want_placements) = reference_deal(&dev, cfg, &blocks);
        let mut placements = Vec::new();
        let placed = schedule_blocks_placed(&dev, cfg, &blocks, Some(&mut placements));
        prop_assert_eq!(placed.to_bits(), want.to_bits());
        prop_assert_eq!(schedule_blocks(&dev, cfg, &blocks).to_bits(), want.to_bits());
        prop_assert_eq!(placements, want_placements);
    }

    #[test]
    fn deal_matches_the_naive_scan_on_titan_v(blocks in blocks_strategy()) {
        // Arbitrary costs on the paper's 80-SM device.
        let dev = DeviceConfig::titan_v();
        let cfg = KernelConfig::new(256, 8 * 1024);
        let (want, want_placements) = reference_deal(&dev, cfg, &blocks);
        let mut placements = Vec::new();
        let placed = schedule_blocks_placed(&dev, cfg, &blocks, Some(&mut placements));
        prop_assert_eq!(placed.to_bits(), want.to_bits());
        prop_assert_eq!(schedule_blocks(&dev, cfg, &blocks).to_bits(), want.to_bits());
        prop_assert_eq!(placements, want_placements);
    }

    #[test]
    fn makespan_respects_lower_bounds(blocks in blocks_strategy()) {
        let dev = DeviceConfig::titan_v();
        let cfg = KernelConfig::new(256, 8 * 1024);
        let t = schedule_blocks(&dev, cfg, &blocks);
        // Never below the single most expensive block.
        let max_serial = blocks
            .iter()
            .map(|&(c, m)| c.max(m))
            .fold(0.0f64, f64::max);
        prop_assert!(t >= max_serial - 1e-9);
        // Never below total work spread over all SMs.
        let total_c: f64 = blocks.iter().map(|b| b.0).sum();
        let total_m: f64 = blocks.iter().map(|b| b.1).sum();
        let sms = dev.num_sms as f64;
        prop_assert!(t >= total_c / sms - 1e-9);
        prop_assert!(t >= total_m / sms - 1e-9);
        // And never above fully serial execution on one SM.
        let serial: f64 = blocks.iter().map(|&(c, m)| c.max(m)).sum();
        prop_assert!(t <= serial + 1e-9);
    }

    #[test]
    fn adding_work_never_speeds_up(blocks in blocks_strategy(), extra in 0u32..100_000) {
        let dev = DeviceConfig::titan_v();
        let cfg = KernelConfig::new(128, 0);
        let t1 = schedule_blocks(&dev, cfg, &blocks);
        let mut more = blocks.clone();
        more.push((extra as f64, extra as f64 / 2.0));
        let t2 = schedule_blocks(&dev, cfg, &more);
        prop_assert!(t2 >= t1 - 1e-9);
    }

    #[test]
    fn lower_occupancy_never_speeds_up(blocks in blocks_strategy()) {
        let dev = DeviceConfig::titan_v();
        let high = KernelConfig::new(256, 4 * 1024); // many resident blocks
        let low = KernelConfig::new(256, 96 * 1024); // one resident block
        let t_high = schedule_blocks(&dev, high, &blocks);
        let t_low = schedule_blocks(&dev, low, &blocks);
        prop_assert!(t_low >= t_high - 1e-9);
    }

    #[test]
    fn launch_is_deterministic_for_random_charges(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..64),
    ) {
        let dev = DeviceConfig::tiny();
        let cost = CostModel::default();
        let run = || {
            let cfg = KernelConfig::new(64, 0);
            launch(&dev, &cost, "prop", seeds.len(), cfg, BlockRecords::Skip, |ctx| {
                let s = seeds[ctx.block_id()];
                ctx.charge_rounds(s % 97);
                ctx.charge_gmem_tx(s % 31);
                ctx.charge_gmem_scatter(s % 13);
                if s % 5 == 0 {
                    ctx.charge_sync();
                }
            })
            .sim_cycles
        };
        prop_assert_eq!(run(), run());
    }
}

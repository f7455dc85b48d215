//! Host cost of a kernel launch: times plain launches of an empty kernel
//! (two charge calls per block, Titan V shape, 256 threads) at several
//! grid sizes and prints the best time per launch and per block, on one
//! pool thread and at the default pool width side by side.
//!
//! ```sh
//! cargo run --release -p speck-simt --example launch_overhead [ROUNDS]
//! RAYON_NUM_THREADS=1 cargo run --release -p speck-simt --example launch_overhead
//! ```
//!
//! Each round times enough back-to-back launches to cover about 400,000
//! blocks; the best of `ROUNDS` rounds (default 5) is reported, so the
//! figures read the launch machinery, not the machine's noisiest moment.
//! The pool's width is fixed when it starts, so on a pool wider than one
//! thread the one-thread column comes from a run of this program with
//! `RAYON_NUM_THREADS=1`, whose table (the one-thread table alone) is
//! read back.

use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const GRIDS: [usize; 5] = [1, 50, 400, 4_000, 40_000];
const BLOCKS_PER_ROUND: usize = 400_000;

/// Best seconds per launch of `grid` blocks over `rounds` rounds, and the
/// launches per round.
fn time_grid(grid: usize, rounds: usize) -> (f64, usize) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = KernelConfig::new(256, 0);
    let launches = (BLOCKS_PER_ROUND / grid).max(1);
    let best = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..launches {
                let r = launch(&dev, &cost, "empty", grid, cfg, BlockRecords::Skip, |ctx| {
                    ctx.charge_rounds(1);
                    ctx.charge_gmem_tx(2);
                });
                black_box(r.sim_cycles);
            }
            start.elapsed().as_secs_f64() / launches as f64
        })
        .fold(f64::INFINITY, f64::min);
    (best, launches)
}

/// `(grid, us per launch)` rows of a one-thread run of this program.
fn one_thread_rows(rounds: usize) -> Vec<(usize, f64)> {
    let exe = std::env::current_exe().expect("the example knows its own path");
    let out = Command::new(exe)
        .arg(rounds.to_string())
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .expect("the one-thread run starts");
    assert!(out.status.success(), "the one-thread run failed");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let grid = cols.next()?.parse().ok()?;
            let us = cols.nth(1)?.parse().ok()?;
            Some((grid, us))
        })
        .collect()
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ROUNDS must be a positive integer"))
        .unwrap_or(5)
        .max(1);
    let threads = rayon::current_num_threads();
    if threads == 1 {
        println!("empty launch, 1 pool thread, best of {rounds} rounds");
        println!(
            "{:>8} {:>10} {:>14} {:>12}",
            "grid", "launches", "us/launch", "ns/block"
        );
        for grid in GRIDS {
            let (best, launches) = time_grid(grid, rounds);
            println!(
                "{grid:>8} {launches:>10} {:>14.3} {:>12.1}",
                best * 1e6,
                best * 1e9 / grid as f64
            );
        }
        return;
    }
    let one = one_thread_rows(rounds);
    println!("empty launch, best of {rounds} rounds, 1 pool thread and {threads}");
    println!(
        "{:>8} {:>10} {:>14} {:>12} {:>14} {:>12}",
        "grid",
        "launches",
        "us/launch 1t",
        "ns/block 1t",
        format!("us/launch {threads}t"),
        format!("ns/block {threads}t")
    );
    for grid in GRIDS {
        let one_us = one
            .iter()
            .find(|&&(g, _)| g == grid)
            .map_or(f64::NAN, |&(_, us)| us);
        let (best, launches) = time_grid(grid, rounds);
        println!(
            "{grid:>8} {launches:>10} {one_us:>14.3} {:>12.1} {:>14.3} {:>12.1}",
            one_us * 1e3 / grid as f64,
            best * 1e6,
            best * 1e9 / grid as f64
        );
    }
}

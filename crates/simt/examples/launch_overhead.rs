//! Host cost of a kernel launch: times plain launches of an empty kernel
//! (two charge calls per block, Titan V shape, 256 threads) at several
//! grid sizes and prints the best time per launch and per block, on one
//! pool thread and at the default pool width side by side.
//!
//! The empty kernel's charges are constants, so once it is inlined the
//! compiler folds its block's pricing away. The row `400*` times the same
//! kernel with its charges passed through `black_box`, so its blocks pay
//! the pricing a real kernel's blocks pay.
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

/// The rows timed: label, grid, and whether the kernel's charges pass
/// through `black_box`.
const ROWS: [(&str, usize, bool); 6] = [
    ("1", 1, false),
    ("50", 50, false),
    ("400", 400, false),
    ("4000", 4_000, false),
    ("40000", 40_000, false),
    ("400*", 400, true),
];
const BLOCKS_PER_ROUND: usize = 400_000;

/// Best seconds per launch of `grid` blocks over `rounds` rounds, and the
/// launches per round; `opaque` passes the charges through `black_box`.
fn time_grid(grid: usize, opaque: bool, rounds: usize) -> (f64, usize) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = KernelConfig::new(256, 0);
    let launches = (BLOCKS_PER_ROUND / grid).max(1);
    let once = || {
        let skip = BlockRecords::Skip;
        let r = if opaque {
            launch(&dev, &cost, "opaque", grid, cfg, skip, |ctx| {
                ctx.charge_rounds(black_box(1));
                ctx.charge_gmem_tx(black_box(2));
            })
        } else {
            launch(&dev, &cost, "empty", grid, cfg, skip, |ctx| {
                ctx.charge_rounds(1);
                ctx.charge_gmem_tx(2);
            })
        };
        black_box(r.sim_cycles);
    };
    let best = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..launches {
                once();
            }
            start.elapsed().as_secs_f64() / launches as f64
        })
        .fold(f64::INFINITY, f64::min);
    (best, launches)
}

/// `(label, us per launch)` rows of a one-thread run of this program.
fn one_thread_rows(rounds: usize) -> Vec<(String, f64)> {
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
            let label = cols.next()?;
            ROWS.iter().find(|row| row.0 == label)?;
            let us = cols.nth(1)?.parse().ok()?;
            Some((label.to_string(), us))
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
        for (label, grid, opaque) in ROWS {
            let (best, launches) = time_grid(grid, opaque, rounds);
            println!(
                "{label:>8} {launches:>10} {:>14.3} {:>12.1}",
                best * 1e6,
                best * 1e9 / grid as f64
            );
        }
        println!("* charges passed through black_box");
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
    for (label, grid, opaque) in ROWS {
        let one_us = one
            .iter()
            .find(|(l, _)| l == label)
            .map_or(f64::NAN, |&(_, us)| us);
        let (best, launches) = time_grid(grid, opaque, rounds);
        println!(
            "{label:>8} {launches:>10} {one_us:>14.3} {:>12.1} {:>14.3} {:>12.1}",
            one_us * 1e3 / grid as f64,
            best * 1e6,
            best * 1e9 / grid as f64
        );
    }
    println!("* charges passed through black_box");
}

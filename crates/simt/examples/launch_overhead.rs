//! Host cost of a kernel launch: times plain launches of an empty kernel
//! (two charge calls per block, Titan V shape, 256 threads) at several
//! grid sizes and prints the best time per launch and per block.
//!
//! ```sh
//! cargo run --release -p speck-simt --example launch_overhead [ROUNDS]
//! RAYON_NUM_THREADS=1 cargo run --release -p speck-simt --example launch_overhead
//! ```
//!
//! Each round times enough back-to-back launches to cover about 400,000
//! blocks; the best of `ROUNDS` rounds (default 5) is reported, so the
//! figures read the launch machinery, not the machine's noisiest moment.

use speck_simt::{launch, BlockRecords, CostModel, DeviceConfig, KernelConfig};
use std::hint::black_box;
use std::time::Instant;

const GRIDS: [usize; 4] = [1, 400, 4_000, 40_000];
const BLOCKS_PER_ROUND: usize = 400_000;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ROUNDS must be a positive integer"))
        .unwrap_or(5)
        .max(1);
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = KernelConfig::new(256, 0);
    println!(
        "empty launch, {} pool thread(s), best of {rounds} rounds",
        rayon::current_num_threads()
    );
    println!(
        "{:>8} {:>10} {:>14} {:>12}",
        "grid", "launches", "us/launch", "ns/block"
    );
    for grid in GRIDS {
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
        println!(
            "{grid:>8} {launches:>10} {:>14.3} {:>12.1}",
            best * 1e6,
            best * 1e9 / grid as f64
        );
    }
}

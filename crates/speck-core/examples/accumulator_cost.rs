//! Host cost per product of the accumulator paths: times the symbolic and
//! numeric passes (`run_symbolic`, `run_numeric`) with every row routed to
//! one accumulator, and the sequential reference Gustavson (`spgemm_seq`)
//! on the same operands, and prints the best host nanoseconds per product.
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo run --release -p speck-core --example accumulator_cost [ROUNDS]
//! ```
//!
//! Run it on one pool thread: the figure then reads the work of each path,
//! not its parallel speed-up. The best of `ROUNDS` rounds (default 5) is
//! reported. Operands are two Table-4 stand-ins: `TSC_OPF`
//! (`block_diagonal(6, 96, 1.0)`, long dense rows, so nearly every hash
//! insert hits a key already in the map) and `webbase` (`rmat(13, 3)`,
//! short power-law rows, so most inserts claim a new key). `share` is the
//! fraction of the products that the timed accumulator computes; the rest
//! go through the pass's other blocks.

use speck_core::analysis::AnalysisInfo;
use speck_core::global_lb::{plan_numeric, plan_symbolic, AccMethod, PassPlan};
use speck_core::numeric::run_numeric;
use speck_core::symbolic::run_symbolic;
use speck_core::workspace::WorkspacePool;
use speck_core::{analyze, KernelCascade, SpeckConfig};
use speck_simt::{BlockRecords, CostModel, DeviceConfig};
use speck_sparse::gen::{block_diagonal, rmat};
use speck_sparse::reference::spgemm_seq;
use speck_sparse::Csr;
use std::hint::black_box;
use std::time::Instant;

/// Best wall seconds of `rounds` calls of `f`.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fraction of all products computed by `plan`'s blocks of `method`.
fn share(plan: &PassPlan, info: &AnalysisInfo, method: AccMethod) -> f64 {
    let products = |i: usize| -> u64 {
        plan.block_rows(i)
            .iter()
            .map(|&r| info.rows[r as usize].products)
            .sum()
    };
    let mine: u64 = plan
        .launches
        .iter()
        .filter(|l| l.method == method)
        .flat_map(|l| l.blocks.clone())
        .map(products)
        .sum();
    mine as f64 / info.total_products.max(1) as f64
}

/// The products of `A·B` and the best host seconds of its symbolic and
/// numeric passes under `cfg`, with the share of `method` in each pass.
fn passes(
    rounds: usize,
    cfg: &SpeckConfig,
    a: &Csr<f64>,
    b: &Csr<f64>,
    method: AccMethod,
) -> (u64, [(f64, f64); 2]) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cascade = KernelCascade::for_device(&dev);
    let pool = WorkspacePool::new();
    let skip = BlockRecords::Skip;
    let (info, _) = analyze(&dev, &cost, a, b);
    let splan = plan_symbolic(&dev, &cost, &cascade, cfg, &info, b.cols(), skip);
    let run_sym = || run_symbolic(&dev, &cost, &cascade, cfg, a, b, &info, &splan, &pool, skip);
    let row_nnz = run_sym().row_nnz;
    let sym_s = best_of(rounds, || {
        black_box(run_sym());
    });
    let (nplan, _) = plan_numeric(
        &dev,
        &cost,
        &cascade,
        cfg,
        &info,
        &row_nnz,
        b.cols(),
        8,
        skip,
    );
    let num_s = best_of(rounds, || {
        black_box(run_numeric(
            &dev, &cost, &cascade, cfg, a, b, &info, &nplan, &pool, skip,
        ));
    });
    (
        info.total_products,
        [
            (sym_s, share(&splan, &info, method)),
            (num_s, share(nplan.plan(), &info, method)),
        ],
    )
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ROUNDS must be a positive integer"))
        .unwrap_or(5)
        .max(1);
    let tsc = block_diagonal(6, 96, 1.0, 1);
    let webbase = rmat(13, 3, 0.57, 0.19, 0.19, 1);
    let hash = SpeckConfig {
        enable_dense: false,
        enable_direct: false,
        ..SpeckConfig::default()
    };
    let dflt = SpeckConfig::default();
    let dense = SpeckConfig {
        enable_direct: false,
        symbolic_dense_factor: 0.0,
        dense_min_density: 0.0,
        ..SpeckConfig::default()
    };
    println!(
        "host cost per product, {} pool thread(s), best of {rounds} rounds",
        rayon::current_num_threads()
    );
    println!(
        "{:<22} {:<9} {:>10} {:>6} {:>12}",
        "path", "matrix", "products", "share", "ns/product"
    );
    let row = |path: &str, matrix: &str, products: u64, share: f64, secs: f64| {
        println!(
            "{path:<22} {matrix:<9} {products:>10} {share:>6.2} {:>12.2}",
            secs * 1e9 / products.max(1) as f64
        );
    };
    for (matrix, m, cfg) in [("TSC_OPF", &tsc, &hash), ("webbase", &webbase, &dflt)] {
        let (products, [sym, num]) = passes(rounds, cfg, m, m, AccMethod::Hash);
        row("symbolic hash", matrix, products, sym.1, sym.0);
        row("numeric hash", matrix, products, num.1, num.0);
    }
    let (products, [sym, num]) = passes(rounds, &dense, &tsc, &tsc, AccMethod::Dense);
    row("symbolic dense", "TSC_OPF", products, sym.1, sym.0);
    row("numeric dense", "TSC_OPF", products, num.1, num.0);
    for (matrix, m) in [("TSC_OPF", &tsc), ("webbase", &webbase)] {
        let products = analyze(&DeviceConfig::titan_v(), &CostModel::default(), m, m)
            .0
            .total_products;
        let secs = best_of(rounds, || {
            black_box(spgemm_seq(m, m));
        });
        row("spgemm_seq", matrix, products, 1.0, secs);
    }
}

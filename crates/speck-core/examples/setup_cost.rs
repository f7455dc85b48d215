//! Host cost per row of the serial set-up between the launches of a cold
//! multiply: the row analysis (its launch plus the host's sweep over the
//! rows' product counts), `plan_symbolic`, `plan_numeric` (which also
//! builds C's row offsets and row-size histogram, and stores its blocks
//! in launch order with the launches as ranges) and the plan metrics
//! (`PassPlan::record_metrics` of both passes), with the sequential
//! reference Gustavson (`spgemm_seq`) per row beside them.
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo run --release -p speck-core --example setup_cost [ROUNDS]
//! ```
//!
//! Run it on one pool thread: the planning steps run on one thread
//! whatever the pool's width, and the analysis launch then reads its work,
//! not its parallel speed-up. The best of `ROUNDS` rounds (default 15) is
//! reported. Operands: `banded(300000, 1, 1.0)` (short rows, one numeric
//! dense block each), the `hugebubbles` stand-in `banded(40000, 2, 0.55)`
//! and `banded(400, 1, 1.0)` (a `small`-workload size). `set-up` sums the
//! three planning steps.

use speck_core::global_lb::{plan_numeric, plan_symbolic};
use speck_core::symbolic::run_symbolic;
use speck_core::workspace::WorkspacePool;
use speck_core::{analyze, KernelCascade, MetricsRegistry, SpeckConfig};
use speck_simt::{BlockRecords, CostModel, DeviceConfig};
use speck_sparse::gen::banded;
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

/// Best host seconds of each step of `A·A`'s set-up, in the order of
/// [`STEPS`].
fn steps(rounds: usize, a: &Csr<f64>) -> [f64; 5] {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cascade = KernelCascade::for_device(&dev);
    let cfg = SpeckConfig::default();
    let skip = BlockRecords::Skip;
    let cols = a.cols();
    let analysis = best_of(rounds, || {
        black_box(analyze(&dev, &cost, a, a));
    });
    let (info, _) = analyze(&dev, &cost, a, a);
    let plan_sym = || plan_symbolic(&dev, &cost, &cascade, &cfg, &info, cols, skip);
    let symbolic = best_of(rounds, || {
        black_box(plan_sym());
    });
    let splan = plan_sym();
    let pool = WorkspacePool::new();
    let row_nnz = run_symbolic(
        &dev, &cost, &cascade, &cfg, a, a, &info, &splan, &pool, skip,
    )
    .row_nnz;
    let plan_num = || plan_numeric(&dev, &cost, &cascade, &cfg, &info, &row_nnz, cols, 8, skip);
    let numeric = best_of(rounds, || {
        black_box(plan_num());
    });
    let nplan = plan_num().plan;
    let metrics = best_of(rounds, || {
        let m = MetricsRegistry::new();
        splan.record_metrics(&m, "symbolic");
        nplan.record_metrics(&m, "numeric");
        black_box(m);
    });
    let seq = best_of(rounds, || {
        black_box(spgemm_seq(a, a));
    });
    [analysis, symbolic, numeric, metrics, seq]
}

/// Row labels of [`steps`]' figures; `set-up` is printed after `metrics`.
const STEPS: [&str; 5] = [
    "analyze",
    "plan_symbolic",
    "plan_numeric",
    "plan metrics",
    "spgemm_seq",
];

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("ROUNDS must be a positive integer"))
        .unwrap_or(15)
        .max(1);
    let operands = [
        ("banded_300k", banded(300_000, 1, 1.0, 1)),
        ("hugebubbles", banded(40_000, 2, 0.55, 1)),
        ("banded_400", banded(400, 1, 1.0, 1)),
    ];
    println!(
        "host ns per row of the serial set-up, {} pool thread(s), best of {rounds} rounds",
        rayon::current_num_threads()
    );
    print!("{:<14}", "step");
    for (name, _) in &operands {
        print!(" {name:>12}");
    }
    println!();
    let per_row: Vec<Vec<f64>> = operands
        .iter()
        .map(|(_, a)| {
            let s = steps(rounds, a);
            s.iter().map(|t| t * 1e9 / a.rows() as f64).collect()
        })
        .collect();
    let row = |label: &str, value: &dyn Fn(&[f64]) -> f64| {
        print!("{label:<14}");
        for figures in &per_row {
            print!(" {:>12.2}", value(figures));
        }
        println!();
    };
    for (i, label) in STEPS.iter().enumerate() {
        row(label, &|f| f[i]);
        if i == 3 {
            row("set-up", &|f| f[1] + f[2] + f[3]);
        }
    }
}

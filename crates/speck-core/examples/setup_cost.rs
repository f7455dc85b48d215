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
//! not its parallel speed-up. Each round times a batch of calls that
//! covers `SAMPLE_ROWS` rows, about 1 ms even for the cheapest per-row
//! step, and the best of `ROUNDS` rounds (default 15) is reported per
//! call. Operands: `banded(300000, 1, 1.0)` (short rows, one numeric
//! dense block each), the `hugebubbles` stand-in `banded(40000, 2, 0.55)`
//! and `banded(400, 1, 1.0)` (a `small`-workload size). `set-up` sums the
//! three planning steps.
//!
//! A second table prints the host ns per block of the two launches that
//! write one output buffer in place, `analyze` and `run_numeric`, on
//! `banded(400, 1, 1.0)`, where both run 400 one-row blocks: at one pool
//! thread and at two, side by side, each the best of `ROUNDS` rounds of
//! 500 calls. The pool's width is fixed when it starts, so the width this
//! program was not started at comes from a child run of it (`ROUNDS
//! --per-block`, which prints that table's figures alone).

use speck_core::global_lb::{plan_numeric, plan_symbolic};
use speck_core::numeric::run_numeric;
use speck_core::symbolic::run_symbolic;
use speck_core::workspace::WorkspacePool;
use speck_core::{analyze, KernelCascade, MetricsRegistry, SpeckConfig};
use speck_simt::{BlockRecords, CostModel, DeviceConfig};
use speck_sparse::gen::banded;
use speck_sparse::reference::spgemm_seq;
use speck_sparse::Csr;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Calls per round of the per-block table.
const CALLS: usize = 500;

/// Rows one round of the set-up table covers: its calls per round are
/// `SAMPLE_ROWS / rows`, rounded up, so that a round of the cheapest
/// per-row step (about 4 ns per row) still takes about 1 ms.
const SAMPLE_ROWS: usize = 250_000;

/// Best wall seconds per call of `f` over `rounds` rounds of `calls`
/// calls each.
fn best_of(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best / calls as f64
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
    let calls = SAMPLE_ROWS.div_ceil(a.rows());
    let analysis = best_of(rounds, calls, || {
        black_box(analyze(&dev, &cost, a, a));
    });
    let (info, _) = analyze(&dev, &cost, a, a);
    let plan_sym = || plan_symbolic(&dev, &cost, &cascade, &cfg, &info, cols, skip);
    let symbolic = best_of(rounds, calls, || {
        black_box(plan_sym());
    });
    let splan = plan_sym();
    let pool = WorkspacePool::new();
    let row_nnz = run_symbolic(
        &dev, &cost, &cascade, &cfg, a, a, &info, &splan, &pool, skip,
    )
    .row_nnz;
    let plan_num = || plan_numeric(&dev, &cost, &cascade, &cfg, &info, &row_nnz, cols, 8, skip);
    let numeric = best_of(rounds, calls, || {
        black_box(plan_num());
    });
    let (nplan, _) = plan_num();
    let nplan = nplan.plan();
    let metrics = best_of(rounds, calls, || {
        let m = MetricsRegistry::new();
        splan.record_metrics(&m, "symbolic");
        nplan.record_metrics(&m, "numeric");
        black_box(m);
    });
    let seq = best_of(rounds, calls, || {
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

/// Best host ns per block of `analyze` and of `run_numeric` on
/// `banded(400, 1, 1.0)`, each over `rounds` rounds of [`CALLS`] calls.
fn per_block(rounds: usize) -> [f64; 2] {
    let a = banded(400, 1, 1.0, 1);
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cascade = KernelCascade::for_device(&dev);
    let cfg = SpeckConfig::default();
    let skip = BlockRecords::Skip;
    let pool = WorkspacePool::new();
    let (info, report) = analyze(&dev, &cost, &a, &a);
    assert_eq!(report.grid, a.rows(), "one row per analysis block");
    let analysis = best_of(rounds, CALLS, || {
        black_box(analyze(&dev, &cost, &a, &a));
    });
    let splan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols(), skip);
    let sym = run_symbolic(
        &dev, &cost, &cascade, &cfg, &a, &a, &info, &splan, &pool, skip,
    );
    let (nplan, _) = plan_numeric(
        &dev,
        &cost,
        &cascade,
        &cfg,
        &info,
        &sym.row_nnz,
        a.cols(),
        8,
        skip,
    );
    assert_eq!(
        nplan.plan().blocks.len(),
        a.rows(),
        "one row per numeric block"
    );
    let numeric = best_of(rounds, CALLS, || {
        black_box(run_numeric(
            &dev, &cost, &cascade, &cfg, &a, &a, &info, &nplan, &pool, skip,
        ));
    });
    [analysis, numeric].map(|t| t * 1e9 / a.rows() as f64)
}

/// [`per_block`] at `threads` pool threads: measured here when the pool
/// has that width, else read back from a child run of this program.
fn per_block_at(threads: usize, rounds: usize) -> [f64; 2] {
    if threads == rayon::current_num_threads() {
        return per_block(rounds);
    }
    let exe = std::env::current_exe().expect("the example knows its own path");
    let out = Command::new(exe)
        .args([rounds.to_string().as_str(), "--per-block"])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("the child run starts");
    assert!(out.status.success(), "the child run failed");
    let figures: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|f| f.parse().expect("the child prints two figures"))
        .collect();
    figures.try_into().expect("the child prints two figures")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args
        .next()
        .map(|s| s.parse().expect("ROUNDS must be a positive integer"))
        .unwrap_or(15)
        .max(1);
    if args.next().as_deref() == Some("--per-block") {
        let [analysis, numeric] = per_block(rounds);
        println!("{analysis} {numeric}");
        return;
    }
    let operands = [
        ("banded_300k", banded(300_000, 1, 1.0, 1)),
        ("hugebubbles", banded(40_000, 2, 0.55, 1)),
        ("banded_400", banded(400, 1, 1.0, 1)),
    ];
    println!(
        "host ns per row of the serial set-up, {} pool thread(s), best of {rounds} rounds \
         of {SAMPLE_ROWS} rows' calls",
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

    let widths = [1, 2].map(|threads| per_block_at(threads, rounds));
    println!();
    println!("host ns per one-row block on banded_400, best of {rounds} rounds of {CALLS} calls");
    println!("{:<14} {:>12} {:>12}", "launch", "1 thread", "2 threads");
    for (i, label) in ["analyze", "run_numeric"].iter().enumerate() {
        println!("{label:<14} {:>12.1} {:>12.1}", widths[0][i], widths[1][i]);
    }
}

//! Runs the paper's evaluation — every table and figure, or the ones
//! named — and writes the outputs under `crates/bench/out/`.
//!
//! ```sh
//! cargo run --release -p speck-bench --bin run_all_experiments            # all
//! cargo run --release -p speck-bench --bin run_all_experiments fig7 table3
//! ```
//!
//! The full-corpus and common-corpus sweeps run at most once each, and
//! only when a selected experiment reads them. An unknown name exits
//! non-zero and lists the valid names.

use speck_bench::corpus::{common_corpus, full_corpus};
use speck_bench::experiments::*;
use speck_bench::out::write_out;
use speck_bench::runner::{run_corpus, MatrixRecord};
use speck_simt::{CostModel, DeviceConfig};
use std::cell::OnceCell;

/// What every experiment reads: the device, the cost model and the two
/// corpus sweeps, each run on first use.
struct Inputs {
    dev: DeviceConfig,
    cost: CostModel,
    full: OnceCell<Vec<MatrixRecord>>,
    common: OnceCell<Vec<MatrixRecord>>,
}

impl Inputs {
    /// All methods over the full corpus (Table 3, Figs. 6, 7 and 15).
    fn full(&self) -> &[MatrixRecord] {
        self.full.get_or_init(|| {
            eprintln!("[corpus sweep: all methods x full corpus]");
            run_corpus(&self.dev, &self.cost, &full_corpus(), true)
        })
    }

    /// All methods over the common matrices (Figs. 9 and 10).
    fn common(&self) -> &[MatrixRecord] {
        self.common.get_or_init(|| {
            eprintln!("[corpus sweep: all methods x common matrices]");
            run_corpus(&self.dev, &self.cost, &common_corpus(), true)
        })
    }
}

/// One table or figure of the evaluation.
struct Experiment {
    /// Command-line name.
    name: &'static str,
    /// Heading printed above the experiment's text bodies.
    title: &'static str,
    /// Files written under `crates/bench/out/`, one per body `run` returns.
    files: &'static [&'static str],
    run: fn(&Inputs) -> Vec<String>,
}

fn pair((table, csv): (String, String)) -> Vec<String> {
    vec![table, csv]
}

/// Every experiment, in the order a full run executes them: the ones
/// without method runs first, then those reading each sweep.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig8",
        title: "Fig. 8: non-zero patterns",
        files: &["fig8.txt"],
        run: |_| vec![fig8_patterns::run(48)],
    },
    Experiment {
        name: "table4",
        title: "Table 4: common matrices",
        files: &["table4.txt"],
        run: |_| vec![table4_common_stats::run()],
    },
    Experiment {
        name: "table1",
        title: "Table 1: method characteristics",
        files: &["table1.txt"],
        run: |x| vec![table1_characteristics::run(&x.dev, &x.cost)],
    },
    Experiment {
        name: "table3",
        title: "Table 3: overall statistics",
        files: &["table3.txt"],
        run: |x| vec![table3_overall::run(x.full())],
    },
    Experiment {
        name: "fig6",
        title: "Fig. 6: GFLOPS over products",
        files: &["fig6.txt", "fig6.csv"],
        run: |x| pair(fig6_trend::run(x.full())),
    },
    Experiment {
        name: "fig7",
        title: "Fig. 7: slowdown to fastest (>15k products)",
        files: &["fig7.txt", "fig7.csv"],
        run: |x| pair(fig7_slowdown::run(x.full())),
    },
    Experiment {
        name: "fig15",
        title: "Fig. 15: per-matrix GFLOPS over the full corpus",
        files: &["fig15.csv"],
        run: |x| vec![fig15_per_matrix::run(x.full())],
    },
    Experiment {
        name: "fig9",
        title: "Fig. 9: GFLOPS on common matrices",
        files: &["fig9.txt", "fig9.csv"],
        run: |x| pair(fig9_common_gflops::run(x.common())),
    },
    Experiment {
        name: "fig10",
        title: "Fig. 10: peak memory on common matrices",
        files: &["fig10.txt", "fig10.csv"],
        run: |x| pair(fig10_memory::run(x.common())),
    },
    Experiment {
        name: "fig11",
        title: "Fig. 11: spECK stage shares",
        files: &["fig11.txt", "fig11.csv"],
        run: |_| pair(fig11_stages::run()),
    },
    Experiment {
        name: "fig12",
        title: "Fig. 12: accumulator ablation",
        files: &["fig12.txt", "fig12.csv"],
        run: |x| pair(fig12_accumulators::run(&x.dev, &x.cost)),
    },
    Experiment {
        name: "fig13",
        title: "Fig. 13: local load balancing",
        files: &["fig13.txt", "fig13.csv"],
        run: |x| pair(fig13_local_lb::run(&x.dev, &x.cost)),
    },
    Experiment {
        name: "fig14",
        title: "Fig. 14: global load balancing decision",
        files: &["fig14.txt", "fig14.csv"],
        run: |x| pair(fig14_global_lb::run(&x.dev, &x.cost)),
    },
    Experiment {
        name: "table2",
        title: "Table 2: auto-tuned thresholds",
        files: &["table2.txt"],
        run: |x| {
            // The paper tunes on one third of the corpus: every third matrix.
            let specs: Vec<_> = full_corpus().into_iter().step_by(3).collect();
            vec![table2_tuning::run(&x.dev, &x.cost, &specs).0]
        },
    },
    Experiment {
        name: "ablations",
        title: "Ablations: block merging (Alg. 2) and cost-model sensitivity",
        files: &["ablation_block_merge.txt", "ablation_cost_model.txt"],
        run: |x| {
            vec![
                ablations::block_merge_ablation(&x.dev, &x.cost),
                ablations::cost_model_sensitivity(&x.dev),
            ]
        },
    },
];

/// The experiments `names` selects, in table order; no names selects
/// all of them. An unknown name is an error listing the valid ones.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(bad) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|e| e.name == *n))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment `{bad}`; valid names: {}",
            valid.join(" ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect())
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let inputs = Inputs {
        dev: DeviceConfig::titan_v(),
        cost: CostModel::default(),
        full: OnceCell::new(),
        common: OnceCell::new(),
    };
    let t0 = std::time::Instant::now();
    for e in selected {
        let bodies = (e.run)(&inputs);
        assert_eq!(bodies.len(), e.files.len(), "{}: one body per file", e.name);
        println!("\n=== {} ===", e.title);
        for (file, body) in e.files.iter().zip(&bodies) {
            if file.ends_with(".txt") {
                println!("{body}");
            }
            write_out(file, body);
        }
    }
    eprintln!("\nexperiments done in {:.1}s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_by_name() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "names must be unique");

        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());

        let picked = select(&["table3".to_string(), "fig7".to_string()]).unwrap();
        let picked: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(picked, ["table3", "fig7"]);

        let err = select(&["fig7".to_string(), "fig99".to_string()])
            .err()
            .unwrap();
        assert!(err.contains("fig99"), "{err}");
        for e in EXPERIMENTS {
            assert!(err.contains(e.name), "{err} omits {}", e.name);
        }
    }
}

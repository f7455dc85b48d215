//! One module per table/figure of the paper's evaluation. Every module
//! exposes a `run(...)` that returns the rendered result (a text table,
//! a CSV, or both); the `run_all_experiments` binary prints the tables
//! and writes every result under `bench/out/`. See DESIGN.md §4 for the
//! experiment index.

pub mod ablations;
pub mod fig10_memory;
pub mod fig11_stages;
pub mod fig12_accumulators;
pub mod fig13_local_lb;
pub mod fig14_global_lb;
pub mod fig15_per_matrix;
pub mod fig6_trend;
pub mod fig7_slowdown;
pub mod fig8_patterns;
pub mod fig9_common_gflops;
pub mod table1_characteristics;
pub mod table2_tuning;
pub mod table3_overall;
pub mod table4_common_stats;

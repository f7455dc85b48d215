//! # speck-core — the spECK algorithm
//!
//! Reproduction of *spECK: Accelerating GPU Sparse Matrix-Matrix
//! Multiplication through Lightweight Analysis* (PPoPP 2020) on the
//! deterministic SIMT simulator from `speck-simt`.
//!
//! The pipeline (paper Fig. 2):
//!
//! 1. **Row analysis** ([`analysis`]) — O(NNZ(A)) pass over A and the row
//!    extents of B (paper Alg. 1).
//! 2. **Global load balancing** ([`global_lb`]) — conditional binning of
//!    rows into six kernel configurations by scratchpad demand, with
//!    parallel block merging for the smallest bin ([`block_merge`],
//!    paper Alg. 2).
//! 3. **Symbolic SpGEMM** ([`symbolic`]) — exact output-size counting with
//!    per-block choice of hash / dense / direct accumulation.
//! 4. **Second global load balancing** — re-binning on exact row sizes.
//! 5. **Numeric SpGEMM** ([`numeric`]) — value computation with the same
//!    accumulator choice plus in-scratchpad or global sorting ([`sort`]).
//! 6. **Output assembly**.
//!
//! Entry point: [`SpeckSpgemm`], the one way into the pipeline; the free
//! [`multiply`] runs a one-off engine with plan caching off.
//!
//! ```
//! use speck_core::SpeckSpgemm;
//! use speck_sparse::Csr;
//!
//! let a: Csr<f64> = Csr::identity(64);
//! let engine = SpeckSpgemm::default();
//! let (c, report) = engine.multiply(&a, &a);
//! assert_eq!(c.nnz(), 64);
//! assert!(report.sim_time_s > 0.0);
//! ```
//!
//! ## Plan reuse
//!
//! Stages 1–4 depend only on the sparsity patterns of A and B. The
//! [`plan`] module captures them as a reusable [`SpgemmPlan`];
//! [`SpeckSpgemm::multiply`] caches plans by pattern fingerprint so a
//! repeated pattern transparently skips analysis and the symbolic pass,
//! and [`SpeckSpgemm::execute_plan`] exposes the split explicitly:
//!
//! ```
//! use speck_core::SpeckSpgemm;
//! use speck_sparse::Csr;
//!
//! let a: Csr<f64> = Csr::identity(64);
//! let engine = SpeckSpgemm::default();
//! let plan = engine.plan(&a, &a);
//! let (c, report) = engine.execute_plan(&plan, &a, &a);
//! assert_eq!(c.nnz(), plan.nnz_c());
//! assert!(report.reused_plan);
//! // Clones share the plan cache, so independent multiplies can run on
//! // scoped threads; a pattern the cache already holds runs warm on
//! // every thread:
//! let _ = engine.multiply(&a, &a);
//! let warm = std::thread::scope(|s| {
//!     let calls: Vec<_> = (0..2)
//!         .map(|_| {
//!             let (e, a) = (engine.clone(), &a);
//!             s.spawn(move || e.multiply(a, a).1.reused_plan)
//!         })
//!         .collect();
//!     calls.into_iter().all(|c| c.join().unwrap())
//! });
//! assert!(warm);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod block_merge;
pub mod cascade;
pub mod config;
pub mod denseacc;
pub mod global_lb;
pub mod hashacc;
pub mod json;
pub mod local_lb;
pub mod metrics;
pub mod numeric;
pub mod partial;
pub mod pipeline;
pub mod plan;
pub mod profile;
pub mod sort;
pub mod symbolic;
pub mod trace;
pub mod tuning;
pub mod workspace;

pub use analysis::{analyze, AnalysisInfo, RowInfo};
pub use audit::{
    diff_reports, AuditDiff, AuditGroupStats, DecisionRecord, DecisionReport, Verdict, AUDIT_FORMAT,
};
pub use cascade::KernelCascade;
pub use config::{GlobalLbMode, GlobalLbThresholds, LocalLbMode, SpeckConfig};
pub use json::{parse_json_value, JsonValue};
pub use metrics::{compare_snapshots, MetricsRegistry, MetricsSnapshot};
pub use partial::{multiply_multi_gpu, multiply_partitioned};
pub use pipeline::{multiply, MultiplyReport, SpeckSpgemm, DEFAULT_PLAN_CACHE_CAPACITY};
pub use plan::{pattern_fingerprint, SpgemmPlan};
pub use profile::{diff_traces, profile_trace, ProfileReport, TraceDiff};
pub use trace::{ExecutionTrace, KernelTraceRecord, Recorder, TraceRecord, TRACE_FORMAT};
pub use workspace::{Workspace, WorkspacePool};

//! The end-to-end spECK pipeline (paper Fig. 2) and its public API.
//!
//! [`SpeckSpgemm`] is the one way into the pipeline. It runs the stages in
//! two halves around the pattern/value boundary of the algorithm:
//!
//! * [`SpeckSpgemm::plan`] runs the *setup* stages — row analysis,
//!   symbolic load balancing, the symbolic pass, numeric load balancing —
//!   which depend only on the sparsity patterns of A and B, and packages
//!   their outputs as a self-contained [`SpgemmPlan`].
//! * [`SpeckSpgemm::execute_plan`] runs the *execution* stages — the
//!   numeric pass and the trailing sort — against a plan and the operand
//!   values.
//!
//! [`SpeckSpgemm::multiply`] is plan-then-execute in one call, and caches
//! plans by pattern fingerprint so repeated patterns transparently skip
//! the setup stages entirely (see [`crate::plan`]). An engine built
//! [`SpeckSpgemm::with_plan_cache_capacity`]`(0)` runs every call on the
//! cold path, bit identical to the unfactored pipeline.

use crate::analysis::analyze_with;
use crate::cascade::KernelCascade;
use crate::config::SpeckConfig;
use crate::global_lb::{plan_numeric, plan_symbolic, GateProvenance};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::numeric::run_numeric;
use crate::plan::{fnv1a_bytes, PatternId, PatternKey, PlanCache, SpgemmPlan};
use crate::symbolic::run_symbolic;
use crate::trace::{pass_annotations, timeline_of, ExecutionTrace, Recorder, TraceRecord};
use crate::workspace::SharedWorkspaces;
use speck_simt::{BlockRecords, CostModel, DeviceConfig, MemTracker, Timeline};
use speck_sparse::{Csr, Scalar};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// Stage names used in the timeline, matching paper Fig. 11.
pub mod stage {
    /// Row analysis (Alg. 1).
    pub const ANALYSIS: &str = "analysis";
    /// Global load balancing before the symbolic pass.
    pub const SYMBOLIC_LOAD: &str = "symb. load";
    /// Symbolic SpGEMM.
    pub const SYMBOLIC: &str = "symb. SpGEMM";
    /// Global load balancing before the numeric pass.
    pub const NUMERIC_LOAD: &str = "num. load";
    /// Numeric SpGEMM.
    pub const NUMERIC: &str = "num. SpGEMM";
    /// Trailing radix sort.
    pub const SORTING: &str = "sorting";
    /// Every stage, in pipeline order.
    pub const ALL: [&str; 6] = [
        ANALYSIS,
        SYMBOLIC_LOAD,
        SYMBOLIC,
        NUMERIC_LOAD,
        NUMERIC,
        SORTING,
    ];
}

/// Everything the caller may want to know about one multiplication.
#[derive(Clone, Debug)]
pub struct MultiplyReport {
    /// Per-stage simulated durations (Fig. 11), folded from the multiply's
    /// record stream. For a reused plan this holds only the stages that
    /// actually ran (numeric + sorting).
    pub timeline: Timeline,
    /// Total simulated time in seconds.
    pub sim_time_s: f64,
    /// Peak simulated device memory (inputs excluded, output C included —
    /// the paper's Table 3/Fig. 10 convention). Plan-held setup structures
    /// are counted whether the call built them or reused them.
    pub peak_mem_bytes: usize,
    /// The symbolic pass's global-LB gate: the demand-variance ratio
    /// `m_max/m_avg` it saw, the threshold set it consulted, and whether
    /// binning ran.
    pub symbolic_gate: GateProvenance,
    /// The numeric pass's global-LB gate, read like `symbolic_gate`.
    pub numeric_gate: GateProvenance,
    /// Blocks per method in the numeric pass: (hash, dense, direct).
    pub numeric_methods: (usize, usize, usize),
    /// Blocks that spilled to global hash maps across both passes (the
    /// symbolic figure comes from the plan when it was reused).
    pub spilled_blocks: usize,
    /// Elements routed through the global radix sort.
    pub radix_elems: usize,
    /// Total intermediate products of the multiplication.
    pub products: u64,
    /// Whether this call reused a precomputed [`SpgemmPlan`] and skipped
    /// the analysis/symbolic setup stages.
    pub reused_plan: bool,
    /// Full execution trace of the call, present only when the engine was
    /// built [`SpeckSpgemm::with_tracing`]. Cold calls cover the whole
    /// pipeline (setup + execution); reused calls cover only the stages
    /// that ran. `Arc` so cloning reports stays cheap.
    pub trace: Option<Arc<ExecutionTrace>>,
    /// Decision-provenance report reconciling every pipeline decision
    /// (gating, binning, merge, accumulator, group size) against measured
    /// per-block cycles and shadow-cost estimates of the rejected
    /// alternatives. Present only when the engine was built
    /// [`SpeckSpgemm::with_auditing`]; reused calls audit only the
    /// decisions whose kernels actually ran (the numeric half).
    pub audit: Option<Arc<crate::audit::DecisionReport>>,
}

impl MultiplyReport {
    /// GFLOPS at the paper's 2-ops-per-product convention.
    pub fn gflops(&self) -> f64 {
        if self.sim_time_s <= 0.0 {
            0.0
        } else {
            (2 * self.products) as f64 / self.sim_time_s / 1e9
        }
    }
}

/// Default number of reusable plans a [`SpeckSpgemm`] caches (LRU).
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// Reusable engine: device + cost model + configuration.
///
/// The engine owns a [`SharedWorkspaces`] registry, so repeated `multiply`
/// calls reuse the same host-side accumulator buffers instead of
/// reallocating them (a host optimisation only — simulated cost is
/// unchanged), and a plan cache keyed by pattern fingerprint, so
/// `multiply` on a repeated sparsity pattern transparently skips the
/// analysis and symbolic stages (an algorithmic win — simulated time
/// drops too; the report records `reused_plan: true`). Clones share both.
#[derive(Clone, Debug)]
pub struct SpeckSpgemm {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Algorithm configuration.
    pub config: SpeckConfig,
    workspaces: Arc<SharedWorkspaces>,
    plans: Arc<Mutex<PlanCache>>,
    metrics: Arc<MetricsRegistry>,
    tracing: bool,
    auditing: bool,
    env_memo: EnvMemo,
}

/// The environment [`SpeckSpgemm::env_digest`] last hashed, and its
/// digest. Each engine keeps its own (a clone copies it), because a clone
/// may mutate its public fields independently.
#[derive(Debug, Default)]
struct EnvMemo(Mutex<Option<(DeviceConfig, CostModel, SpeckConfig, u64)>>);

impl Clone for EnvMemo {
    fn clone(&self) -> Self {
        EnvMemo(Mutex::new(self.0.lock().unwrap().clone()))
    }
}

impl Default for SpeckSpgemm {
    fn default() -> Self {
        Self {
            device: DeviceConfig::titan_v(),
            cost: CostModel::default(),
            config: SpeckConfig::default(),
            workspaces: Arc::new(SharedWorkspaces::new()),
            plans: Arc::new(Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))),
            metrics: Arc::new(MetricsRegistry::new()),
            tracing: false,
            auditing: false,
            env_memo: EnvMemo::default(),
        }
    }
}

impl SpeckSpgemm {
    /// Engine with a custom configuration on the default device.
    pub fn with_config(config: SpeckConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Replaces the plan cache with one holding at most `capacity` plans.
    /// Capacity 0 disables plan reuse entirely: every `multiply` runs the
    /// full cold pipeline (useful for simulation-neutrality checks).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plans = Arc::new(Mutex::new(PlanCache::new(capacity)));
        self
    }

    /// Enables (or disables) execution tracing: every multiply through
    /// this engine attaches a full [`ExecutionTrace`], with every kernel
    /// record's per-block schedule replayed from its launch report, to
    /// its report. Tracing never changes simulated results — only the
    /// reports grow — and never affects other engines. Off by default.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables (or disables) decision auditing: every multiply through
    /// this engine records per-block schedules (like tracing) and
    /// attaches a [`crate::audit::DecisionReport`] reconciling each
    /// pipeline decision against measured cycles and shadow-cost
    /// estimates of the rejected alternatives. Auditing never changes
    /// simulated results — the report is built read-only from the
    /// finished trace. Off by default.
    pub fn with_auditing(mut self, on: bool) -> Self {
        self.auditing = on;
        self
    }

    /// Shares a metrics registry: every multiply through this engine (and
    /// its clones) records stage counters, kernel launches, and span
    /// timings into `registry`. Engines already share their registry with
    /// clones; this builder additionally lets several engines feed one
    /// registry (e.g. a digest engine and a caching engine in one bench).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Point-in-time snapshot of the engine's metrics, augmented with the
    /// plan-cache counters (`plan_cache/hits|misses|evictions` — counted
    /// inside the cache, injected here) and workspace-pool occupancy
    /// gauges (`pool/*` — volatile, never baseline-gated;
    /// `pool/workspace_peak_in_use` counts host chunks holding a workspace
    /// at once, at most the number of pool threads per dispatch).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.plans.lock().unwrap();
        let (hits, misses) = cache.stats();
        snap.counters.insert("plan_cache/hits".into(), hits);
        snap.counters.insert("plan_cache/misses".into(), misses);
        snap.counters
            .insert("plan_cache/evictions".into(), cache.evictions());
        snap.gauges
            .insert("pool/plan_cache_len".into(), cache.len() as f64);
        drop(cache);
        snap.gauges.insert(
            "pool/workspace_idle".into(),
            self.workspaces.total_idle() as f64,
        );
        snap.gauges.insert(
            "pool/workspace_peak_in_use".into(),
            self.workspaces.total_peak_in_use() as f64,
        );
        snap
    }

    /// The engine's workspace registry (one buffer pool per scalar type).
    pub fn workspaces(&self) -> &Arc<SharedWorkspaces> {
        &self.workspaces
    }

    /// Lifetime `(hits, misses)` of the plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plans.lock().unwrap().stats()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Drops every cached plan.
    pub fn clear_plan_cache(&self) {
        self.plans.lock().unwrap().clear()
    }

    /// Fingerprint of everything besides the operands that determines a
    /// plan: device, cost model, and configuration. Part of the cache key,
    /// so mutating the engine's public fields never revives a stale plan.
    /// Tracing and auditing are not part of it: a cache hit runs warm and
    /// never reads the plan's setup records, so observing and plain
    /// engines share plans.
    ///
    /// The digest is memoized: it is recomputed only when the device, cost
    /// model or configuration differs (by `==`) from the environment it
    /// was last computed for.
    fn env_digest(&self) -> u64 {
        let mut memo = self.env_memo.0.lock().unwrap();
        if let Some((device, cost, config, digest)) = &*memo {
            if *device == self.device && *cost == self.cost && *config == self.config {
                return *digest;
            }
        }
        let env = format!("{:?}|{:?}|{:?}", self.device, self.cost, self.config);
        let digest = fnv1a_bytes(env.as_bytes());
        *memo = Some((
            self.device.clone(),
            self.cost.clone(),
            self.config.clone(),
            digest,
        ));
        digest
    }

    /// Whether kernel records carry per-block schedules and annotations
    /// (tracing or auditing).
    fn observing(&self) -> bool {
        self.tracing || self.auditing
    }

    /// What the engine's launches keep: per-block records only when the
    /// engine observes, because only the trace and the audit read them.
    fn block_records(&self) -> BlockRecords {
        if self.observing() {
            BlockRecords::Keep
        } else {
            BlockRecords::Skip
        }
    }

    /// Computes `C = A · B`; returns the result and the full report.
    ///
    /// When the `(A, B)` sparsity pattern (and scalar type, device, cost
    /// model, and configuration) matches a cached plan, the setup stages
    /// are skipped and the report's `reused_plan` is true; otherwise the
    /// full pipeline runs and the new plan is cached.
    ///
    /// Panics when `a.cols() != b.rows()` (matching the reference
    /// implementations in `speck-sparse`).
    pub fn multiply<V: Scalar>(&self, a: &Csr<V>, b: &Csr<V>) -> (Csr<V>, MultiplyReport) {
        self.metrics.add("engine/multiply_calls", 1);
        // A disabled cache is never consulted, so it counts no misses.
        let key = (self.plans.lock().unwrap().capacity() > 0)
            .then(|| PatternKey::new(a, b, self.env_digest()));
        let hit = key.as_ref().and_then(|k| self.plans.lock().unwrap().get(k));
        if let Some(plan) = hit.and_then(|p| p.downcast::<SpgemmPlan<V>>().ok()) {
            // The hit matched the whole pattern key: no re-check needed.
            return self.execute_inner(&plan, a, b, true);
        }
        let plan = Arc::new(self.plan_inner(a, b, key.map(|k| k.pattern)));
        let out = self.execute_inner(&plan, a, b, false);
        if let Some(key) = key {
            self.plans.lock().unwrap().insert(key, plan);
        }
        out
    }

    /// Runs the setup stages only (analysis, symbolic load balancing,
    /// symbolic pass, numeric load balancing) and returns the reusable
    /// plan. Pair with [`SpeckSpgemm::execute_plan`] to amortise the setup
    /// across many multiplications of the same pattern.
    pub fn plan<V: Scalar>(&self, a: &Csr<V>, b: &Csr<V>) -> SpgemmPlan<V> {
        self.plan_inner(a, b, None)
    }

    /// Executes a plan against operands with the *same sparsity pattern*
    /// it was built from (values may differ): numeric pass + sort only.
    /// The report's timeline holds just those stages and `reused_plan` is
    /// true. Panics, before any kernel runs, when the operands' shape,
    /// NNZ or pattern fingerprints disagree with the plan.
    pub fn execute_plan<V: Scalar>(
        &self,
        plan: &SpgemmPlan<V>,
        a: &Csr<V>,
        b: &Csr<V>,
    ) -> (Csr<V>, MultiplyReport) {
        plan.check_pattern(a, b);
        self.execute_inner(plan, a, b, true)
    }

    /// The setup half of the pipeline: stages 1–4, recorded into the
    /// engine's metrics registry, packaged as a plan for the operands'
    /// pattern (`pattern` when the caller already fingerprinted it).
    /// Recording reads finished [`speck_simt::KernelReport`]s only, so
    /// simulated results are bit-identical whatever the engine observes.
    /// The plan captures the setup stages' records and device-memory
    /// footprint, so executing it cold reproduces the unfactored
    /// pipeline bit for bit.
    fn plan_inner<V: Scalar>(
        &self,
        a: &Csr<V>,
        b: &Csr<V>,
        pattern: Option<PatternId>,
    ) -> SpgemmPlan<V> {
        assert_eq!(a.cols(), b.rows(), "spECK multiply: dimension mismatch");
        let (dev, cost, cfg, m) = (&self.device, &self.cost, &self.config, &*self.metrics);
        let pool = self.workspaces.pool::<V>();
        let span = m.span("plan");
        let cascade = KernelCascade::for_device(dev);
        let records = self.block_records();
        let mut rec = Recorder::new(dev, &[]);
        let mut setup_mem_bytes = 0usize;
        let alloc_s = dev.cycles_to_seconds(dev.alloc_overhead_cycles);

        // Stage 1: row analysis.
        let (info, analysis_report) = {
            let _s = span.child("analysis");
            analyze_with(dev, cost, a, b, records)
        };
        rec.kernel(stage::ANALYSIS, &analysis_report, None, None, None);
        setup_mem_bytes += info.rows.len() * std::mem::size_of::<crate::analysis::RowInfo>();
        rec.fixed(stage::ANALYSIS, "alloc", alloc_s);

        // Stage 2: symbolic load balancing.
        let splan = {
            let _s = span.child("symbolic_lb");
            plan_symbolic(dev, cost, &cascade, cfg, &info, b.cols(), records)
        };
        for r in &splan.lb_reports {
            rec.kernel(stage::SYMBOLIC_LOAD, r, None, None, None);
        }
        splan.record_metrics(m, "symbolic");
        if splan.lb_alloc_bytes > 0 {
            setup_mem_bytes += splan.lb_alloc_bytes;
            rec.fixed(stage::SYMBOLIC_LOAD, "alloc", alloc_s);
        }

        // Stage 3: symbolic SpGEMM.
        let sym = {
            let _s = span.child("symbolic");
            run_symbolic(
                dev, cost, &cascade, cfg, a, b, &info, &splan, &pool, records,
            )
        };
        let anns = self
            .observing()
            .then(|| pass_annotations(dev, &cascade, cfg, &info, &splan));
        rec.pass(stage::SYMBOLIC, &sym.reports, &splan.launches, anns);
        sym.record_metrics(m);
        // Row-count array + prefix sum for C's offsets.
        setup_mem_bytes += (a.rows() + 1) * 8;
        rec.fixed(stage::SYMBOLIC, "alloc", alloc_s);

        // Stage 4: numeric load balancing on exact sizes, which also lays
        // out C's rows. The plan is checked here, once for every execution
        // of it.
        let (nplan, row_nnz_hist) = {
            let _s = span.child("numeric_lb");
            plan_numeric(
                dev,
                cost,
                &cascade,
                cfg,
                &info,
                &sym.row_nnz,
                b.cols(),
                std::mem::size_of::<V>(),
                records,
            )
        };
        let npass = nplan.plan();
        for r in &npass.lb_reports {
            rec.kernel(stage::NUMERIC_LOAD, r, None, None, None);
        }
        npass.record_metrics(m, "numeric");
        m.merge_histogram("sim/symbolic/row_nnz", &row_nnz_hist);
        if npass.lb_alloc_bytes > 0 {
            setup_mem_bytes += npass.lb_alloc_bytes;
            rec.fixed(stage::NUMERIC_LOAD, "alloc", alloc_s);
        }

        // Global hash-map fallback pool: as many maps as can be live at
        // once (paper §4.3), sized by the largest conceivable overflow row.
        // The overflow-row count was hoisted into the analysis sweep.
        if info.overflow_rows > 0 {
            let largest_cfg = cascade.config(cascade.largest());
            let live = info
                .overflow_rows
                .min(dev.max_concurrent_blocks(largest_cfg.threads, largest_cfg.scratch_bytes));
            let per_map = info.max_products as usize * (8 + std::mem::size_of::<V>());
            setup_mem_bytes += live * per_map;
            rec.fixed(stage::NUMERIC_LOAD, "alloc overflow pool", alloc_s);
        }
        m.record_launches(rec.records());

        SpgemmPlan {
            pattern: pattern.unwrap_or_else(|| PatternId::of(a, b)),
            symbolic_gate: splan.gate,
            numeric: nplan,
            info,
            setup: rec.into_records(),
            setup_mem_bytes,
            sym_spilled_blocks: sym.spilled_blocks,
            _values: PhantomData,
        }
    }

    /// The execution half of the pipeline. Cold calls (`reused == false`)
    /// resume the record stream from the plan's setup records so the
    /// combined report is bit identical to the unfactored pipeline; reused
    /// calls start an empty stream. Device memory is accounted identically
    /// either way — the setup structures the numeric kernels read
    /// (analysis records, row counts, the overflow pool) are resident
    /// whether this call built them or a previous one did.
    fn execute_inner<V: Scalar>(
        &self,
        plan: &SpgemmPlan<V>,
        a: &Csr<V>,
        b: &Csr<V>,
        reused: bool,
    ) -> (Csr<V>, MultiplyReport) {
        let (dev, cost, cfg, m) = (&self.device, &self.cost, &self.config, &*self.metrics);
        let pool = self.workspaces.pool::<V>();
        let span = m.span("execute");
        if reused {
            m.add("engine/plan_reuses", 1);
        }
        let cascade = KernelCascade::for_device(dev);
        let alloc_s = dev.cycles_to_seconds(dev.alloc_overhead_cycles);
        let setup: &[TraceRecord] = if reused { &[] } else { &plan.setup };
        let records = self.block_records();
        let mut rec = Recorder::new(dev, setup);
        let mut mem = MemTracker::new();
        mem.alloc(plan.setup_mem_bytes);
        // Output matrix C: counted for memory, not for time (paper §6: "the
        // memory allocation of the output matrix is not measured").
        mem.alloc(plan.nnz_c() * (4 + std::mem::size_of::<V>()));

        // Stage 5: numeric SpGEMM.
        let (nplan, npass) = (&plan.numeric, plan.numeric.plan());
        let num = {
            let _s = span.child("numeric");
            run_numeric(
                dev, cost, &cascade, cfg, a, b, &plan.info, nplan, &pool, records,
            )
        };
        let anns = self
            .observing()
            .then(|| pass_annotations(dev, &cascade, cfg, &plan.info, npass));
        rec.pass(stage::NUMERIC, &num.reports, &npass.launches, anns);
        num.record_metrics(m);

        // Stage 6: sorting.
        if let Some(r) = &num.sort_report {
            let _s = span.child("sorting");
            rec.kernel(stage::SORTING, r, None, None, None);
            // Radix double-buffer.
            mem.alloc(num.radix_elems * (4 + std::mem::size_of::<V>()));
            rec.fixed(stage::SORTING, "alloc", alloc_s);
        }
        // The setup records were folded into the metrics when the plan was
        // built; only this call's launches are new.
        m.record_launches(rec.records());
        let timeline = timeline_of(setup.iter().chain(rec.records()));

        // The audit is built read-only from the finished trace *after*
        // every kernel ran: it never changes simulated results.
        let trace = self
            .observing()
            .then(|| ExecutionTrace::new(dev, [setup, rec.records()].concat()));
        let audit = match &trace {
            Some(tr) if self.auditing => Some(Arc::new(crate::audit::build_report(
                dev, cost, cfg, plan, tr,
            ))),
            _ => None,
        };
        let report = MultiplyReport {
            sim_time_s: timeline.total_seconds(),
            peak_mem_bytes: mem.peak(),
            symbolic_gate: plan.symbolic_gate,
            numeric_gate: npass.gate,
            numeric_methods: npass.method_counts(),
            spilled_blocks: plan.sym_spilled_blocks + num.spilled_blocks,
            radix_elems: num.radix_elems,
            products: plan.info.total_products,
            reused_plan: reused,
            trace: trace.filter(|_| self.tracing).map(Arc::new),
            audit,
            timeline,
        };
        (num.c, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, block_diagonal, rectangular_lp, rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;
    use speck_sparse::transpose::transpose;

    fn verify(a: &Csr<f64>, b: &Csr<f64>) -> MultiplyReport {
        let engine = SpeckSpgemm::default();
        let (c, report) = engine.multiply(a, b);
        c.validate().unwrap();
        let expect = spgemm_seq(a, b);
        assert!(c.approx_eq(&expect, 1e-10, 1e-12), "result mismatch");
        report
    }

    /// Same pattern, deterministically perturbed values.
    fn perturb(m: &Csr<f64>, salt: u64) -> Csr<f64> {
        Csr::from_parts_unchecked(
            m.rows(),
            m.cols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.vals()
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (1.0 + ((i as u64 + salt) % 13) as f64 * 1e-3))
                .collect(),
        )
    }

    #[test]
    fn end_to_end_banded() {
        let a = banded(2000, 2, 1.0, 3);
        let r = verify(&a, &a);
        assert!(r.sim_time_s > 0.0);
        assert!(r.products > 0);
    }

    #[test]
    fn end_to_end_skewed_graph() {
        let a = rmat(10, 8, 0.57, 0.19, 0.19, 4);
        let r = verify(&a, &a);
        // The analysis must see the degree skew even if the (tuned)
        // decision judges this matrix too small to bin profitably.
        assert!(r.symbolic_gate.ratio > 5.0);

        // With pronounced hub rows the load balancer must engage.
        let hub = speck_sparse::gen::with_hub_rows(6_000, 1, 4, 3_000, 5);
        let r = verify(&hub, &hub);
        assert!(r.symbolic_gate.used_global_lb || r.numeric_gate.used_global_lb);
    }

    #[test]
    fn end_to_end_rectangular_a_at() {
        let a = rectangular_lp(300, 5000, 20, 40, 5);
        let at = transpose(&a);
        verify(&a, &at);
    }

    #[test]
    fn end_to_end_dense_blocks() {
        let a = block_diagonal(3, 100, 1.0, 6);
        let r = verify(&a, &a);
        let (_, dense, _) = r.numeric_methods;
        assert!(dense > 0, "dense accumulator should engage");
    }

    #[test]
    fn stage_shares_sum_to_one() {
        let a = uniform_random(1000, 1000, 2, 10, 7);
        let r = verify(&a, &a);
        let total: f64 = stage::ALL.iter().map(|s| r.timeline.share(s)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn analysis_is_cheap_relative_to_numeric() {
        // Paper Fig. 11: row analysis is <10% in most cases.
        let a = banded(4000, 8, 1.0, 8);
        let r = verify(&a, &a);
        assert!(
            r.timeline.share(stage::ANALYSIS) < 0.35,
            "analysis share {}",
            r.timeline.share(stage::ANALYSIS)
        );
    }

    #[test]
    fn gflops_is_positive_and_finite() {
        let a = banded(1000, 4, 1.0, 9);
        let r = verify(&a, &a);
        assert!(r.gflops().is_finite() && r.gflops() > 0.0);
    }

    #[test]
    fn peak_memory_includes_output() {
        let a = uniform_random(500, 500, 4, 8, 10);
        let r = verify(&a, &a);
        let c = spgemm_seq(&a, &a);
        assert!(r.peak_mem_bytes >= c.nnz() * 12);
    }

    #[test]
    fn deterministic_report() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 11);
        let e = SpeckSpgemm::default();
        let (c1, r1) = e.multiply(&a, &a);
        let (c2, r2) = e.multiply(&a, &a);
        // The second call transparently reuses the cached plan: identical
        // result and memory, strictly less simulated time (no setup).
        assert!(!r1.reused_plan);
        assert!(r2.reused_plan);
        assert!(c1.approx_eq(&c2, 0.0, 0.0));
        assert_eq!(r1.peak_mem_bytes, r2.peak_mem_bytes);
        assert!(r2.sim_time_s < r1.sim_time_s);
        // Warm calls are bit-stable among themselves.
        let (_, r3) = e.multiply(&a, &a);
        assert_eq!(r2.sim_time_s, r3.sim_time_s);
        // With the cache disabled every call runs cold and is bit-stable.
        let e0 = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let (_, q1) = e0.multiply(&a, &a);
        let (_, q2) = e0.multiply(&a, &a);
        assert!(!q1.reused_plan && !q2.reused_plan);
        assert_eq!(q1.sim_time_s, q2.sim_time_s);
        assert_eq!(q1.sim_time_s, r1.sim_time_s);
        assert_eq!(q1.peak_mem_bytes, r1.peak_mem_bytes);
    }

    #[test]
    fn reused_call_skips_setup_stages() {
        let a = uniform_random(800, 800, 2, 8, 19);
        let e = SpeckSpgemm::default();
        let (_, cold) = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        // Warm timeline holds only the executed stages...
        for (name, st) in warm.timeline.stages() {
            assert!(
                name == stage::NUMERIC || name == stage::SORTING,
                "unexpected stage {name} in a reused call"
            );
            // ...and each is bit-identical to its cold counterpart.
            let cold_s = cold
                .timeline
                .stages()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.seconds)
                .unwrap();
            assert_eq!(st.seconds.to_bits(), cold_s.to_bits());
        }
        assert!(warm.sim_time_s < cold.sim_time_s);
    }

    #[test]
    fn explicit_plan_execute_roundtrip() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 77);
        let e = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let (c_cold, cold) = e.multiply(&a, &a);
        let plan = e.plan(&a, &a);
        assert_eq!(plan.nnz_c(), c_cold.nnz());
        assert!(plan.setup_sim_time_s() > 0.0);
        let (c1, r1) = e.execute_plan(&plan, &a, &a);
        assert!(r1.reused_plan);
        assert!(c1.approx_eq(&c_cold, 0.0, 0.0));
        assert_eq!(r1.peak_mem_bytes, cold.peak_mem_bytes);
        // Setup + execution covers the whole cold pipeline.
        let total = plan.setup_sim_time_s() + r1.sim_time_s;
        assert!((total - cold.sim_time_s).abs() <= 1e-12 * cold.sim_time_s.abs());
        // Executions are bit-stable.
        let (_, r2) = e.execute_plan(&plan, &a, &a);
        assert_eq!(r1.sim_time_s, r2.sim_time_s);
    }

    #[test]
    fn reused_plan_accepts_fresh_values() {
        let a = uniform_random(400, 400, 2, 6, 23);
        let e = SpeckSpgemm::default();
        let _ = e.multiply(&a, &a);
        let a2 = perturb(&a, 5);
        let (c, r) = e.multiply(&a2, &a2);
        assert!(r.reused_plan, "same pattern must hit the cache");
        let expect = spgemm_seq(&a2, &a2);
        assert!(c.approx_eq(&expect, 1e-10, 1e-12), "fresh values wrong");
    }

    #[test]
    fn config_change_invalidates_cached_plans() {
        let a = uniform_random(200, 200, 2, 6, 41);
        let e = SpeckSpgemm::default();
        let _ = e.multiply(&a, &a);
        // A clone shares the cache: its first call is already warm.
        let mut clone = e.clone();
        let (_, r) = clone.multiply(&a, &a);
        assert!(r.reused_plan);
        // Mutating the configuration changes the environment digest, so
        // the stale plan is never reused.
        clone.config.numeric_max_fill *= 0.5;
        let (_, r2) = clone.multiply(&a, &a);
        assert!(
            !r2.reused_plan,
            "stale plan must not survive a config change"
        );
    }

    #[test]
    fn device_and_cost_changes_miss_and_reverting_them_hits_again() {
        // The environment digest is memoized: every mutation of a public
        // field must still reach the plan-cache key, and undoing it must
        // find the original plan again.
        let a = uniform_random(200, 200, 2, 6, 43);
        let mut e = SpeckSpgemm::default();
        let _ = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        type Mutation = fn(&mut SpeckSpgemm, f64);
        let mutations: [(&str, Mutation); 2] = [
            ("device", |e, k| e.device.launch_overhead_cycles *= k),
            ("cost", |e, k| e.cost.c_smem_op *= k),
        ];
        for (field, mutate) in mutations {
            mutate(&mut e, 2.0);
            let (_, r) = e.multiply(&a, &a);
            assert!(!r.reused_plan, "stale plan survived a {field} change");
            let (_, r) = e.multiply(&a, &a);
            assert!(r.reused_plan, "the changed {field} got no plan of its own");
            mutate(&mut e, 0.5);
            let (_, back) = e.multiply(&a, &a);
            assert!(back.reused_plan, "reverting the {field} change missed");
            assert_eq!(back.sim_time_s.to_bits(), warm.sim_time_s.to_bits());
        }
        assert_eq!(e.cached_plans(), 3);
        assert_eq!(e.plan_cache_stats().1, 3);
    }

    #[test]
    fn lru_capacity_bounds_cached_plans() {
        let e = SpeckSpgemm::default().with_plan_cache_capacity(2);
        let ms: Vec<Csr<f64>> = (0..4)
            .map(|s| uniform_random(60 + s, 60 + s, 2, 4, s as u64))
            .collect();
        for m in &ms {
            let _ = e.multiply(m, m);
        }
        assert_eq!(e.cached_plans(), 2);
        // The most recent pattern is still warm.
        let (_, r) = e.multiply(&ms[3], &ms[3]);
        assert!(r.reused_plan);
        // The oldest was evicted.
        let (_, r0) = e.multiply(&ms[0], &ms[0]);
        assert!(!r0.reused_plan);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: Csr<f64> = Csr::identity(3);
        let b: Csr<f64> = Csr::identity(4);
        let _ = SpeckSpgemm::default().multiply(&a, &b);
    }

    #[test]
    #[should_panic(expected = "do not match the plan")]
    fn execute_plan_rejects_wrong_shape() {
        let a = uniform_random(50, 50, 2, 4, 3);
        let e = SpeckSpgemm::default();
        let plan = e.plan(&a, &a);
        let other = uniform_random(60, 60, 2, 4, 3);
        let _ = e.execute_plan(&plan, &other, &other);
    }

    #[test]
    fn tracing_is_neutral_and_reconciles_with_timeline() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 51);
        let plain = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true);
        let (_, r0) = plain.multiply(&a, &a);
        let (_, r1) = traced.multiply(&a, &a);
        assert!(r0.trace.is_none());
        let tr = r1.trace.as_ref().expect("tracing engine attaches a trace");

        // Tracing never changes simulated results.
        assert_eq!(r0.sim_time_s.to_bits(), r1.sim_time_s.to_bits());
        // The trace reconciles with the timeline bit-for-bit.
        assert_eq!(tr.total_seconds().to_bits(), r1.sim_time_s.to_bits());
        for (name, st) in r1.timeline.stages() {
            let ts = tr.per_stage_seconds()[name];
            assert_eq!(ts.to_bits(), st.seconds.to_bits(), "stage {name}");
        }
        // Every kernel record carries its per-block schedule.
        for (_, _, k) in tr.kernels() {
            let bt = k.blocks.as_ref().expect("tracing attaches block schedules");
            assert_eq!(bt.len(), k.grid);
        }
        // The export is byte-deterministic across engines.
        let (_, r2) = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true)
            .multiply(&a, &a);
        let j1 = tr.chrome_trace_json();
        assert_eq!(j1, r2.trace.as_ref().unwrap().chrome_trace_json());
        let back = crate::trace::ExecutionTrace::from_chrome_trace(&j1).unwrap();
        assert_eq!(back.chrome_trace_json(), j1);
    }

    #[test]
    fn concurrent_engines_with_mixed_tracing_stay_independent() {
        // A traced engine multiplies while a plain engine builds plans on
        // another thread, round by round in lockstep. Tracing belongs to
        // the engine, not the process: the plain plans must hold no block
        // events, and the traced export must not depend on what else ran.
        const ROUNDS: usize = 20;
        let a = rmat(10, 8, 0.57, 0.19, 0.19, 61);
        let b = uniform_random(2000, 2000, 2, 8, 62);
        let traced_engine = || {
            SpeckSpgemm::default()
                .with_plan_cache_capacity(0)
                .with_tracing(true)
        };
        let solo = traced_engine().multiply(&a, &a).1.trace.unwrap();
        let solo_json = solo.chrome_trace_json();

        let (traced, plain) = (traced_engine(), SpeckSpgemm::default());
        let barrier = std::sync::Barrier::new(2);
        let (traces, plans) = std::thread::scope(|s| {
            let t = s.spawn(|| {
                (0..ROUNDS)
                    .map(|_| {
                        barrier.wait();
                        traced.multiply(&a, &a).1.trace.unwrap()
                    })
                    .collect::<Vec<_>>()
            });
            let p = s.spawn(|| {
                (0..ROUNDS)
                    .map(|_| {
                        barrier.wait();
                        plain.plan(&b, &b)
                    })
                    .collect::<Vec<_>>()
            });
            (t.join().unwrap(), p.join().unwrap())
        });

        for plan in &plans {
            for r in &plan.setup {
                if let crate::trace::TraceRecordKind::Kernel(k) = &r.kind {
                    assert!(k.blocks.is_none(), "plain plan holds block events");
                }
            }
        }
        for tr in &traces {
            for (_, _, k) in tr.kernels() {
                let bt = k.blocks.as_ref().expect("traced record without blocks");
                assert_eq!(bt.len(), k.grid);
            }
            assert_eq!(tr.chrome_trace_json(), solo_json);
        }
    }

    #[test]
    fn warm_trace_covers_only_executed_stages() {
        let a = uniform_random(500, 500, 2, 6, 52);
        let e = SpeckSpgemm::default().with_tracing(true);
        let (_, cold) = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        let cold_tr = cold.trace.as_ref().unwrap();
        let warm_tr = warm.trace.as_ref().unwrap();
        // Cold trace spans the full pipeline, warm only the execute half.
        let cold_stages = cold_tr.per_stage_seconds();
        assert!(cold_stages.contains_key(stage::ANALYSIS));
        assert!(cold_stages.contains_key(stage::NUMERIC));
        for s in warm_tr.per_stage_seconds().keys() {
            assert!(s == stage::NUMERIC || s == stage::SORTING, "stage {s}");
        }
        assert_eq!(warm_tr.total_seconds().to_bits(), warm.sim_time_s.to_bits());
        // The diff pins exactly what plan reuse skipped.
        let d = crate::profile::diff_traces(cold_tr, warm_tr);
        assert!(d.total_delta_s < 0.0);
        assert_eq!(d.stages[stage::ANALYSIS].1, 0.0);
        // Hot-row profiling sees real rows.
        let p = crate::profile::profile_trace(cold_tr, 10);
        assert!(!p.top_rows.is_empty());
        assert!((p.top_rows[0].row as usize) < a.rows());
    }

    #[test]
    fn tracing_engine_reuses_a_plain_engines_plan() {
        let a = uniform_random(400, 400, 2, 6, 53);
        let e = SpeckSpgemm::default();
        let (_, cold) = e.multiply(&a, &a);
        assert!(cold.trace.is_none());
        // Observing engines share the plain engine's plans: the hit runs
        // warm and traces only the stages it executed.
        let (_, warm) = e.clone().with_tracing(true).multiply(&a, &a);
        assert!(warm.reused_plan);
        let tr = warm
            .trace
            .as_ref()
            .expect("tracing engine attaches a trace");
        assert_eq!(tr.total_seconds().to_bits(), warm.sim_time_s.to_bits());
        let (_, audited) = e.clone().with_auditing(true).multiply(&a, &a);
        assert!(audited.reused_plan);
        assert!(audited.audit.is_some());
    }

    #[test]
    fn ablation_configs_all_correct() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 12);
        for cfg in [
            SpeckConfig::hash_only(),
            SpeckConfig::hash_dense(),
            SpeckConfig::fixed_local_lb(),
        ] {
            let engine = SpeckSpgemm::with_config(cfg);
            let (c, _) = engine.multiply(&a, &a);
            let expect = spgemm_seq(&a, &a);
            assert!(c.approx_eq(&expect, 1e-10, 1e-12));
        }
    }
}

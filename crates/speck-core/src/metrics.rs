//! Structured observability: a lock-free metrics registry, hierarchical
//! wall-clock spans, and deterministic snapshots with CI-gateable diffs.
//!
//! spECK is a *decision system* — analysis, binning, accumulator
//! selection — and an end-to-end time cannot tell which decision a
//! regression came from. This module gives every layer of the stack a
//! place to report what it did:
//!
//! * [`MetricsRegistry`] — a sharded map of named [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s. Registration takes a brief per-shard
//!   lock; every update afterwards is a plain atomic, so concurrently
//!   executing blocks and batched multiplies record without contention.
//! * [`Span`] — hierarchical wall-clock timing (`plan/analysis`,
//!   `execute/numeric`, …). Each span records a deterministic entry
//!   counter (`span/<path>/count`) and a volatile wall-time gauge
//!   (`wall/span/<path>/seconds`).
//! * [`MetricsSink`] — a copyable `Option<&MetricsRegistry>` wrapper the
//!   pipeline threads through its stages; with no registry attached every
//!   call is a no-op, so the free functions ([`crate::multiply`]) stay
//!   metrics-free while [`crate::SpeckSpgemm`] records everything. The
//!   per-launch `sim/stage/*` and `sim/kernel/*` counters are not
//!   recorded launch by launch: [`MetricsSink::record_launches`] folds
//!   them from the multiply's one record stream ([`crate::trace`]), the
//!   same records the `Timeline` and the execution trace fold.
//! * [`MetricsSnapshot`] — a point-in-time copy with two serialisations:
//!   [`MetricsSnapshot::canonical_json`] holds only the deterministic
//!   metrics (counters + histograms, all integers, sorted keys) and is
//!   byte-identical across repeated runs of the same multiply;
//!   [`MetricsSnapshot::full_json`] adds the volatile gauges (wall times,
//!   pool occupancy). [`compare_snapshots`] diffs a run against a
//!   committed baseline — deterministic metrics exactly, `wall/` gauges
//!   within a declared tolerance — which is what `ci.sh --metrics` gates
//!   on. Both serialisations and [`MetricsSnapshot::parse_json`] use the
//!   crate's one JSON module ([`crate::json`]).
//!
//! ## Determinism contract
//!
//! Everything recorded as a counter or histogram must be a pure function
//! of the multiply sequence (simulated-cost counters, launch counts,
//! cache hits): the canonical snapshot of a fresh engine running a fixed
//! workload is byte-stable, regardless of host thread count. Anything
//! wall-clock- or scheduling-dependent (span times, workspace-pool
//! occupancy) must be a gauge. `tests/metrics_determinism.rs` enforces
//! the contract by property test on both the cold and the plan-reuse
//! path.
//!
//! ## Naming scheme
//!
//! Metric names are `/`-separated paths. The conventional prefixes:
//!
//! | prefix         | content                                            |
//! |----------------|----------------------------------------------------|
//! | `sim/stage/*`  | per-pipeline-stage launches, cycles, cost counters |
//! | `sim/kernel/*` | the same keyed by kernel name                      |
//! | `sim/lb/*`     | load-balancer bins, methods, rows per block        |
//! | `sim/symbolic/*`, `sim/numeric/*` | pass-level outputs (spills, radix elements) |
//! | `span/*`       | span entry counts (deterministic)                  |
//! | `engine/*`     | engine call counts (multiply, reuse)               |
//! | `plan_cache/*` | hit/miss/eviction counters (snapshot-injected)     |
//! | `wall/*`       | wall-clock gauges — tolerance-gated in CI          |
//! | `pool/*`       | occupancy gauges — informational, never gated      |

use crate::json::{parse_json_value, push_json_string, JsonValue};
use crate::plan::fnv1a_bytes;
use crate::trace::{TraceRecord, TraceRecordKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Snapshot-format identifier embedded in every serialised snapshot.
pub const SNAPSHOT_FORMAT: &str = "speck-metrics-v1";

/// Default relative tolerance for `wall/` gauges when the baseline does
/// not declare one (see [`compare_snapshots`]).
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.10;

/// Absolute floor under which `wall/` gauge differences always pass —
/// sub-10ms wall times are dominated by scheduler noise and would make a
/// relative gate flaky.
pub const WALL_ABS_FLOOR_S: f64 = 0.01;

/// A monotonically increasing integer metric (lock-free).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point level metric (lock-free; last-write/accumulate
/// semantics). Gauges are *volatile*: they never participate in the
/// canonical snapshot.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` to the gauge (atomic read-modify-write loop).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if `v` is larger.
    pub fn max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0; bucket `i`
/// (1..=64) holds values of bit-width `i`, i.e. `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Power-of-two histogram over `u64` values (lock-free).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Bucket index of a value: 0 for 0, else its bit width.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `v`.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` at once.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Merges a [`LocalHistogram`] accumulated without atomics — the
    /// cheap way for a hot loop to histogram per-row quantities with one
    /// registry interaction.
    pub fn merge_local(&self, local: &LocalHistogram) {
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// Plain (non-atomic) histogram scratch for single-threaded accumulation;
/// flush with [`Histogram::merge_local`].
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty scratch histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }
}

/// One registered metric (type-tagged).
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

const SHARD_COUNT: usize = 16;

fn shard_of(name: &str) -> usize {
    // Shards only need a rough spread.
    (fnv1a_bytes(name.as_bytes()) as usize) % SHARD_COUNT
}

/// Sharded registry of named metrics.
///
/// Lookup/registration locks one of 16 shards briefly; the returned
/// handles are `Arc`s whose updates are lock-free atomics. Handles stay
/// valid for the registry's lifetime, so hot paths may cache them.
#[derive(Default)]
pub struct MetricsRegistry {
    shards: [Mutex<HashMap<String, Metric>>; SHARD_COUNT],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry<T, F: FnOnce() -> Metric, G: Fn(&Metric) -> Option<T>>(
        &self,
        name: &str,
        make: F,
        cast: G,
    ) -> T {
        let mut shard = self.shards[shard_of(name)].lock().unwrap();
        let metric = shard.entry(name.to_string()).or_insert_with(make).clone();
        drop(shard);
        cast(&metric).unwrap_or_else(|| panic!("metric '{name}' registered with another kind"))
    }

    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.entry(
            name,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.entry(
            name,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.entry(
            name,
            || Metric::Histogram(Arc::new(Histogram::default())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Starts a root wall-clock span named `name` (see [`Span`]).
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            reg: self,
            path: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (name, metric) in shard.lock().unwrap().iter() {
                match metric {
                    Metric::Counter(c) => {
                        snap.counters.insert(name.clone(), c.get());
                    }
                    Metric::Gauge(g) => {
                        snap.gauges.insert(name.clone(), g.get());
                    }
                    Metric::Histogram(h) => {
                        snap.histograms.insert(name.clone(), h.snapshot());
                    }
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n: usize = self.shards.iter().map(|s| s.lock().unwrap().len()).sum();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &n)
            .finish()
    }
}

/// A hierarchical wall-clock span. Dropping the span records
/// `span/<path>/count` (+1, deterministic) and adds the elapsed seconds
/// to the `wall/span/<path>/seconds` gauge (volatile).
pub struct Span<'a> {
    reg: &'a MetricsRegistry,
    path: String,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts a child span `"<parent path>/<name>"`.
    pub fn child(&self, name: &str) -> Span<'a> {
        Span {
            reg: self.reg,
            path: format!("{}/{name}", self.path),
            start: Instant::now(),
        }
    }

    /// The span's full path.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.reg
            .counter(&format!("span/{}/count", self.path))
            .add(1);
        self.reg
            .gauge(&format!("wall/span/{}/seconds", self.path))
            .add(self.start.elapsed().as_secs_f64());
    }
}

/// A child of a [`MaybeSpan`]: either live or a no-op.
pub struct MaybeSpan<'a>(Option<Span<'a>>);

impl<'a> MaybeSpan<'a> {
    /// Starts a child span (no-op when the parent is a no-op).
    pub fn child(&self, name: &str) -> MaybeSpan<'a> {
        MaybeSpan(self.0.as_ref().map(|s| s.child(name)))
    }
}

/// Copyable handle the pipeline threads through its stages: either a live
/// registry reference or a no-op. Every method is safe to call on the
/// no-op sink, so instrumentation sites need no `if let`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSink<'a> {
    reg: Option<&'a MetricsRegistry>,
}

impl<'a> MetricsSink<'a> {
    /// A sink recording into `reg`.
    pub fn new(reg: &'a MetricsRegistry) -> Self {
        MetricsSink { reg: Some(reg) }
    }

    /// The no-op sink.
    pub fn none() -> Self {
        MetricsSink { reg: None }
    }

    /// The underlying registry, when one is attached.
    pub fn registry(&self) -> Option<&'a MetricsRegistry> {
        self.reg
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&self, name: &str, v: u64) {
        if let Some(reg) = self.reg {
            reg.counter(name).add(v);
        }
    }

    /// Records `v` into the histogram `name`.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(reg) = self.reg {
            reg.histogram(name).record(v);
        }
    }

    /// Merges a locally accumulated histogram into `name`.
    pub fn record_local(&self, name: &str, local: &LocalHistogram) {
        if let Some(reg) = self.reg {
            reg.histogram(name).merge_local(local);
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(reg) = self.reg {
            reg.gauge(name).set(v);
        }
    }

    /// Starts a span (no-op without a registry).
    pub fn span(&self, name: &str) -> MaybeSpan<'a> {
        MaybeSpan(self.reg.map(|r| r.span(name)))
    }

    /// Folds the kernel launches of a record stream into the `sim/*`
    /// counters: per launch, under its stage and its kernel name, the
    /// launch count, simulated cycles (millicycle resolution), every
    /// non-zero cost-model counter, and grid-size / cycle histograms.
    /// Fixed-cost records carry no counters.
    pub fn record_launches(&self, records: &[TraceRecord]) {
        let Some(reg) = self.reg else { return };
        for r in records {
            let TraceRecordKind::Kernel(k) = &r.kind else {
                continue;
            };
            let stage = r.stage;
            let cycles_milli = (k.sim_cycles * 1e3).round() as u64;
            reg.counter(&format!("sim/stage/{stage}/launches")).add(1);
            reg.counter(&format!("sim/stage/{stage}/cycles_milli"))
                .add(cycles_milli);
            for (cname, v) in k.cost.counters() {
                if v > 0 {
                    reg.counter(&format!("sim/stage/{stage}/{cname}")).add(v);
                }
            }
            reg.histogram(&format!("sim/stage/{stage}/grid"))
                .record(k.grid as u64);
            let kname = &k.name;
            reg.counter(&format!("sim/kernel/{kname}/launches")).add(1);
            reg.counter(&format!("sim/kernel/{kname}/cycles_milli"))
                .add(cycles_milli);
            reg.histogram("sim/launch/cycles_milli")
                .record(cycles_milli);
        }
    }
}

/// Point-in-time copy of one histogram: total count, sum, and the
/// non-empty power-of-two buckets as `(bucket index, count)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], optionally annotated with
/// a declared `wall/` gauge tolerance for baseline gating.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name (deterministic section).
    pub counters: BTreeMap<String, u64>,
    /// All histograms, sorted by name (deterministic section).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// All gauges, sorted by name (volatile section).
    pub gauges: BTreeMap<String, f64>,
    /// Relative tolerance this snapshot declares for its `wall/` gauges
    /// when used as a comparison baseline.
    pub wall_tolerance: Option<f64>,
}

impl MetricsSnapshot {
    fn write_counters(&self, out: &mut String) {
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_string(out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  }");
    }

    fn write_histograms(&self, out: &mut String) {
        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_string(out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{b}, {n}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }");
    }

    /// Canonical serialisation of the *deterministic* section (counters +
    /// histograms): integers only, keys sorted, fixed layout. Two runs of
    /// the same multiply sequence on a fresh registry produce
    /// byte-identical canonical JSON regardless of host parallelism.
    pub fn canonical_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{SNAPSHOT_FORMAT}\",");
        self.write_counters(&mut out);
        out.push_str(",\n");
        self.write_histograms(&mut out);
        out.push_str("\n}\n");
        out
    }

    /// Full serialisation: the canonical section plus the volatile gauges
    /// and the declared `wall/` tolerance. This is the `BENCH_metrics.json`
    /// format.
    pub fn full_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{SNAPSHOT_FORMAT}\",");
        if let Some(t) = self.wall_tolerance {
            let _ = writeln!(out, "  \"wall_tolerance\": {t},");
        }
        self.write_counters(&mut out);
        out.push_str(",\n");
        self.write_histograms(&mut out);
        out.push_str(",\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_string(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Human-readable table of every metric, for terminals and CI job
    /// summaries.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<58} {:>16}", "counter", "value");
        let _ = writeln!(out, "{:-<58} {:-<16}", "", "");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<58} {v:>16}");
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<58} {:>10} {:>16} {:>12}",
                "histogram", "count", "sum", "mean"
            );
            let _ = writeln!(out, "{:-<58} {:-<10} {:-<16} {:-<12}", "", "", "", "");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<58} {:>10} {:>16} {:>12.1}",
                    h.count,
                    h.sum,
                    h.mean()
                );
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<58} {:>16}", "gauge (volatile)", "value");
            let _ = writeln!(out, "{:-<58} {:-<16}", "", "");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<58} {v:>16.6}");
            }
        }
        out
    }

    /// Parses a snapshot previously written by [`Self::full_json`] or
    /// [`Self::canonical_json`]. Unknown top-level keys are skipped, so
    /// baselines survive additive format evolution. Counters and
    /// histogram sums read back exactly, above 2^53 too.
    pub fn parse_json(text: &str) -> Result<MetricsSnapshot, String> {
        let root = parse_json_value(text)?;
        match root.get("format").and_then(JsonValue::as_str) {
            Some(SNAPSHOT_FORMAT) => {}
            Some(other) => return Err(format!("unknown metrics format '{other}'")),
            None => return Err("missing \"format\" field".into()),
        }
        let section = |key: &str| {
            root.get(key)
                .and_then(JsonValue::as_obj)
                .unwrap_or_default()
        };
        let int = |v: &JsonValue, what: &str| {
            v.as_u64()
                .ok_or_else(|| format!("metrics json: {what} is not an unsigned integer"))
        };
        let mut snap = MetricsSnapshot {
            wall_tolerance: root.get("wall_tolerance").and_then(JsonValue::as_f64),
            ..MetricsSnapshot::default()
        };
        for (name, v) in section("counters") {
            snap.counters.insert(name.clone(), int(v, name)?);
        }
        for (name, v) in section("gauges") {
            let g = v
                .as_f64()
                .ok_or_else(|| format!("metrics json: gauge {name} is not a number"))?;
            snap.gauges.insert(name.clone(), g);
        }
        for (name, v) in section("histograms") {
            let field = |key: &str| {
                v.get(key)
                    .ok_or(format!("metrics json: {name}.{key} missing"))
            };
            let mut h = HistogramSnapshot {
                count: int(field("count")?, name)?,
                sum: int(field("sum")?, name)?,
                buckets: Vec::new(),
            };
            for pair in field("buckets")?.as_arr().unwrap_or_default() {
                match pair.as_arr() {
                    Some([b, n]) => h.buckets.push((int(b, name)? as u32, int(n, name)?)),
                    _ => return Err(format!("metrics json: {name} has a malformed bucket")),
                }
            }
            snap.histograms.insert(name.clone(), h);
        }
        Ok(snap)
    }
}

/// Diffs `current` against a committed `baseline`:
///
/// * counters and histograms (the deterministic section) must match
///   **exactly** — missing, extra, or drifted entries are all reported;
/// * gauges with the `wall/` prefix must agree within the tolerance the
///   baseline declares (falling back to `default_wall_tol`), with an
///   absolute floor of [`WALL_ABS_FLOOR_S`] so sub-10ms noise never
///   gates;
/// * all other gauges (`pool/` occupancy etc.) are informational and
///   never compared.
///
/// Returns human-readable drift descriptions; empty means the gate
/// passes.
pub fn compare_snapshots(
    current: &MetricsSnapshot,
    baseline: &MetricsSnapshot,
    default_wall_tol: f64,
) -> Vec<String> {
    let mut drift = Vec::new();
    for (name, base) in &baseline.counters {
        match current.counters.get(name) {
            None => drift.push(format!("counter '{name}' missing (baseline {base})")),
            Some(cur) if cur != base => {
                drift.push(format!("counter '{name}': {cur} != baseline {base}"))
            }
            Some(_) => {}
        }
    }
    for (name, cur) in &current.counters {
        if !baseline.counters.contains_key(name) {
            drift.push(format!(
                "counter '{name}' not in baseline (value {cur}) — re-record BENCH_metrics.json"
            ));
        }
    }
    for (name, base) in &baseline.histograms {
        match current.histograms.get(name) {
            None => drift.push(format!("histogram '{name}' missing")),
            Some(cur) if cur != base => drift.push(format!(
                "histogram '{name}': count {}/sum {} != baseline count {}/sum {}",
                cur.count, cur.sum, base.count, base.sum
            )),
            Some(_) => {}
        }
    }
    for name in current.histograms.keys() {
        if !baseline.histograms.contains_key(name) {
            drift.push(format!(
                "histogram '{name}' not in baseline — re-record BENCH_metrics.json"
            ));
        }
    }
    let tol = baseline.wall_tolerance.unwrap_or(default_wall_tol);
    for (name, base) in &baseline.gauges {
        if !name.starts_with("wall/") {
            continue;
        }
        match current.gauges.get(name) {
            None => drift.push(format!("wall gauge '{name}' missing")),
            Some(cur) => {
                let abs = (cur - base).abs();
                let rel = abs / base.abs().max(cur.abs()).max(f64::MIN_POSITIVE);
                if abs > WALL_ABS_FLOOR_S && rel > tol {
                    drift.push(format!(
                        "wall gauge '{name}': {cur:.4} vs baseline {base:.4} \
                         ({:.0}% > {:.0}% tolerance)",
                        rel * 100.0,
                        tol * 100.0
                    ));
                }
            }
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn counters_aggregate_under_parallel_updates() {
        // Rayon-parallel block execution is the hot recording context:
        // many workers adding to the same named counters concurrently must
        // lose nothing.
        let reg = MetricsRegistry::new();
        let _: Vec<()> = (0..10_000usize)
            .into_par_iter()
            .map(|i| {
                reg.counter("par/total").add(1);
                reg.counter(&format!("par/mod{}", i % 7)).add(i as u64);
                reg.histogram("par/hist").record(i as u64 % 97);
            })
            .collect();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["par/total"], 10_000);
        let per_mod: u64 = (0..7).map(|m| snap.counters[&format!("par/mod{m}")]).sum();
        assert_eq!(per_mod, (0..10_000u64).sum::<u64>());
        let h = &snap.histograms["par/hist"];
        assert_eq!(h.count, 10_000);
        assert_eq!(h.sum, (0..10_000u64).map(|i| i % 97).sum::<u64>());
    }

    #[test]
    fn gauge_ops() {
        let g = Gauge::default();
        g.set(1.5);
        g.add(2.5);
        assert_eq!(g.get(), 4.0);
        g.max(3.0);
        assert_eq!(g.get(), 4.0);
        g.max(5.0);
        assert_eq!(g.get(), 5.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        let h = Histogram::default();
        h.record(0);
        h.record_n(3, 2);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets, vec![(0, 1), (2, 2), (11, 1)]);
        assert!((s.mean() - 257.5).abs() < 1e-12);
    }

    #[test]
    fn local_histogram_merges_like_direct_records() {
        let a = Histogram::default();
        let b = Histogram::default();
        let mut local = LocalHistogram::new();
        for v in [0u64, 5, 5, 9, 1 << 40] {
            a.record(v);
            local.record(v);
        }
        b.merge_local(&local);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a/b").add(42);
        reg.counter("weird \"name\"\\with escapes").add(7);
        reg.gauge("wall/x").set(0.125);
        reg.histogram("h").record(100);
        let mut snap = reg.snapshot();
        snap.wall_tolerance = Some(0.25);
        let parsed = MetricsSnapshot::parse_json(&snap.full_json()).unwrap();
        assert_eq!(parsed, snap);
        // The canonical form parses too (gauges absent).
        let canon = MetricsSnapshot::parse_json(&snap.canonical_json()).unwrap();
        assert_eq!(canon.counters, snap.counters);
        assert_eq!(canon.histograms, snap.histograms);
        assert!(canon.gauges.is_empty());
    }

    #[test]
    fn integers_above_2_pow_53_roundtrip_exactly() {
        // f64 holds integers exactly only up to 2^53; counters and
        // histogram sums must survive the JSON text without passing
        // through it.
        let reg = MetricsRegistry::new();
        reg.counter("big").add(u64::MAX - 1);
        reg.histogram("h").record_n((1 << 53) + 1, 3);
        let snap = reg.snapshot();
        assert!(snap.histograms["h"].sum > 1 << 53);
        let parsed = MetricsSnapshot::parse_json(&snap.full_json()).unwrap();
        assert_eq!(parsed.counters["big"], u64::MAX - 1);
        assert_eq!(parsed, snap);
        // A malformed section fails instead of truncating.
        let bad = snap.full_json().replace("18446744073709551614", "-1");
        assert!(MetricsSnapshot::parse_json(&bad).is_err());
    }

    #[test]
    fn canonical_json_is_stable_across_insertion_order() {
        let r1 = MetricsRegistry::new();
        r1.counter("b").add(2);
        r1.counter("a").add(1);
        r1.gauge("wall/noise").set(123.456);
        let r2 = MetricsRegistry::new();
        r2.counter("a").add(1);
        r2.counter("b").add(2);
        r2.gauge("wall/noise").set(654.321);
        assert_eq!(
            r1.snapshot().canonical_json(),
            r2.snapshot().canonical_json()
        );
    }

    #[test]
    fn compare_flags_exact_counter_drift_and_tolerates_wall() {
        let mk = |c: u64, wall: f64| {
            let reg = MetricsRegistry::new();
            reg.counter("sim/x").add(c);
            reg.gauge("wall/t").set(wall);
            reg.gauge("pool/idle").set(999.0);
            reg.snapshot()
        };
        let base = mk(10, 1.0);
        // Identical: passes.
        assert!(compare_snapshots(&mk(10, 1.0), &base, 0.10).is_empty());
        // Wall within 10%: passes; pool/ gauge never compared.
        assert!(compare_snapshots(&mk(10, 1.05), &base, 0.10).is_empty());
        // Wall beyond tolerance: flagged.
        assert_eq!(compare_snapshots(&mk(10, 2.0), &base, 0.10).len(), 1);
        // Baseline-declared tolerance wins over the default.
        let mut loose = base.clone();
        loose.wall_tolerance = Some(0.75);
        assert!(compare_snapshots(&mk(10, 1.6), &loose, 0.10).is_empty());
        // Counter drift is always flagged.
        let drift = compare_snapshots(&mk(11, 1.0), &base, 0.10);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("sim/x"));
        // Sub-floor absolute wall differences never gate.
        let tiny_base = mk(1, 0.001);
        assert!(compare_snapshots(&mk(1, 0.004), &tiny_base, 0.10).is_empty());
    }

    #[test]
    fn compare_flags_missing_and_extra_entries() {
        let reg = MetricsRegistry::new();
        reg.counter("only/current").add(1);
        let cur = reg.snapshot();
        let reg2 = MetricsRegistry::new();
        reg2.counter("only/baseline").add(1);
        let base = reg2.snapshot();
        let drift = compare_snapshots(&cur, &base, 0.10);
        assert_eq!(drift.len(), 2, "{drift:?}");
    }

    #[test]
    fn spans_record_counts_and_wall_gauges() {
        let reg = MetricsRegistry::new();
        {
            let root = reg.span("multiply");
            let _child = root.child("analysis");
            assert_eq!(root.path(), "multiply");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["span/multiply/count"], 1);
        assert_eq!(snap.counters["span/multiply/analysis/count"], 1);
        assert!(snap.gauges.contains_key("wall/span/multiply/seconds"));
        assert!(
            *snap
                .gauges
                .get("wall/span/multiply/analysis/seconds")
                .unwrap()
                >= 0.0
        );
    }

    #[test]
    fn noop_sink_records_nothing() {
        let sink = MetricsSink::none();
        sink.add("x", 1);
        sink.record("y", 2);
        sink.gauge_set("z", 3.0);
        let _span = sink.span("s").child("c");
        assert!(sink.registry().is_none());
    }

    #[test]
    fn render_table_mentions_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("c/one").add(1);
        reg.histogram("h/two").record(5);
        reg.gauge("wall/three").set(0.5);
        let table = reg.snapshot().render_table();
        for name in ["c/one", "h/two", "wall/three"] {
            assert!(table.contains(name), "missing {name} in\n{table}");
        }
    }
}

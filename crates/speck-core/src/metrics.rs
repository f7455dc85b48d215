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
//!   executing blocks and concurrent multiplies record without contention.
//!   The registry also caches the handles the pipeline records through on
//!   every multiply, so a metric's name is formatted and looked up once,
//!   when it registers; every later record is an atomic add.
//! * [`Span`] — hierarchical wall-clock timing (`plan/analysis`,
//!   `execute/numeric`, …). Each span records a deterministic entry
//!   counter (`span/<path>/count`) and a volatile wall-time gauge
//!   (`wall/span/<path>/seconds`). The registry resolves each path once,
//!   so starting and ending spans allocates nothing after the first.
//! * Recording — every multiply records into its engine's registry, and
//!   the pipeline's stages take `&MetricsRegistry` directly. The per-launch
//!   `sim/stage/*` and `sim/kernel/*` counters are not recorded launch by
//!   launch: [`MetricsRegistry::record_launches`] folds them from the
//!   multiply's one record stream ([`crate::trace`]), the same records
//!   the `Timeline` and the execution trace fold.
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
use speck_simt::{BlockCost, COST_COUNTER_NAMES};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// A metric kind the registry can hold.
trait Kind: Default {
    fn wrap(handle: Arc<Self>) -> Metric;
    fn cast(metric: &Metric) -> Option<&Arc<Self>>;

    /// The handle in `metric`, which must be of this kind.
    fn handle(metric: &Metric, name: &str) -> Arc<Self> {
        Self::cast(metric)
            .cloned()
            .unwrap_or_else(|| panic!("metric '{name}' registered with another kind"))
    }
}

impl Kind for Counter {
    fn wrap(handle: Arc<Self>) -> Metric {
        Metric::Counter(handle)
    }
    fn cast(metric: &Metric) -> Option<&Arc<Self>> {
        match metric {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }
}

impl Kind for Gauge {
    fn wrap(handle: Arc<Self>) -> Metric {
        Metric::Gauge(handle)
    }
    fn cast(metric: &Metric) -> Option<&Arc<Self>> {
        match metric {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }
}

impl Kind for Histogram {
    fn wrap(handle: Arc<Self>) -> Metric {
        Metric::Histogram(handle)
    }
    fn cast(metric: &Metric) -> Option<&Arc<Self>> {
        match metric {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

const SHARD_COUNT: usize = 16;

fn shard_of(name: &str) -> usize {
    // Shards only need a rough spread.
    (fnv1a_bytes(name.as_bytes()) as usize) % SHARD_COUNT
}

/// Sharded registry of named metrics.
///
/// Lookup/registration locks one of 16 shards briefly; the returned
/// handles are `Arc`s whose updates are lock-free atomics, valid for the
/// registry's lifetime. The metrics the pipeline records on every
/// multiply — launch folds, load-balancer outcomes, pass outputs, engine
/// counters and span paths — go through the registry's own handle cache:
/// each name is formatted and looked up once per registry, when the
/// metric registers, and every later record is an atomic add. The cache
/// belongs to the registry, not to an engine, so engines sharing a
/// registry share it, and an engine given another registry records only
/// there.
#[derive(Default)]
pub struct MetricsRegistry {
    shards: [Mutex<HashMap<String, Metric>>; SHARD_COUNT],
    cache: Mutex<HandleCache>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry<T: Kind>(&self, name: &str) -> Arc<T> {
        let mut shard = self.shards[shard_of(name)].lock().unwrap();
        // Look up by `&str` first: only a registration allocates the key.
        if let Some(metric) = shard.get(name) {
            return T::handle(metric, name);
        }
        let handle = Arc::<T>::default();
        shard.insert(name.to_string(), T::wrap(Arc::clone(&handle)));
        handle
    }

    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.entry(name)
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.entry(name)
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.entry(name)
    }

    /// The metric named `name` through the handle cache: after the first
    /// call, no shard lock and no hash.
    fn named<T: Kind>(&self, name: &'static str) -> Arc<T> {
        let mut cache = self.cache.lock().unwrap();
        let (_, metric) = find_or_push(
            &mut cache.named,
            |(n, _)| *n == name,
            || (name, T::wrap(self.entry(name))),
        );
        T::handle(metric, name)
    }

    /// [`Self::counter`] for a compile-time name, through the handle cache.
    pub(crate) fn named_counter(&self, name: &'static str) -> Arc<Counter> {
        self.named(name)
    }

    /// [`Self::histogram`] for a compile-time name, through the handle
    /// cache.
    pub(crate) fn named_histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.named(name)
    }

    /// Starts a root wall-clock span named `name` (see [`Span`]).
    pub fn span(&self, name: &str) -> Span<'_> {
        self.start_span(None, name)
    }

    fn start_span(&self, parent: Option<&SpanPath>, name: &str) -> Span<'_> {
        Span {
            reg: self,
            path: self.cache.lock().unwrap().span_path(parent, name),
            start: Instant::now(),
        }
    }

    /// Folds the kernel launches of a record stream into the `sim/*`
    /// counters: per launch, under its stage and its kernel name, the
    /// launch count, simulated cycles (millicycle resolution), every
    /// non-zero cost-model counter, and grid-size / cycle histograms.
    /// Fixed-cost records carry no counters.
    ///
    /// The stream is folded per stage and per kernel name first, so each
    /// metric sees one atomic add per call, not one per launch; the sums
    /// and histograms are the same either way. The call takes the handle
    /// cache's lock once.
    pub fn record_launches(&self, records: &[TraceRecord]) {
        let mut cache = self.cache.lock().unwrap();
        let mut launch_cycles = LocalHistogram::new();
        for r in records {
            let TraceRecordKind::Kernel(k) = &r.kind else {
                continue;
            };
            let cycles_milli = (k.sim_cycles * 1e3).round() as u64;
            let f = &mut cache.stage(self, r.stage).fold;
            f.launches += 1;
            f.cycles_milli += cycles_milli;
            f.cost = f.cost.merge(&k.cost);
            f.grid.record(k.grid as u64);
            let (n, c) = &mut cache.kernel(self, &k.name).fold;
            *n += 1;
            *c += cycles_milli;
            launch_cycles.record(cycles_milli);
        }
        // No launch registers no metric, not even an empty histogram.
        if launch_cycles.count == 0 {
            return;
        }
        for s in cache.stages.iter_mut().filter(|s| s.fold.launches > 0) {
            let f = std::mem::take(&mut s.fold);
            s.launches.add(f.launches);
            s.cycles_milli.add(f.cycles_milli);
            for (slot, (cname, v)) in s.cost.iter_mut().zip(f.cost.counters()) {
                if v > 0 {
                    slot.get_or_insert_with(|| {
                        self.counter(&format!("sim/stage/{}/{cname}", s.stage))
                    })
                    .add(v);
                }
            }
            s.grid.merge_local(&f.grid);
        }
        for k in cache.kernels.iter_mut().filter(|k| k.fold.0 > 0) {
            let (launches, cycles_milli) = std::mem::take(&mut k.fold);
            k.launches.add(launches);
            k.cycles_milli.add(cycles_milli);
        }
        cache
            .launch_cycles
            .get_or_insert_with(|| self.histogram("sim/launch/cycles_milli"))
            .merge_local(&launch_cycles);
    }

    /// Records a pass's load-balancing outcome under `sim/lb/<pass>/`:
    /// one decision, whether binning engaged (registered only once it
    /// does), the rows the decision consulted, blocks per accumulation
    /// method (hash, dense, direct) and the rows-per-block histogram.
    pub(crate) fn record_pass(
        &self,
        pass: &'static str,
        global_lb_used: bool,
        decision_rows: u64,
        blocks: [u64; 3],
        rows_per_block: &LocalHistogram,
    ) {
        let mut cache = self.cache.lock().unwrap();
        let h = cache.pass(self, pass);
        h.decisions.add(1);
        if global_lb_used {
            h.global_lb_used
                .get_or_insert_with(|| self.counter(&format!("sim/lb/{pass}/global_lb_used")))
                .add(1);
        }
        h.decision_rows.add(decision_rows);
        for (c, n) in h.blocks.iter().zip(blocks) {
            c.add(n);
        }
        h.rows_per_block.merge_local(rows_per_block);
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

/// The registry's resolved handles (see [`MetricsRegistry`]). Each
/// handle registers its metric exactly when an uncached lookup would
/// have, so the snapshot's key set does not depend on the cache.
#[derive(Default)]
struct HandleCache {
    /// Counters and histograms with compile-time names.
    named: Vec<(&'static str, Metric)>,
    stages: Vec<StageHandles>,
    kernels: Vec<KernelHandles>,
    /// `sim/launch/cycles_milli`.
    launch_cycles: Option<Arc<Histogram>>,
    passes: Vec<PassHandles>,
    spans: Vec<Arc<SpanPath>>,
}

/// `sim/stage/<stage>/*`, and the stage's launches folded so far by the
/// running [`MetricsRegistry::record_launches`] call.
struct StageHandles {
    stage: &'static str,
    launches: Arc<Counter>,
    cycles_milli: Arc<Counter>,
    grid: Arc<Histogram>,
    /// One per [`COST_COUNTER_NAMES`] entry, registered on its first
    /// non-zero add.
    cost: [Option<Arc<Counter>>; COST_COUNTER_NAMES.len()],
    fold: StageFold,
}

/// One stage's launches, folded.
#[derive(Default)]
struct StageFold {
    launches: u64,
    cycles_milli: u64,
    cost: BlockCost,
    grid: LocalHistogram,
}

/// `sim/kernel/<name>/*`, and the `(launches, cycles_milli)` folded so
/// far by the running [`MetricsRegistry::record_launches`] call.
struct KernelHandles {
    name: String,
    launches: Arc<Counter>,
    cycles_milli: Arc<Counter>,
    fold: (u64, u64),
}

/// `sim/lb/<pass>/*`.
struct PassHandles {
    pass: &'static str,
    decisions: Arc<Counter>,
    /// Registered the first time the pass bins.
    global_lb_used: Option<Arc<Counter>>,
    decision_rows: Arc<Counter>,
    /// `blocks_hash`, `blocks_dense`, `blocks_direct`.
    blocks: [Arc<Counter>; 3],
    rows_per_block: Arc<Histogram>,
}

/// The entry of `entries` that `is` picks, pushed from `make` if none
/// does.
fn find_or_push<T>(
    entries: &mut Vec<T>,
    is: impl Fn(&T) -> bool,
    make: impl FnOnce() -> T,
) -> &mut T {
    let i = match entries.iter().position(is) {
        Some(i) => i,
        None => {
            entries.push(make());
            entries.len() - 1
        }
    };
    &mut entries[i]
}

impl HandleCache {
    fn stage(&mut self, reg: &MetricsRegistry, stage: &'static str) -> &mut StageHandles {
        find_or_push(
            &mut self.stages,
            |s| s.stage == stage,
            || StageHandles {
                stage,
                launches: reg.counter(&format!("sim/stage/{stage}/launches")),
                cycles_milli: reg.counter(&format!("sim/stage/{stage}/cycles_milli")),
                grid: reg.histogram(&format!("sim/stage/{stage}/grid")),
                cost: Default::default(),
                fold: StageFold::default(),
            },
        )
    }

    fn kernel(&mut self, reg: &MetricsRegistry, name: &str) -> &mut KernelHandles {
        find_or_push(
            &mut self.kernels,
            |k| k.name == name,
            || KernelHandles {
                name: name.to_string(),
                launches: reg.counter(&format!("sim/kernel/{name}/launches")),
                cycles_milli: reg.counter(&format!("sim/kernel/{name}/cycles_milli")),
                fold: (0, 0),
            },
        )
    }

    fn pass(&mut self, reg: &MetricsRegistry, pass: &'static str) -> &mut PassHandles {
        let counter = |name: &str| reg.counter(&format!("sim/lb/{pass}/{name}"));
        find_or_push(
            &mut self.passes,
            |p| p.pass == pass,
            || PassHandles {
                pass,
                decisions: counter("decisions"),
                global_lb_used: None,
                decision_rows: counter("decision_rows"),
                blocks: ["blocks_hash", "blocks_dense", "blocks_direct"].map(counter),
                rows_per_block: reg.histogram(&format!("sim/lb/{pass}/rows_per_block")),
            },
        )
    }

    /// The cached path of the span `name` under `parent` (a root span
    /// when `None`); only a path's first span formats and allocates.
    fn span_path(&mut self, parent: Option<&SpanPath>, name: &str) -> Arc<SpanPath> {
        let (id, parent_id) = (self.spans.len(), parent.map(|p| p.id));
        let path = find_or_push(
            &mut self.spans,
            |p| p.parent == parent_id && p.name == name,
            || {
                Arc::new(SpanPath {
                    id,
                    parent: parent_id,
                    name: name.to_string(),
                    path: match parent {
                        Some(parent) => format!("{}/{name}", parent.path),
                        None => name.to_string(),
                    },
                    handles: OnceLock::new(),
                })
            },
        );
        Arc::clone(path)
    }
}

/// One span path of a registry, and its `span/<path>/count` counter and
/// `wall/span/<path>/seconds` gauge once a span on the path has ended.
struct SpanPath {
    /// Index in the registry's span list.
    id: usize,
    parent: Option<usize>,
    name: String,
    path: String,
    handles: OnceLock<(Arc<Counter>, Arc<Gauge>)>,
}

/// A hierarchical wall-clock span. Dropping the span records
/// `span/<path>/count` (+1, deterministic) and adds the elapsed seconds
/// to the `wall/span/<path>/seconds` gauge (volatile). The registry
/// resolves each path and its two metrics once: starting or ending a
/// later span on the same path formats and allocates nothing.
pub struct Span<'a> {
    reg: &'a MetricsRegistry,
    path: Arc<SpanPath>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts a child span `"<parent path>/<name>"`.
    pub fn child(&self, name: &str) -> Span<'a> {
        self.reg.start_span(Some(&self.path), name)
    }

    /// The span's full path.
    pub fn path(&self) -> &str {
        &self.path.path
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (count, seconds) = self.path.handles.get_or_init(|| {
            let path = &self.path.path;
            (
                self.reg.counter(&format!("span/{path}/count")),
                self.reg.gauge(&format!("wall/span/{path}/seconds")),
            )
        });
        count.add(1);
        seconds.add(self.start.elapsed().as_secs_f64());
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
        match root.req("format", JsonValue::as_str)? {
            SNAPSHOT_FORMAT => {}
            other => return Err(format!("unknown metrics format '{other}'")),
        }
        // A section the document leaves out (the canonical form has no
        // gauges) reads empty.
        let section = |key: &str| {
            root.opt(key, JsonValue::as_obj)
                .map(Option::unwrap_or_default)
        };
        let mut snap = MetricsSnapshot {
            wall_tolerance: root.opt("wall_tolerance", JsonValue::as_f64)?,
            ..MetricsSnapshot::default()
        };
        for (name, v) in section("counters")? {
            snap.counters
                .insert(name.clone(), v.typed(name, JsonValue::as_u64)?);
        }
        for (name, v) in section("gauges")? {
            snap.gauges
                .insert(name.clone(), v.typed(name, JsonValue::as_f64)?);
        }
        for (name, v) in section("histograms")? {
            let histogram = || -> Result<HistogramSnapshot, String> {
                let buckets = v.req("buckets", JsonValue::as_arr)?.iter().map(|pair| {
                    pair.typed("buckets", |p| match p.as_arr()? {
                        [b, n] => Some((b.as_u32()?, n.as_u64()?)),
                        _ => None,
                    })
                });
                Ok(HistogramSnapshot {
                    count: v.req("count", JsonValue::as_u64)?,
                    sum: v.req("sum", JsonValue::as_u64)?,
                    buckets: buckets.collect::<Result<_, _>>()?,
                })
            };
            let h = histogram().map_err(|e| format!("metrics json: histogram {name:?}: {e}"))?;
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
        // A malformed section fails instead of truncating, naming the
        // offending key: a negative counter, or a histogram bucket index
        // beyond u32 (which must not wrap to bucket 1).
        let bad = snap.full_json().replace("18446744073709551614", "-1");
        let err = MetricsSnapshot::parse_json(&bad).unwrap_err();
        assert!(err.contains("\"big\""), "{err}");
        let (b, n) = snap.histograms["h"].buckets[0];
        let bucket = format!("[{b}, {n}]");
        assert!(snap.full_json().contains(&bucket));
        let bad = snap
            .full_json()
            .replace(&bucket, &format!("[4294967297, {n}]"));
        let err = MetricsSnapshot::parse_json(&bad).unwrap_err();
        assert!(
            err.contains("\"h\"") && err.contains("\"buckets\""),
            "{err}"
        );
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

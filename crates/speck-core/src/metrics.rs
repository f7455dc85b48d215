//! Structured observability: one metrics store, hierarchical wall-clock
//! spans, and deterministic snapshots with CI-gateable diffs.
//!
//! spECK is a *decision system* — analysis, binning, accumulator
//! selection — and an end-to-end time cannot tell which decision a
//! regression came from. This module gives every layer of the stack a
//! place to report what it did:
//!
//! * [`MetricsRegistry`] — one store of plain integers behind one lock:
//!   per pipeline stage, per kernel name and per load-balancing pass the
//!   folds the pipeline records, counters and histograms with fixed
//!   names, and span paths. Every recording call takes the lock once and
//!   adds integers; only [`MetricsRegistry::snapshot`] formats metric
//!   names, so recording into a registered metric allocates nothing.
//! * [`Span`] — hierarchical wall-clock timing (`plan/analysis`,
//!   `execute/numeric`, …). Each ended span records a deterministic entry
//!   counter (`span/<path>/count`) and a volatile wall-time gauge
//!   (`wall/span/<path>/seconds`).
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
use crate::trace::{TraceRecord, TraceRecordKind};
use speck_simt::BlockCost;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Snapshot-format identifier embedded in every serialised snapshot.
pub const SNAPSHOT_FORMAT: &str = "speck-metrics-v1";

/// Relative tolerance for `wall/` gauges when the baseline does not
/// declare one (see [`compare_snapshots`]).
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.10;

/// Absolute floor under which `wall/` gauge differences always pass —
/// sub-10ms wall times are dominated by scheduler noise and would make a
/// relative gate flaky.
pub const WALL_ABS_FLOOR_S: f64 = 0.01;

/// Number of histogram buckets: bucket 0 holds the value 0; bucket `i`
/// (1..=64) holds values of bit-width `i`, i.e. `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value: 0 for 0, else its bit width.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Power-of-two histogram over `u64` values. A caller fills one locally
/// and hands it to the registry in one call; the registry keeps its own
/// histograms the same way.
#[derive(Clone, Debug)]
pub(crate) struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Adds every observation of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: (0u32..).zip(self.buckets).filter(|&(_, n)| n > 0).collect(),
        }
    }
}

/// The metrics store: plain integers behind one lock.
///
/// Each recording call — [`Self::record_launches`], a pass's
/// load-balancing outcome, a fixed-name counter or histogram, a span's
/// start and end — takes the lock once and adds integers; only
/// [`Self::snapshot`] formats metric names. A metric appears in the
/// snapshot once it has registered: a fixed-name counter or histogram on
/// its first record (even of 0, or of an empty histogram), a stage's
/// cost counters once they are non-zero, `sim/lb/<pass>/global_lb_used`
/// once the pass has binned, and a span path once a span on it has
/// ended. The store belongs to the registry, not to an engine, so
/// engines sharing a registry record into one store, and an engine given
/// another registry records only there.
#[derive(Debug, Default)]
pub struct MetricsRegistry(Mutex<State>);

/// Everything a [`MetricsRegistry`] has recorded.
#[derive(Debug, Default)]
struct State {
    /// `sim/stage/<stage>/*`.
    stages: Vec<StageFold>,
    /// `sim/kernel/<name>/*`.
    kernels: Vec<KernelFold>,
    /// `sim/launch/cycles_milli`, once it holds a launch.
    launch_cycles: Histogram,
    /// `sim/lb/<pass>/*`.
    passes: Vec<PassFold>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Span paths, each after its parent.
    spans: Vec<SpanFold>,
}

/// One stage's launches.
#[derive(Debug, Default)]
struct StageFold {
    stage: &'static str,
    launches: u64,
    cycles_milli: u64,
    cost: BlockCost,
    grid: Histogram,
}

/// One kernel name's launches.
#[derive(Debug, Default)]
struct KernelFold {
    name: String,
    launches: u64,
    cycles_milli: u64,
}

/// One load-balancing pass's outcomes.
#[derive(Debug, Default)]
struct PassFold {
    pass: &'static str,
    decisions: u64,
    global_lb_used: u64,
    decision_rows: u64,
    /// Blocks per accumulation method, in [`PASS_BLOCK_NAMES`] order.
    blocks: [u64; 3],
    rows_per_block: Histogram,
}

const PASS_BLOCK_NAMES: [&str; 3] = ["blocks_hash", "blocks_dense", "blocks_direct"];

/// One span path: its last segment, its parent's index, and the spans
/// on it that have ended.
#[derive(Debug)]
struct SpanFold {
    parent: Option<usize>,
    name: String,
    count: u64,
    seconds: f64,
}

/// Index of the entry of `entries` that `is` picks, pushed from `make`
/// if none does.
fn find_or_push<T>(
    entries: &mut Vec<T>,
    is: impl Fn(&T) -> bool,
    make: impl FnOnce() -> T,
) -> usize {
    entries.iter().position(is).unwrap_or_else(|| {
        entries.push(make());
        entries.len() - 1
    })
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The locked store. A panic while recording leaves it valid (every
    /// update is a push or an integer add), so a poisoned lock is taken
    /// as is, and recording — including a [`Span`]'s drop — never panics.
    fn state(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `v` to the counter `name`.
    pub(crate) fn add(&self, name: &'static str, v: u64) {
        *self.state().counters.entry(name).or_default() += v;
    }

    /// Adds every observation of `h` to the histogram `name`.
    pub(crate) fn merge_histogram(&self, name: &'static str, h: &Histogram) {
        self.state().histograms.entry(name).or_default().merge(h);
    }

    /// Starts a root wall-clock span named `name` (see [`Span`]).
    pub fn span(&self, name: &str) -> Span<'_> {
        self.start_span(None, name)
    }

    fn start_span(&self, parent: Option<usize>, name: &str) -> Span<'_> {
        let id = find_or_push(
            &mut self.state().spans,
            |s| s.parent == parent && s.name == name,
            || SpanFold {
                parent,
                name: name.to_string(),
                count: 0,
                seconds: 0.0,
            },
        );
        Span {
            reg: self,
            id,
            start: Instant::now(),
        }
    }

    /// Folds the kernel launches of a record stream into the `sim/*`
    /// metrics: per launch, under its stage and its kernel name, the
    /// launch count and simulated cycles (millicycle resolution), and per
    /// stage every cost-model counter and the grid-size histogram, plus
    /// the launch-cycle histogram. Fixed-cost records carry no counters.
    pub fn record_launches(&self, records: &[TraceRecord]) {
        let mut guard = self.state();
        let st = &mut *guard;
        for r in records {
            let TraceRecordKind::Kernel(k) = &r.kind else {
                continue;
            };
            let cycles_milli = (k.sim_cycles * 1e3).round() as u64;
            let i = find_or_push(
                &mut st.stages,
                |s| s.stage == r.stage,
                || StageFold {
                    stage: r.stage,
                    ..StageFold::default()
                },
            );
            let s = &mut st.stages[i];
            s.launches += 1;
            s.cycles_milli += cycles_milli;
            s.cost = s.cost.merge(&k.cost);
            s.grid.record(k.grid as u64);
            let i = find_or_push(
                &mut st.kernels,
                |f| f.name == k.name,
                || KernelFold {
                    name: k.name.clone(),
                    ..KernelFold::default()
                },
            );
            st.kernels[i].launches += 1;
            st.kernels[i].cycles_milli += cycles_milli;
            st.launch_cycles.record(cycles_milli);
        }
    }

    /// Records a pass's load-balancing outcome under `sim/lb/<pass>/`:
    /// one decision, whether binning engaged, the rows the decision
    /// consulted, blocks per accumulation method (hash, dense, direct)
    /// and the rows-per-block histogram.
    pub(crate) fn record_pass(
        &self,
        pass: &'static str,
        global_lb_used: bool,
        decision_rows: u64,
        blocks: [u64; 3],
        rows_per_block: &Histogram,
    ) {
        let mut st = self.state();
        let i = find_or_push(
            &mut st.passes,
            |p| p.pass == pass,
            || PassFold {
                pass,
                ..PassFold::default()
            },
        );
        let p = &mut st.passes[i];
        p.decisions += 1;
        p.global_lb_used += global_lb_used as u64;
        p.decision_rows += decision_rows;
        for (c, n) in p.blocks.iter_mut().zip(blocks) {
            *c += n;
        }
        p.rows_per_block.merge(rows_per_block);
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.state();
        let mut snap = MetricsSnapshot::default();
        let (c, h) = (&mut snap.counters, &mut snap.histograms);
        for s in &st.stages {
            let stage = format!("sim/stage/{}", s.stage);
            c.insert(format!("{stage}/launches"), s.launches);
            c.insert(format!("{stage}/cycles_milli"), s.cycles_milli);
            for (name, v) in s.cost.counters().into_iter().filter(|&(_, v)| v > 0) {
                c.insert(format!("{stage}/{name}"), v);
            }
            h.insert(format!("{stage}/grid"), s.grid.snapshot());
        }
        for k in &st.kernels {
            c.insert(format!("sim/kernel/{}/launches", k.name), k.launches);
            c.insert(
                format!("sim/kernel/{}/cycles_milli", k.name),
                k.cycles_milli,
            );
        }
        if st.launch_cycles.count > 0 {
            h.insert(
                "sim/launch/cycles_milli".into(),
                st.launch_cycles.snapshot(),
            );
        }
        for p in &st.passes {
            let lb = format!("sim/lb/{}", p.pass);
            c.insert(format!("{lb}/decisions"), p.decisions);
            if p.global_lb_used > 0 {
                c.insert(format!("{lb}/global_lb_used"), p.global_lb_used);
            }
            c.insert(format!("{lb}/decision_rows"), p.decision_rows);
            for (name, n) in PASS_BLOCK_NAMES.iter().zip(p.blocks) {
                c.insert(format!("{lb}/{name}"), n);
            }
            h.insert(format!("{lb}/rows_per_block"), p.rows_per_block.snapshot());
        }
        c.extend(st.counters.iter().map(|(&name, &v)| (name.into(), v)));
        h.extend(
            st.histograms
                .iter()
                .map(|(&name, x)| (name.into(), x.snapshot())),
        );
        let mut paths: Vec<String> = Vec::with_capacity(st.spans.len());
        for s in &st.spans {
            let path = match s.parent {
                Some(p) => format!("{}/{}", paths[p], s.name),
                None => s.name.clone(),
            };
            if s.count > 0 {
                c.insert(format!("span/{path}/count"), s.count);
                snap.gauges
                    .insert(format!("wall/span/{path}/seconds"), s.seconds);
            }
            paths.push(path);
        }
        snap
    }
}

/// A hierarchical wall-clock span. Dropping the span adds 1 to
/// `span/<path>/count` (deterministic) and the elapsed seconds to the
/// `wall/span/<path>/seconds` gauge (volatile). The registry keeps each
/// path once: starting or ending a later span on the same path formats
/// and allocates nothing.
pub struct Span<'a> {
    reg: &'a MetricsRegistry,
    /// Index of the span's path in the registry.
    id: usize,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts a child span `"<parent path>/<name>"`.
    pub fn child(&self, name: &str) -> Span<'a> {
        self.reg.start_span(Some(self.id), name)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        let mut st = self.reg.state();
        let s = &mut st.spans[self.id];
        s.count += 1;
        s.seconds += seconds;
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
///   baseline declares (falling back to [`DEFAULT_WALL_TOLERANCE`]),
///   with an absolute floor of [`WALL_ABS_FLOOR_S`] so sub-10ms noise
///   never gates;
/// * all other gauges (`pool/` occupancy etc.) are informational and
///   never compared.
///
/// Returns human-readable drift descriptions; empty means the gate
/// passes.
pub fn compare_snapshots(current: &MetricsSnapshot, baseline: &MetricsSnapshot) -> Vec<String> {
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
    let tol = baseline.wall_tolerance.unwrap_or(DEFAULT_WALL_TOLERANCE);
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

    /// A snapshot holding `counters`, `gauges`, and one histogram of the
    /// given observations per `histograms` entry.
    fn snap(
        counters: &[(&str, u64)],
        gauges: &[(&str, f64)],
        histograms: &[(&str, &[u64])],
    ) -> MetricsSnapshot {
        let hist = |vs: &[u64]| {
            let mut h = Histogram::default();
            vs.iter().for_each(|&v| h.record(v));
            h.snapshot()
        };
        MetricsSnapshot {
            counters: counters.iter().map(|&(n, v)| (n.into(), v)).collect(),
            histograms: histograms
                .iter()
                .map(|&(n, vs)| (n.into(), hist(vs)))
                .collect(),
            gauges: gauges.iter().map(|&(n, v)| (n.into(), v)).collect(),
            wall_tolerance: None,
        }
    }

    #[test]
    fn counters_aggregate_under_parallel_updates() {
        // Rayon-parallel block execution is the hot recording context:
        // many workers adding to the same named counters concurrently must
        // lose nothing.
        const MODS: [&str; 7] = [
            "par/mod0", "par/mod1", "par/mod2", "par/mod3", "par/mod4", "par/mod5", "par/mod6",
        ];
        let reg = MetricsRegistry::new();
        let _: Vec<()> = (0..10_000usize)
            .into_par_iter()
            .map(|i| {
                reg.add("par/total", 1);
                reg.add(MODS[i % 7], i as u64);
                let mut h = Histogram::default();
                h.record(i as u64 % 97);
                reg.merge_histogram("par/hist", &h);
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
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        let s = snap(&[], &[], &[("h", &[0, 3, 3, 1024])]).histograms["h"].clone();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets, vec![(0, 1), (2, 2), (11, 1)]);
        assert!((s.mean() - 257.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut snap = snap(
            &[("a/b", 42), ("weird \"name\"\\with escapes", 7)],
            &[("wall/x", 0.125)],
            &[("h", &[100])],
        );
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
        let snap = snap(&[("big", u64::MAX - 1)], &[], &[("h", &[(1 << 53) + 1; 3])]);
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
        let s1 = snap(&[("b", 2), ("a", 1)], &[("wall/noise", 123.456)], &[]);
        let s2 = snap(&[("a", 1), ("b", 2)], &[("wall/noise", 654.321)], &[]);
        assert_eq!(s1.canonical_json(), s2.canonical_json());
    }

    #[test]
    fn compare_flags_exact_counter_drift_and_tolerates_wall() {
        let mk = |c: u64, wall: f64| {
            snap(
                &[("sim/x", c)],
                &[("wall/t", wall), ("pool/idle", 999.0)],
                &[],
            )
        };
        let base = mk(10, 1.0);
        // Identical: passes.
        assert!(compare_snapshots(&mk(10, 1.0), &base).is_empty());
        // Wall within the default 10%: passes; pool/ gauge never compared.
        assert!(compare_snapshots(&mk(10, 1.05), &base).is_empty());
        // Wall beyond tolerance: flagged.
        assert_eq!(compare_snapshots(&mk(10, 2.0), &base).len(), 1);
        // Baseline-declared tolerance wins over the default.
        let mut loose = base.clone();
        loose.wall_tolerance = Some(0.75);
        assert!(compare_snapshots(&mk(10, 1.6), &loose).is_empty());
        // Counter drift is always flagged.
        let drift = compare_snapshots(&mk(11, 1.0), &base);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("sim/x"));
        // Sub-floor absolute wall differences never gate.
        let tiny_base = mk(1, 0.001);
        assert!(compare_snapshots(&mk(1, 0.004), &tiny_base).is_empty());
    }

    #[test]
    fn compare_flags_missing_and_extra_entries() {
        let cur = snap(&[("only/current", 1)], &[], &[]);
        let base = snap(&[("only/baseline", 1)], &[], &[]);
        let drift = compare_snapshots(&cur, &base);
        assert_eq!(drift.len(), 2, "{drift:?}");
    }

    #[test]
    fn spans_record_counts_and_wall_gauges() {
        let reg = MetricsRegistry::new();
        {
            let root = reg.span("multiply");
            let _child = root.child("analysis");
            // Spans still open at snapshot time have recorded nothing.
            let open = reg.snapshot();
            let names = open.counters.keys().chain(open.gauges.keys());
            assert!(
                names
                    .clone()
                    .all(|n| !n.starts_with("span/") && !n.starts_with("wall/")),
                "{:?}",
                names.collect::<Vec<_>>()
            );
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
        let table =
            snap(&[("c/one", 1)], &[("wall/three", 0.5)], &[("h/two", &[5])]).render_table();
        for name in ["c/one", "h/two", "wall/three"] {
            assert!(table.contains(name), "missing {name} in\n{table}");
        }
    }
}

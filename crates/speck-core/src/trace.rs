//! The multiply's one record stream, and the execution trace built on it:
//! spECK-annotated kernel timelines with per-block schedules, exported as
//! Chrome Trace Event JSON.
//!
//! # One record stream
//!
//! The pipeline calls a [`Recorder`] once per kernel launch
//! ([`Recorder::kernel`], [`Recorder::pass`]) and once per fixed cost
//! ([`Recorder::fixed`]). The resulting ordered `Vec<TraceRecord>` on a
//! multiply-local clock is the only per-launch ledger of the run; every
//! other view is a fold of it:
//!
//! * [`timeline_of`] — the report's per-stage `Timeline` (paper Fig. 11);
//! * [`crate::metrics::MetricsRegistry::record_launches`] — the `sim/stage/*`
//!   and `sim/kernel/*` metrics counters;
//! * [`ExecutionTrace`] — the records plus the device shape, for export,
//!   profiling ([`crate::profile`]) and the decision audit
//!   ([`crate::audit`]).
//!
//! A plan keeps its setup records, and a cold execute resumes from them,
//! so the combined stream covers the whole pipeline. Because every view
//! folds the same records in the same order, they reconcile bit-for-bit —
//! pinned by the reconciliation proptests.
//!
//! # Annotations
//!
//! The simulator's [`speck_simt::trace`] module rebuilds *where each block
//! ran* (SM, resident slot, start/end cycles, cost breakdown) from a
//! launch's report when the launch kept its per-block records (an
//! observing engine asks for them), and the recorder attaches that
//! schedule to the kernel's record. This module adds the spECK semantics the
//! profiler needs — which cascade bin and accumulator a launch used,
//! which output rows each block computed, and the dynamic group size `g`
//! it chose. Bin and accumulator are always recorded; per-block
//! annotations clone every block's row list, so the pipeline computes
//! them only when tracing or auditing.
//!
//! # One view of a traced block
//!
//! [`KernelTraceRecord::traced_blocks`] joins each block event with its
//! annotation (rows and `g`), [`KernelTraceRecord::row_shares`] splits a
//! block's serial cycles evenly over its rows, and
//! [`ExecutionTrace::row_cycles`] sums those shares per row. The Chrome
//! export, the profiler ([`crate::profile`]) and the decision audit
//! ([`crate::audit`]) read these instead of re-joining the records
//! themselves. [`ExecutionTrace::from_chrome_trace`] reads the export back
//! through the typed accessors of [`crate::json`].
//!
//! # Determinism classes
//!
//! Everything recorded here derives from the deterministic simulation:
//! exported JSON is byte-identical across runs and rayon schedules. No
//! volatile wall-clock fields exist in a trace (unlike metrics snapshots,
//! which segregate `wall/` gauges).

use crate::analysis::AnalysisInfo;
use crate::cascade::KernelCascade;
use crate::config::SpeckConfig;
use crate::global_lb::{direct_kernel_config, AccMethod, PassPlan};
use crate::json::{parse_json_value, push_json_string, push_num, JsonValue};
use crate::local_lb::select_group_size;
use crate::pipeline::stage;
use crate::symbolic::LaunchGroups;
use speck_simt::{BlockCost, BlockEvent, DeviceConfig, KernelBlockTrace, KernelReport, Timeline};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Format tag embedded in exported traces (`otherData.format`).
pub const TRACE_FORMAT: &str = "speck-trace-v1";

/// spECK semantics of one block of a SpGEMM kernel launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockAnnotation {
    /// Output rows of C this block computes (the bin's row list — not
    /// necessarily contiguous).
    pub rows: Vec<u32>,
    /// Dynamic group size `g` chosen by the local load balancer (hash
    /// blocks only; dense/direct blocks have no group cooperation knob).
    pub group_size: Option<u32>,
}

/// One kernel launch in the record stream.
#[derive(Clone, Debug)]
pub struct KernelTraceRecord {
    /// Kernel name (e.g. `numeric_hash_c3`).
    pub name: String,
    /// Number of blocks launched.
    pub grid: usize,
    /// Threads per block.
    pub threads: usize,
    /// Dynamic scratchpad bytes per block.
    pub scratch_bytes: usize,
    /// Resident blocks per SM at this shape.
    pub blocks_per_sm: usize,
    /// Kernel body makespan in cycles (excluding launch overhead).
    pub body_cycles: f64,
    /// Simulated cycles including launch overhead. Not part of the Chrome
    /// export: a parsed trace rebuilds it as body plus overhead.
    pub sim_cycles: f64,
    /// Event counters merged over every block of the launch. Not part of
    /// the Chrome export: a parsed trace rebuilds it from the block
    /// events.
    pub cost: BlockCost,
    /// Cascade bin (kernel-configuration index) for SpGEMM kernels.
    pub bin: Option<usize>,
    /// Accumulator kind for SpGEMM kernels.
    pub acc: Option<AccMethod>,
    /// Per-block schedule from the simulator (grid order), when the
    /// recorder was built to attach block schedules.
    pub blocks: Option<Arc<KernelBlockTrace>>,
    /// Per-block spECK annotations (grid order), for SpGEMM kernels.
    pub annotations: Option<Vec<BlockAnnotation>>,
}

/// Payload of a [`TraceRecord`].
#[derive(Clone, Debug)]
pub enum TraceRecordKind {
    /// A kernel launch.
    Kernel(KernelTraceRecord),
    /// A fixed-duration host-side step (e.g. a device allocation).
    Fixed {
        /// Human-readable label (e.g. `alloc`).
        label: String,
    },
}

/// One step of the multiply on the record clock.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Pipeline stage this record is attributed to (one of
    /// [`crate::pipeline::stage::ALL`]).
    pub stage: &'static str,
    /// Start offset on the multiply-local clock, seconds.
    pub start_s: f64,
    /// Duration, seconds. For kernels this is `sim_time_s` (launch
    /// overhead included).
    pub dur_s: f64,
    /// What happened.
    pub kind: TraceRecordKind,
}

/// Clock value after the last record: each record starts where the
/// previous one ended.
fn end_of(records: &[TraceRecord]) -> f64 {
    records.last().map_or(0.0, |r| r.start_s + r.dur_s)
}

/// Folds records into the per-stage timeline of paper Fig. 11: seconds
/// summed per stage in record order, kernel launches counted, and their
/// event counters merged.
pub fn timeline_of<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Timeline {
    let mut t = Timeline::new();
    for r in records {
        match &r.kind {
            TraceRecordKind::Kernel(k) => t.add_launch(r.stage, r.dur_s, &k.cost),
            TraceRecordKind::Fixed { .. } => t.add_fixed(r.stage, r.dur_s),
        }
    }
    t
}

/// Builds the record stream of one multiply.
#[derive(Clone, Debug)]
pub struct Recorder<'a> {
    dev: &'a DeviceConfig,
    start_s: f64,
    records: Vec<TraceRecord>,
}

impl<'a> Recorder<'a> {
    /// An empty stream for `dev`, clock at zero. A kernel record carries
    /// its per-block schedule, replayed from the launch's report
    /// ([`KernelReport::block_trace`]), exactly when the launch kept its
    /// per-block records ([`speck_simt::BlockRecords::Keep`]).
    pub fn new(dev: &'a DeviceConfig) -> Self {
        Self::resume(dev, &[])
    }

    /// An empty stream continuing after `setup` (a plan's setup records):
    /// its clock starts where they end, so `setup` followed by this
    /// stream's records is the whole multiply.
    pub fn resume(dev: &'a DeviceConfig, setup: &[TraceRecord]) -> Self {
        Recorder {
            dev,
            start_s: end_of(setup),
            records: Vec::new(),
        }
    }

    fn push(&mut self, stage: &'static str, dur_s: f64, kind: TraceRecordKind) {
        let start_s = self
            .records
            .last()
            .map_or(self.start_s, |r| r.start_s + r.dur_s);
        self.records.push(TraceRecord {
            stage,
            start_s,
            dur_s,
            kind,
        });
    }

    /// Appends one kernel launch, advancing the clock by its
    /// `sim_time_s`. `bin`/`acc`/`annotations` carry the spECK semantics
    /// for SpGEMM kernels and are `None` for helper kernels (analysis,
    /// binning, merging, sorting).
    pub fn kernel(
        &mut self,
        stage: &'static str,
        report: &KernelReport,
        bin: Option<usize>,
        acc: Option<AccMethod>,
        annotations: Option<Vec<BlockAnnotation>>,
    ) {
        let rec = KernelTraceRecord {
            name: report.name.to_string(),
            grid: report.grid,
            threads: report.cfg.threads,
            scratch_bytes: report.cfg.scratch_bytes,
            blocks_per_sm: report.blocks_per_sm,
            body_cycles: report.body_cycles(self.dev),
            sim_cycles: report.sim_cycles,
            cost: report.total_cost,
            bin,
            acc,
            blocks: report.block_trace(self.dev).map(Arc::new),
            annotations,
        };
        self.push(stage, report.sim_time_s, TraceRecordKind::Kernel(rec));
    }

    /// Appends the launches of one SpGEMM pass: `reports[i]` is the launch
    /// of the `i`-th `(accumulator, bin)` group of `groups`, the order
    /// `run_symbolic`/`run_numeric` launch them. `annotations`, when
    /// given, holds one per-block list per group.
    pub fn pass(
        &mut self,
        stage: &'static str,
        reports: &[KernelReport],
        groups: &LaunchGroups,
        annotations: Option<Vec<Vec<BlockAnnotation>>>,
    ) {
        let mut anns = annotations.map(Vec::into_iter);
        for (r, &(acc, bin)) in reports.iter().zip(groups.keys()) {
            let ann = anns.as_mut().and_then(Iterator::next);
            self.kernel(stage, r, Some(bin), Some(acc), ann);
        }
    }

    /// Appends a fixed-duration step (allocation overheads), advancing the
    /// clock by `seconds`.
    pub fn fixed(&mut self, stage: &'static str, label: &str, seconds: f64) {
        let label = label.to_string();
        self.push(stage, seconds, TraceRecordKind::Fixed { label });
    }

    /// The records so far, in clock order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Finishes the stream.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

/// A full per-multiply execution trace: the record stream plus the device
/// shape the export and the profiler need.
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    /// Device name the multiply ran on.
    pub device_name: String,
    /// Number of SMs of the device.
    pub num_sms: usize,
    /// Device cap on resident blocks per SM (fixes the SM-slot track
    /// numbering in the export).
    pub max_blocks_per_sm: usize,
    /// Core clock in GHz (converts cycles to trace timestamps).
    pub clock_ghz: f64,
    /// Fixed launch overhead per kernel, cycles.
    pub launch_overhead_cycles: f64,
    /// All records in clock order.
    pub records: Vec<TraceRecord>,
    /// Clock value after the last record (sum of all durations in call
    /// order).
    pub end_s: f64,
}

impl ExecutionTrace {
    /// The trace of `records` run on `dev`.
    pub fn new(dev: &DeviceConfig, records: Vec<TraceRecord>) -> Self {
        ExecutionTrace {
            device_name: dev.name.to_string(),
            num_sms: dev.num_sms,
            max_blocks_per_sm: dev.max_blocks_per_sm,
            clock_ghz: dev.clock_ghz,
            launch_overhead_cycles: dev.launch_overhead_cycles,
            end_s: end_of(&records),
            records,
        }
    }

    /// Seconds per stage, folded in record order — bit-identical to the
    /// report's `Timeline` stage seconds (it is the same fold).
    pub fn per_stage_seconds(&self) -> BTreeMap<String, f64> {
        timeline_of(&self.records)
            .stages()
            .map(|(name, st)| (name.to_string(), st.seconds))
            .collect()
    }

    /// Kernel launches per stage (stages with only fixed records
    /// excluded) — equals the `sim/stage/<stage>/launches` metrics
    /// counters.
    pub fn per_stage_launches(&self) -> BTreeMap<String, u64> {
        timeline_of(&self.records)
            .stages()
            .filter(|(_, st)| st.launches > 0)
            .map(|(name, st)| (name.to_string(), st.launches as u64))
            .collect()
    }

    /// Total simulated seconds: stage sums added in sorted-stage order,
    /// matching `Timeline::total_seconds` bit-for-bit.
    pub fn total_seconds(&self) -> f64 {
        timeline_of(&self.records).total_seconds()
    }

    /// Iterates the kernel records in clock order, each with its record
    /// sequence index `seq` (its position in `records`).
    pub fn kernels(&self) -> impl Iterator<Item = (usize, &TraceRecord, &KernelTraceRecord)> {
        let kernels = self.records.iter().enumerate();
        kernels.filter_map(|(seq, r)| match &r.kind {
            TraceRecordKind::Kernel(k) => Some((seq, r, k)),
            TraceRecordKind::Fixed { .. } => None,
        })
    }

    /// Serial block cycles attributed to each output row, with the number
    /// of block events that touched it: [`KernelTraceRecord::row_shares`]
    /// summed in record order over the kernels of `stage` (every stage
    /// when `None`).
    pub fn row_cycles(&self, stage: Option<&str>) -> BTreeMap<u32, (f64, usize)> {
        let mut rows: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
        for (_, r, k) in self.kernels() {
            if stage.is_some_and(|s| s != r.stage) {
                continue;
            }
            for (row, share) in k.row_shares() {
                let cell = rows.entry(row).or_insert((0.0, 0));
                cell.0 += share;
                cell.1 += 1;
            }
        }
        rows
    }
}

impl KernelTraceRecord {
    /// The launch's traced blocks in grid order, each joined with its
    /// annotation: the block's event, the output rows it computed (empty
    /// for helper kernels) and its group size `g` (hash blocks only).
    /// Empty when the record carries no block schedule.
    pub fn traced_blocks(&self) -> impl Iterator<Item = (&BlockEvent, &[u32], Option<u32>)> {
        let events = self.blocks.as_ref().map_or(&[][..], |bt| &bt.events[..]);
        events.iter().map(|e| {
            let ann = self.annotations.as_ref();
            let ann = ann.and_then(|a| a.get(e.grid_idx as usize));
            let rows = ann.map_or(&[][..], |a| &a.rows[..]);
            (e, rows, ann.and_then(|a| a.group_size))
        })
    }

    /// Each traced block's serial cycles split evenly over the rows it
    /// computed, as `(row, share)` in grid then row order — the one
    /// per-row attribution the profiler and the audit read.
    pub fn row_shares(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.traced_blocks().flat_map(|(e, rows, _)| {
            let share = e.serial_cycles() / rows.len() as f64;
            rows.iter().map(move |&row| (row, share))
        })
    }
}

/// Per-block spECK annotations of one SpGEMM pass: one list per launch
/// group of `groups`, in group order. Copies every block's rows, so the
/// pipeline calls it only when tracing or auditing.
pub(crate) fn pass_annotations(
    dev: &DeviceConfig,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    info: &AnalysisInfo,
    plan: &PassPlan,
    groups: &LaunchGroups,
) -> Vec<Vec<BlockAnnotation>> {
    groups
        .iter()
        .map(|(&(acc, cfg_idx), group)| {
            let threads = match acc {
                AccMethod::Direct => direct_kernel_config(dev).threads,
                _ => cascade.config(cfg_idx).threads,
            };
            group
                .iter()
                .map(|&bi| {
                    let rows = plan.block_rows(bi).to_vec();
                    let group_size = (acc == AccMethod::Hash).then(|| {
                        let (nnz_a, products, max_b) = info.block_features(&rows);
                        select_group_size(cfg.local_lb, threads, nnz_a, products, max_b) as u32
                    });
                    BlockAnnotation { rows, group_size }
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome Trace Event export
// ---------------------------------------------------------------------------

impl ExecutionTrace {
    /// Seconds → trace microseconds.
    fn us(&self, s: f64) -> f64 {
        s * 1e6
    }

    /// Device cycles → trace microseconds.
    fn cycles_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }

    /// Chrome-trace thread id of an SM resident slot.
    fn slot_tid(&self, sm: u32, slot: u32) -> u64 {
        sm as u64 * self.max_blocks_per_sm as u64 + slot as u64
    }

    /// Serialises the trace as Chrome Trace Event JSON (object format),
    /// loadable in Perfetto / `chrome://tracing`:
    ///
    /// * **pid 0** — per-block events, one track per `(SM, resident
    ///   slot)`;
    /// * **pid 1** — kernel launches and fixed steps as one sequential
    ///   track;
    /// * **pid 2** — pipeline stages as coalesced frames.
    ///
    /// All durations are trace microseconds; exact cycle values ride in
    /// `args` so parsing a trace back loses nothing the profiler needs.
    /// Output is byte-deterministic.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"format\": ");
        push_json_string(&mut out, TRACE_FORMAT);
        out.push_str(", \"device\": ");
        push_json_string(&mut out, &self.device_name);
        let _ = write!(
            out,
            ", \"num_sms\": {}, \"max_blocks_per_sm\": {}, \"clock_ghz\": ",
            self.num_sms, self.max_blocks_per_sm
        );
        push_num(&mut out, self.clock_ghz);
        out.push_str(", \"launch_overhead_cycles\": ");
        push_num(&mut out, self.launch_overhead_cycles);
        out.push_str(", \"end_s\": ");
        let _ = write!(out, "{}", self.end_s);
        out.push_str("},\n\"traceEvents\": [\n");

        let mut first = true;
        let mut event = |out: &mut String, body: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(body);
        };

        // Process metadata.
        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": "
        );
        push_json_string(&mut meta, &format!("SM slots ({})", self.device_name));
        meta.push_str("}}");
        event(&mut out, &meta);
        event(
            &mut out,
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"kernels\"}}",
        );
        event(
            &mut out,
            "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"stages\"}}",
        );

        // Thread names for every used (SM, slot) track, sorted.
        let mut used: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        for (_, _, k) in self.kernels() {
            for (e, _, _) in k.traced_blocks() {
                used.insert((e.sm, e.slot));
            }
        }
        for &(sm, slot) in &used {
            let mut m = String::new();
            let _ = write!(
                m,
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"SM {:02} slot {}\"}}}}",
                self.slot_tid(sm, slot),
                sm,
                slot
            );
            event(&mut out, &m);
        }

        // Stage frames: coalesce consecutive records of the same stage.
        let mut i = 0usize;
        while i < self.records.len() {
            let stage = &self.records[i].stage;
            let start = self.records[i].start_s;
            let mut end = start + self.records[i].dur_s;
            let mut j = i + 1;
            while j < self.records.len() && self.records[j].stage == *stage {
                end = self.records[j].start_s + self.records[j].dur_s;
                j += 1;
            }
            let mut f = String::new();
            f.push_str("{\"ph\": \"X\", \"pid\": 2, \"tid\": 0, \"name\": ");
            push_json_string(&mut f, stage);
            f.push_str(", \"cat\": \"stage\", \"ts\": ");
            push_num(&mut f, self.us(start));
            f.push_str(", \"dur\": ");
            push_num(&mut f, self.us(end - start));
            f.push('}');
            event(&mut out, &f);
            i = j;
        }

        // Kernel / fixed records and their blocks.
        for (seq, r) in self.records.iter().enumerate() {
            let (name, kind) = match &r.kind {
                TraceRecordKind::Fixed { label } => (label, "fixed"),
                TraceRecordKind::Kernel(kr) => (&kr.name, "kernel"),
            };
            let mut k = String::from("{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": ");
            push_json_string(&mut k, name);
            k.push_str(", \"cat\": ");
            push_json_string(&mut k, r.stage);
            k.push_str(", \"ts\": ");
            push_num(&mut k, self.us(r.start_s));
            k.push_str(", \"dur\": ");
            push_num(&mut k, self.us(r.dur_s));
            let _ = write!(k, ", \"args\": {{\"kind\": \"{kind}\", \"seq\": {seq}");
            let TraceRecordKind::Kernel(kr) = &r.kind else {
                let _ = write!(
                    k,
                    ", \"start_s\": {}, \"dur_s\": {}}}}}",
                    r.start_s, r.dur_s
                );
                event(&mut out, &k);
                continue;
            };
            let _ = write!(
                k,
                ", \"grid\": {}, \"threads\": {}, \"scratch_bytes\": {}, \"blocks_per_sm\": {}, \
                 \"body_cycles\": {}, \"start_s\": {}, \"dur_s\": {}",
                kr.grid,
                kr.threads,
                kr.scratch_bytes,
                kr.blocks_per_sm,
                kr.body_cycles,
                r.start_s,
                r.dur_s
            );
            if let Some(bin) = kr.bin {
                let _ = write!(k, ", \"bin\": {bin}");
            }
            if let Some(acc) = kr.acc {
                let _ = write!(k, ", \"acc\": \"{}\"", acc.name());
            }
            k.push_str("}}");
            event(&mut out, &k);

            let base_us = self.us(r.start_s) + self.cycles_us(self.launch_overhead_cycles);
            for (e, rows, g) in kr.traced_blocks() {
                let label = match rows {
                    [] => format!("b{}", e.grid_idx),
                    [row] => format!("row {row}"),
                    _ => format!("rows[{}] {}..{}", rows.len(), rows[0], rows[rows.len() - 1]),
                };
                let mut b = String::new();
                let _ = write!(
                    b,
                    "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"name\": ",
                    self.slot_tid(e.sm, e.slot)
                );
                push_json_string(&mut b, &label);
                b.push_str(", \"cat\": ");
                push_json_string(&mut b, &kr.name);
                b.push_str(", \"ts\": ");
                push_num(&mut b, base_us + self.cycles_us(e.start_cycles));
                b.push_str(", \"dur\": ");
                push_num(&mut b, self.cycles_us(e.end_cycles - e.start_cycles));
                let _ = write!(
                    b,
                    ", \"args\": {{\"seq\": {seq}, \"grid\": {}, \"sm\": {}, \"slot\": {}, \
                     \"start_cycles\": {}, \"compute_cycles\": {}, \"memory_cycles\": {}",
                    e.grid_idx, e.sm, e.slot, e.start_cycles, e.compute_cycles, e.memory_cycles
                );
                if !rows.is_empty() {
                    let list: Vec<String> = rows.iter().map(u32::to_string).collect();
                    b.push_str(", \"rows\": ");
                    push_json_string(&mut b, &list.join(","));
                }
                if let Some(g) = g {
                    let _ = write!(b, ", \"g\": {g}");
                }
                for (cname, v) in e.cost.counters() {
                    if v != 0 {
                        let _ = write!(b, ", \"cost/{cname}\": {v}");
                    }
                }
                b.push_str("}}");
                event(&mut out, &b);
            }
        }

        out.push_str("\n]\n}\n");
        out
    }
}

impl ExecutionTrace {
    /// Reconstructs a trace from its Chrome Trace Event JSON export.
    ///
    /// Exact cycle/second values ride in the event `args`, so profiling a
    /// reconstructed trace gives the same report as profiling the
    /// original. Stage/kernel structure, per-block schedules, costs, and
    /// annotations all round-trip.
    pub fn from_chrome_trace(text: &str) -> Result<ExecutionTrace, String> {
        let root = parse_json_value(text)?;
        let other = root.req("otherData", Some)?;
        if other.req("format", JsonValue::as_str)? != TRACE_FORMAT {
            return Err(format!(
                "trace json: not a {TRACE_FORMAT} trace (otherData.format mismatch)"
            ));
        }
        let num = |key: &str| other.req(key, JsonValue::as_f64);
        let launch_overhead_cycles = num("launch_overhead_cycles")?;
        // Complete ("X") events of the block (pid 0) and record (pid 1)
        // tracks, with their args and seq.
        let mut tracks: [Vec<(&JsonValue, &JsonValue, usize)>; 2] = Default::default();
        for ev in root.req("traceEvents", JsonValue::as_arr)? {
            let pid = ev.req("pid", JsonValue::as_usize)?;
            if ev.req("ph", JsonValue::as_str)? != "X" || pid >= tracks.len() {
                continue;
            }
            let args = ev.req("args", Some)?;
            tracks[pid].push((ev, args, args.req("seq", JsonValue::as_usize)?));
        }
        let [block_events, record_events] = tracks;

        // Pass 1: records by seq.
        let mut by_seq: BTreeMap<usize, TraceRecord> = BTreeMap::new();
        for (ev, args, seq) in record_events {
            let cat = ev.req("cat", JsonValue::as_str)?;
            let stage = stage::ALL
                .into_iter()
                .find(|s| *s == cat)
                .ok_or_else(|| format!("trace json: unknown stage {cat:?}"))?;
            let name = ev.req("name", JsonValue::as_str)?.to_string();
            let int = |key: &str| args.req(key, JsonValue::as_usize);
            let kind = match args.req("kind", JsonValue::as_str)? {
                "fixed" => TraceRecordKind::Fixed { label: name },
                "kernel" => {
                    let body_cycles = args.req("body_cycles", JsonValue::as_f64)?;
                    TraceRecordKind::Kernel(KernelTraceRecord {
                        name,
                        grid: int("grid")?,
                        threads: int("threads")?,
                        scratch_bytes: int("scratch_bytes")?,
                        blocks_per_sm: int("blocks_per_sm")?,
                        body_cycles,
                        sim_cycles: body_cycles + launch_overhead_cycles,
                        cost: BlockCost::default(),
                        bin: args.opt("bin", JsonValue::as_usize)?,
                        acc: args.opt("acc", |v| v.as_str().and_then(AccMethod::from_name))?,
                        blocks: None,
                        annotations: None,
                    })
                }
                kind => return Err(format!("trace json: record with unknown kind {kind:?}")),
            };
            let record = TraceRecord {
                stage,
                start_s: args.req("start_s", JsonValue::as_f64)?,
                dur_s: args.req("dur_s", JsonValue::as_f64)?,
                kind,
            };
            by_seq.insert(seq, record);
        }

        // Pass 2: per-block events, attached to their kernel by seq.
        let mut blocks_by_seq: BTreeMap<usize, Vec<(BlockEvent, Option<BlockAnnotation>)>> =
            BTreeMap::new();
        for (_, args, seq) in block_events {
            let cycles = |key: &str| args.req(key, JsonValue::as_f64);
            let int = |key: &str| args.req(key, JsonValue::as_u32);
            let (start_cycles, compute_cycles, memory_cycles) = (
                cycles("start_cycles")?,
                cycles("compute_cycles")?,
                cycles("memory_cycles")?,
            );
            let mut cost = BlockCost::default();
            for (k, v) in args.as_obj().unwrap_or_default() {
                if let Some(cname) = k.strip_prefix("cost/") {
                    cost.set_counter(cname, v.typed(k, JsonValue::as_u64)?);
                }
            }
            let rows = args.opt("rows", |v| {
                let ids = v.as_str()?.split(',');
                ids.map(|id| id.parse().ok()).collect::<Option<Vec<u32>>>()
            })?;
            let ann = match rows {
                Some(rows) => Some(BlockAnnotation {
                    rows,
                    group_size: args.opt("g", JsonValue::as_u32)?,
                }),
                None => None,
            };
            let e = BlockEvent {
                grid_idx: int("grid")?,
                sm: int("sm")?,
                slot: int("slot")?,
                start_cycles,
                end_cycles: start_cycles + compute_cycles.max(memory_cycles),
                compute_cycles,
                memory_cycles,
                cost,
            };
            blocks_by_seq.entry(seq).or_default().push((e, ann));
        }

        let mut records: Vec<TraceRecord> = Vec::with_capacity(by_seq.len());
        for (seq, mut rec) in by_seq {
            if let (TraceRecordKind::Kernel(kr), Some(mut evs)) =
                (&mut rec.kind, blocks_by_seq.remove(&seq))
            {
                evs.sort_by_key(|(e, _)| e.grid_idx);
                if evs.iter().any(|(_, a)| a.is_some()) {
                    let empty = BlockAnnotation {
                        rows: Vec::new(),
                        group_size: None,
                    };
                    let anns = evs.iter().map(|(_, a)| a.clone().unwrap_or(empty.clone()));
                    kr.annotations = Some(anns.collect());
                }
                kr.cost = evs
                    .iter()
                    .fold(BlockCost::default(), |acc, (e, _)| acc.merge(&e.cost));
                kr.blocks = Some(Arc::new(KernelBlockTrace {
                    body_cycles: kr.body_cycles,
                    events: evs.into_iter().map(|(e, _)| e).collect(),
                }));
            }
            records.push(rec);
        }

        Ok(ExecutionTrace {
            device_name: other.req("device", JsonValue::as_str)?.to_string(),
            num_sms: other.req("num_sms", JsonValue::as_usize)?,
            max_blocks_per_sm: other.req("max_blocks_per_sm", JsonValue::as_usize)?,
            clock_ghz: num("clock_ghz")?,
            launch_overhead_cycles,
            end_s: end_of(&records).max(num("end_s")?),
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_simt::{BlockRecords, CostModel, KernelConfig};

    fn sample_trace() -> ExecutionTrace {
        let dev = DeviceConfig::tiny();
        let cost = CostModel::default();
        let cfg = KernelConfig::new(64, 0);
        let report = speck_simt::launch(&dev, &cost, "k0", 6, cfg, BlockRecords::Keep, |ctx| {
            ctx.charge_rounds((ctx.block_id() as u64 % 3) * 7 + 1);
            ctx.charge_gmem_tx(5 * ctx.block_id() as u64);
        });
        let mut rec = Recorder::new(&dev);
        rec.kernel(
            "symb. SpGEMM",
            &report,
            Some(2),
            Some(AccMethod::Hash),
            Some(
                (0..6)
                    .map(|i| BlockAnnotation {
                        rows: vec![i as u32, (i + 10) as u32],
                        group_size: Some(4),
                    })
                    .collect(),
            ),
        );
        rec.fixed("symb. SpGEMM", "alloc", 1e-6);
        rec.kernel("sorting", &report, None, None, None);
        ExecutionTrace::new(&dev, rec.into_records())
    }

    #[test]
    fn export_is_deterministic_and_parses() {
        let tr = sample_trace();
        let j1 = tr.chrome_trace_json();
        let j2 = tr.chrome_trace_json();
        assert_eq!(j1, j2);
        let v = parse_json_value(&j1).expect("valid json");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 3 process metas + slot metas + stage frames + records + blocks.
        assert!(events.len() > 3 + 2 + 3 + 12);
        for ev in events {
            let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap();
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
            if ph == "X" {
                assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
                assert!(ev.get("dur").and_then(|t| t.as_f64()).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn chrome_roundtrip_preserves_structure() {
        let tr = sample_trace();
        let json = tr.chrome_trace_json();
        let back = ExecutionTrace::from_chrome_trace(&json).expect("roundtrip");
        assert_eq!(back.records.len(), tr.records.len());
        assert_eq!(back.num_sms, tr.num_sms);
        assert_eq!(back.end_s, tr.end_s);
        for (a, b) in tr.records.iter().zip(&back.records) {
            assert_eq!(a.stage, b.stage);
            assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
            assert_eq!(a.dur_s.to_bits(), b.dur_s.to_bits());
            match (&a.kind, &b.kind) {
                (TraceRecordKind::Fixed { label: la }, TraceRecordKind::Fixed { label: lb }) => {
                    assert_eq!(la, lb)
                }
                (TraceRecordKind::Kernel(ka), TraceRecordKind::Kernel(kb)) => {
                    assert_eq!(ka.name, kb.name);
                    assert_eq!(ka.grid, kb.grid);
                    assert_eq!(ka.bin, kb.bin);
                    assert_eq!(ka.acc, kb.acc);
                    assert_eq!(ka.annotations, kb.annotations);
                    let (ba, bb) = (ka.blocks.as_ref().unwrap(), kb.blocks.as_ref().unwrap());
                    assert_eq!(ba.events.len(), bb.events.len());
                    for (ea, eb) in ba.events.iter().zip(&bb.events) {
                        assert_eq!(ea, eb);
                    }
                }
                _ => panic!("record kind changed in roundtrip"),
            }
        }
        // Byte-identical re-export.
        assert_eq!(back.chrome_trace_json(), json);
    }

    #[test]
    fn stage_seconds_fold_in_record_order() {
        let tr = sample_trace();
        let per = tr.per_stage_seconds();
        assert_eq!(per.len(), 2);
        let k0 = tr.records[0].dur_s;
        assert_eq!(per["symb. SpGEMM"].to_bits(), (k0 + 1e-6).to_bits());
        assert_eq!(per["sorting"].to_bits(), k0.to_bits());
        assert_eq!(tr.per_stage_launches()["symb. SpGEMM"], 1);
        assert_eq!(tr.total_seconds(), tr.end_s);
    }

    #[test]
    fn from_chrome_trace_rejects_foreign_documents() {
        assert!(ExecutionTrace::from_chrome_trace("{").is_err());
        assert!(ExecutionTrace::from_chrome_trace("{\"traceEvents\": []}").is_err());
        // Stage names outside the pipeline's fixed set are rejected.
        let json = sample_trace().chrome_trace_json();
        let bogus = json.replace("sorting", "bogus");
        assert!(ExecutionTrace::from_chrome_trace(&bogus).is_err());
        // A field the exporter always writes that is missing or mistyped
        // fails with an error naming it: a misspelt accumulator, a
        // non-numeric row id, a kernel record or block event without
        // its grid field.
        for (from, to, key) in [
            ("\"acc\": \"hash\"", "\"acc\": \"hsah\"", "acc"),
            ("\"rows\": \"0,10\"", "\"rows\": \"x,10\"", "rows"),
            ("\"grid\": 6, ", "", "grid"),
            ("\"seq\": 0, \"grid\": 0, ", "\"seq\": 0, ", "grid"),
        ] {
            assert!(json.contains(from), "{from}");
            let err = ExecutionTrace::from_chrome_trace(&json.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{from}: {err}");
        }
    }

    #[test]
    fn timeline_folds_the_records() {
        let tr = sample_trace();
        let t = timeline_of(&tr.records);
        let (_, _, k) = tr.kernels().next().unwrap();
        assert_eq!(t.total_seconds().to_bits(), tr.total_seconds().to_bits());
        let (name, st) = t.stages().next().unwrap();
        assert_eq!(name, "symb. SpGEMM");
        assert_eq!(st.launches, 1);
        assert_eq!(st.cost, k.cost);
        // A parsed trace rebuilds the launch's merged counters exactly.
        let back = ExecutionTrace::from_chrome_trace(&tr.chrome_trace_json()).unwrap();
        let (_, _, kb) = back.kernels().next().unwrap();
        assert_eq!(kb.cost, k.cost);
    }
}

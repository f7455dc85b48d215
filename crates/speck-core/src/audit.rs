//! Decision provenance and counterfactual audit of the spECK pipeline.
//!
//! Every multiplication makes a chain of decisions before any value is
//! computed: the global-LB gate per pass (paper Table 2), the bin each
//! hash row lands in, whether the smallest bin's rows are block-merged,
//! the accumulator per block (hash / dense / direct), and the group size
//! `g` per hash block (§3.2). This module reconstructs each of those
//! decisions from a finished [`ExecutionTrace`], records the measured
//! features that drove it, shadow-costs the rejected alternatives with
//! the simulator's own [`CostModel`], and reconciles prediction against
//! the measured per-block cycles:
//!
//! * **Confirmed** — the chosen option measured no worse than the best
//!   rejected alternative's estimate.
//! * **Misprediction** — some rejected alternative was estimated
//!   cheaper; the gap is the decision's *regret* in cycles.
//! * **Tie** — measured and best alternative agree to relative 1e-9.
//!
//! The estimate of the *chosen* option is always the identity shadow
//! cost of the measured block ([`CostModel::block_cycles`]), so
//! `chosen_est_cycles == measured_cycles` bit-for-bit — the audit's
//! internal consistency check (property-tested in
//! `tests/audit_reconcile.rs`). Alternative estimates are counterfactual
//! perturbations of the same measured block (scaled rounds, scaled
//! compute, or a re-planned pass costed by the profiler's per-row
//! attribution, `ExecutionTrace::row_cycles`), so they are
//! deterministic but *optimistic bounds*, not replays. Blocks are read
//! through the trace's block view and their features through
//! `AnalysisInfo::block_features`, the fold the kernels use.
//!
//! Everything here is read-only post-processing: auditing never changes
//! simulated results, and [`DecisionReport::canonical_json`] is
//! byte-deterministic (CI gates on a committed baseline).

use crate::analysis::AnalysisInfo;
use crate::cascade::{numeric_entry_bytes, symbolic_entry_bytes, KernelCascade};
use crate::config::{GlobalLbMode, SpeckConfig};
use crate::global_lb::{
    numeric_entries, plan_numeric, plan_symbolic, AccMethod, GateProvenance, PassPlan,
};
use crate::json::{parse_json_value, push_json_string, push_num, JsonValue};
use crate::local_lb::{alternative_group_sizes, estimated_rounds};
use crate::pipeline::stage;
use crate::plan::SpgemmPlan;
use crate::profile::{cell_labels, pair_by_key, BinKey};
use crate::trace::ExecutionTrace;
use speck_simt::{BlockCost, BlockRecords, CostModel, DeviceConfig};
use speck_sparse::Scalar;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Format tag embedded in every audit export.
pub(crate) const AUDIT_FORMAT: &str = "speck-audit-v1";

/// Relative tolerance separating a tie from a real cycle gap.
const TIE_RTOL: f64 = 1e-9;

/// Outcome of reconciling one decision against its alternatives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The chosen option measured no worse than every alternative's
    /// estimate (vacuously true when nothing was rejected).
    Confirmed,
    /// A rejected alternative was estimated cheaper than the measured
    /// cost of the choice.
    Misprediction,
    /// Measured and best alternative agree to relative `1e-9`.
    Tie,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Confirmed => "confirmed",
            Verdict::Misprediction => "misprediction",
            Verdict::Tie => "tie",
        }
    }

    fn from_name(s: &str) -> Option<Verdict> {
        match s {
            "confirmed" => Some(Verdict::Confirmed),
            "misprediction" => Some(Verdict::Misprediction),
            "tie" => Some(Verdict::Tie),
            _ => None,
        }
    }
}

/// One rejected option with its counterfactual cost estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct Alternative {
    /// What the pipeline could have chosen instead (e.g. `"bin 3"`,
    /// `"g=16"`, `"lb_off"`).
    pub label: String,
    /// Shadow-cost estimate of that option, in device cycles.
    pub est_cycles: f64,
}

/// One audited pipeline decision.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Pass the decision belongs to: `"symbolic"` or `"numeric"`.
    pub stage: String,
    /// Decision type: `"gate"`, `"merge"`, `"bin"`, `"acc"`, or
    /// `"group_size"`.
    pub kind: &'static str,
    /// What was decided about (a pass gate, or `"<kernel>#<block>"`).
    pub subject: String,
    /// Cascade bin of the block, for per-block decisions on hash blocks.
    pub bin: Option<usize>,
    /// Accumulator of the block, for per-block decisions.
    pub acc: Option<AccMethod>,
    /// Measured features the decision consumed, in recording order.
    pub features: Vec<(String, f64)>,
    /// The option the pipeline picked.
    pub chosen: String,
    /// Shadow-cost estimate of the chosen option — by construction the
    /// identity shadow cost of the measured execution, so it equals
    /// `measured_cycles` bit-for-bit.
    pub chosen_est_cycles: f64,
    /// Measured cycles attributed to the decision.
    pub measured_cycles: f64,
    /// The rejected options with their counterfactual estimates.
    pub alternatives: Vec<Alternative>,
    /// Reconciliation outcome.
    pub verdict: Verdict,
    /// `measured - best_alternative` when mispredicted, else 0.
    pub regret_cycles: f64,
}

/// Aggregate statistics of one summary cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AuditGroupStats {
    /// Decisions in the cell.
    pub decisions: usize,
    /// Decisions confirmed by measurement.
    pub confirmed: usize,
    /// Decisions where a rejected alternative was estimated cheaper.
    pub mispredictions: usize,
    /// Decisions within tolerance of the best alternative.
    pub ties: usize,
    /// Total estimated regret cycles of the cell's mispredictions.
    pub regret_cycles: f64,
}

impl AuditGroupStats {
    fn add(&mut self, r: &DecisionRecord) {
        self.decisions += 1;
        match r.verdict {
            Verdict::Confirmed => self.confirmed += 1,
            Verdict::Misprediction => self.mispredictions += 1,
            Verdict::Tie => self.ties += 1,
        }
        self.regret_cycles += r.regret_cycles;
    }
}

/// The decision-provenance report of one multiplication.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionReport {
    /// Simulated device the decisions ran on.
    pub device_name: String,
    /// Every audited decision, in pipeline order.
    pub records: Vec<DecisionRecord>,
}

impl DecisionReport {
    /// Aggregates the records into `(stage/kind, acc, bin)` cells, keyed
    /// like the profiler's attribution cells.
    pub(crate) fn summary(&self) -> BTreeMap<BinKey, AuditGroupStats> {
        let mut cells: BTreeMap<BinKey, AuditGroupStats> = BTreeMap::new();
        for r in &self.records {
            let key = (format!("{}/{}", r.stage, r.kind), r.acc, r.bin);
            cells.entry(key).or_default().add(r);
        }
        cells
    }

    /// Overall statistics across every record.
    pub fn totals(&self) -> AuditGroupStats {
        let mut t = AuditGroupStats::default();
        for r in &self.records {
            t.add(r);
        }
        t
    }

    /// Fraction of decisions reconciled as mispredictions (0 when the
    /// report is empty).
    pub fn misprediction_rate(&self) -> f64 {
        let t = self.totals();
        if t.decisions == 0 {
            0.0
        } else {
            t.mispredictions as f64 / t.decisions as f64
        }
    }

    /// Total estimated regret cycles across every misprediction.
    pub(crate) fn total_regret_cycles(&self) -> f64 {
        self.records.iter().map(|r| r.regret_cycles).sum()
    }

    /// Serialises the report as canonical JSON: fixed key order, numbers
    /// via shortest-roundtrip `Display` — byte-deterministic, and
    /// [`DecisionReport::from_json`] followed by re-export reproduces the
    /// bytes exactly.
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"format\": ");
        push_json_string(&mut out, AUDIT_FORMAT);
        out.push_str(",\n\"device\": ");
        push_json_string(&mut out, &self.device_name);
        let t = self.totals();
        let _ = write!(
            out,
            ",\n\"summary\": {{\"decisions\": {}, \"confirmed\": {}, \"mispredictions\": {}, \"ties\": {}, \"regret_cycles\": ",
            t.decisions, t.confirmed, t.mispredictions, t.ties
        );
        push_num(&mut out, t.regret_cycles);
        out.push_str(", \"misprediction_rate\": ");
        push_num(&mut out, self.misprediction_rate());
        out.push_str("},\n\"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"stage\": ");
            push_json_string(&mut out, &r.stage);
            out.push_str(", \"kind\": ");
            push_json_string(&mut out, r.kind);
            out.push_str(", \"subject\": ");
            push_json_string(&mut out, &r.subject);
            out.push_str(", \"bin\": ");
            match r.bin {
                Some(b) => {
                    let _ = write!(out, "{b}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"acc\": ");
            match r.acc {
                Some(a) => push_json_string(&mut out, a.name()),
                None => out.push_str("null"),
            }
            out.push_str(", \"chosen\": ");
            push_json_string(&mut out, &r.chosen);
            out.push_str(", \"chosen_est_cycles\": ");
            push_num(&mut out, r.chosen_est_cycles);
            out.push_str(", \"measured_cycles\": ");
            push_num(&mut out, r.measured_cycles);
            out.push_str(", \"regret_cycles\": ");
            push_num(&mut out, r.regret_cycles);
            out.push_str(", \"verdict\": ");
            push_json_string(&mut out, r.verdict.name());
            out.push_str(", \"features\": {");
            for (j, (k, v)) in r.features.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, k);
                out.push_str(": ");
                push_num(&mut out, *v);
            }
            out.push_str("}, \"alternatives\": [");
            for (j, a) in r.alternatives.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"label\": ");
                push_json_string(&mut out, &a.label);
                out.push_str(", \"est_cycles\": ");
                push_num(&mut out, a.est_cycles);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parses a report back from [`DecisionReport::canonical_json`]
    /// output. The derived `summary` block is ignored and recomputed.
    pub fn from_json(text: &str) -> Result<DecisionReport, String> {
        let root = parse_json_value(text)?;
        let format = root.req("format", JsonValue::as_str)?;
        if format != AUDIT_FORMAT {
            return Err(format!("audit JSON: unsupported format {format:?}"));
        }
        let device_name = root.req("device", JsonValue::as_str)?.to_string();
        let mut records = Vec::new();
        for rec in root.req("records", JsonValue::as_arr)? {
            let text = |key: &str| rec.req(key, JsonValue::as_str).map(str::to_string);
            let num = |key: &str| rec.req(key, JsonValue::as_f64);
            let kind = match rec.req("kind", JsonValue::as_str)? {
                "gate" => "gate",
                "merge" => "merge",
                "bin" => "bin",
                "acc" => "acc",
                "group_size" => "group_size",
                k => return Err(format!("audit JSON: unknown kind {k:?}")),
            };
            let features = rec.req("features", JsonValue::as_obj)?;
            let features = features
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.typed(k, JsonValue::as_f64)?)))
                .collect::<Result<_, String>>()?;
            let alternatives = rec.req("alternatives", JsonValue::as_arr)?;
            let alternatives = alternatives
                .iter()
                .map(|a| {
                    Ok(Alternative {
                        label: a.req("label", JsonValue::as_str)?.to_string(),
                        est_cycles: a.req("est_cycles", JsonValue::as_f64)?,
                    })
                })
                .collect::<Result<_, String>>()?;
            records.push(DecisionRecord {
                stage: text("stage")?,
                kind,
                subject: text("subject")?,
                bin: rec.opt("bin", JsonValue::as_usize)?,
                acc: rec.opt("acc", |v| v.as_str().and_then(AccMethod::from_name))?,
                features,
                chosen: text("chosen")?,
                chosen_est_cycles: num("chosen_est_cycles")?,
                measured_cycles: num("measured_cycles")?,
                alternatives,
                verdict: rec.req("verdict", |v| v.as_str().and_then(Verdict::from_name))?,
                regret_cycles: num("regret_cycles")?,
            });
        }
        Ok(DecisionReport {
            device_name,
            records,
        })
    }

    /// Renders the summary cells as an aligned text table with headline
    /// totals, mispredictions first within the listing order.
    pub fn render_table(&self) -> String {
        let t = self.totals();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "decision audit: {} decisions, {} confirmed, {} mispredicted, {} ties \
             (misprediction rate {:.1}%)",
            t.decisions,
            t.confirmed,
            t.mispredictions,
            t.ties,
            self.misprediction_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "estimated regret: {:.3} cycles",
            self.total_regret_cycles()
        );
        let cells = self.summary();
        if cells.is_empty() {
            return out;
        }
        let width = cells
            .keys()
            .map(|(s, _, _)| s.len())
            .max()
            .unwrap_or(0)
            .max("decision".len());
        let _ = writeln!(
            out,
            "  {:width$}  {:>6}  {:>4}  {:>9}  {:>9}  {:>5}  {:>14}",
            "decision", "acc", "bin", "decisions", "mispred", "ties", "regret cycles"
        );
        for ((cell, acc, bin), st) in &cells {
            let (acc, bin) = cell_labels(*acc, *bin);
            let _ = writeln!(
                out,
                "  {:width$}  {:>6}  {:>4}  {:>9}  {:>9}  {:>5}  {:>14.3}",
                cell, acc, bin, st.decisions, st.mispredictions, st.ties, st.regret_cycles
            );
        }
        out
    }
}

/// Difference between two decision reports, cell by cell.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditDiff {
    /// `new.total_regret_cycles() - old.total_regret_cycles()`.
    pub regret_delta_cycles: f64,
    /// Summary cells whose statistics differ, keyed like
    /// `DecisionReport::summary`, with `(old, new)` stats (a missing
    /// side contributes zeroed stats). Empty for identical reports.
    pub cells: BTreeMap<BinKey, (AuditGroupStats, AuditGroupStats)>,
}

impl AuditDiff {
    /// Renders the diff as text; the first line is the grep-able
    /// `regret delta: {:+.3} cycles` (all-zero for identical reports).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "regret delta: {:+.3} cycles", self.regret_delta_cycles);
        if self.cells.is_empty() {
            let _ = writeln!(out, "  no decision cells changed");
            return out;
        }
        let width = self
            .cells
            .keys()
            .map(|(s, _, _)| s.len())
            .max()
            .unwrap_or(0)
            .max("decision".len());
        let _ = writeln!(
            out,
            "  {:width$}  {:>6}  {:>4}  {:>13}  {:>13}  {:>14}",
            "decision", "acc", "bin", "decisions", "mispred", "regret delta"
        );
        for ((cell, acc, bin), (old, new)) in &self.cells {
            let (acc, bin) = cell_labels(*acc, *bin);
            let _ = writeln!(
                out,
                "  {:width$}  {:>6}  {:>4}  {:>6} -> {:>4}  {:>6} -> {:>4}  {:>+14.3}",
                cell,
                acc,
                bin,
                old.decisions,
                new.decisions,
                old.mispredictions,
                new.mispredictions,
                new.regret_cycles - old.regret_cycles
            );
        }
        out
    }
}

/// Diffs two reports cell by cell; `diff_reports(r, r)` has no cells and
/// a zero regret delta.
pub fn diff_reports(old: &DecisionReport, new: &DecisionReport) -> AuditDiff {
    let mut cells = pair_by_key(&old.summary(), &new.summary(), |s| *s);
    cells.retain(|_, (o, n)| o != n);
    AuditDiff {
        regret_delta_cycles: new.total_regret_cycles() - old.total_regret_cycles(),
        cells,
    }
}

// ---------------------------------------------------------------------------
// Report construction
// ---------------------------------------------------------------------------

/// Per-pass context the extractors share.
struct PassCtx<'a> {
    /// `"symbolic"` or `"numeric"` — the record's `stage` label.
    pass: &'static str,
    /// Timeline stage of the pass's SpGEMM kernels.
    spgemm_stage: &'static str,
    /// Timeline stage of the pass's load-balancing kernels.
    load_stage: &'static str,
    gate: &'a GateProvenance,
    /// Per-row hash-entry demand of the pass.
    entries: Vec<u64>,
    entry_bytes: usize,
}

/// Builds the decision report of a multiply from `plan` and its finished
/// trace. Called by the pipeline after execution; read-only on everything
/// it receives.
pub(crate) fn build_report<V: Scalar>(
    dev: &DeviceConfig,
    model: &CostModel,
    cfg: &SpeckConfig,
    plan: &SpgemmPlan<V>,
    trace: &ExecutionTrace,
) -> DecisionReport {
    let cascade = KernelCascade::for_device(dev);
    let (info, b_cols, val_bytes) = (&plan.info, plan.pattern.b_cols, std::mem::size_of::<V>());
    // C's exact row sizes, read off its row offsets.
    let row_ptr = plan.numeric.row_ptr();
    let row_nnz: Vec<u32> = row_ptr.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
    let mut records = Vec::new();
    let passes = [
        PassCtx {
            pass: "symbolic",
            spgemm_stage: stage::SYMBOLIC,
            load_stage: stage::SYMBOLIC_LOAD,
            gate: &plan.symbolic_gate,
            entries: info.rows.iter().map(|r| r.products).collect(),
            entry_bytes: symbolic_entry_bytes(b_cols),
        },
        PassCtx {
            pass: "numeric",
            spgemm_stage: stage::NUMERIC,
            load_stage: stage::NUMERIC_LOAD,
            gate: &plan.numeric.plan().gate,
            entries: row_nnz
                .iter()
                .map(|&n| numeric_entries(n, cfg.numeric_max_fill))
                .collect(),
            entry_bytes: numeric_entry_bytes(b_cols, val_bytes),
        },
    ];
    for p in &passes {
        // A warm (plan-reusing) run carries only the stages that actually
        // executed — its trace has no symbolic kernels, so only the
        // numeric decisions are audited.
        if !trace.kernels().any(|(_, r, _)| r.stage == p.spgemm_stage) {
            continue;
        }
        // Counterfactual: the same pass planned with the gate forced the
        // other way. Planning is side-effect-free (pure launches, results
        // discarded), so the audit never perturbs metrics or timelines.
        let alt_cfg = SpeckConfig {
            global_lb: if p.gate.used_global_lb {
                GlobalLbMode::AlwaysOff
            } else {
                GlobalLbMode::AlwaysOn
            },
            ..cfg.clone()
        };
        let skip = BlockRecords::Skip;
        records.push(if p.pass == "symbolic" {
            let alt = plan_symbolic(dev, model, &cascade, &alt_cfg, info, b_cols, skip);
            gate_record(p, &alt, trace)
        } else {
            let (alt, _) = plan_numeric(
                dev, model, &cascade, &alt_cfg, info, &row_nnz, b_cols, val_bytes, skip,
            );
            gate_record(p, alt.plan(), trace)
        });
        if let Some(r) = merge_record(p, trace) {
            records.push(r);
        }
        block_records(p, model, &cascade, info, trace, &mut records);
    }
    DecisionReport {
        device_name: trace.device_name.clone(),
        records,
    }
}

/// Shared verdict rule: compare measured cycles against the cheapest
/// alternative estimate.
fn verdict_for(measured: f64, alternatives: &[Alternative]) -> (Verdict, f64) {
    let best = alternatives
        .iter()
        .map(|a| a.est_cycles)
        .min_by(f64::total_cmp);
    let Some(best) = best else {
        return (Verdict::Confirmed, 0.0);
    };
    let tol = TIE_RTOL * measured.abs().max(best.abs()).max(1.0);
    if (measured - best).abs() <= tol {
        (Verdict::Tie, 0.0)
    } else if measured > best {
        (Verdict::Misprediction, measured - best)
    } else {
        (Verdict::Confirmed, 0.0)
    }
}

/// Counterfactual cycles for a measured block whose `issue_rounds` are
/// replaced by `rounds` — "what if the group size had packed the same
/// work into a different number of issue rounds?". Every other counter
/// (memory traffic, scratchpad ops, probes) keeps its measured value.
/// With `rounds == c.issue_rounds` this is the identity shadow cost.
fn cycles_with_rounds(model: &CostModel, c: &BlockCost, rounds: u64) -> f64 {
    let alt = BlockCost {
        issue_rounds: rounds,
        ..*c
    };
    model.block_cycles(&alt)
}

/// Counterfactual cycles for a measured block whose *compute* side is
/// scaled by `factor` while the memory side keeps its measured cost —
/// "what if the block had run with a different thread width?". A wider
/// configuration spreads the same per-element work over more lanes
/// (`factor < 1`), a narrower one serialises it (`factor > 1`); memory
/// traffic is width-invariant. `factor == 1.0` is the identity shadow
/// cost.
fn cycles_compute_scaled(model: &CostModel, c: &BlockCost, factor: f64) -> f64 {
    let (compute, memory) = model.split_cycles(c);
    (compute * factor).max(memory)
}

/// First-order per-product *compute* cost of an accumulation strategy:
/// a hash insert pays a probe plus a scratchpad CAS, a dense
/// accumulation a plain scratchpad access, and direct referencing only
/// the issue slot of its streaming copy. The accumulator decision scales
/// a measured block's compute side by the ratio of these units to
/// estimate a rejected accumulator's cost.
fn acc_unit_cost(model: &CostModel, acc: AccMethod) -> f64 {
    match acc {
        AccMethod::Hash => model.c_probe + model.c_smem_atomic,
        AccMethod::Dense => model.c_smem_op,
        AccMethod::Direct => 1.0,
    }
}

/// Optimistic work/span schedule bound for one launch over per-block
/// cycle attributions: blocks spread over the SMs, bounded below by the
/// heaviest block, plus the launch overhead.
fn launch_bound(block_cycles: &[f64], trace: &ExecutionTrace) -> f64 {
    let total: f64 = block_cycles.iter().sum();
    let max = block_cycles.iter().copied().fold(0.0, f64::max);
    (total / trace.num_sms.max(1) as f64).max(max) + trace.launch_overhead_cycles
}

/// The pass's global-LB gate decision (Table 2 thresholds). Measured
/// cost is what the pass actually paid (binning + SpGEMM kernels); the
/// alternative is `alt_plan`, the pass re-planned with the gate forced the
/// other way, whose launch groups are costed by row attribution — an
/// optimistic bound, since re-planned blocks reuse the measured per-row
/// cycles.
fn gate_record(p: &PassCtx<'_>, alt_plan: &PassPlan, trace: &ExecutionTrace) -> DecisionRecord {
    let mut measured = 0.0;
    let mut has_load = false;
    for (_, r, k) in trace.kernels() {
        if r.stage == p.spgemm_stage || r.stage == p.load_stage {
            measured += k.body_cycles + trace.launch_overhead_cycles;
            has_load |= r.stage == p.load_stage;
        }
    }

    // Measured per-row cycles of the pass, the profiler's attribution.
    let attr = trace.row_cycles(Some(p.spgemm_stage));
    let mut alt_est = 0.0;
    if has_load {
        // The alternative's own binning/merge kernels — comparable only
        // on cold runs, where the measured side also paid its load stage.
        for r in &alt_plan.lb_reports {
            alt_est += r.sim_cycles;
        }
    }
    for l in &alt_plan.launches {
        let block_cycles: Vec<f64> = l
            .blocks
            .clone()
            .map(|bi| {
                alt_plan
                    .block_rows(bi)
                    .iter()
                    .map(|row| attr.get(row).map_or(0.0, |&(cycles, _)| cycles))
                    .sum()
            })
            .collect();
        alt_est += launch_bound(&block_cycles, trace);
    }

    let (chosen, alt_label) = if p.gate.used_global_lb {
        ("lb_on", "lb_off")
    } else {
        ("lb_off", "lb_on")
    };
    let alternatives = vec![Alternative {
        label: alt_label.to_string(),
        est_cycles: alt_est,
    }];
    let (verdict, regret_cycles) = verdict_for(measured, &alternatives);
    DecisionRecord {
        stage: p.pass.to_string(),
        kind: "gate",
        subject: "gate".to_string(),
        bin: None,
        acc: None,
        features: vec![
            ("ratio".to_string(), p.gate.ratio),
            ("rows".to_string(), p.gate.rows as f64),
            ("thr_ratio".to_string(), p.gate.thr_ratio),
            ("thr_rows".to_string(), p.gate.thr_rows as f64),
            (
                "needs_large_kernel".to_string(),
                p.gate.needs_large_kernel as u64 as f64,
            ),
        ],
        chosen: chosen.to_string(),
        chosen_est_cycles: measured,
        measured_cycles: measured,
        alternatives,
        verdict,
        regret_cycles,
    }
}

/// The smallest-bin block-merge decision, audited only when a merge
/// kernel actually launched in the pass. Measured cost is the merge
/// kernel plus the merged launch; the `no_merge` alternative re-spreads
/// the merged rows one block each (dropping the merge kernel) — an
/// optimistic bound, since the per-row shares keep the merged blocks'
/// amortisation of fixed per-block costs.
fn merge_record(p: &PassCtx<'_>, trace: &ExecutionTrace) -> Option<DecisionRecord> {
    let (_, _, mk) = trace
        .kernels()
        .find(|(_, r, k)| r.stage == p.load_stage && k.name == "block_merge")?;
    // The merged launch is the smallest-bin hash launch of the pass.
    let (_, _, sk) = trace
        .kernels()
        .filter(|(_, r, k)| {
            r.stage == p.spgemm_stage && k.acc == Some(AccMethod::Hash) && k.bin.is_some()
        })
        .min_by_key(|(_, _, k)| k.bin)?;
    let measured = mk.body_cycles + sk.body_cycles + 2.0 * trace.launch_overhead_cycles;
    let row_cycles: Vec<f64> = sk.row_shares().map(|(_, share)| share).collect();
    let alternatives = vec![Alternative {
        label: "no_merge".to_string(),
        est_cycles: launch_bound(&row_cycles, trace),
    }];
    let (verdict, regret_cycles) = verdict_for(measured, &alternatives);
    Some(DecisionRecord {
        stage: p.pass.to_string(),
        kind: "merge",
        subject: sk.name.clone(),
        bin: sk.bin,
        acc: Some(AccMethod::Hash),
        features: vec![
            ("merged_rows".to_string(), row_cycles.len() as f64),
            ("merged_blocks".to_string(), sk.grid as f64),
            ("merge_kernel_cycles".to_string(), mk.body_cycles),
        ],
        chosen: "merge".to_string(),
        chosen_est_cycles: measured,
        measured_cycles: measured,
        alternatives,
        verdict,
        regret_cycles,
    })
}

/// Per-block decisions of the pass's SpGEMM kernels: accumulator choice
/// for every block, bin assignment and group size for hash blocks. Each
/// decision's measured cost is the identity shadow cost of the block's
/// event (bit-equal to its serial cycles); alternatives perturb the same
/// measured counters.
fn block_records(
    p: &PassCtx<'_>,
    model: &CostModel,
    cascade: &KernelCascade,
    info: &AnalysisInfo,
    trace: &ExecutionTrace,
    out: &mut Vec<DecisionRecord>,
) {
    let unit = |acc| acc_unit_cost(model, acc);
    for (_, r, k) in trace.kernels() {
        if r.stage != p.spgemm_stage {
            continue;
        }
        let Some(acc) = k.acc else { continue };
        for (e, rows, group_size) in k.traced_blocks() {
            // Only annotated blocks (every block of an audited SpGEMM
            // launch) carry decisions.
            if rows.is_empty() {
                continue;
            }
            let measured = model.block_cycles(&e.cost);
            let subject = format!("{}#{}", k.name, e.grid_idx);
            let (nnz_a, products, max_b_row) = info.block_features(rows);

            // Accumulator decision: scale the measured compute side by
            // the per-entry unit-cost ratio of the alternative method.
            let mut acc_alts: Vec<(&str, f64)> = Vec::new();
            match acc {
                AccMethod::Hash => {
                    // Dense needs exclusive ownership of the scratchpad
                    // columns — only single-row blocks qualify.
                    if rows.len() == 1 {
                        acc_alts.push(("dense", unit(AccMethod::Dense) / unit(AccMethod::Hash)));
                    }
                    // Direct applies only to rows with at most one NZ of A.
                    if rows.iter().all(|&row| info.rows[row as usize].nnz_a <= 1) {
                        acc_alts.push(("direct", unit(AccMethod::Direct) / unit(AccMethod::Hash)));
                    }
                }
                AccMethod::Dense | AccMethod::Direct => {
                    acc_alts.push(("hash", unit(AccMethod::Hash) / unit(acc)))
                }
            }
            let alternatives: Vec<Alternative> = acc_alts
                .iter()
                .map(|(label, factor)| Alternative {
                    label: label.to_string(),
                    est_cycles: cycles_compute_scaled(model, &e.cost, *factor),
                })
                .collect();
            let (verdict, regret_cycles) = verdict_for(measured, &alternatives);
            out.push(DecisionRecord {
                stage: p.pass.to_string(),
                kind: "acc",
                subject: subject.clone(),
                bin: k.bin,
                acc: Some(acc),
                features: vec![
                    ("rows".to_string(), rows.len() as f64),
                    ("nnz_a".to_string(), nnz_a as f64),
                    ("products".to_string(), products as f64),
                ],
                chosen: acc.name().to_string(),
                chosen_est_cycles: measured,
                measured_cycles: measured,
                alternatives,
                verdict,
                regret_cycles,
            });

            if acc != AccMethod::Hash {
                continue;
            }

            // Bin decision: the neighbouring cascade configurations,
            // costed by scaling compute with the thread-count ratio. The
            // smaller bin is offered only when the block's demand fits it
            // (rows were binned smallest-fit, so it rarely does — merged
            // blocks are the exception).
            if let Some(bin) = k.bin {
                let demand = rows
                    .iter()
                    .map(|&row| p.entries[row as usize])
                    .max()
                    .unwrap_or(0) as usize;
                let t_chosen = k.threads as f64;
                let mut alternatives = Vec::new();
                if bin > 0 && cascade.hash_capacity(bin - 1, p.entry_bytes) >= demand {
                    let t = cascade.config(bin - 1).threads as f64;
                    alternatives.push(Alternative {
                        label: format!("bin {}", bin - 1),
                        est_cycles: cycles_compute_scaled(model, &e.cost, t_chosen / t),
                    });
                }
                if bin + 1 < cascade.len() {
                    let t = cascade.config(bin + 1).threads as f64;
                    alternatives.push(Alternative {
                        label: format!("bin {}", bin + 1),
                        est_cycles: cycles_compute_scaled(model, &e.cost, t_chosen / t),
                    });
                }
                let (verdict, regret_cycles) = verdict_for(measured, &alternatives);
                out.push(DecisionRecord {
                    stage: p.pass.to_string(),
                    kind: "bin",
                    subject: subject.clone(),
                    bin: Some(bin),
                    acc: Some(acc),
                    features: vec![
                        ("demand_entries".to_string(), demand as f64),
                        ("entry_bytes".to_string(), p.entry_bytes as f64),
                        ("threads".to_string(), t_chosen),
                    ],
                    chosen: format!("bin {bin}"),
                    chosen_est_cycles: measured,
                    measured_cycles: measured,
                    alternatives,
                    verdict,
                    regret_cycles,
                });
            }

            // Group-size decision: scale the block's measured issue
            // rounds by the work/span estimate ratio of the rejected
            // neighbouring g (paper §3.2 / Fig. 13).
            if let Some(g) = group_size {
                let est_g = estimated_rounds(g as usize, k.threads, nnz_a, products, max_b_row);
                let alternatives: Vec<Alternative> = alternative_group_sizes(g as usize, k.threads)
                    .into_iter()
                    .map(|alt_g| {
                        let est_alt =
                            estimated_rounds(alt_g, k.threads, nnz_a, products, max_b_row);
                        let rounds = ((e.cost.issue_rounds as u128 * est_alt as u128)
                            / est_g.max(1) as u128)
                            .max(1) as u64;
                        Alternative {
                            label: format!("g={alt_g}"),
                            est_cycles: cycles_with_rounds(model, &e.cost, rounds),
                        }
                    })
                    .collect();
                let (verdict, regret_cycles) = verdict_for(measured, &alternatives);
                out.push(DecisionRecord {
                    stage: p.pass.to_string(),
                    kind: "group_size",
                    subject,
                    bin: k.bin,
                    acc: Some(acc),
                    features: vec![
                        ("g".to_string(), g as f64),
                        ("nnz_a".to_string(), nnz_a as f64),
                        ("products".to_string(), products as f64),
                        ("max_b_row".to_string(), max_b_row as f64),
                        ("est_rounds".to_string(), est_g as f64),
                    ],
                    chosen: format!("g={g}"),
                    chosen_est_cycles: measured,
                    measured_cycles: measured,
                    alternatives,
                    verdict,
                    regret_cycles,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpeckSpgemm;
    use speck_sparse::gen::{rmat, uniform_random, with_hub_rows};

    fn audited(cache: usize) -> SpeckSpgemm {
        SpeckSpgemm::default()
            .with_plan_cache_capacity(cache)
            .with_auditing(true)
    }

    #[test]
    fn identity_shadow_cost_is_block_cycles_bitwise() {
        let m = CostModel::default();
        let c = BlockCost {
            issue_rounds: 37,
            gmem_tx: 101,
            smem_ops: 5,
            hash_probes: 3,
            syncs: 2,
            ..Default::default()
        };
        assert_eq!(
            cycles_with_rounds(&m, &c, c.issue_rounds).to_bits(),
            m.block_cycles(&c).to_bits()
        );
        assert_eq!(
            cycles_compute_scaled(&m, &c, 1.0).to_bits(),
            m.block_cycles(&c).to_bits()
        );
    }

    #[test]
    fn counterfactual_rounds_move_only_the_compute_side() {
        let m = CostModel::default();
        let c = BlockCost {
            issue_rounds: 10,
            gmem_tx: 4,
            ..Default::default()
        };
        assert_eq!(cycles_with_rounds(&m, &c, 20), 20.0 * m.c_round);
        // A memory-bound block stays memory-bound when rounds shrink.
        let mem = BlockCost {
            issue_rounds: 1,
            gmem_tx: 1000,
            ..Default::default()
        };
        assert_eq!(cycles_with_rounds(&m, &mem, 0), 1000.0 * m.c_gmem_tx);
    }

    #[test]
    fn acc_units_rank_hash_dearest_and_stay_positive() {
        let m = CostModel::default();
        let [hash, dense, direct] =
            [AccMethod::Hash, AccMethod::Dense, AccMethod::Direct].map(|a| acc_unit_cost(&m, a));
        assert!(hash > dense && hash > direct);
        assert!(hash > 0.0 && dense > 0.0 && direct > 0.0);
    }

    #[test]
    fn audit_covers_every_decision_kind_on_a_skewed_matrix() {
        let a = with_hub_rows(6_000, 1, 4, 3_000, 5);
        let (_, r) = audited(0).multiply(&a, &a);
        let audit = r.audit.expect("auditing engine attaches a report");
        assert!(r.trace.is_none(), "auditing alone must not attach a trace");
        let kinds: std::collections::BTreeSet<&str> =
            audit.records.iter().map(|d| d.kind).collect();
        for kind in ["gate", "acc", "bin", "group_size"] {
            assert!(kinds.contains(kind), "missing kind {kind}: {kinds:?}");
        }
        // Both passes present on a cold run.
        assert!(audit.records.iter().any(|d| d.stage == "symbolic"));
        assert!(audit.records.iter().any(|d| d.stage == "numeric"));
        // The chosen option's estimate is the identity shadow cost.
        for d in &audit.records {
            assert_eq!(
                d.chosen_est_cycles.to_bits(),
                d.measured_cycles.to_bits(),
                "{}/{} {}",
                d.stage,
                d.kind,
                d.subject
            );
            assert!(d.regret_cycles >= 0.0);
            if d.verdict == Verdict::Misprediction {
                assert!(d.regret_cycles > 0.0);
            }
        }
    }

    #[test]
    fn warm_audit_covers_only_numeric_decisions() {
        let a = uniform_random(500, 500, 2, 6, 52);
        let e = audited(8);
        let (_, cold) = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        let cold_a = cold.audit.unwrap();
        let warm_a = warm.audit.unwrap();
        assert!(cold_a.records.iter().any(|d| d.stage == "symbolic"));
        for d in &warm_a.records {
            assert_eq!(
                d.stage, "numeric",
                "warm audit leaked {}/{}",
                d.stage, d.kind
            );
        }
        // The cold-vs-warm diff pins exactly the decisions plan reuse
        // skipped: every changed cell is a symbolic one.
        let d = diff_reports(&cold_a, &warm_a);
        assert!(!d.cells.is_empty());
        for (cell, _, _) in d.cells.keys() {
            assert!(cell.starts_with("symbolic/"), "unexpected cell {cell}");
        }
    }

    #[test]
    fn canonical_json_roundtrips_byte_identically() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 4);
        let (_, r1) = audited(0).multiply(&a, &a);
        let (_, r2) = audited(0).multiply(&a, &a);
        let a1 = r1.audit.unwrap();
        let a2 = r2.audit.unwrap();
        let j1 = a1.canonical_json();
        // Byte-deterministic across runs and engines.
        assert_eq!(j1, a2.canonical_json());
        // Parse-then-export is the identity on the bytes.
        let back = DecisionReport::from_json(&j1).unwrap();
        assert_eq!(back.canonical_json(), j1);
        assert_eq!(back, *a1);
        // Self-diff is empty with a zero regret delta.
        let d = diff_reports(&a1, &back);
        assert!(d.cells.is_empty());
        assert_eq!(d.regret_delta_cycles, 0.0);
        assert!(d.render_table().starts_with("regret delta: +0.000 cycles"));
    }

    #[test]
    fn summary_counts_match_records_and_rate() {
        let a = with_hub_rows(3_000, 1, 4, 1_500, 9);
        let (_, r) = audited(0).multiply(&a, &a);
        let audit = r.audit.unwrap();
        let t = audit.totals();
        assert_eq!(t.decisions, audit.records.len());
        assert_eq!(t.confirmed + t.mispredictions + t.ties, t.decisions);
        let cells = audit.summary();
        let cell_total: usize = cells.values().map(|s| s.decisions).sum();
        assert_eq!(cell_total, t.decisions);
        let rate = audit.misprediction_rate();
        assert!((0.0..=1.0).contains(&rate));
        let table = audit.render_table();
        assert!(table.starts_with("decision audit:"));
        assert!(table.contains("estimated regret:"));
    }

    #[test]
    fn gate_record_carries_table2_provenance() {
        let a = with_hub_rows(6_000, 1, 4, 3_000, 5);
        let (_, r) = audited(0).multiply(&a, &a);
        let audit = r.audit.unwrap();
        for gate in audit.records.iter().filter(|d| d.kind == "gate") {
            let f: BTreeMap<&str, f64> = gate
                .features
                .iter()
                .map(|(k, v)| (k.as_str(), *v))
                .collect();
            for key in [
                "ratio",
                "rows",
                "thr_ratio",
                "thr_rows",
                "needs_large_kernel",
            ] {
                assert!(f.contains_key(key), "gate missing feature {key}");
            }
            // The recorded choice matches the threshold predicate's
            // outcome as re-derivable from the recorded features.
            assert!(gate.chosen == "lb_on" || gate.chosen == "lb_off");
            assert_eq!(gate.alternatives.len(), 1);
            assert!(gate.alternatives[0].est_cycles.is_finite());
        }
    }

    #[test]
    fn empty_report_renders_and_diffs_cleanly() {
        let empty = DecisionReport {
            device_name: "none".to_string(),
            records: Vec::new(),
        };
        assert_eq!(empty.misprediction_rate(), 0.0);
        assert_eq!(empty.total_regret_cycles(), 0.0);
        let j = empty.canonical_json();
        let back = DecisionReport::from_json(&j).unwrap();
        assert_eq!(back.canonical_json(), j);
        assert!(diff_reports(&empty, &back).cells.is_empty());
        // Malformed inputs fail, not panic.
        assert!(DecisionReport::from_json("{}").is_err());
        assert!(DecisionReport::from_json("not json").is_err());
        assert!(DecisionReport::from_json("{\"format\": \"other\", \"device\": \"d\"}").is_err());
        // A record field the exporter always writes that is missing or
        // mistyped fails with an error naming it.
        let one = DecisionReport {
            device_name: "d".to_string(),
            records: vec![DecisionRecord {
                stage: "numeric".to_string(),
                kind: "acc",
                subject: "numeric_hash_c1#0".to_string(),
                bin: Some(1),
                acc: Some(AccMethod::Hash),
                features: vec![("rows".to_string(), 2.0)],
                chosen: "hash".to_string(),
                chosen_est_cycles: 5.0,
                measured_cycles: 5.0,
                alternatives: vec![Alternative {
                    label: "dense".to_string(),
                    est_cycles: 4.0,
                }],
                verdict: Verdict::Misprediction,
                regret_cycles: 1.0,
            }],
        };
        let j = one.canonical_json();
        assert_eq!(DecisionReport::from_json(&j).unwrap(), one);
        for (from, to, key) in [
            (
                "\"features\": {\"rows\": 2}",
                "\"features\": [2]",
                "features",
            ),
            ("\"rows\": 2", "\"rows\": \"2\"", "rows"),
            ("\"acc\": \"hash\"", "\"acc\": \"hsah\"", "acc"),
            ("\"bin\": 1", "\"bin\": \"1\"", "bin"),
            ("\"alternatives\"", "\"alts\"", "alternatives"),
        ] {
            assert!(j.contains(from), "{from}");
            let err = DecisionReport::from_json(&j.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{from}: {err}");
        }
    }
}

//! Wall-clock throughput benchmark of the spECK engine.
//!
//! Reuses ONE engine across every multiplication (exercising workspace
//! reuse) and reports host-side throughput in matrices/second, peak RSS,
//! and per-stage wall time. Results go to `BENCH_throughput.json` at the
//! repo root in a machine-readable form.
//!
//! A digest of every simulated time and memory figure is included so that
//! host-side optimisations can be checked for *simulation neutrality*: the
//! digest must be bit-identical before and after any change that only
//! touches host execution (see DESIGN.md §3). The digest rounds run on a
//! cache-disabled engine so every multiply takes the full cold pipeline;
//! plan reuse is measured separately by the reuse and warm rounds, whose
//! *simulated* speedup is reported as `reuse_speedup`.
//!
//! Usage: `cargo run --release --bin bench_throughput [-- ROUNDS [OUT [BASELINE_MPS]]] [--expect-digest HEX]`
//!
//! `BASELINE_MPS` is a reference throughput (matrices/second) measured on
//! the same machine — typically a pre-optimisation build run back-to-back
//! with this one; when given, the report includes the speedup against it.
//! `--expect-digest HEX` makes the run exit non-zero when the cold-path
//! sim digest differs from `HEX` (CI smoke mode).
//!
//! Metrics options (all engines share one `MetricsRegistry`):
//! * `--metrics-out PATH` — write the full `MetricsSnapshot` JSON
//!   (counters + histograms + wall gauges) to `PATH`.
//! * `--metrics-table PATH` — write the human-readable metrics table to
//!   `PATH` (e.g. for a CI job summary).
//! * `--check-metrics BASELINE` — diff the snapshot against a committed
//!   baseline (`BENCH_metrics.json`): sim counters and histograms must
//!   match exactly, `wall/` gauges within the baseline's declared
//!   tolerance. Non-zero exit on drift.
//!
//! The emitted snapshot declares a relative tolerance of 0.35 for its
//! `wall/` gauges. Traces and profiles come from
//! `runspeck --trace-out/--profile`.
//!
//! Audit option (run on a separate engine with its own registry, so the
//! digest and metrics gates above are untouched):
//! * `--audit-out PATH` — audit one cold multiply of every corpus entry
//!   on a dedicated engine and write the aggregate decision statistics
//!   (per matrix + total misprediction rate + Table-2 gate accuracy) as
//!   byte-deterministic JSON — the committed `BENCH_audit.json` baseline.

use speck_bench::cli::parse_flags;
use speck_bench::corpus::{common_corpus, smoke_corpus};
use speck_core::json::push_num;
use speck_core::metrics::{compare_snapshots, MetricsRegistry, MetricsSnapshot};
use speck_core::plan::fnv1a_bytes;
use speck_core::{tuning, SpeckConfig, SpeckSpgemm};
use speck_simt::{CostModel, DeviceConfig};
use speck_sparse::gen::common_matrices;
use speck_sparse::Csr;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Relative tolerance the emitted metrics snapshot declares for its
/// `wall/` gauges: on a loaded 2-core machine the machine alone moves
/// them 20–40% between runs.
const WALL_TOLERANCE: f64 = 0.35;

/// Peak resident set size in bytes, from `/proc/self/status` (VmHWM).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Same pattern as `m`, deterministically perturbed values — what a solver
/// hands the engine when it rebuilds an operator without changing its
/// sparsity.
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

fn main() {
    let parsed = parse_flags(
        std::env::args().skip(1),
        &[
            ("--expect-digest", 1),
            ("--metrics-out", 1),
            ("--metrics-table", 1),
            ("--check-metrics", 1),
            ("--audit-out", 1),
        ],
        &[],
    )
    .unwrap_or_else(|e| panic!("bench_throughput: {e}"));
    let expect_digest: Option<u64> = parsed
        .value("--expect-digest")
        .map(|hex| u64::from_str_radix(hex, 16).expect("--expect-digest: bad hex value"));
    let metrics_out = parsed.value("--metrics-out").map(String::from);
    let metrics_table = parsed.value("--metrics-table").map(String::from);
    let check_metrics = parsed.value("--check-metrics").map(String::from);
    let audit_out = parsed.value("--audit-out").map(String::from);
    let mut positional = parsed.positional.iter();
    let rounds: usize = positional.next().and_then(|s| s.parse().ok()).unwrap_or(3);
    let out_path = positional
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    let baseline_mps: Option<f64> = positional.next().and_then(|s| s.parse().ok());

    // Corpus: the paper's "common" matrices plus the fast smoke subset —
    // mixes large multiplications with launch-overhead-bound tiny ones.
    let mut specs = common_corpus();
    specs.extend(smoke_corpus());

    let t_build = Instant::now();
    let pairs: Vec<(String, Csr<f64>, Csr<f64>)> = specs
        .iter()
        .map(|s| {
            let (a, b) = s.build();
            (s.name.clone(), a, b)
        })
        .collect();
    let build_s = t_build.elapsed().as_secs_f64();

    // One registry observes the whole bench: the digest engine's cold
    // rounds and the caching engine's reuse/warm rounds all record into
    // it, so the emitted snapshot covers every pipeline path.
    let registry = Arc::new(MetricsRegistry::new());

    // Digest rounds: cache disabled, so every multiply is the full cold
    // pipeline and the digest stays comparable across plan-cache changes.
    let engine = SpeckSpgemm::default()
        .with_plan_cache_capacity(0)
        .with_metrics(Arc::clone(&registry));
    // Every simulated time and memory figure, little-endian, in call
    // order; the digest is its FNV-1a (order-sensitive, bit-exact).
    let mut sim_bytes: Vec<u8> = Vec::new();
    let mut total_nnz_c = 0u64;

    // Warm-up round: populate the engine's reusable workspaces and page in
    // the matrices, so the timed rounds measure steady-state throughput.
    for (_, a, b) in &pairs {
        let (c, _) = engine.multiply(a, b);
        total_nnz_c += c.nnz() as u64;
    }

    let t_mult = Instant::now();
    let mut multiplies = 0usize;
    let mut cold_sim = 0.0f64;
    for round in 0..rounds {
        for (_, a, b) in &pairs {
            let (_, report) = engine.multiply(a, b);
            assert!(!report.reused_plan, "digest round must stay cold");
            sim_bytes.extend(report.sim_time_s.to_bits().to_le_bytes());
            sim_bytes.extend((report.peak_mem_bytes as u64).to_le_bytes());
            if round == 0 {
                cold_sim += report.sim_time_s;
            }
            multiplies += 1;
        }
    }
    let mult_s = t_mult.elapsed().as_secs_f64();
    let digest = fnv1a_bytes(&sim_bytes);
    let matrices_per_sec = multiplies as f64 / mult_s;

    // Reuse round: a caching engine is primed over the corpus, then runs
    // it again with fresh values (same patterns). The reported speedup is
    // cold simulated time (from the cache-disabled round above) over the
    // warm simulated time — the reused calls launch no setup kernels.
    // (Priming calls aren't asserted cold: the corpus itself repeats some
    // patterns, which is exactly what the cache is for.)
    let caching = SpeckSpgemm::default().with_metrics(Arc::clone(&registry));
    let mut warm_sim = 0.0f64;
    for (_, a, b) in &pairs {
        let _ = caching.multiply(a, b);
    }
    let fresh: Vec<(Csr<f64>, Csr<f64>)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (_, a, b))| (perturb(a, i as u64), perturb(b, i as u64 + 1)))
        .collect();
    let t_reuse = Instant::now();
    for (a, b) in &fresh {
        let (_, r) = caching.multiply(a, b);
        assert!(r.reused_plan, "repeated pattern must reuse its plan");
        warm_sim += r.sim_time_s;
    }
    let reuse_s = t_reuse.elapsed().as_secs_f64();
    let reuse_speedup = cold_sim / warm_sim;

    // Warm round: the same warm multiplies, `rounds` times over.
    let t_warm = Instant::now();
    let mut warm_multiplies = 0usize;
    for _ in 0..rounds {
        for (a, b) in &fresh {
            let _ = caching.multiply(a, b);
            warm_multiplies += 1;
        }
    }
    let warm_s = t_warm.elapsed().as_secs_f64();
    let warm_matrices_per_sec = warm_multiplies as f64 / warm_s;
    let rss = peak_rss_bytes();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"throughput\",");
    let _ = writeln!(json, "  \"corpus_size\": {},", pairs.len());
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"multiplies\": {multiplies},");
    let _ = writeln!(json, "  \"matrices_per_sec\": {matrices_per_sec:.3},");
    if let Some(base) = baseline_mps {
        let _ = writeln!(json, "  \"baseline_matrices_per_sec\": {base:.3},");
        let _ = writeln!(
            json,
            "  \"speedup_vs_baseline\": {:.3},",
            matrices_per_sec / base
        );
    }
    let _ = writeln!(json, "  \"reuse_speedup\": {reuse_speedup:.3},");
    let _ = writeln!(json, "  \"reuse_cold_sim_s\": {cold_sim:.6},");
    let _ = writeln!(json, "  \"reuse_warm_sim_s\": {warm_sim:.6},");
    let _ = writeln!(
        json,
        "  \"warm_matrices_per_sec\": {warm_matrices_per_sec:.3},"
    );
    let _ = writeln!(json, "  \"total_nnz_c_per_round\": {total_nnz_c},");
    let _ = writeln!(json, "  \"peak_rss_bytes\": {rss},");
    let _ = writeln!(json, "  \"stage_wall_s\": {{");
    let _ = writeln!(json, "    \"build_corpus\": {build_s:.3},");
    let _ = writeln!(json, "    \"multiply\": {mult_s:.3},");
    let _ = writeln!(json, "    \"reuse\": {reuse_s:.3},");
    let _ = writeln!(json, "    \"warm\": {warm_s:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"sim_digest\": \"{:016x}\"", digest);
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    println!("{json}");
    println!(
        "throughput: {matrices_per_sec:.2} matrices/s over {multiplies} multiplies \
         ({mult_s:.2}s); reuse speedup {reuse_speedup:.2}x (simulated); \
         warm {warm_matrices_per_sec:.2} matrices/s; sim digest {:016x}; wrote {out_path}",
        digest
    );

    // Metrics snapshot: taken from the caching engine so the plan-cache
    // counters reflect the reuse rounds; sim counters cover both engines
    // through the shared registry.
    let mut snap = caching.metrics_snapshot();
    snap.wall_tolerance = Some(WALL_TOLERANCE);
    if let Some(path) = &metrics_out {
        std::fs::write(path, snap.full_json()).expect("write metrics snapshot");
        println!("metrics snapshot written to {path}");
    }
    if let Some(path) = &metrics_table {
        std::fs::write(path, snap.render_table()).expect("write metrics table");
    }

    if let Some(path) = &audit_out {
        write_audit_baseline(path, &pairs);
    }

    let mut failed = false;
    if let Some(path) = &check_metrics {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check-metrics: cannot read {path}: {e}"));
        let baseline = MetricsSnapshot::parse_json(&text)
            .unwrap_or_else(|e| panic!("--check-metrics: {path}: {e}"));
        let drift = compare_snapshots(&snap, &baseline);
        if drift.is_empty() {
            println!(
                "metrics gate: snapshot matches {path} ({} counters, {} histograms exact)",
                baseline.counters.len(),
                baseline.histograms.len()
            );
        } else {
            eprintln!("FAIL: metrics snapshot drifted from {path}:");
            for d in &drift {
                eprintln!("  - {d}");
            }
            failed = true;
        }
    }

    if let Some(expect) = expect_digest {
        if digest != expect {
            eprintln!(
                "FAIL: cold-path sim digest {:016x} != expected {expect:016x} — \
                 a host-side change moved simulated results",
                digest
            );
            failed = true;
        } else {
            println!("cold-path sim digest matches expected {expect:016x}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `--audit-out` baseline: one cold audited multiply per corpus entry
/// on a dedicated engine (own registry — the digest and metrics gates
/// above never observe it), aggregated into per-matrix decision
/// statistics, plus the Table-2 gate accuracy of the default thresholds
/// over the named common matrices (`tests/paper_claims.rs` re-derives the
/// same figure and treats this file as its floor). Every field is
/// simulation-derived, so the bytes are deterministic and CI can `cmp`
/// them against the committed `BENCH_audit.json`.
fn write_audit_baseline(path: &str, pairs: &[(String, Csr<f64>, Csr<f64>)]) {
    let audited = SpeckSpgemm::default()
        .with_plan_cache_capacity(0)
        .with_auditing(true);
    let mut json = String::new();
    json.push_str("{\n  \"format\": \"speck-audit-bench-v1\",\n  \"matrices\": [\n");
    let (mut decisions, mut confirmed, mut mispred, mut ties) = (0usize, 0usize, 0usize, 0usize);
    let mut regret = 0.0f64;
    for (i, (name, a, b)) in pairs.iter().enumerate() {
        let (_, r) = audited.multiply(a, b);
        let audit = r.audit.expect("auditing engine attaches a report");
        let t = audit.totals();
        decisions += t.decisions;
        confirmed += t.confirmed;
        mispred += t.mispredictions;
        ties += t.ties;
        regret += t.regret_cycles;
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"decisions\": {}, \"confirmed\": {}, \
             \"mispredictions\": {}, \"ties\": {}, \"regret_cycles\": ",
            t.decisions, t.confirmed, t.mispredictions, t.ties
        );
        push_num(&mut json, t.regret_cycles);
        json.push_str(", \"misprediction_rate\": ");
        push_num(&mut json, audit.misprediction_rate());
        json.push_str(if i + 1 == pairs.len() { "}\n" } else { "},\n" });
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"total\": {{\"decisions\": {decisions}, \"confirmed\": {confirmed}, \
         \"mispredictions\": {mispred}, \"ties\": {ties}, \"regret_cycles\": "
    );
    push_num(&mut json, regret);
    json.push_str("},\n  \"misprediction_rate\": ");
    let rate = if decisions == 0 {
        0.0
    } else {
        mispred as f64 / decisions as f64
    };
    push_num(&mut json, rate);
    json.push_str(",\n");

    // Table-2 gate accuracy: the fraction of the named common matrices
    // where the default thresholds pick the fastest of the four global-LB
    // combinations (the paper's §5 figure, 85% on SuiteSparse).
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let base = SpeckConfig::default();
    let meas: Vec<_> = common_matrices()
        .into_iter()
        .map(|cm| {
            let (a, b) = cm.pair();
            tuning::measure(&dev, &cost, &base, cm.name, &a, &b)
        })
        .collect();
    let acc = tuning::accuracy(&base.thresholds, &meas);
    json.push_str("  \"gate_accuracy\": ");
    push_num(&mut json, acc);
    json.push_str("\n}\n");
    std::fs::write(path, &json).expect("write audit baseline");
    println!(
        "audit baseline: {decisions} decisions over {} matrices, misprediction rate {:.1}%, \
         gate accuracy {:.1}% -> {path}",
        pairs.len(),
        100.0 * rate,
        100.0 * acc
    );
}

//! End-to-end and per-layer benchmark of the spECK SpGEMM engine.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A workload is a set of entries of the repository's benchmark corpus
//! (`speck_bench::corpus`, which includes the 11 Table-4 stand-ins of
//! `speck_sparse::gen::common_matrices`), built with the corpus parameters
//! and generator seeds derived from `--seed` (see [`Workload::entries`]).
//! The benchmark readies one engine and multiplies the pairs round-robin in
//! a closed loop — one caller, each multiply issued when the previous one
//! returns — for `--seconds`. Every product is checked against the
//! sequential reference SpGEMM.
//!
//! Two clocks are reported. *Host* time is what this program takes to run
//! a multiply. *Simulated* time is what the modelled GPU (the `speck-simt`
//! cost model) would take; it is the reproduction's claim about spECK and
//! repeats exactly for a given seed.
//!
//! Host time is reported against a baseline: every engine call is followed
//! by the sequential reference SpGEMM (`spgemm_seq`, a dense-accumulator
//! Gustavson) of the same operands, and the end-to-end figures fold the
//! per-call ratios. On a shared machine the speed of the host drifts by
//! tens of percent over minutes; two calls a few milliseconds apart see the
//! same speed, so the ratio stays steady while any change to the engine
//! moves it in full.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is a separate run
//! that times each engine layer from outside — pattern fingerprint, row
//! analysis, plan (the setup stages), plan execution, and the engine's
//! multiply — and folds the engine's per-stage simulated timeline and one
//! traced, audited multiply per case (block schedule, decision verdicts)
//! into per-layer figures.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (`{name: {"value", "unit"}}`).

use speck_core::pipeline::stage;
use speck_core::{analyze, pattern_fingerprint, profile_trace, MultiplyReport, SpeckSpgemm};
use speck_sparse::gen::{
    banded, block_diagonal, poisson_2d, poisson_3d, rectangular_lp, rmat, uniform_random,
};
use speck_sparse::reference::spgemm_seq;
use speck_sparse::transpose::transpose;
use speck_sparse::Csr;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Value versions per pattern in the `reuse` workload, so consecutive
/// calls on one pattern carry different values.
const VALUE_VERSIONS: usize = 2;
/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-ups continue until this much time went into them, so cheap
/// set-ups take their median over more repetitions.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Operands `(A, B)` of one multiply.
type Pair = (Csr<f64>, Csr<f64>);

/// One corpus entry: its name in the corpus and its generator, called with
/// a seed.
type Entry = (&'static str, fn(u64) -> Pair);

fn square(a: Csr<f64>) -> Pair {
    (a.clone(), a)
}

/// `A·Aᵀ`, as the corpus multiplies its rectangular entries.
fn times_transpose(a: Csr<f64>) -> Pair {
    let at = transpose(&a);
    (a, at)
}

/// The 11 Table-4 stand-ins of `common_matrices` (paper Table 4 / Fig. 8),
/// ~4e5 to ~5e6 products: mesh and FEM bands, power-law graphs (`webbase`
/// gates both global load-balancing passes on), a rectangular `A·Aᵀ`, and
/// high-compaction block matrices with long dense rows.
const TABLE4: [Entry; 11] = [
    ("webbase", |s| square(rmat(13, 3, 0.57, 0.19, 0.19, s))),
    ("hugebubbles", |s| square(banded(40_000, 2, 0.55, s))),
    ("mario002", |s| square(banded(16_384, 3, 0.7, s))),
    ("stat96v2", |s| {
        times_transpose(rectangular_lp(1_000, 32_000, 90, 110, s))
    }),
    ("email-Enron", |s| square(rmat(12, 11, 0.57, 0.19, 0.19, s))),
    ("cage13", |s| square(banded(12_000, 12, 0.65, s))),
    ("144", |s| square(banded(10_000, 8, 0.85, s))),
    ("poisson3Da", |s| square(banded(6_000, 14, 0.9, s))),
    ("QCD", |s| square(block_diagonal(64, 48, 0.65, s))),
    ("harbor", |s| square(banded(2_000, 25, 1.0, s))),
    ("TSC_OPF", |s| square(block_diagonal(6, 96, 1.0, s))),
];

/// The corpus's "tiny" (CPU-wins) entries and the smallest entry of each
/// other corpus family: 50 to ~4e4 products, where launch and set-up
/// overheads outweigh the kernel bodies.
const SMALL: [Entry; 14] = [
    ("identity_50", |_| square(Csr::identity(50))),
    ("identity_400", |_| square(Csr::identity(400))),
    ("tiny_banded_50", |s| square(banded(50, 1, 1.0, s))),
    ("tiny_banded_400", |s| square(banded(400, 1, 1.0, s))),
    ("banded_n300_b1", |s| square(banded(300, 1, 1.0, s))),
    ("banded_n1000_b2", |s| square(banded(1_000, 2, 1.0, s))),
    ("poisson2d_20x20", |s| square(poisson_2d(20, 20, 0.01, s))),
    ("poisson3d_8x8x8", |s| square(poisson_3d(8, 8, 8, 0.01, s))),
    ("uniform_n200_1to4", |s| {
        square(uniform_random(200, 200, 1, 4, s))
    }),
    ("uniform_n500_2to8", |s| {
        square(uniform_random(500, 500, 2, 8, s))
    }),
    ("rmat_s7_e4", |s| square(rmat(7, 4, 0.57, 0.19, 0.19, s))),
    ("rmat_s9_e4", |s| square(rmat(9, 4, 0.57, 0.19, 0.19, s))),
    ("blockdiag_64x8", |s| square(block_diagonal(64, 8, 1.0, s))),
    ("lp_200x4000", |s| {
        times_transpose(rectangular_lp(200, 4_000, 20, 40, s))
    }),
];

/// The large end of the corpus, one entry per family, ~3e6 to ~4e7
/// products: kernel bodies outweigh the overheads. The corpus's largest
/// R-MAT entries (scales 14–16) are left out for their host memory and
/// multi-second calls.
const LARGE: [Entry; 6] = [
    ("banded_n300000_b1", |s| square(banded(300_000, 1, 1.0, s))),
    ("banded_n20000_b32", |s| square(banded(20_000, 32, 0.7, s))),
    ("poisson3d_64x64x32", |s| {
        square(poisson_3d(64, 64, 32, 0.01, s))
    }),
    ("uniform_n120000_2to8", |s| {
        square(uniform_random(120_000, 120_000, 2, 8, s))
    }),
    ("rmat_s13_e16", |s| {
        square(rmat(13, 16, 0.57, 0.19, 0.19, s))
    }),
    ("lp_6000x160000", |s| {
        times_transpose(rectangular_lp(6_000, 160_000, 80, 120, s))
    }),
];

/// One set of corpus entries and how they are multiplied.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// [`TABLE4`], every multiply on a new pattern.
    Table4,
    /// [`SMALL`], every multiply on a new pattern.
    Small,
    /// [`LARGE`], every multiply on a new pattern.
    Large,
    /// [`TABLE4`] patterns with new values on every call: the plan cache
    /// hits and only the numeric half of the pipeline runs.
    Reuse,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "table4" => Some(Self::Table4),
            "small" => Some(Self::Small),
            "large" => Some(Self::Large),
            "reuse" => Some(Self::Reuse),
            _ => None,
        }
    }

    /// Whether every multiply must run the full pipeline. Cold workloads
    /// clear the plan cache before each multiply, as for a caller whose
    /// patterns never repeat.
    fn cold(self) -> bool {
        self != Self::Reuse
    }

    fn entries(self) -> &'static [Entry] {
        match self {
            Self::Table4 | Self::Reuse => &TABLE4,
            Self::Small => &SMALL,
            Self::Large => &LARGE,
        }
    }

    /// The named operand pairs of one run, generated from `seed` only.
    fn operands(self, seed: u64) -> Vec<(&'static str, Pair)> {
        let patterns = self
            .entries()
            .iter()
            .enumerate()
            .map(|(i, &(name, build))| {
                let s = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64);
                (name, build(s))
            });
        if self != Self::Reuse {
            return patterns.collect();
        }
        let patterns: Vec<_> = patterns.collect();
        (0..VALUE_VERSIONS as u64)
            .flat_map(|v| {
                patterns
                    .iter()
                    .map(move |(name, (a, b))| (*name, (rescale(a, 2 * v), rescale(b, 2 * v + 1))))
            })
            .collect()
    }
}

/// Same pattern as `m`, values deterministically rescaled by `version`.
fn rescale(m: &Csr<f64>, version: u64) -> Csr<f64> {
    let vals = m
        .vals()
        .iter()
        .enumerate()
        .map(|(i, &v)| v * (1.0 + ((i as u64 + version) % 13) as f64 * 1e-3))
        .collect();
    Csr::from_parts_unchecked(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        vals,
    )
}

struct Case {
    name: &'static str,
    a: Csr<f64>,
    b: Csr<f64>,
    expected: Csr<f64>,
}

impl Case {
    fn matches(&self, c: &Csr<f64>) -> bool {
        c.approx_eq(&self.expected, 1e-9, 1e-12)
    }

    /// Counts a failed call: 1 (reported on stderr) unless `ok`.
    fn check(&self, ok: bool) -> usize {
        if !ok {
            eprintln!("perfbench: wrong result on {}", self.name);
        }
        usize::from(!ok)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload table4|small|large|reuse \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Readies an engine: one warm-up multiply per case sizes the engine's
/// workspaces and, for `reuse`, caches every plan.
fn set_up(cases: &[Case]) -> SpeckSpgemm {
    let engine = SpeckSpgemm::default();
    for case in cases {
        black_box(engine.multiply(black_box(&case.a), black_box(&case.b)));
    }
    engine
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    mean(xs.into_iter().map(f64::ln)).exp()
}

/// Engine multiply as the caller sees it; the cold workloads first drop
/// cached plans (untimed). Returns host seconds and whether the output and
/// the plan-cache path were right.
fn timed_multiply(engine: &SpeckSpgemm, case: &Case, cold: bool) -> (f64, bool, MultiplyReport) {
    if cold {
        engine.clear_plan_cache();
    }
    let t = Instant::now();
    let (c, report) = engine.multiply(black_box(&case.a), black_box(&case.b));
    let host = seconds_since(t);
    let ok = case.matches(&c) && report.reused_plan != cold;
    (host, ok, report)
}

/// Host seconds of the baseline, `spgemm_seq`, on `case`.
fn timed_baseline(case: &Case) -> f64 {
    let t = Instant::now();
    black_box(spgemm_seq(black_box(&case.a), black_box(&case.b)));
    seconds_since(t)
}

/// Runs `body(k)` on case index `k`, round-robin over `cases`, until
/// `seconds` elapse and every case ran at least once; returns the number of
/// calls.
fn closed_loop(cases: &[Case], seconds: f64, mut body: impl FnMut(usize)) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < cases.len() || Instant::now() < deadline {
        body(i % cases.len());
        i += 1;
    }
    i
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The end-to-end run: the engine's `multiply`, each call followed by the
/// baseline on the same case.
///
/// A case's ratio is the median over its calls of engine time ÷ baseline
/// time; `multiply_vs_baseline` is the geometric mean of the case ratios,
/// so every corpus entry of the workload counts alike whatever its size.
/// `sim_gflops` is likewise the geometric mean of the cases' simulated
/// GFLOPS, and `sim_peak_mem_mb` the mean of their simulated peak memory.
fn run_end_to_end(w: Workload, engine: &SpeckSpgemm, cases: &[Case], seconds: f64) -> Outcome {
    let mut ratios = vec![Vec::new(); cases.len()];
    let mut failed = 0;
    let mut sim = vec![(0.0, 0usize); cases.len()];
    let attempted = closed_loop(cases, seconds, |k| {
        let (host, ok, r) = timed_multiply(engine, &cases[k], w.cold());
        ratios[k].push(host / timed_baseline(&cases[k]));
        failed += cases[k].check(ok);
        sim[k] = (r.gflops(), r.peak_mem_bytes);
    });
    Outcome {
        attempted,
        failed,
        metrics: vec![
            (
                "multiply_vs_baseline",
                geomean(ratios.iter().map(|r| median(r))),
                "ratio",
            ),
            ("sim_gflops", geomean(sim.iter().map(|s| s.0)), "GFLOP/s"),
            (
                "sim_peak_mem_mb",
                mean(sim.iter().map(|s| s.1 as f64)) / 1e6,
                "MB",
            ),
        ],
    }
}

/// Timeline stages (paper Fig. 11) and the metric each one reports as.
const STAGES: [(&str, &str); 6] = [
    (stage::ANALYSIS, "sim_analysis_us"),
    (stage::SYMBOLIC_LOAD, "sim_symbolic_lb_us"),
    (stage::SYMBOLIC, "sim_symbolic_us"),
    (stage::NUMERIC_LOAD, "sim_numeric_lb_us"),
    (stage::NUMERIC, "sim_numeric_us"),
    (stage::SORTING, "sim_sorting_us"),
];

/// Simulated per-stage seconds of one report, in [`STAGES`] order.
fn stage_seconds(r: &MultiplyReport) -> [f64; 6] {
    let mut out = [0.0; 6];
    for (name, st) in r.timeline.stages() {
        if let Some(i) = STAGES.iter().position(|&(s, _)| s == name) {
            out[i] += st.seconds;
        }
    }
    out
}

/// Per-case figures of the traced run (the same every time a case runs).
#[derive(Clone, Default)]
struct CaseSim {
    stages: [f64; 6],
    launches: usize,
    radix_elems: usize,
    setup_sim_s: f64,
    execute_sim_s: f64,
}

/// Host layers the traced run times, in the order of its spans.
const LAYERS: [&str; 6] = [
    "host_fingerprint_ms",
    "host_analysis_ms",
    "host_plan_ms",
    "host_execute_ms",
    "host_multiply_ms",
    "baseline_ms",
];

/// The traced run: each layer is called and timed on its own, from
/// outside the engine, then the engine's multiply and the baseline as in
/// the end-to-end run. A layer's figure is, summed over the cases, the
/// median of its time on each case: its time for one pass over the set.
fn run_traced(w: Workload, engine: &SpeckSpgemm, cases: &[Case], seconds: f64) -> Outcome {
    let mut spans = vec![<[Vec<f64>; 6]>::default(); cases.len()];
    let mut failed = 0;
    let mut sim = vec![CaseSim::default(); cases.len()];
    let attempted = closed_loop(cases, seconds, |k| {
        let case = &cases[k];
        let spans = &mut spans[k];
        let (a, b) = (black_box(&case.a), black_box(&case.b));
        let t = Instant::now();
        black_box(pattern_fingerprint(a, b));
        spans[0].push(seconds_since(t));

        let t = Instant::now();
        black_box(analyze(&engine.device, &engine.cost, a, b));
        spans[1].push(seconds_since(t));

        let t = Instant::now();
        let plan = engine.plan(a, b);
        spans[2].push(seconds_since(t));

        let t = Instant::now();
        let (c, exec) = engine.execute_plan(&plan, a, b);
        spans[3].push(seconds_since(t));

        let (host, ok, r) = timed_multiply(engine, case, w.cold());
        spans[4].push(host);
        spans[5].push(timed_baseline(case));
        failed += case.check(ok && case.matches(&c));
        sim[k] = CaseSim {
            stages: stage_seconds(&r),
            launches: r.timeline.stages().map(|(_, st)| st.launches).sum(),
            radix_elems: r.radix_elems,
            setup_sim_s: plan.setup_sim_time_s(),
            execute_sim_s: exec.sim_time_s,
        };
    });
    let layer_s = |i: usize| spans.iter().map(|s| median(&s[i])).sum::<f64>();

    // Block and decision layers: one multiply per case on an engine that
    // captures the simulator's per-block schedule and audits every pipeline
    // decision (gate, bin, merge, accumulator, group size) against it.
    let traced = SpeckSpgemm::default()
        .with_tracing(true)
        .with_auditing(true);
    let (mut util, mut imbalance) = (Vec::new(), Vec::new());
    let (mut decisions, mut mispredictions, mut regret) = (0, 0, 0.0);
    for case in cases {
        if !w.cold() {
            traced.multiply(&case.a, &case.b);
        }
        let (_, r) = traced.multiply(&case.a, &case.b);
        let audit = r.audit.expect("an auditing engine attaches a report");
        let totals = audit.totals();
        decisions += totals.decisions;
        mispredictions += totals.mispredictions;
        regret += totals.regret_cycles;
        let trace = r.trace.expect("a tracing engine attaches a trace");
        let p = profile_trace(&trace, 1);
        util.push(mean(p.sm_util.iter().copied()));
        let body: f64 = p.kernels.iter().map(|k| k.body_cycles).sum();
        imbalance.push(
            p.kernels
                .iter()
                .map(|k| k.imbalance * k.body_cycles)
                .sum::<f64>()
                / body,
        );
    }

    let sum = |f: fn(&CaseSim) -> f64| sim.iter().map(f).sum::<f64>();
    let mut metrics: Vec<_> = LAYERS
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, layer_s(i) * 1e3, "ms"))
        .collect();
    metrics.extend([
        (
            "host_per_sim_plan",
            layer_s(2) / sum(|s| s.setup_sim_s),
            "ratio",
        ),
        (
            "host_per_sim_execute",
            layer_s(3) / sum(|s| s.execute_sim_s),
            "ratio",
        ),
    ]);
    for (i, &(_, name)) in STAGES.iter().enumerate() {
        metrics.push((
            name,
            sim.iter().map(|s| s.stages[i]).sum::<f64>() * 1e6,
            "us",
        ));
    }
    metrics.extend([
        ("kernel_launches", sum(|s| s.launches as f64), "count"),
        ("radix_elems", sum(|s| s.radix_elems as f64), "count"),
        ("sim_sm_util", mean(util), "ratio"),
        ("sim_imbalance", mean(imbalance), "ratio"),
        (
            "audit_misprediction_rate",
            mispredictions as f64 / decisions.max(1) as f64,
            "ratio",
        ),
        ("audit_regret_cycles", regret, "cycles"),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    let cases: Vec<Case> = w
        .operands(args.seed)
        .into_iter()
        .map(|(name, (a, b))| {
            let expected = spgemm_seq(&a, &b);
            Case {
                name,
                a,
                b,
                expected,
            }
        })
        .collect();

    // The first set-up also starts the process-wide worker pool; it is not
    // timed. Only the end-to-end run reports `setup_s`, so the traced run
    // sets up once.
    let mut setup_times = Vec::new();
    let mut engine = set_up(&cases);
    while !args.trace
        && (setup_times.len() < SETUP_REPS || setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(engine);
        let t = Instant::now();
        engine = set_up(&cases);
        setup_times.push(seconds_since(t));
    }

    let mut out = if args.trace {
        run_traced(w, &engine, &cases, args.seconds)
    } else {
        run_end_to_end(w, &engine, &cases, args.seconds)
    };
    if !args.trace {
        out.metrics.push(("setup_s", median(&setup_times), "s"));
    }

    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        metrics.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        eprintln!("{name:>28} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    ExitCode::SUCCESS
}

//! Auto-tuning of the global load-balancer thresholds — paper §5.
//!
//! The paper benchmarks every matrix under the four combinations of global
//! load balancing (none / symbolic only / numeric only / both), then
//! line-searches the eight thresholds of Table 2 to minimise the *average
//! slowdown* against the per-matrix best combination, validated with an
//! inverse 3-fold cross validation (tune on one third, evaluate on two).
//!
//! We reproduce that procedure exactly; `run_all_experiments table2` in
//! the bench crate drives it over the synthetic corpus.

use crate::config::{GlobalLbMode, GlobalLbThresholds, SpeckConfig};
use crate::global_lb::GateProvenance;
use crate::pipeline::SpeckSpgemm;
use speck_simt::{CostModel, DeviceConfig};
use speck_sparse::{Csr, Scalar};

/// Everything the tuner needs to know about one matrix: the decision
/// features and the measured time of each load-balancing combination.
#[derive(Clone, Debug)]
pub struct MatrixMeasurement {
    /// Matrix label, for reporting.
    pub name: String,
    /// Symbolic decision features: (ratio, rows, starred set?).
    pub sym: (f64, usize, bool),
    /// Numeric decision features.
    pub num: (f64, usize, bool),
    /// Simulated times indexed by `combo_index(sym_on, num_on)`.
    pub times: [f64; 4],
}

/// Index into [`MatrixMeasurement::times`].
#[inline]
pub(crate) fn combo_index(sym_on: bool, num_on: bool) -> usize {
    usize::from(sym_on) | (usize::from(num_on) << 1)
}

/// Thresholds that force a pass's Auto decision on or off.
fn forced(sym_on: bool, num_on: bool) -> GlobalLbThresholds {
    let on = (0.0, 0usize);
    let off = (f64::INFINITY, usize::MAX);
    let s = if sym_on { on } else { off };
    let n = if num_on { on } else { off };
    GlobalLbThresholds {
        symbolic_ratio: s.0,
        symbolic_min_rows: s.1,
        symbolic_ratio_large: s.0,
        symbolic_min_rows_large: s.1,
        numeric_ratio: n.0,
        numeric_min_rows: n.1,
        numeric_ratio_large: n.0,
        numeric_min_rows_large: n.1,
    }
}

/// Benchmarks all four combinations on one multiplication.
pub fn measure<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    base: &SpeckConfig,
    name: &str,
    a: &Csr<V>,
    b: &Csr<V>,
) -> MatrixMeasurement {
    let mut times = [0.0f64; 4];
    let mut sym = (1.0, a.rows(), false);
    let mut num = (1.0, a.rows(), false);
    let mut engine = SpeckSpgemm::with_config(base.clone()).with_plan_cache_capacity(0);
    engine.device = dev.clone();
    engine.cost = cost.clone();
    engine.config.global_lb = GlobalLbMode::Auto;
    for s_on in [false, true] {
        for n_on in [false, true] {
            engine.config.thresholds = forced(s_on, n_on);
            let (_, report) = engine.multiply(a, b);
            times[combo_index(s_on, n_on)] = report.sim_time_s;
            if !s_on && !n_on {
                let features = |g: GateProvenance| (g.ratio, a.rows(), g.needs_large_kernel);
                sym = features(report.symbolic_gate);
                num = features(report.numeric_gate);
            }
        }
    }
    MatrixMeasurement {
        name: name.to_string(),
        sym,
        num,
        times,
    }
}

/// The combination a threshold set would choose for a measurement. Uses
/// the same predicate ([`crate::global_lb::lb_threshold_fires`]) as the
/// pipeline's gate, so tuner predictions and audit provenance agree.
pub(crate) fn predict(t: &GlobalLbThresholds, m: &MatrixMeasurement) -> (bool, bool) {
    use crate::global_lb::lb_threshold_fires;
    let sym_on = if m.sym.2 {
        lb_threshold_fires(
            m.sym.0,
            m.sym.1,
            t.symbolic_ratio_large,
            t.symbolic_min_rows_large,
        )
    } else {
        lb_threshold_fires(m.sym.0, m.sym.1, t.symbolic_ratio, t.symbolic_min_rows)
    };
    let num_on = if m.num.2 {
        lb_threshold_fires(
            m.num.0,
            m.num.1,
            t.numeric_ratio_large,
            t.numeric_min_rows_large,
        )
    } else {
        lb_threshold_fires(m.num.0, m.num.1, t.numeric_ratio, t.numeric_min_rows)
    };
    (sym_on, num_on)
}

/// Mean slowdown of the thresholds' choices versus the per-matrix best —
/// the paper's tuning loss (§5: "minimize the average slowdown compared to
/// the best approach").
pub(crate) fn loss(t: &GlobalLbThresholds, meas: &[MatrixMeasurement]) -> f64 {
    if meas.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for m in meas {
        let (s, n) = predict(t, m);
        let chosen = m.times[combo_index(s, n)];
        let best = m.times.iter().cloned().fold(f64::INFINITY, f64::min);
        total += chosen / best;
    }
    total / meas.len() as f64
}

/// Fraction of matrices for which the thresholds pick the fastest of the
/// four combinations (the paper reports 85 %).
pub fn accuracy(t: &GlobalLbThresholds, meas: &[MatrixMeasurement]) -> f64 {
    if meas.is_empty() {
        return 1.0;
    }
    let hits = meas
        .iter()
        .filter(|m| {
            let (s, n) = predict(t, m);
            let chosen = m.times[combo_index(s, n)];
            let best = m.times.iter().cloned().fold(f64::INFINITY, f64::min);
            chosen <= best * (1.0 + 1e-12)
        })
        .count();
    hits as f64 / meas.len() as f64
}

/// Candidate grid for one parameter, from the observed feature values.
fn candidates(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.dedup();
    let mut c = vec![0.0];
    for w in v.windows(2) {
        c.push((w[0] + w[1]) / 2.0); // decision boundaries between samples
    }
    if let Some(&last) = v.last() {
        c.push(last + 1.0);
    }
    c
}

/// Line search: sweep each of the eight parameters over candidate
/// boundaries, keeping the value that minimises the loss; repeat until a
/// full sweep makes no progress.
pub(crate) fn line_search(
    meas: &[MatrixMeasurement],
    start: GlobalLbThresholds,
) -> GlobalLbThresholds {
    let ratio_cands_sym = candidates(meas.iter().map(|m| m.sym.0));
    let ratio_cands_num = candidates(meas.iter().map(|m| m.num.0));
    let row_cands: Vec<usize> = {
        let mut v: Vec<usize> = meas.iter().map(|m| m.sym.1).collect();
        v.push(0);
        v.sort_unstable();
        v.dedup();
        v
    };

    let mut best = start;
    let mut best_loss = loss(&best, meas);
    loop {
        let before = best_loss;
        // Each closure mutates one field; sweep all eight.
        type Setter = fn(&mut GlobalLbThresholds, f64);
        let ratio_fields: [(Setter, &[f64]); 4] = [
            (|t, v| t.symbolic_ratio = v, &ratio_cands_sym),
            (|t, v| t.symbolic_ratio_large = v, &ratio_cands_sym),
            (|t, v| t.numeric_ratio = v, &ratio_cands_num),
            (|t, v| t.numeric_ratio_large = v, &ratio_cands_num),
        ];
        for (set, cands) in ratio_fields {
            for &c in cands {
                let mut t = best;
                set(&mut t, c);
                let l = loss(&t, meas);
                if l < best_loss {
                    best_loss = l;
                    best = t;
                }
            }
        }
        type RowSetter = fn(&mut GlobalLbThresholds, usize);
        let row_fields: [RowSetter; 4] = [
            |t, v| t.symbolic_min_rows = v,
            |t, v| t.symbolic_min_rows_large = v,
            |t, v| t.numeric_min_rows = v,
            |t, v| t.numeric_min_rows_large = v,
        ];
        for set in row_fields {
            for &c in &row_cands {
                let mut t = best;
                set(&mut t, c);
                let l = loss(&t, meas);
                if l < best_loss {
                    best_loss = l;
                    best = t;
                }
            }
        }
        if best_loss >= before - 1e-12 {
            break;
        }
    }
    best
}

/// Result of the inverse 3-fold cross validation.
#[derive(Clone, Debug)]
pub struct CvResult {
    /// Thresholds tuned on each fold.
    pub fold_thresholds: Vec<GlobalLbThresholds>,
    /// Evaluation loss of each fold's thresholds on the *other* folds.
    pub fold_eval_loss: Vec<f64>,
    /// Final thresholds: the average over folds (paper: "we average the
    /// parameters over the three training sets").
    pub final_thresholds: GlobalLbThresholds,
    /// Loss of the final thresholds on the full corpus.
    pub final_loss: f64,
    /// Fraction of matrices where the final thresholds pick the fastest
    /// combination.
    pub final_accuracy: f64,
}

/// Inverse k-fold cross validation: tune on fold i (1/k of the data),
/// evaluate on the remainder; average the tuned parameters.
pub fn cross_validate(meas: &[MatrixMeasurement], folds: usize) -> CvResult {
    assert!(folds >= 2, "cross_validate: need at least 2 folds");
    let mut fold_thresholds = Vec::with_capacity(folds);
    let mut fold_eval_loss = Vec::with_capacity(folds);
    for f in 0..folds {
        let train: Vec<MatrixMeasurement> = meas
            .iter()
            .enumerate()
            .filter(|(i, _)| i % folds == f)
            .map(|(_, m)| m.clone())
            .collect();
        let eval: Vec<MatrixMeasurement> = meas
            .iter()
            .enumerate()
            .filter(|(i, _)| i % folds != f)
            .map(|(_, m)| m.clone())
            .collect();
        let t = line_search(&train, GlobalLbThresholds::scaled_default());
        fold_eval_loss.push(loss(&t, &eval));
        fold_thresholds.push(t);
    }
    let k = folds as f64;
    let avg = |f: fn(&GlobalLbThresholds) -> f64| fold_thresholds.iter().map(f).sum::<f64>() / k;
    let avg_rows = |f: fn(&GlobalLbThresholds) -> usize| {
        (fold_thresholds.iter().map(f).sum::<usize>() as f64 / k).round() as usize
    };
    let final_thresholds = GlobalLbThresholds {
        symbolic_ratio: avg(|t| t.symbolic_ratio),
        symbolic_min_rows: avg_rows(|t| t.symbolic_min_rows),
        symbolic_ratio_large: avg(|t| t.symbolic_ratio_large),
        symbolic_min_rows_large: avg_rows(|t| t.symbolic_min_rows_large),
        numeric_ratio: avg(|t| t.numeric_ratio),
        numeric_min_rows: avg_rows(|t| t.numeric_min_rows),
        numeric_ratio_large: avg(|t| t.numeric_ratio_large),
        numeric_min_rows_large: avg_rows(|t| t.numeric_min_rows_large),
    };
    let final_loss = loss(&final_thresholds, meas);
    let final_accuracy = accuracy(&final_thresholds, meas);
    CvResult {
        fold_thresholds,
        fold_eval_loss,
        final_thresholds,
        final_loss,
        final_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, rmat, uniform_random};

    fn synth_measurement(name: &str, sym_ratio: f64, best: usize) -> MatrixMeasurement {
        // Fabricate a measurement whose `best` combo is fastest.
        let mut times = [2.0; 4];
        times[best] = 1.0;
        MatrixMeasurement {
            name: name.into(),
            sym: (sym_ratio, 10_000, false),
            num: (sym_ratio, 10_000, false),
            times,
        }
    }

    #[test]
    fn combo_index_layout() {
        assert_eq!(combo_index(false, false), 0);
        assert_eq!(combo_index(true, false), 1);
        assert_eq!(combo_index(false, true), 2);
        assert_eq!(combo_index(true, true), 3);
    }

    #[test]
    fn loss_is_one_for_perfect_prediction() {
        let m = synth_measurement("a", 100.0, combo_index(true, true));
        let t = forced(true, true);
        assert!((loss(&t, &[m]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loss_penalises_wrong_choice() {
        let m = synth_measurement("a", 100.0, combo_index(true, true));
        let t = forced(false, false);
        assert!((loss(&t, &[m]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn line_search_separates_by_ratio() {
        // Low-ratio matrices want LB off; high-ratio want it on. A single
        // ratio threshold between 5 and 50 is optimal.
        let mut meas = Vec::new();
        for i in 0..6 {
            meas.push(synth_measurement(
                &format!("low{i}"),
                5.0,
                combo_index(false, false),
            ));
            meas.push(synth_measurement(
                &format!("high{i}"),
                50.0,
                combo_index(true, true),
            ));
        }
        let t = line_search(&meas, GlobalLbThresholds::scaled_default());
        assert!(
            (loss(&t, &meas) - 1.0).abs() < 1e-9,
            "loss {}",
            loss(&t, &meas)
        );
        assert!(t.symbolic_ratio > 5.0 && t.symbolic_ratio <= 50.0);
        assert_eq!(accuracy(&t, &meas), 1.0);
    }

    #[test]
    fn empty_measurement_set_degenerates_gracefully() {
        let t = GlobalLbThresholds::scaled_default();
        assert_eq!(loss(&t, &[]), 0.0);
        assert_eq!(accuracy(&t, &[]), 1.0);
        // Line search over nothing keeps the starting thresholds.
        assert_eq!(line_search(&[], t), t);
    }

    #[test]
    fn predict_on_single_measurement_matches_gate_predicate() {
        let t = GlobalLbThresholds::scaled_default();
        // Exactly on the base threshold: >= fires on both features.
        let m = MatrixMeasurement {
            name: "edge".into(),
            sym: (t.symbolic_ratio, t.symbolic_min_rows, false),
            num: (t.numeric_ratio, t.numeric_min_rows - 1, false),
            times: [1.0; 4],
        };
        assert_eq!(predict(&t, &m), (true, false));
        assert_eq!(accuracy(&t, std::slice::from_ref(&m)), 1.0); // all times tie
                                                                 // Starred matrices consult the `_large` thresholds instead.
        let starred = MatrixMeasurement {
            sym: (t.symbolic_ratio_large, t.symbolic_min_rows_large, true),
            num: (0.0, 0, true),
            ..m
        };
        assert_eq!(predict(&t, &starred), (true, false));
    }

    #[test]
    fn cross_validate_single_measurement_two_folds() {
        // One fold ends up empty; line_search and loss must cope.
        let m = synth_measurement("solo", 100.0, combo_index(true, true));
        let cv = cross_validate(&[m], 2);
        assert_eq!(cv.fold_thresholds.len(), 2);
        assert!(cv.final_loss.is_finite());
        assert!(cv.final_accuracy >= 0.0 && cv.final_accuracy <= 1.0);
    }

    #[test]
    fn measure_produces_four_distinct_runs() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 3);
        let m = measure(&dev, &cost, &SpeckConfig::default(), "rmat", &a, &a);
        assert!(m.times.iter().all(|&t| t > 0.0));
        assert!(m.sym.0 >= 1.0);
    }

    #[test]
    fn cross_validation_end_to_end_small() {
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let base = SpeckConfig::default();
        let mats = [
            ("banded", banded(800, 2, 1.0, 1)),
            ("uniform", uniform_random(600, 600, 2, 6, 2)),
            ("rmat1", rmat(8, 8, 0.57, 0.19, 0.19, 3)),
            ("rmat2", rmat(9, 6, 0.57, 0.19, 0.19, 4)),
            ("banded2", banded(500, 4, 0.8, 5)),
            ("uniform2", uniform_random(400, 400, 3, 9, 6)),
        ];
        let meas: Vec<MatrixMeasurement> = mats
            .iter()
            .map(|(n, m)| measure(&dev, &cost, &base, n, m, m))
            .collect();
        let cv = cross_validate(&meas, 3);
        assert_eq!(cv.fold_thresholds.len(), 3);
        // Tuned thresholds must not be worse than always-off on average.
        let off = forced(false, false);
        assert!(cv.final_loss <= loss(&off, &meas) + 1e-9);
        assert!(cv.final_accuracy > 0.0);
    }
}

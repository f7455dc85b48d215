//! Runtime configuration of the spECK pipeline, including the auto-tuned
//! thresholds of paper Table 2 and the ablation toggles that drive the
//! paper's Figs. 12–14.

/// When to run the global load balancer (paper Fig. 14 compares these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalLbMode {
    /// The paper's contribution: decide per pass from the analysis data
    /// using [`GlobalLbThresholds`].
    Auto,
    /// Always bin (the nsparse-style default).
    AlwaysOn,
    /// Never bin: single kernel size, fixed rows per block.
    AlwaysOff,
}

/// Local load-balancing strategy (paper Fig. 13 compares these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalLbMode {
    /// The paper's contribution: choose `g` per block from the analysis.
    Dynamic,
    /// A fixed number of threads per row of B (nsparse uses 32).
    Fixed(usize),
}

/// Thresholds gating the global load balancer, tuned by line search in the
/// paper (§5, Table 2). A pass uses the load balancer when
/// `m_max / m_avg >= ratio && rows >= min_rows`, picking the starred set
/// when the longest row demands one of the largest kernel sizes (three of
/// six in symbolic, two of six in numeric — Table 2 caption).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlobalLbThresholds {
    /// Symbolic ratio threshold (paper: 39.2).
    pub symbolic_ratio: f64,
    /// Symbolic minimum row count (paper: 28 000).
    pub symbolic_min_rows: usize,
    /// Symbolic ratio for the largest kernels (paper: 6.0).
    pub symbolic_ratio_large: f64,
    /// Symbolic minimum rows for the largest kernels (paper: 5 431).
    pub symbolic_min_rows_large: usize,
    /// Numeric ratio threshold (paper: 10.5).
    pub numeric_ratio: f64,
    /// Numeric minimum row count (paper: 23 006).
    pub numeric_min_rows: usize,
    /// Numeric ratio for the largest kernels (paper: 1.3).
    pub numeric_ratio_large: f64,
    /// Numeric minimum rows for the largest kernels (paper: 1 238).
    pub numeric_min_rows_large: usize,
}

impl GlobalLbThresholds {
    /// The values published in paper Table 2 (tuned on the full SuiteSparse
    /// collection on a Titan V).
    pub fn paper() -> Self {
        GlobalLbThresholds {
            symbolic_ratio: 39.2,
            symbolic_min_rows: 28_000,
            symbolic_ratio_large: 6.0,
            symbolic_min_rows_large: 5_431,
            numeric_ratio: 10.5,
            numeric_min_rows: 23_006,
            numeric_ratio_large: 1.3,
            numeric_min_rows_large: 1_238,
        }
    }

    /// Defaults for this reproduction's corpus, from the Table 2 line
    /// search (`run_all_experiments table2`) on this simulator (paper §5
    /// procedure).
    ///
    /// The base ratio thresholds carry over from the paper (scale-free);
    /// the row-count minima tune ~10x lower because our corpus is ~10–30x
    /// smaller than the SuiteSparse originals; the starred ratios tune
    /// higher (21.7 / 3.8 vs the paper's 6.0 / 1.3) because launch and
    /// binning overheads weigh relatively more at this scale, so binning
    /// must promise more before it pays. Re-run
    /// `run_all_experiments table2` to re-derive all eight values from
    /// scratch.
    pub fn scaled_default() -> Self {
        GlobalLbThresholds {
            symbolic_ratio: 39.2,
            symbolic_min_rows: 2_800,
            symbolic_ratio_large: 21.7,
            symbolic_min_rows_large: 543,
            numeric_ratio: 10.5,
            numeric_min_rows: 2_300,
            numeric_ratio_large: 3.8,
            numeric_min_rows_large: 124,
        }
    }
}

/// Full spECK configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeckConfig {
    /// Global load-balancer gating.
    pub global_lb: GlobalLbMode,
    /// Auto-tuned thresholds used when `global_lb == Auto`.
    pub thresholds: GlobalLbThresholds,
    /// Local load-balancing strategy.
    pub local_lb: LocalLbMode,
    /// Enable the dense accumulator (ablation: Fig. 12 "Hash only" turns
    /// this off).
    pub enable_dense: bool,
    /// Enable direct referencing for single-entry rows of A (Fig. 12).
    pub enable_direct: bool,
    /// Enable block merging for the smallest bin (extra ablation).
    pub block_merge: bool,
    /// Maximum hash-map fill rate for the numeric pass (paper: 0.66).
    pub numeric_max_fill: f64,
    /// Minimum row density for the numeric dense accumulator (paper: 0.18,
    /// i.e. at most three dense iterations).
    pub dense_min_density: f64,
    /// Symbolic pass switches to dense accumulation when the product count
    /// exceeds this multiple of the largest hash capacity (paper: 2.0).
    pub symbolic_dense_factor: f64,
}

impl Default for SpeckConfig {
    fn default() -> Self {
        SpeckConfig {
            global_lb: GlobalLbMode::Auto,
            thresholds: GlobalLbThresholds::scaled_default(),
            local_lb: LocalLbMode::Dynamic,
            enable_dense: true,
            enable_direct: true,
            block_merge: true,
            numeric_max_fill: 0.66,
            dense_min_density: 0.18,
            symbolic_dense_factor: 2.0,
        }
    }
}

impl SpeckConfig {
    /// Hash-only ablation (first series of paper Fig. 12).
    pub fn hash_only() -> Self {
        SpeckConfig {
            enable_dense: false,
            enable_direct: false,
            ..Self::default()
        }
    }

    /// Hash + dense, no direct referencing (second series of Fig. 12).
    pub fn hash_dense() -> Self {
        SpeckConfig {
            enable_direct: false,
            ..Self::default()
        }
    }

    /// Fixed 32-threads-per-row local balancing (nsparse style, Fig. 13).
    pub fn fixed_local_lb() -> Self {
        SpeckConfig {
            local_lb: LocalLbMode::Fixed(32),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_match_table_2() {
        let t = GlobalLbThresholds::paper();
        assert_eq!(t.symbolic_ratio, 39.2);
        assert_eq!(t.symbolic_min_rows, 28_000);
        assert_eq!(t.symbolic_ratio_large, 6.0);
        assert_eq!(t.symbolic_min_rows_large, 5_431);
        assert_eq!(t.numeric_ratio, 10.5);
        assert_eq!(t.numeric_min_rows, 23_006);
        assert_eq!(t.numeric_ratio_large, 1.3);
        assert_eq!(t.numeric_min_rows_large, 1_238);
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let c = SpeckConfig::default();
        assert_eq!(c.numeric_max_fill, 0.66);
        assert_eq!(c.dense_min_density, 0.18);
        assert_eq!(c.symbolic_dense_factor, 2.0);
        assert_eq!(c.global_lb, GlobalLbMode::Auto);
        assert_eq!(c.local_lb, LocalLbMode::Dynamic);
        assert!(c.enable_dense && c.enable_direct && c.block_merge);
    }

    #[test]
    fn ablation_presets() {
        assert!(!SpeckConfig::hash_only().enable_dense);
        assert!(!SpeckConfig::hash_only().enable_direct);
        let hd = SpeckConfig::hash_dense();
        assert!(hd.enable_dense && !hd.enable_direct);
        assert_eq!(
            SpeckConfig::fixed_local_lb().local_lb,
            LocalLbMode::Fixed(32)
        );
    }
}

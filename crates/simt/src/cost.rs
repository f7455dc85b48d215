//! Event counting and the cycle cost model.
//!
//! Kernels record *what they did* ([`BlockCost`]); the [`CostModel`]
//! converts events into cycles. Keeping the two separate makes the model
//! auditable: every constant is documented here, and the ablation benches
//! re-run experiments under perturbed constants to check conclusions are
//! not knife-edge artifacts of a single calibration.

/// Per-block event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockCost {
    /// Cooperative *warp*-rounds: one issue round of the whole block costs
    /// one unit per resident warp, so idle lanes in oversized groups are
    /// paid for — the effect paper Fig. 1/Fig. 13 is about. `BlockCtx`
    /// scales block-level rounds by the warp count automatically.
    pub issue_rounds: u64,
    /// Global-memory transactions at sector granularity (coalesced traffic).
    pub gmem_tx: u64,
    /// Scattered global accesses (one transaction each).
    pub gmem_scatter: u64,
    /// Global-memory atomic operations.
    pub gmem_atomics: u64,
    /// Scratchpad (shared-memory) accesses.
    pub smem_ops: u64,
    /// Scratchpad atomic operations.
    pub smem_atomics: u64,
    /// Extra linear-probing steps beyond the first hash slot.
    pub hash_probes: u64,
    /// Comparison/exchange steps spent sorting in scratchpad.
    pub sort_steps: u64,
    /// Block-wide barriers.
    pub syncs: u64,
    /// Elements spilled from a local to a global hash map (§4.3).
    pub spilled_elems: u64,
}

/// Stable names of the [`BlockCost`] counters, in field order — the
/// schema of every per-launch/per-stage counter export (metrics
/// registries, snapshots, regression baselines).
pub const COST_COUNTER_NAMES: [&str; 10] = [
    "issue_rounds",
    "gmem_tx",
    "gmem_scatter",
    "gmem_atomics",
    "smem_ops",
    "smem_atomics",
    "hash_probes",
    "sort_steps",
    "syncs",
    "spilled_elems",
];

impl BlockCost {
    /// The counters as `(name, value)` pairs in [`COST_COUNTER_NAMES`]
    /// order, for structured export without field-by-field plumbing.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("issue_rounds", self.issue_rounds),
            ("gmem_tx", self.gmem_tx),
            ("gmem_scatter", self.gmem_scatter),
            ("gmem_atomics", self.gmem_atomics),
            ("smem_ops", self.smem_ops),
            ("smem_atomics", self.smem_atomics),
            ("hash_probes", self.hash_probes),
            ("sort_steps", self.sort_steps),
            ("syncs", self.syncs),
            ("spilled_elems", self.spilled_elems),
        ]
    }

    /// Sets one counter by its [`COST_COUNTER_NAMES`] name. Returns false
    /// (and changes nothing) for an unknown name — the inverse of
    /// [`BlockCost::counters`], used when reading costs back from an
    /// exported trace.
    pub fn set_counter(&mut self, name: &str, value: u64) -> bool {
        match name {
            "issue_rounds" => self.issue_rounds = value,
            "gmem_tx" => self.gmem_tx = value,
            "gmem_scatter" => self.gmem_scatter = value,
            "gmem_atomics" => self.gmem_atomics = value,
            "smem_ops" => self.smem_ops = value,
            "smem_atomics" => self.smem_atomics = value,
            "hash_probes" => self.hash_probes = value,
            "sort_steps" => self.sort_steps = value,
            "syncs" => self.syncs = value,
            "spilled_elems" => self.spilled_elems = value,
            _ => return false,
        }
        true
    }

    /// Element-wise sum of two cost records.
    pub fn merge(&self, o: &BlockCost) -> BlockCost {
        BlockCost {
            issue_rounds: self.issue_rounds + o.issue_rounds,
            gmem_tx: self.gmem_tx + o.gmem_tx,
            gmem_scatter: self.gmem_scatter + o.gmem_scatter,
            gmem_atomics: self.gmem_atomics + o.gmem_atomics,
            smem_ops: self.smem_ops + o.smem_ops,
            smem_atomics: self.smem_atomics + o.smem_atomics,
            hash_probes: self.hash_probes + o.hash_probes,
            sort_steps: self.sort_steps + o.sort_steps,
            syncs: self.syncs + o.syncs,
            spilled_elems: self.spilled_elems + o.spilled_elems,
        }
    }
}

/// Cycle weights for each event class.
///
/// Calibration rationale (per-event *throughput* costs for one block, not
/// latencies — latency hiding across resident blocks is captured by the
/// scheduler's occupancy division):
///
/// * `c_round` — SM-issue cost of one *warp*-round of a cooperative loop:
///   address math, load issue, bounds check and the accumulator call are
///   ~a dozen warp instructions at ~4 issue slots per cycle. This is the
///   constant that makes *idle lanes expensive*: a block whose groups are
///   16x too wide executes 16x the warp-rounds for the same data (paper
///   Fig. 1 / Fig. 13).
/// * `c_gmem_tx` — average memory-hierarchy throughput cost of one 32 B
///   sector per SM: 80 SMs x 32 B / 3 cycles at 1.2 GHz ~ 1 TB/s, between
///   the Titan V's 652 GB/s DRAM and its ~2 TB/s L2 (the simulator has no
///   cache model, so this constant prices a typical hit/miss mix).
/// * `c_gmem_scatter` — a scattered access moves a full sector for a few
///   useful bytes and is more likely to miss cache.
/// * scratchpad ops are an order of magnitude cheaper than global memory —
///   the premise of the paper's "stay in scratchpad" design.
/// * `c_spill` — moving one element into a global hash map: read + atomic +
///   write, the 40x cliff the paper reports for rows exceeding scratchpad.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per group issue round.
    pub c_round: f64,
    /// Cycles per coalesced global-memory sector transaction.
    pub c_gmem_tx: f64,
    /// Cycles per scattered global access.
    pub c_gmem_scatter: f64,
    /// Cycles per global atomic.
    pub c_gmem_atomic: f64,
    /// Cycles per scratchpad access.
    pub c_smem_op: f64,
    /// Cycles per scratchpad atomic.
    pub c_smem_atomic: f64,
    /// Cycles per extra hash probe.
    pub c_probe: f64,
    /// Cycles per sort comparison step.
    pub c_sort_step: f64,
    /// Cycles per block barrier.
    pub c_sync: f64,
    /// Cycles per element spilled to a global hash map.
    pub c_spill: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            c_round: 10.0,
            c_gmem_tx: 3.0,
            c_gmem_scatter: 4.0,
            c_gmem_atomic: 30.0,
            c_smem_op: 1.0,
            c_smem_atomic: 2.0,
            c_probe: 1.0,
            c_sort_step: 1.0,
            c_sync: 20.0,
            c_spill: 60.0,
        }
    }
}

impl CostModel {
    /// Splits a block's events into `(compute, memory)` pipe cycles.
    ///
    /// Barriers serialise the block and are charged to the compute side.
    pub fn split_cycles(&self, c: &BlockCost) -> (f64, f64) {
        let compute = c.issue_rounds as f64 * self.c_round
            + c.smem_ops as f64 * self.c_smem_op
            + c.smem_atomics as f64 * self.c_smem_atomic
            + c.hash_probes as f64 * self.c_probe
            + c.sort_steps as f64 * self.c_sort_step
            + c.syncs as f64 * self.c_sync;
        let memory = c.gmem_tx as f64 * self.c_gmem_tx
            + c.gmem_scatter as f64 * self.c_gmem_scatter
            + c.gmem_atomics as f64 * self.c_gmem_atomic
            + c.spilled_elems as f64 * self.c_spill;
        (compute, memory)
    }

    /// Total cycles for one block in isolation: the pipes overlap, so the
    /// block pays the maximum of its compute and memory sides.
    pub fn block_cycles(&self, c: &BlockCost) -> f64 {
        let (compute, memory) = self.split_cycles(c);
        compute.max(memory)
    }

    /// A copy of the model with every constant multiplied by the matching
    /// factor — used by the cost-model-sensitivity ablation bench.
    pub fn scaled(&self, compute_factor: f64, memory_factor: f64) -> CostModel {
        CostModel {
            c_round: self.c_round * compute_factor,
            c_smem_op: self.c_smem_op * compute_factor,
            c_smem_atomic: self.c_smem_atomic * compute_factor,
            c_probe: self.c_probe * compute_factor,
            c_sort_step: self.c_sort_step * compute_factor,
            c_sync: self.c_sync * compute_factor,
            c_gmem_tx: self.c_gmem_tx * memory_factor,
            c_gmem_scatter: self.c_gmem_scatter * memory_factor,
            c_gmem_atomic: self.c_gmem_atomic * memory_factor,
            c_spill: self.c_spill * memory_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_block_is_free() {
        let m = CostModel::default();
        assert_eq!(m.block_cycles(&BlockCost::default()), 0.0);
    }

    #[test]
    fn compute_and_memory_overlap() {
        let m = CostModel::default();
        let c = BlockCost {
            issue_rounds: 100,
            gmem_tx: 1,
            ..Default::default()
        };
        // Memory side is tiny; block pays the compute side only.
        assert_eq!(m.block_cycles(&c), 100.0 * m.c_round);

        let c2 = BlockCost {
            issue_rounds: 1,
            gmem_tx: 1000,
            ..Default::default()
        };
        assert_eq!(m.block_cycles(&c2), 1000.0 * m.c_gmem_tx);
    }

    #[test]
    fn split_separates_pipes_and_syncs_are_compute() {
        let m = CostModel::default();
        let c = BlockCost {
            issue_rounds: 10,
            gmem_tx: 7,
            syncs: 3,
            ..Default::default()
        };
        let (comp, mem) = m.split_cycles(&c);
        assert_eq!(comp, 10.0 * m.c_round + 3.0 * m.c_sync);
        assert_eq!(mem, 7.0 * m.c_gmem_tx);
    }

    #[test]
    fn scratchpad_is_cheaper_than_global() {
        let m = CostModel::default();
        // The design premise of the paper must hold in the model.
        assert!(m.c_smem_op < m.c_gmem_tx);
        assert!(m.c_smem_atomic < m.c_gmem_atomic);
        assert!(m.c_spill > m.c_gmem_tx);
    }

    #[test]
    fn merge_adds_fields() {
        let a = BlockCost {
            issue_rounds: 1,
            gmem_tx: 2,
            spilled_elems: 5,
            ..Default::default()
        };
        let b = BlockCost {
            issue_rounds: 10,
            syncs: 1,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.issue_rounds, 11);
        assert_eq!(m.gmem_tx, 2);
        assert_eq!(m.spilled_elems, 5);
        assert_eq!(m.syncs, 1);
    }

    #[test]
    fn scaled_model_scales_the_right_sides() {
        let m = CostModel::default();
        let s = m.scaled(2.0, 3.0);
        assert_eq!(s.c_round, 2.0 * m.c_round);
        assert_eq!(s.c_gmem_tx, 3.0 * m.c_gmem_tx);
    }
}

//! Stage-attributed timing, reproducing the paper's Fig. 11 breakdown
//! (analysis / symbolic load / symbolic SpGEMM / numeric load / numeric
//! SpGEMM / sorting).

use crate::cost::BlockCost;
use std::collections::BTreeMap;

/// Accumulated simulated time of one named pipeline stage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTime {
    /// Total simulated seconds attributed to the stage.
    pub seconds: f64,
    /// Number of kernel launches in the stage.
    pub launches: usize,
    /// Event counters of the stage's launches, merged — the cost-model
    /// side of the Fig. 11 breakdown (fixed costs contribute nothing).
    pub cost: BlockCost,
}

/// Ordered collection of pipeline stages with simulated durations.
///
/// Stage names are `&'static str`: the pipeline's stage set is fixed at
/// compile time, so the timeline never allocates for keys.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    stages: BTreeMap<&'static str, StageTime>,
    order: Vec<&'static str>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    fn stage_mut(&mut self, stage: &'static str) -> &mut StageTime {
        if !self.stages.contains_key(stage) {
            self.order.push(stage);
            self.stages.insert(stage, StageTime::default());
        }
        self.stages.get_mut(stage).unwrap()
    }

    /// Attributes one kernel launch of `seconds` with merged event
    /// counters `cost` to a stage.
    pub fn add_launch(&mut self, stage: &'static str, seconds: f64, cost: &BlockCost) {
        let s = self.stage_mut(stage);
        s.seconds += seconds;
        s.launches += 1;
        s.cost = s.cost.merge(cost);
    }

    /// Attributes a fixed duration (e.g. a device allocation) to a stage.
    pub fn add_fixed(&mut self, stage: &'static str, seconds: f64) {
        self.stage_mut(stage).seconds += seconds;
    }

    /// Total simulated seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.stages.values().map(|s| s.seconds).sum()
    }

    /// Stages in first-touch order with their durations.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, &StageTime)> {
        self.order
            .iter()
            .map(move |&name| (name, &self.stages[name]))
    }

    /// Duration share of one stage in `[0, 1]`; 0 for unknown stages.
    pub fn share(&self, stage: &str) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            return 0.0;
        }
        self.stages.get(stage).map_or(0.0, |s| s.seconds / total)
    }

    /// Merges another timeline into this one (stage-wise sum).
    pub fn merge(&mut self, other: &Timeline) {
        for (name, st) in other.stages() {
            let s = self.stage_mut(name);
            s.seconds += st.seconds;
            s.launches += st.launches;
            s.cost = s.cost.merge(&st.cost);
        }
    }

    /// Event counters merged across every stage.
    pub fn total_cost(&self) -> BlockCost {
        self.stages
            .values()
            .fold(BlockCost::default(), |acc, s| acc.merge(&s.cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{launch, CostModel, DeviceConfig, KernelConfig};

    #[test]
    fn stages_accumulate_and_share_sums_to_one() {
        let d = DeviceConfig::tiny();
        let r = launch(
            &d,
            &CostModel::default(),
            "k",
            4,
            KernelConfig::new(32, 0),
            |ctx| {
                ctx.charge_rounds(100);
            },
        );
        let mut t = Timeline::new();
        t.add_launch("analysis", r.sim_time_s, &r.total_cost);
        t.add_launch("numeric", r.sim_time_s, &r.total_cost);
        t.add_launch("numeric", r.sim_time_s, &r.total_cost);
        assert_eq!(t.stages().count(), 2);
        let sum: f64 = ["analysis", "numeric"].iter().map(|s| t.share(s)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(t.share("numeric") > t.share("analysis"));
        assert_eq!(t.stages.get("numeric").unwrap().launches, 2);
    }

    #[test]
    fn stage_cost_counters_accumulate() {
        let d = DeviceConfig::tiny();
        let r = launch(
            &d,
            &CostModel::default(),
            "k",
            3,
            KernelConfig::new(32, 0),
            |ctx| {
                ctx.charge_rounds(5);
                ctx.charge_smem(2);
            },
        );
        let mut t = Timeline::new();
        t.add_launch("numeric", r.sim_time_s, &r.total_cost);
        t.add_launch("numeric", r.sim_time_s, &r.total_cost);
        t.add_fixed("numeric", 1e-3); // fixed costs carry no counters
        let (_, st) = t.stages().next().unwrap();
        assert_eq!(st.cost.issue_rounds, 2 * r.total_cost.issue_rounds);
        assert_eq!(st.cost.smem_ops, 2 * r.total_cost.smem_ops);
        assert_eq!(t.total_cost(), st.cost);
        // Merging another timeline merges the counters too.
        let mut t2 = Timeline::new();
        t2.add_launch("numeric", r.sim_time_s, &r.total_cost);
        t2.merge(&t);
        assert_eq!(t2.total_cost().issue_rounds, 3 * r.total_cost.issue_rounds);
    }

    #[test]
    fn fixed_costs_count() {
        let mut t = Timeline::new();
        t.add_fixed("alloc", 1e-3);
        t.add_fixed("alloc", 1e-3);
        assert!((t.total_seconds() - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn empty_timeline_shares_are_zero() {
        let t = Timeline::new();
        assert_eq!(t.share("anything"), 0.0);
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn order_is_first_touch() {
        let mut t = Timeline::new();
        t.add_fixed("b", 1.0);
        t.add_fixed("a", 1.0);
        t.add_fixed("b", 1.0);
        let names: Vec<_> = t.stages().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn merge_sums_stage_wise() {
        let mut a = Timeline::new();
        a.add_fixed("x", 1.0);
        let mut b = Timeline::new();
        b.add_fixed("x", 2.0);
        b.add_fixed("y", 3.0);
        a.merge(&b);
        assert!((a.total_seconds() - 6.0).abs() < 1e-12);
        assert!((a.share("y") - 0.5).abs() < 1e-12);
    }
}

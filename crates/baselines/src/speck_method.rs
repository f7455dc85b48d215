//! Adapter exposing spECK (`speck-core`) through the comparison trait.

use crate::{MethodResult, SpgemmMethod};
use speck_core::{SpeckConfig, SpeckSpgemm};
use speck_simt::{CostModel, DeviceConfig};
use speck_sparse::Csr;

/// spECK under comparison. Wraps any [`SpeckConfig`], so the ablation
/// benches can also register variants (hash-only, fixed g, ...).
#[derive(Clone, Debug, Default)]
pub struct SpeckMethod {
    /// Configuration used for the run.
    pub config: SpeckConfig,
}

impl SpeckMethod {
    /// spECK with a custom configuration.
    pub fn with_config(config: SpeckConfig) -> Self {
        Self { config }
    }
}

impl SpgemmMethod for SpeckMethod {
    fn name(&self) -> &'static str {
        "speck"
    }

    fn multiply(
        &self,
        dev: &DeviceConfig,
        cost: &CostModel,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> MethodResult {
        let mut engine = SpeckSpgemm::with_config(self.config.clone()).with_plan_cache_capacity(0);
        engine.device = dev.clone();
        engine.cost = cost.clone();
        let (c, report) = engine.multiply(a, b);
        if report.peak_mem_bytes > dev.memory_bytes {
            return MethodResult::failure("out of device memory");
        }
        MethodResult {
            c: Some(c),
            sim_time_s: report.sim_time_s,
            peak_mem_bytes: report.peak_mem_bytes,
            sorted_output: true,
            failed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::banded;
    use speck_sparse::reference::spgemm_seq;

    #[test]
    fn adapter_matches_direct_call() {
        let a = banded(500, 3, 1.0, 7);
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let r = SpeckMethod::default().multiply(&dev, &cost, &a, &a);
        assert!(r.ok());
        assert!(r.c.unwrap().approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
    }
}

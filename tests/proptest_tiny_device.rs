//! Property tests of the full spECK pipeline on the deliberately small
//! `tiny` device (16 KiB scratchpad): its cramped capacities push random
//! inputs through every fallback path — tiny hash maps, frequent spills to
//! the global map, dense chunking with many iterations — and correctness
//! must survive all of them.

use proptest::prelude::*;
use speck_repro::simt::DeviceConfig;
use speck_repro::sparse::reference::spgemm_seq;
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::{GlobalLbMode, SpeckConfig, SpeckSpgemm};

/// A `tiny`-device engine with plan caching off: every call runs the full
/// cold pipeline.
fn tiny_engine(config: SpeckConfig) -> SpeckSpgemm {
    let mut engine = SpeckSpgemm::with_config(config).with_plan_cache_capacity(0);
    engine.device = DeviceConfig::tiny();
    engine
}

fn arb_square_csr(n: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        (
            0..n as u32,
            0..n as u32,
            (-400i32..400).prop_map(|v| v as f64 / 8.0 + 0.0625),
        ),
        0..=max_nnz,
    )
    .prop_map(move |trips| {
        let mut coo: Coo<f64> = Coo::new(n, n);
        for (r, c, v) in trips {
            coo.push(r, c, v);
        }
        coo.to_csr()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiny_device_default_config(a in arb_square_csr(64, 600)) {
        let (c, report) = tiny_engine(SpeckConfig::default()).multiply(&a, &a);
        prop_assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
        prop_assert!(report.sim_time_s.is_finite() && report.sim_time_s > 0.0);
    }

    #[test]
    fn tiny_device_hash_only_forces_spills(a in arb_square_csr(96, 900)) {
        // Dense disabled: wide rows must survive through the global map.
        let (c, _) = tiny_engine(SpeckConfig::hash_only()).multiply(&a, &a);
        prop_assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
    }

    #[test]
    fn tiny_device_always_binning(a in arb_square_csr(64, 500)) {
        let cfg = SpeckConfig {
            global_lb: GlobalLbMode::AlwaysOn,
            ..SpeckConfig::default()
        };
        let (c, _) = tiny_engine(cfg).multiply(&a, &a);
        prop_assert!(c.approx_eq(&spgemm_seq(&a, &a), 1e-9, 1e-12));
    }

    #[test]
    fn tiny_device_rectangular(
        a in arb_square_csr(48, 300),
        b in arb_square_csr(48, 300),
    ) {
        let (c, _) = tiny_engine(SpeckConfig::default()).multiply(&a, &b);
        prop_assert!(c.approx_eq(&spgemm_seq(&a, &b), 1e-9, 1e-12));
    }
}

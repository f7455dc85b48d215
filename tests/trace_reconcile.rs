//! Property tests reconciling the execution trace with every other
//! observability surface: the [`Timeline`] a report carries, the engine's
//! metrics counters, and the simulator's own scheduler. A trace is only
//! trustworthy if it is an *exact* alternative view of the run — same
//! seconds bit-for-bit, same launch counts, same block schedule — so all
//! comparisons here are bitwise, not approximate.

use proptest::prelude::*;
use speck_repro::simt::KernelConfig;
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::SpeckSpgemm;

fn arb_square_csr(n: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        (
            0..n as u32,
            0..n as u32,
            (-200i32..200).prop_map(|v| v as f64 / 16.0 + 0.125),
        ),
        1..=max_nnz,
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Capture must not perturb the simulation, and the trace must fold
    /// back to the report's numbers exactly.
    #[test]
    fn trace_reconciles_with_timeline(a in arb_square_csr(48, 500)) {
        let plain = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true);
        let (c0, r0) = plain.multiply(&a, &a);
        let (c1, r1) = traced.multiply(&a, &a);

        // Tracing is sim-neutral: identical result and identical time,
        // bit for bit.
        prop_assert!(c0.pattern_eq(&c1));
        prop_assert_eq!(r0.sim_time_s.to_bits(), r1.sim_time_s.to_bits());
        prop_assert!(r0.trace.is_none());

        let tr = r1.trace.as_ref().expect("tracing engine attaches a trace");
        prop_assert_eq!(tr.total_seconds().to_bits(), r1.sim_time_s.to_bits());

        // Per-stage seconds and launch counts match the Timeline exactly.
        let stage_s = tr.per_stage_seconds();
        let stage_n = tr.per_stage_launches();
        for (name, st) in r1.timeline.stages() {
            let s = stage_s.get(name).copied().unwrap_or(0.0);
            prop_assert_eq!(s.to_bits(), st.seconds.to_bits(), "stage {}", name);
        }
        // Kernel-record counts per stage match the metrics launch counters.
        let snap = traced.metrics_snapshot();
        for (name, n) in &stage_n {
            let key = format!("sim/stage/{name}/launches");
            let counted = snap.counters.get(&key).copied().unwrap_or(0);
            prop_assert_eq!(*n, counted, "stage {}", name);
        }
    }

    /// Per-kernel block traces must replay through the scheduler to the
    /// recorded makespan, and cover every block of the grid.
    #[test]
    fn block_events_refold_to_body_cycles(a in arb_square_csr(40, 400)) {
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true);
        let (_, rep) = traced.multiply(&a, &a);
        let tr = rep.trace.as_ref().expect("trace");
        let mut kernels = 0usize;
        for (_, _, k) in tr.kernels() {
            kernels += 1;
            let blocks = k.blocks.as_ref().expect("per-block capture enabled");
            prop_assert_eq!(blocks.events.len(), k.grid);
            prop_assert_eq!(blocks.body_cycles.to_bits(), k.body_cycles.to_bits());
            let cfg = KernelConfig::new(k.threads, k.scratch_bytes);
            let refold = blocks.refold_body_cycles(&traced.device, cfg);
            prop_assert_eq!(refold.to_bits(), k.body_cycles.to_bits());
            // Annotated rows stay within the output matrix.
            if let Some(ann) = &k.annotations {
                prop_assert_eq!(ann.len(), k.grid);
                for b in ann {
                    for &row in &b.rows {
                        prop_assert!((row as usize) < a.rows());
                    }
                }
            }
        }
        prop_assert!(kernels > 0);
    }

    /// The Chrome export is deterministic and lossless: two engines give
    /// byte-identical JSON, and parse -> re-export is the identity.
    #[test]
    fn chrome_export_is_deterministic_and_lossless(a in arb_square_csr(32, 300)) {
        let run = || {
            let engine = SpeckSpgemm::default()
                .with_plan_cache_capacity(0)
                .with_tracing(true);
            let (_, rep) = engine.multiply(&a, &a);
            rep.trace.expect("trace").chrome_trace_json()
        };
        let j1 = run();
        let j2 = run();
        prop_assert_eq!(&j1, &j2);
        let parsed = speck_repro::speck::ExecutionTrace::from_chrome_trace(&j1)
            .expect("exported trace parses");
        prop_assert_eq!(parsed.chrome_trace_json(), j1);
    }
}

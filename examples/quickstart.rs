//! Quickstart: multiply two sparse matrices with spECK and inspect the
//! report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use speck_repro::sparse::gen::poisson_3d;
use speck_repro::sparse::reference::spgemm_seq;
use speck_repro::speck::SpeckSpgemm;

fn main() {
    // A 3D Poisson stencil on a 24^3 grid — 13 824 rows, 7-point stencil.
    let a = poisson_3d(24, 24, 24, 0.0, 42);
    println!(
        "A: {} x {} with {} non-zeros ({:.1} per row)",
        a.rows(),
        a.cols(),
        a.nnz(),
        a.avg_row_nnz()
    );

    // The engine bundles the simulated device (Titan V by default), the
    // cost model and the spECK configuration.
    let engine = SpeckSpgemm::default();
    let (c, report) = engine.multiply(&a, &a);

    println!(
        "C = A*A: {} non-zeros, {} intermediate products (compaction {:.1}x)",
        c.nnz(),
        report.products,
        report.products as f64 / c.nnz() as f64
    );
    println!(
        "simulated time: {:.1} us  ({:.2} GFLOPS at 2 ops/product)",
        report.sim_time_s * 1e6,
        report.gflops()
    );
    println!(
        "global load balancer: symbolic={}, numeric={} (demand ratios {:.1} / {:.1})",
        report.symbolic_gate.used_global_lb,
        report.numeric_gate.used_global_lb,
        report.symbolic_gate.ratio,
        report.numeric_gate.ratio
    );
    let (hash, dense, direct) = report.numeric_methods;
    println!("numeric blocks: {hash} hash, {dense} dense, {direct} direct");
    println!("\nstage breakdown:");
    for (name, st) in report.timeline.stages() {
        println!(
            "  {name:<14} {:>8.1} us  ({:>4.1}%)",
            st.seconds * 1e6,
            100.0 * report.timeline.share(name)
        );
    }

    // The simulator is functional: the result matches a sequential
    // reference SpGEMM exactly.
    let reference = spgemm_seq(&a, &a);
    assert!(c.approx_eq(&reference, 1e-10, 1e-12));
    println!("\nresult verified against the sequential reference ✓");
}

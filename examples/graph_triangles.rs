//! Triangle counting via SpGEMM — graph analytics is the second motivating
//! application in the paper's introduction (GraphBLAS [12]).
//!
//! For an undirected graph with adjacency matrix `A`, the number of
//! triangles is `trace(A^3) / 6`; computing `A^2` (an SpGEMM) and then the
//! elementwise dot with `A` gives the same count with one multiplication.
//! The skewed degree distribution of social graphs is exactly the workload
//! spECK's load balancing targets.
//!
//! ```sh
//! cargo run --release --example graph_triangles
//! ```

use speck_repro::sparse::gen::rmat;
use speck_repro::sparse::transpose::transpose;
use speck_repro::sparse::{Coo, Csr};
use speck_repro::speck::SpeckSpgemm;

/// Symmetrises an R-MAT sample into a simple undirected graph (no self
/// loops, value 1 per edge).
fn symmetrise(g: &Csr<f64>) -> Csr<f64> {
    let gt = transpose(g);
    let mut coo: Coo<f64> = Coo::new(g.rows(), g.cols());
    for m in [g, &gt] {
        for (r, cols, _) in m.iter_rows() {
            for &c in cols {
                if c as usize != r {
                    coo.push(r as u32, c, 1.0);
                }
            }
        }
    }
    let mut sym = coo.to_csr();
    // Duplicate edges became 2.0; clamp back to 1.0.
    let ones: Vec<f64> = vec![1.0; sym.nnz()];
    sym = Csr::from_parts_unchecked(
        sym.rows(),
        sym.cols(),
        sym.row_ptr().to_vec(),
        sym.col_idx().to_vec(),
        ones,
    );
    sym
}

/// Counts triangles: sum over edges (i,j) of (A^2)_{ij}, divided by 6.
fn triangles(a: &Csr<f64>, a2: &Csr<f64>) -> u64 {
    let mut sum = 0.0;
    for (i, cols, _) in a.iter_rows() {
        let (c2, v2) = a2.row(i);
        // Merge-walk the two sorted rows.
        let (mut p, mut q) = (0usize, 0usize);
        while p < cols.len() && q < c2.len() {
            match cols[p].cmp(&c2[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    sum += v2[q];
                    p += 1;
                    q += 1;
                }
            }
        }
    }
    (sum / 6.0).round() as u64
}

fn main() {
    let graph = symmetrise(&rmat(12, 8, 0.57, 0.19, 0.19, 99));
    let degrees: Vec<usize> = (0..graph.rows()).map(|i| graph.row_nnz(i)).collect();
    let dmax = degrees.iter().max().copied().unwrap_or(0);
    println!(
        "graph: {} vertices, {} edges, max degree {dmax} (avg {:.1})",
        graph.rows(),
        graph.nnz() / 2,
        graph.avg_row_nnz()
    );

    let engine = SpeckSpgemm::default();
    let (a2, report) = engine.multiply(&graph, &graph);
    let t = triangles(&graph, &a2);
    println!(
        "A^2 computed in {:.1} us simulated ({:.2} GFLOPS), {} products",
        report.sim_time_s * 1e6,
        report.gflops(),
        report.products
    );
    println!(
        "load balancing engaged: symbolic={} numeric={} (degree skew demands it)",
        report.symbolic_gate.used_global_lb, report.numeric_gate.used_global_lb
    );
    println!("triangles: {t}");

    // Sanity: count again with the sequential reference.
    let ref_a2 = speck_repro::sparse::reference::spgemm_seq(&graph, &graph);
    assert_eq!(t, triangles(&graph, &ref_a2));
    println!("verified against the sequential reference ✓");
}

//! Paper Fig. 15 (appendix): per-matrix GFLOPS of every method over the
//! full corpus, as CSV.

use crate::out::render_csv;
use crate::runner::MatrixRecord;

/// Renders one CSV row per matrix: name, family, products, then each
/// method's GFLOPS in registry order.
pub fn run(records: &[MatrixRecord]) -> String {
    let methods: Vec<String> = records[0].runs.iter().map(|m| m.method.clone()).collect();
    let mut rows = Vec::new();
    let mut header = vec!["matrix".to_string(), "family".into(), "products".into()];
    header.extend(methods.iter().cloned());
    rows.push(header);
    for r in records {
        let mut row = vec![r.name.clone(), r.family.clone(), r.products.to_string()];
        for m in &methods {
            row.push(format!("{:.4}", r.gflops(m)));
        }
        rows.push(row);
    }
    render_csv(&rows)
}

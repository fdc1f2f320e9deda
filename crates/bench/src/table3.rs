//! Table 3: percent improvement in *dynamic block counts* over basic blocks
//! on the SPEC2000-like composites, measured with the fast functional
//! simulator (cycle-level simulation of whole SPEC programs being
//! "prohibitively slow", paper §7.3).

use crate::render::{pct, render_rows};
use crate::{csv, measure_row, table1, Row, Sim};
use chf_workloads::{spec_suite, Workload};

/// Measure one composite across BB + the four orderings (Table 1's
/// columns) on the functional simulator.
///
/// # Errors
/// See [`measure_row`].
pub fn measure(w: &Workload) -> Result<Row, String> {
    measure_row(w, Sim::Functional, &table1::configurations())
}

/// Run the full Table 3 experiment (parallel across composites, results in
/// deterministic suite order).
pub fn run() -> Vec<Row> {
    run_with(crate::parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    crate::run(&spec_suite(), workers, measure)
}

/// Render in the paper's format (`BB` in raw block counts, then percents).
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["benchmark".to_string(), "BB blocks".to_string()];
    header.extend(
        table1::configurations()
            .iter()
            .map(|(label, _)| label.to_string()),
    );
    let cells = |r: &Row| {
        let mut cells = vec![r.baseline.blocks.to_string()];
        cells.extend(r.columns.iter().map(|c| pct(c.improvement)));
        cells
    };
    render_rows(&header, rows, cells, Some(|mean| vec![pct(mean)]))
}

/// Table 3 rows as CSV (see [`csv::write_rows`]).
pub fn csv(rows: &[Row]) -> String {
    let labels = table1::configurations().into_iter().map(|(label, _)| label);
    let header = format!(
        "benchmark,bb_blocks{}",
        csv::columns(labels, &["blocks", "improvement"])
    );
    csv::write_rows(&header, rows, |r| {
        let mut cells = vec![r.baseline.blocks.to_string()];
        for c in &r.columns {
            cells.push(c.measure.blocks.to_string());
            cells.push(format!("{:.2}", c.improvement));
        }
        cells
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_composite() {
        let suite = spec_suite();
        let w = suite.iter().find(|w| w.name == "gzip").unwrap();
        let row = measure(w).unwrap();
        assert_eq!(row.columns.len(), 4);
        // Hyperblock formation must reduce block counts on gzip.
        let conv = row.columns.last().unwrap();
        assert!(conv.measure.blocks < row.baseline.blocks);
        assert!(conv.improvement > 0.0);
    }
}

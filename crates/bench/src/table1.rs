//! Table 1: percent cycle-count improvement over basic blocks for the four
//! phase orderings (UPIO, IUPO, (IUP)O, (IUPO)), with static `m/t/u/p`
//! transformation counts, on the 24 microbenchmarks.

use crate::render::{pct, render_rows};
use crate::{csv, measure_row, Row, Sim};
use chf_core::pipeline::{CompileConfig, PhaseOrdering};
use chf_workloads::{microbenchmarks, Workload};

/// The four phase orderings, labelled, in column order (Table 3 uses the
/// same columns).
pub fn configurations() -> Vec<(&'static str, CompileConfig)> {
    PhaseOrdering::table1()
        .into_iter()
        .map(|o| (o.label(), CompileConfig::with_ordering(o)))
        .collect()
}

/// Measure one workload across BB + the four orderings on the timing
/// simulator.
///
/// # Errors
/// See [`measure_row`].
pub fn measure(w: &Workload) -> Result<Row, String> {
    measure_row(w, Sim::Timing, &configurations())
}

/// Run the full Table 1 experiment over the [`crate::parallel`] harness
/// (results are in deterministic suite order regardless of worker count).
pub fn run() -> Vec<Row> {
    run_with(crate::parallel::workers())
}

/// [`run`] with an explicit worker count (`1` forces the sequential path).
pub fn run_with(workers: usize) -> Vec<Row> {
    crate::run(&microbenchmarks(), workers, measure)
}

/// Render rows in the paper's format (`BB cycles`, then per ordering
/// `m/t/u/p` and `%`).
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["benchmark".to_string(), "BB cycles".to_string()];
    for (label, _) in configurations() {
        header.push(format!("{label} m/t/u/p"));
        header.push(format!("{label} %"));
    }
    let cells = |r: &Row| {
        let mut cells = vec![r.baseline.cycles.to_string()];
        for c in &r.columns {
            cells.push(c.measure.stats.mtup());
            cells.push(pct(c.improvement));
        }
        cells
    };
    render_rows(
        &header,
        rows,
        cells,
        Some(|mean| vec![String::new(), pct(mean)]),
    )
}

/// Rows as CSV (see [`csv::write_rows`]).
pub fn csv(rows: &[Row]) -> String {
    let labels = configurations().into_iter().map(|(label, _)| label);
    let fields = ["cycles", "blocks", "improvement", "mtup", "util"];
    let header = format!(
        "benchmark,bb_cycles,bb_blocks{}",
        csv::columns(labels, &fields)
    );
    csv::write_rows(&header, rows, |r| {
        let mut cells = vec![r.baseline.cycles.to_string(), r.baseline.blocks.to_string()];
        for c in &r.columns {
            let m = &c.measure;
            cells.extend([
                m.cycles.to_string(),
                m.blocks.to_string(),
                format!("{:.2}", c.improvement),
                m.stats.mtup(),
                m.stats.utilization(),
            ]);
        }
        cells
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_row() {
        let w = chf_workloads::micro::gzip_1();
        let row = measure(&w).unwrap();
        assert_eq!(row.columns.len(), 4);
        assert!(row.baseline.cycles > 0);
        // The convergent configuration must beat basic blocks on gzip_1
        // (the paper's flagship example).
        let iupo = row.columns.last().unwrap();
        assert!(
            iupo.improvement > 0.0,
            "(IUPO) should improve gzip_1: {iupo:?}"
        );
    }

    #[test]
    fn render_and_csv_have_every_row() {
        let rows = vec![measure(&chf_workloads::micro::vadd()).unwrap()];
        let text = render(&rows);
        assert!(text.contains("vadd"));
        assert!(text.contains("Average"));
        assert!(text.contains("(IUPO)"));
        let csv = csv(&rows);
        assert!(csv.starts_with("benchmark,bb_cycles,bb_blocks,UPIO_cycles"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("vadd"));
    }
}

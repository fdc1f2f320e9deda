//! Whole-program cycle simulation of the SPEC-like composites.
//!
//! The paper's SPEC study (Table 3) reports *block counts* from functional
//! simulation because cycle-level simulation of whole SPEC programs was
//! "prohibitively slow" (§7.3); Figure 7 then justifies the proxy by fitting
//! cycle reduction against block reduction on the microbenchmarks. The
//! event-driven rewrite of the timing core makes end-to-end cycle
//! simulation of our composites affordable, so this module closes the loop
//! the authors could not: it **measures** cycles on every composite and
//! compares them against the **model** — the block-count proxy mapped
//! through a Figure-7-style least-squares fit.
//!
//! Each composite is compiled twice (basic blocks and the convergent
//! default), each form lowered **once**, and the pre-decoded handle is
//! simulated end-to-end on the reference input with both simulators. The
//! fit of measured cycle reduction vs block reduction — slope (cycles saved
//! per block removed) and r² — is the composite-level analogue of the
//! paper's reported r² = 0.78.

use crate::fig7::{fit_comment, linear_fit, points, Fit};
use crate::render::{pct, render_rows};
use crate::{csv, measure_row, percent_improvement, Row, Sim};
use chf_core::pipeline::CompileConfig;
use chf_workloads::{spec_suite, Workload};

/// Measure one composite end-to-end: basic blocks against the convergent
/// default (the row's one column), both simulators over one lowered
/// program each.
///
/// # Errors
/// See [`measure_row`].
pub fn measure(w: &Workload) -> Result<Row, String> {
    measure_row(w, Sim::Both, &[("CH", CompileConfig::convergent())])
}

/// Run the whole-program experiment over the full SPEC-like suite
/// (parallel across composites, deterministic suite order).
pub fn run() -> (Vec<Row>, Fit) {
    run_with(crate::parallel::workers(), usize::MAX)
}

/// [`run`] with an explicit worker count and a cap on the number of
/// composites (the `--smoke` path simulates a prefix of the suite so the
/// end-to-end pipeline stays inside the CI time budget). The fit is the
/// measured-vs-model scatter of [`points`]: block reduction (the proxy the
/// paper had) against measured cycle reduction.
pub fn run_with(workers: usize, limit: usize) -> (Vec<Row>, Fit) {
    let mut suite = spec_suite();
    suite.truncate(limit);
    let rows = crate::run(&suite, workers, measure);
    let fit = linear_fit(&points(&rows));
    (rows, fit)
}

/// The convergent form's block-count improvement, percent (the paper's
/// Table 3 metric); its cycle improvement is the column's `improvement`.
fn block_improvement(r: &Row) -> f64 {
    percent_improvement(r.baseline.blocks, r.columns[0].measure.blocks)
}

/// Render the measured-vs-model table plus the fit summary.
pub fn render(rows: &[Row], fit: &Fit) -> String {
    let header = [
        "Benchmark",
        "BB blocks",
        "CH blocks",
        "blk %",
        "BB cycles",
        "CH cycles",
        "cyc %",
    ]
    .map(String::from);
    let cells = |r: &Row| {
        let ch = &r.columns[0];
        vec![
            r.baseline.blocks.to_string(),
            ch.measure.blocks.to_string(),
            pct(block_improvement(r)),
            r.baseline.cycles.to_string(),
            ch.measure.cycles.to_string(),
            pct(ch.improvement),
        ]
    };
    let mut out = render_rows(&header, rows, cells, None);
    out.push_str(&format!(
        "\nmeasured-vs-model fit: cycles_saved = {:.2} * blocks_saved + {:.1}   (r^2 = {:.3})\n",
        fit.slope, fit.intercept, fit.r2
    ));
    out.push_str("model = Table-3 block-count proxy; measured = end-to-end cycle simulation\n");
    out
}

/// Measured-vs-model rows as CSV, with the fit appended as a comment line
/// (see [`csv::write_rows`]). Deterministic: byte-identical at any worker
/// count.
pub fn csv(rows: &[Row], fit: &Fit) -> String {
    let header = "benchmark,bb_blocks,hb_blocks,block_improvement,bb_cycles,hb_cycles,\
                  cycle_improvement,hb_insts";
    let mut out = csv::write_rows(header, rows, |r| {
        let ch = &r.columns[0];
        vec![
            r.baseline.blocks.to_string(),
            ch.measure.blocks.to_string(),
            format!("{:.2}", block_improvement(r)),
            r.baseline.cycles.to_string(),
            ch.measure.cycles.to_string(),
            format!("{:.2}", ch.improvement),
            ch.measure.insts.to_string(),
        ]
    });
    out.push_str(&fit_comment(fit));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_prefix_measures_and_fits() {
        let (rows, _fit) = run_with(1, 3);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
            let (bb, hb) = (r.baseline.cycles, r.columns[0].measure.cycles);
            assert!(bb > 0 && hb > 0, "{}", r.name);
            // Formation must not make a composite slower end-to-end.
            assert!(
                hb <= bb,
                "{}: convergent form slower ({hb} vs {bb})",
                r.name
            );
        }
    }

    #[test]
    fn full_suite_fit_is_strongly_linear() {
        let (rows, fit) = run();
        assert!(rows.iter().all(|r| r.error.is_none()));
        // The paper reports r^2 = 0.78 on the micro suite; the composite
        // suite should show at least a clearly linear relationship.
        assert!(
            fit.r2 > 0.5,
            "measured-vs-model relationship degenerated: r^2 = {}",
            fit.r2
        );
    }
}

//! Figure 7: cycle-count reduction vs block-count reduction over all the
//! Table 1 data, with a least-squares linear fit. The paper reports the
//! relationship as "roughly linear (r² = 0.78)", justifying the use of
//! block counts as a performance proxy for the SPEC study.

use crate::{table1, Row};
use std::fmt::Write as _;

/// One scatter point: `(block-count reduction, cycle-count reduction)` of a
/// `(benchmark, configuration)` pair, both relative to basic blocks.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Point {
    /// `bb_blocks - config_blocks`.
    pub block_reduction: f64,
    /// `bb_cycles - config_cycles`.
    pub cycle_reduction: f64,
}

/// Least-squares fit `y = slope·x + intercept` with its r².
#[derive(Copy, Clone, Debug)]
pub struct Fit {
    /// Slope: cycles saved per block removed — the paper's `overhead` term.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Compute the least-squares fit of a point set.
///
/// Returns a zero fit for fewer than two points or zero variance.
pub fn linear_fit(points: &[Point]) -> Fit {
    let n = points.len() as f64;
    if points.len() < 2 {
        return Fit {
            slope: 0.0,
            intercept: 0.0,
            r2: 0.0,
        };
    }
    let mean_x = points.iter().map(|p| p.block_reduction).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.cycle_reduction).sum::<f64>() / n;
    let sxx: f64 = points
        .iter()
        .map(|p| (p.block_reduction - mean_x).powi(2))
        .sum();
    let syy: f64 = points
        .iter()
        .map(|p| (p.cycle_reduction - mean_y).powi(2))
        .sum();
    let sxy: f64 = points
        .iter()
        .map(|p| (p.block_reduction - mean_x) * (p.cycle_reduction - mean_y))
        .sum();
    if sxx == 0.0 || syy == 0.0 {
        return Fit {
            slope: 0.0,
            intercept: mean_y,
            r2: 0.0,
        };
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = (sxy * sxy) / (sxx * syy);
    Fit {
        slope,
        intercept,
        r2,
    }
}

/// Extract scatter points from table rows: one per healthy `(workload,
/// column)` pair, reductions relative to the row's baseline. Poisoned rows
/// (`error.is_some()`) contribute no points — a degraded benchmark must not
/// drag the regression through the origin.
pub fn points(rows: &[Row]) -> Vec<Point> {
    let mut pts = Vec::new();
    for r in rows.iter().filter(|r| r.error.is_none()) {
        for c in &r.columns {
            pts.push(Point {
                block_reduction: r.baseline.blocks as f64 - c.measure.blocks as f64,
                cycle_reduction: r.baseline.cycles as f64 - c.measure.cycles as f64,
            });
        }
    }
    pts
}

/// Run the whole experiment: Table 1 measurements, scatter extraction, fit.
pub fn run() -> (Vec<Point>, Fit) {
    let rows = table1::run();
    let pts = points(&rows);
    let fit = linear_fit(&pts);
    (pts, fit)
}

/// Render the scatter data and fit as text (one point per line, then the
/// regression summary).
pub fn render(points: &[Point], fit: &Fit) -> String {
    let mut out = String::from("block_reduction\tcycle_reduction\n");
    for p in points {
        out.push_str(&format!(
            "{:.0}\t{:.0}\n",
            p.block_reduction, p.cycle_reduction
        ));
    }
    out.push_str(&format!(
        "\nlinear fit: cycles_saved = {:.2} * blocks_saved + {:.1}   (r^2 = {:.3})\n",
        fit.slope, fit.intercept, fit.r2
    ));
    out.push_str("paper: r^2 = 0.78 — block-count reduction is a good but imperfect predictor\n");
    out
}

/// The fit as the `# fit:` comment line that ends a CSV archive.
pub fn fit_comment(fit: &Fit) -> String {
    format!(
        "# fit: slope={:.4} intercept={:.2} r2={:.4}\n",
        fit.slope, fit.intercept, fit.r2
    )
}

/// Figure 7 scatter points as CSV.
pub fn csv(points: &[Point], fit: &Fit) -> String {
    let mut out = String::from("block_reduction,cycle_reduction\n");
    for p in points {
        let _ = writeln!(out, "{:.1},{:.1}", p.block_reduction, p.cycle_reduction);
    }
    out.push_str(&fit_comment(fit));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let pts = vec![
            Point {
                block_reduction: 10.0,
                cycle_reduction: 25.0,
            },
            Point {
                block_reduction: 0.0,
                cycle_reduction: -3.0,
            },
        ];
        let fit = Fit {
            slope: 2.5,
            intercept: 0.0,
            r2: 1.0,
        };
        let csv = csv(&pts, &fit);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "block_reduction,cycle_reduction");
        assert!(lines[3].starts_with("# fit"));
    }

    #[test]
    fn perfect_line_has_r2_one() {
        let pts: Vec<Point> = (0..10)
            .map(|k| Point {
                block_reduction: k as f64,
                cycle_reduction: 3.0 * k as f64 + 5.0,
            })
            .collect();
        let fit = linear_fit(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 5.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_partial_r2() {
        let pts: Vec<Point> = (0..20)
            .map(|k| Point {
                block_reduction: k as f64,
                cycle_reduction: 2.0 * k as f64 + if k % 2 == 0 { 8.0 } else { -8.0 },
            })
            .collect();
        let fit = linear_fit(&pts);
        assert!(fit.r2 > 0.5 && fit.r2 < 1.0, "r2 = {}", fit.r2);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(linear_fit(&[]).r2, 0.0);
        let same = vec![
            Point {
                block_reduction: 1.0,
                cycle_reduction: 2.0,
            };
            5
        ];
        assert_eq!(linear_fit(&same).r2, 0.0);
    }
}

//! Plain-text table rendering shared by the experiment binaries.

use crate::Row;

/// Render a table: a header row plus data rows, columns padded to fit.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        line
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render evaluation rows under `header`. A healthy row prints its name and
/// then `cells(row)`; a poisoned row prints `FAILED: <why>` in place of its
/// numbers. With `average`, an `Average` row follows when any row is
/// healthy: a blank baseline cell, then `average(mean)` for each column's
/// mean improvement over the healthy rows only.
pub fn render_rows(
    header: &[String],
    rows: &[Row],
    cells: impl Fn(&Row) -> Vec<String>,
    average: Option<fn(f64) -> Vec<String>>,
) -> String {
    let mut body = Vec::new();
    for r in rows {
        let mut line = vec![r.name.clone()];
        match &r.error {
            Some(err) => line.push(format!("FAILED: {err}")),
            None => line.extend(cells(r)),
        }
        body.push(line);
    }
    let healthy: Vec<&Row> = rows.iter().filter(|r| r.error.is_none()).collect();
    if let (Some(average), Some(first)) = (average, healthy.first()) {
        let mut line = vec!["Average".to_string(), String::new()];
        for k in 0..first.columns.len() {
            let sum: f64 = healthy.iter().map(|r| r.columns[k].improvement).sum();
            line.extend(average(sum / healthy.len() as f64));
        }
        body.push(line);
    }
    render_table(header, &body)
}

/// Format a percentage with one decimal, like the paper's tables.
pub fn pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let header = vec!["name".into(), "x".into()];
        let rows = vec![
            vec!["long_benchmark".into(), "1.5".into()],
            vec!["b".into(), "100.0".into()],
        ];
        let t = render_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("long_benchmark"));
        // Right-aligned numeric column.
        assert!(lines[3].ends_with("100.0"));
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(16.24), "16.2");
        assert_eq!(pct(-5.0), "-5.0");
    }
}

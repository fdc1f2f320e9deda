//! CSV serialization of experiment results, for plotting Figure 7 and
//! archiving table data (`summary` writes these under `results/`). Each
//! table module formats its own cells; [`write_rows`] owns the layout.

use crate::Row;
use std::fmt::Write as _;

/// The sentinel written in place of numbers for a poisoned row. Downstream
/// consumers (plot scripts, spreadsheet imports) can filter on the first
/// data column equalling this token.
pub const POISONED_SENTINEL: &str = "POISONED";

/// A failure message flattened to a single CSV-safe cell (no commas, no
/// newlines).
fn csv_safe(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ").replace(',', ";")
}

/// The column-name prefix of a configuration label: `(IUP)O` and `(IUPO)`
/// become `IUP_O` and `CONV`, spaces become underscores, and every other
/// label is kept as it is.
pub fn key(label: &str) -> String {
    match label {
        "(IUP)O" => "IUP_O".to_string(),
        "(IUPO)" => "CONV".to_string(),
        _ => label.replace(' ', "_"),
    }
}

/// Header cells `,{key}_{field}` for every label and field, label-major.
pub fn columns<'a>(labels: impl IntoIterator<Item = &'a str>, fields: &[&str]) -> String {
    let mut out = String::new();
    for label in labels {
        let k = key(label);
        for field in fields {
            let _ = write!(out, ",{k}_{field}");
        }
    }
    out
}

/// Rows as CSV under the `header` line. A healthy row is its name followed
/// by `cells(row)`; a poisoned row becomes `name,POISONED,<message>` — a
/// sentinel line, never fabricated zeros.
pub fn write_rows(header: &str, rows: &[Row], cells: impl Fn(&Row) -> Vec<String>) -> String {
    let mut out = format!("{header}\n");
    for r in rows {
        match &r.error {
            Some(err) => writeln!(out, "{},{},{}", r.name, POISONED_SENTINEL, csv_safe(err)),
            None => writeln!(out, "{},{}", r.name, cells(r).join(",")),
        }
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_for_every_ordering() {
        let keys: Vec<String> = crate::table1::configurations()
            .iter()
            .map(|(label, _)| key(label))
            .collect();
        assert_eq!(keys, ["UPIO", "IUPO", "IUP_O", "CONV"]);
        assert_eq!(key("Convergent VLIW"), "Convergent_VLIW");
        assert_eq!(columns(["A", "B"], &["x", "y"]), ",A_x,A_y,B_x,B_y");
    }

    #[test]
    fn poisoned_rows_use_the_sentinel() {
        let rows = vec![Row::poisoned("bad", "line one,\nline two".into())];
        let csv = write_rows("benchmark,x", &rows, |_| unreachable!());
        assert_eq!(csv, "benchmark,x\nbad,POISONED,line one; line two\n");
    }
}

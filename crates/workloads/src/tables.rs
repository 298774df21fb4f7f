//! Markdown table rendering for the bench harnesses, plus the canonical
//! family comparison table.
//!
//! The `claims` bench (`crates/bench`) prints every experiment (E1–E10)
//! as a GitHub-style markdown table, ready to paste into a report.
//! [`driver_table`] renders the one-row-per-family overview (resilience,
//! prediction use, round/communication shapes) straight from
//! [`FAMILIES`], so a new protocol family appears in it the moment its
//! row lands.

use crate::driver::FAMILIES;

/// A simple column-aligned markdown table builder.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table as markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// The canonical protocol-family comparison: one row per
/// [`FAMILIES`] entry with its resilience bound, prediction use, and
/// round/communication shapes — rendered from the rows the engine runs,
/// so it cannot rot behind the code.
pub fn driver_table() -> Table {
    let mut t = Table::new(
        "protocol families",
        &[
            "pipeline",
            "resilience",
            "predictions",
            "rounds",
            "communication",
        ],
    );
    for family in &FAMILIES {
        let resilience = format!("{}t < n", family.divisor);
        let predictions = if family.uses_predictions {
            "yes"
        } else {
            "ignored"
        };
        t.row([
            family.name,
            &resilience,
            predictions,
            family.round_shape,
            family.comm_shape,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Pipeline;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["B", "rounds"]);
        t.row(["0", "9"]).row(["1000", "42"]);
        let s = t.render();
        assert!(s.contains("### demo"));
        assert!(s.contains("| B    | rounds |"));
        assert!(s.contains("| 1000 | 42     |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn driver_table_lists_every_pipeline_family() {
        let rendered = driver_table().render();
        for pipeline in Pipeline::ALL {
            assert!(
                rendered.contains(pipeline.name()),
                "driver table is missing {}",
                pipeline.name()
            );
        }
        assert!(rendered.contains("resilient"));
        assert!(rendered.contains("2t < n"), "auth families present");
    }
}

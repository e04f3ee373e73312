//! Shared experiment plumbing: timing, table rendering, JSON reports.

use std::time::{Duration, Instant};

use sqlengine::json::write_json_string;

/// Run `f`, returning its output and wall-clock duration.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A printable result table (one per paper table/figure series).
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// A bundle of tables from one experiment run, serializable to JSON for
/// EXPERIMENTS.md bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub tables: Vec<Table>,
}

impl Report {
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    pub fn render(&self) -> String {
        self.tables
            .iter()
            .map(Table::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Pretty JSON, two-space indent: `{"tables": [{"title", "headers",
    /// "rows"}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tables\": ");
        let write_cell = |out: &mut String, cell: &String, _depth| write_json_string(out, cell);
        write_array(&mut out, &self.tables, 1, |out, table, depth| {
            let pad = "  ".repeat(depth + 1);
            out.push_str(&format!("{{\n{pad}\"title\": "));
            write_json_string(out, &table.title);
            out.push_str(&format!(",\n{pad}\"headers\": "));
            write_array(out, &table.headers, depth + 1, write_cell);
            out.push_str(&format!(",\n{pad}\"rows\": "));
            write_array(out, &table.rows, depth + 1, |out, row, depth| {
                write_array(out, row, depth, write_cell);
            });
            out.push_str(&format!("\n{}}}", "  ".repeat(depth)));
        });
        out.push_str("\n}");
        out
    }
}

/// A JSON array with one item per line at `depth + 1`; `[]` when empty.
fn write_array<T>(
    out: &mut String,
    items: &[T],
    depth: usize,
    item: impl Fn(&mut String, &T, usize),
) {
    if items.is_empty() {
        return out.push_str("[]");
    }
    for (i, it) in items.iter().enumerate() {
        out.push_str(if i == 0 { "[\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        item(out, it, depth + 1);
    }
    out.push_str(&format!("\n{}]", "  ".repeat(depth)));
}

/// Format a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["222".into(), "yy".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long_header"));
        assert_eq!(r.lines().count(), 5);
    }

    #[test]
    fn report_serializes() {
        let mut r = Report::default();
        r.push(Table::new("t", &["c"]));
        r.tables[0].row(vec!["x \"y\"".into()]);
        let expected = r#"{
  "tables": [
    {
      "title": "t",
      "headers": [
        "c"
      ],
      "rows": [
        [
          "x \"y\""
        ]
      ]
    }
  ]
}"#;
        assert_eq!(r.to_json(), expected);
        assert_eq!(Report::default().to_json(), "{\n  \"tables\": []\n}");
    }

    #[test]
    fn time_it_measures() {
        let ((), d) = time_it(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(d >= Duration::from_millis(4));
    }
}

//! Plain-text table rendering and results persistence.
//!
//! Every experiment binary prints its table to stdout in the paper's layout
//! and mirrors it as CSV under `results/` so EXPERIMENTS.md can reference
//! stable artifacts.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The header labels.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The cells of column `idx`, top to bottom.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn column(&self, idx: usize) -> Vec<String> {
        assert!(idx < self.header.len(), "column {idx} out of range");
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// Columns whose header ends with `suffix`, as (name, cells) pairs —
    /// the chart renderer consumes runtime columns (`…[s]`) this way.
    pub fn columns_with_suffix(&self, suffix: &str) -> Vec<(String, Vec<String>)> {
        self.header
            .iter()
            .enumerate()
            .filter(|(_, h)| h.ends_with(suffix))
            .map(|(i, h)| (h.trim_end_matches(suffix).to_string(), self.column(i)))
            .collect()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let n = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == n { "\n" } else { "  " };
                let _ = write!(out, "{cell:<width$}{sep}", width = widths[i]);
            }
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (n - 1);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (comma-quoted where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(out, "{}", self.header.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes the CSV form to `<name>.csv` in [`results_dir_for`]`(scale)`
    /// (creating the directory) and returns the written path.
    pub fn save_csv(&self, name: &str, scale: f64) -> io::Result<PathBuf> {
        let dir = results_dir_for(scale);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `<root>/crates/fd-bench` at
/// compile time of this crate (falls back to CWD).
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The committed `results/` directory at the workspace root, which holds
/// the full-scale tables.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Where the tables of a run at `scale` are saved: [`results_dir`] at full
/// scale, and `target/results-scale-<scale>/` otherwise, so a `--quick` or
/// `--scale` run never overwrites the committed full-scale tables.
pub fn results_dir_for(scale: f64) -> PathBuf {
    if scale == 1.0 {
        results_dir()
    } else {
        workspace_root().join("target").join(format!("results-scale-{scale}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.push(vec!["x", "1"]);
        t.push(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Column alignment: "value" starts at the same offset in all rows.
        let off = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][off..off + 1], "1");
        assert_eq!(&lines[3][off..off + 2], "22");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec!["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec!["only-one"]);
    }

    #[test]
    fn results_dir_points_at_workspace_root() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn only_full_scale_tables_go_to_the_committed_results() {
        assert_eq!(results_dir_for(1.0), results_dir());
        let root = results_dir().parent().unwrap().to_path_buf();
        for scale in [0.1, 0.5, 2.0] {
            let d = results_dir_for(scale);
            assert!(d.starts_with(root.join("target")), "{scale}: {}", d.display());
            assert!(!d.starts_with(results_dir()), "{scale}: {}", d.display());
        }
        assert_ne!(results_dir_for(0.1), results_dir_for(0.5));
    }
}

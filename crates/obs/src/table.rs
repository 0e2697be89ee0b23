//! A minimal markdown table renderer. The experiment tables of
//! `argus-bench` (`crates/bench/src/table.rs`) render through
//! [`write_grid`] too.

use std::fmt;

/// A titled markdown table with column alignment.
///
/// # Examples
///
/// ```
/// use argus_obs::Table;
///
/// let mut t = Table::new("counters");
/// t.header(["counter", "value"]);
/// t.row(["slog.appends", "12"]);
/// let text = t.to_string();
/// assert!(text.contains("| slog.appends |"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header cells.
    pub fn header<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one row.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Renders `header` and `rows` as an aligned pipe-and-dash markdown grid —
/// the one renderer behind this crate's tables and `argus-bench`'s
/// experiment tables. Ragged rows are padded with empty cells.
pub fn write_grid(
    f: &mut fmt::Formatter<'_>,
    header: &[String],
    rows: &[Vec<String>],
) -> fmt::Result {
    let all = || std::iter::once(header).chain(rows.iter().map(Vec::as_slice));
    let cols = all().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in all() {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
        write!(f, "|")?;
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            write!(f, " {cell:w$} |", w = w)?;
        }
        writeln!(f)
    };
    render(f, header)?;
    write!(f, "|")?;
    for w in &widths {
        write!(f, "{:-<w$}|", "", w = w + 2)?;
    }
    writeln!(f)?;
    for row in rows {
        render(f, row)?;
    }
    Ok(())
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        write_grid(f, &self.header, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo");
        t.header(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.to_string();
        assert!(s.starts_with("### demo\n"));
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 22    |"));
        assert!(s.contains("|--------|"));
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("ragged");
        t.header(["a"]);
        t.row(["x", "extra"]);
        let s = t.to_string();
        assert!(s.contains("extra"));
    }
}

//! Text and JSON exporters for a registry snapshot.

use crate::catalogue::{Count, Hist};
use crate::hist::HistSnapshot;
use std::collections::BTreeSet;
use std::fmt;

/// A point-in-time snapshot of one [`crate::Registry`]: every row of the
/// catalogue, in name order.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every counter and its value.
    pub counters: Vec<(Count, u64)>,
    /// Every histogram and its snapshot.
    pub hists: Vec<(Hist, HistSnapshot)>,
}

impl Report {
    /// Whether no row recorded anything.
    pub fn is_empty(&self) -> bool {
        self.tallies().all(|(_, n)| n == 0)
    }

    /// Each row's name and tally: a counter's value, a histogram's count.
    fn tallies(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let counted = self.counters.iter().map(|(c, v)| (c.name(), *v));
        counted.chain(self.hists.iter().map(|(h, s)| (h.name(), s.count)))
    }

    /// Renders every row as one JSON object (hand-built; the workspace has
    /// no serde).
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        for (c, v) in &self.counters {
            counters.push(format!("{}:{v}", json_string(c.name())));
        }
        let mut hists = Vec::new();
        for (h, s) in &self.hists {
            let (min, mean, p50, p95) =
                (s.min_or_zero(), s.mean(), s.quantile(0.5), s.quantile(0.95));
            hists.push(format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{min},\"max\":{},\"mean\":{mean},\"p50\":{p50},\"p95\":{p95}}}",
                json_string(h.name()), s.count, s.sum, s.max
            ));
        }
        let (counters, hists) = (counters.join(","), hists.join(","));
        format!("{{\"counters\":{{{counters}}},\"histograms\":{{{hists}}}}}")
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `header` and `rows` as an aligned pipe-and-dash markdown grid —
/// the one renderer behind every table the workspace prints: this report's,
/// the log linter's and `argus-bench`'s experiment tables. Every row has
/// one cell per header cell.
pub fn write_grid(
    f: &mut fmt::Formatter<'_>,
    header: &[String],
    rows: &[Vec<String>],
) -> fmt::Result {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
        widths
            .iter()
            .zip(row)
            .try_for_each(|(w, cell)| write!(f, "| {cell:w$} "))?;
        writeln!(f, "|")
    };
    render(f, header)?;
    widths
        .iter()
        .try_for_each(|w| write!(f, "|{:-<w$}", "", w = w + 2))?;
    writeln!(f, "|")?;
    rows.iter().try_for_each(|row| render(f, row))
}

/// The owning layer of a dotted name: the part before its first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Markdown tables of every row of each layer that recorded something, so
/// a zero shows what a layer in use did not do: a counter table and a
/// phase-timing table (count/min/p50/p95/max/total).
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(no metrics recorded)\n");
        }
        let recorded = self.tallies().filter(|&(_, n)| n != 0);
        let used: BTreeSet<&str> = recorded.map(|(name, _)| layer(name)).collect();
        let counted: Vec<Vec<String>> = self
            .counters
            .iter()
            .filter(|(c, _)| used.contains(layer(c.name())))
            .map(|(c, v)| vec![c.to_string(), v.to_string()])
            .collect();
        let timed: Vec<Vec<String>> = self
            .hists
            .iter()
            .filter(|(h, _)| used.contains(layer(h.name())))
            .map(|(h, s)| {
                let (p50, p95) = (s.quantile(0.5), s.quantile(0.95));
                let cells = [s.count, s.min_or_zero(), p50, p95, s.max, s.sum];
                std::iter::once(h.to_string())
                    .chain(cells.map(|v| v.to_string()))
                    .collect()
            })
            .collect();
        let phase_header = ["phase", "count", "min", "p50", "p95", "max", "total"];
        let tables = [
            ("counters", &["counter", "value"][..], counted),
            ("phase timings (simulated µs)", &phase_header[..], timed),
        ];
        for (title, header, rows) in tables.into_iter().filter(|(.., rows)| !rows.is_empty()) {
            let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
            writeln!(f, "### {title}\n")?;
            write_grid(f, &header, &rows)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Report {
        let reg = Registry::new();
        reg.add(Count::SlogAppends, 12);
        reg.record(Hist::SlogForceUs, 40);
        reg.record(Hist::SlogForceUs, 80);
        reg.report()
    }

    #[test]
    fn text_report_has_both_tables() {
        let text = sample().to_string();
        assert!(text.starts_with("### counters\n\n| counter "), "{text}");
        assert!(
            text.contains("| slog.appends              | 12    |"),
            "{text}"
        );
        assert!(text.contains("\n### phase timings (simulated µs)\n\n| phase "));
        assert!(
            text.contains("| slog.force_us         | 2     | 40  | 63  | 80  | 80  | 120   |"),
            "{text}"
        );
    }

    #[test]
    fn text_report_lists_the_zero_rows_of_a_layer_in_use_only() {
        let text = sample().to_string();
        assert!(
            text.contains("| slog.forces               | 0     |"),
            "{text}"
        );
        assert!(
            !text.contains("stable.") && !text.contains("core."),
            "{text}"
        );
    }

    #[test]
    fn empty_report_says_so() {
        let r = Registry::new().report();
        assert!(r.is_empty());
        assert_eq!(r.to_string(), "(no metrics recorded)\n");
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"slog.appends\":12"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"sum\":120"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}

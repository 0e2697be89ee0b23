//! Text and JSON exporters for a registry snapshot.

use crate::hist::HistSnapshot;
use crate::table::Table;
use std::fmt::Write as _;

/// A point-in-time snapshot of one [`crate::Registry`]: every counter and
/// histogram.
#[derive(Debug, Clone)]
pub struct Report {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → snapshot, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl Report {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Renders markdown tables in the `argus-bench` table style: a counter
    /// table and a phase-timing table (count/min/p50/p95/max/total).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let mut t = Table::new("counters");
            t.header(["counter", "value"]);
            for (name, v) in &self.counters {
                t.row([name.clone(), v.to_string()]);
            }
            let _ = writeln!(out, "{t}");
        }
        if !self.hists.is_empty() {
            let mut t = Table::new("phase timings (simulated µs)");
            t.header(["phase", "count", "min", "p50", "p95", "max", "total"]);
            for (name, s) in &self.hists {
                t.row([
                    name.clone(),
                    s.count.to_string(),
                    s.min_or_zero().to_string(),
                    s.quantile(0.5).to_string(),
                    s.quantile(0.95).to_string(),
                    s.max.to_string(),
                    s.sum.to_string(),
                ]);
            }
            let _ = writeln!(out, "{t}");
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Renders the whole report as one JSON object (hand-built; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, s)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{}}}",
                json_string(name),
                s.count,
                s.sum,
                s.min_or_zero(),
                s.max,
                s.mean(),
                s.quantile(0.5),
                s.quantile(0.95),
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Report {
        let reg = Registry::new();
        reg.add("slog.appends", 12);
        reg.observe("slog.force_us", 40);
        reg.observe("slog.force_us", 80);
        reg.report()
    }

    #[test]
    fn text_report_has_both_tables() {
        let text = sample().to_text();
        assert!(text.contains("### counters"));
        assert!(text.contains("| slog.appends | 12    |"), "{text}");
        assert!(text.contains("### phase timings"));
        assert!(text.contains("slog.force_us"));
    }

    #[test]
    fn empty_report_says_so() {
        let r = Registry::new().report();
        assert!(r.is_empty());
        assert_eq!(r.to_text(), "(no metrics recorded)\n");
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

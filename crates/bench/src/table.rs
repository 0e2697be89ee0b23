//! The experiment harness's tables: markdown through `argus-obs`'s grid
//! renderer, plus the JSON artefact and its comparison.

use std::fmt;

/// One experiment's output table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`E1`, `E2`, …): the `BENCH_<id>.json` artefact's name.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The thesis claim being checked.
    pub claim: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with no rows. `header` names the columns separated
    /// by ` | `, as the markdown rendering shows them.
    pub fn new(id: &'static str, title: &'static str, claim: &'static str, header: &str) -> Self {
        Self {
            id,
            title,
            claim,
            header: header.split(" | ").map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Serializes the table as a small JSON document (no external
    /// dependencies), for `scripts/bench.sh`'s `BENCH_<id>.json` artifacts.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(cells: &[String]) -> String {
            let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("[{}]", quoted.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"claim\":\"{}\",\"header\":{},\"rows\":[{}]}}\n",
            esc(self.id),
            esc(self.title),
            esc(self.claim),
            arr(&self.header),
            rows.join(",")
        )
    }
}

/// A document [`Table::to_json`] wrote, read back for
/// [`Table::diff_against`] as the sequence of its strings with `[` and `]`
/// where its arrays open and close: the fields come in a fixed order, so
/// the object punctuation carries nothing to check (and the workspace has
/// no JSON dependency).
struct Reader(std::vec::IntoIter<Token>);

#[derive(Debug, PartialEq)]
enum Token {
    Open,
    Close,
    Str(String),
}

impl Reader {
    fn new(text: &str) -> Result<Self, String> {
        let mut chars = text.chars();
        let mut tokens = Vec::new();
        while let Some(c) = chars.next() {
            tokens.push(match c {
                '[' => Token::Open,
                ']' => Token::Close,
                '"' => Token::Str(Self::string(&mut chars)?),
                '{' | '}' | ',' | ':' | '\n' => continue,
                c => return Err(format!("unexpected {c:?}")),
            });
        }
        Ok(Self(tokens.into_iter()))
    }

    /// The rest of a string whose opening quote has been consumed.
    fn string(chars: &mut std::str::Chars<'_>) -> Result<String, String> {
        let mut out = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        out.push(c.ok_or_else(|| format!("bad escape \\u{hex}"))?);
                    }
                    Some(c @ ('"' | '\\' | '/')) => out.push(c),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The value of the string field `key`.
    fn field(&mut self, key: &str) -> Result<String, String> {
        match (self.0.next(), self.0.next()) {
            (Some(Token::Str(k)), Some(Token::Str(v))) if k == key => Ok(v),
            other => Err(format!("expected field {key:?}, found {other:?}")),
        }
    }

    /// The array field `key`, up to its opening bracket.
    fn open(&mut self, key: &str) -> Result<(), String> {
        match (self.0.next(), self.0.next()) {
            (Some(Token::Str(k)), Some(Token::Open)) if k == key => Ok(()),
            other => Err(format!("expected array {key:?}, found {other:?}")),
        }
    }

    /// The strings up to the close of the array just opened.
    fn strings(&mut self) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        loop {
            match self.0.next() {
                Some(Token::Str(s)) => out.push(s),
                Some(Token::Close) => return Ok(out),
                other => return Err(format!("expected a string, found {other:?}")),
            }
        }
    }
}

impl Table {
    /// Compares this freshly generated table with a checked-in
    /// `BENCH_<id>.json` and lists every difference (none: the artefact is
    /// current). Title, claim, header and every cell must be equal, except
    /// cells of columns whose header contains "wall": those are wall-clock
    /// readings inside an otherwise simulated-clock table and differ run to
    /// run. `Err` means the artefact could not be read as a table at all.
    pub fn diff_against(&self, artefact: &str) -> Result<Vec<String>, String> {
        let mut doc = Reader::new(artefact)?;
        doc.field("id")?;
        let mut diffs = Vec::new();
        for (what, fresh) in [("title", self.title), ("claim", self.claim)] {
            let old = doc.field(what)?;
            if old != fresh {
                diffs.push(format!("{what}: checked in {old:?}, regenerated {fresh:?}"));
            }
        }
        doc.open("header")?;
        let header = doc.strings()?;
        if header != self.header {
            diffs.push(format!(
                "header: checked in {header:?}, regenerated {:?}",
                self.header
            ));
            return Ok(diffs);
        }
        doc.open("rows")?;
        let mut rows = Vec::new();
        loop {
            match doc.0.next() {
                Some(Token::Open) => rows.push(doc.strings()?),
                Some(Token::Close) => break,
                other => return Err(format!("expected a row, found {other:?}")),
            }
        }
        if rows.len() != self.rows.len() {
            diffs.push(format!(
                "rows: checked in {}, regenerated {}",
                rows.len(),
                self.rows.len()
            ));
            return Ok(diffs);
        }
        for (r, (old, fresh)) in rows.iter().zip(&self.rows).enumerate() {
            for (c, column) in header.iter().enumerate() {
                if column.contains("wall") {
                    continue;
                }
                let (old, fresh) = (old.get(c), fresh.get(c));
                if old != fresh {
                    diffs.push(format!(
                        "row {r} ({}), column {column:?}: checked in {old:?}, regenerated {fresh:?}",
                        self.rows[r].first().map_or("", String::as_str)
                    ));
                }
            }
        }
        Ok(diffs)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {} — {}", self.id, self.title)?;
        writeln!(f, "_{}_", self.claim)?;
        writeln!(f)?;
        argus_obs::write_grid(f, &self.header, &self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("E0", "demo", "a claim", "a | bb");
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("### E0 — demo"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
    }

    #[test]
    fn renders_json() {
        let mut t = Table::new("E0", "demo \"quoted\"", "a claim", "a | bb");
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_json();
        assert!(s.contains("\"id\":\"E0\""));
        assert!(s.contains("\"title\":\"demo \\\"quoted\\\"\""));
        assert!(s.contains("\"header\":[\"a\",\"bb\"]"));
        assert!(s.contains("\"rows\":[[\"1\",\"2\"]]"));
    }

    fn demo() -> Table {
        let header = "org | sim µs | wall ms";
        let mut t = Table::new("E0", "demo \"quoted\"", "a claim\nin two lines", header);
        t.row(vec!["simple".into(), "10".into(), "3".into()]);
        t.row(vec!["hybrid".into(), "12".into(), "4".into()]);
        t
    }

    #[test]
    fn a_table_equals_its_own_artefact() {
        let t = demo();
        assert_eq!(t.diff_against(&t.to_json()), Ok(vec![]));
    }

    #[test]
    fn wall_columns_are_ignored_and_everything_else_is_not() {
        let t = demo();
        let artefact = t.to_json().replace("\"3\"", "\"99\"");
        assert_eq!(
            t.diff_against(&artefact),
            Ok(vec![]),
            "a wall cell may differ"
        );

        let artefact = t.to_json().replace("\"12\"", "\"13\"");
        let diffs = t.diff_against(&artefact).unwrap();
        assert_eq!(diffs.len(), 1);
        assert!(
            diffs[0].contains("hybrid") && diffs[0].contains("sim µs"),
            "{diffs:?}"
        );

        let artefact = t.to_json().replace("a claim", "an older claim");
        let diffs = t.diff_against(&artefact).unwrap();
        assert!(
            diffs.len() == 1 && diffs[0].starts_with("claim"),
            "{diffs:?}"
        );

        assert!(t.diff_against("{\"id\":").is_err());
        assert!(t.diff_against("[]").is_err());
    }
}

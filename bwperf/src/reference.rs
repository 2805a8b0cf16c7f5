//! The committed reference outputs every run is checked against.
//!
//! Each file under `reference/` is a whitespace-separated table, one row
//! per line, `#` comments allowed. A row is looked up by its first
//! `key_fields` fields joined by single spaces. `bwperf --write-reference`
//! regenerates all three files from the current program.

use std::collections::HashMap;

/// Per-injection outcomes: `port model arm seed outcomes`.
pub const CAMPAIGN: &str = include_str!("../reference/campaign.txt");
/// Golden outputs per protect port: `port nthreads outputs digest events steps`.
pub const PROTECT: &str = include_str!("../reference/protect.txt");
/// Per compiled program: `program shared thread_id partial none checked`.
pub const COMPILE: &str = include_str!("../reference/compile.txt");

/// A parsed reference table.
#[derive(Debug, Default)]
pub struct Table {
    rows: HashMap<String, Vec<String>>,
}

impl Table {
    /// Parses `text`, keying each row by its first `key_fields` fields.
    pub fn parse(text: &str, key_fields: usize) -> Table {
        let rows = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                let split = key_fields.min(fields.len());
                let (key, rest) = fields.split_at(split);
                (key.join(" "), rest.iter().map(|s| s.to_string()).collect())
            })
            .collect();
        Table { rows }
    }

    /// The non-key fields of the row keyed `key`.
    pub fn get(&self, key: &str) -> Option<&[String]> {
        self.rows.get(key).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_keyed_by_leading_fields() {
        let t = Table::parse("# c\nfft flip on 7 dmm\n\nradix  cond off 9 nnh\n", 4);
        assert_eq!(t.get("fft flip on 7"), Some(&["dmm".to_string()][..]));
        assert_eq!(t.get("radix cond off 9"), Some(&["nnh".to_string()][..]));
        assert_eq!(t.get("fft flip on 8"), None);
    }

    #[test]
    fn committed_references_parse() {
        assert!(Table::parse(CAMPAIGN, 4).rows.len() >= 20);
        assert!(Table::parse(PROTECT, 1).rows.len() >= 4);
        assert!(Table::parse(COMPILE, 1).rows.len() >= 7);
    }
}

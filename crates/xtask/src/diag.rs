//! Diagnostics and their machine-readable encoding.

use std::fmt;

/// One lint finding at a source position.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the linted root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (byte offset within the line).
    pub col: u32,
    /// Stable rule identifier (a name from `rules::RULES`, or one of the
    /// meta-diagnostics `bad-suppression` / `stale-allow`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as the stable `--json` document:
///
/// ```json
/// {"version": 1, "count": N, "diagnostics": [
///   {"file": "...", "line": 1, "col": 1, "rule": "...", "message": "..."}
/// ]}
/// ```
pub fn to_json(diags: &[Diagnostic]) -> String {
    let rows: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                d.col,
                json_escape(d.rule),
                json_escape(&d.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"count\": {},\n  \"diagnostics\": [\n{}\n  ]\n}}\n",
        diags.len(),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_col() {
        let d = Diagnostic {
            file: "crates/littles/src/wire.rs".into(),
            line: 42,
            col: 7,
            rule: "cast-truncation",
            message: "`as u32` silently truncates".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/littles/src/wire.rs:42:7: cast-truncation: `as u32` silently truncates"
        );
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}

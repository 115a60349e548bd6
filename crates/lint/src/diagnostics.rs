//! Diagnostic type, deterministic ordering, and output rendering
//! (human-readable and `--json`).

use std::fmt;

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `no-panic`.
    pub rule: &'static str,
    pub message: String,
}

impl Diagnostic {
    /// Deterministic sort key: file, line, rule, then message — a total
    /// order over every field, so sorting is a fixed point regardless of
    /// the (possibly parallel) production order.
    pub fn sort_key(&self) -> (String, usize, &'static str, String) {
        (self.file.clone(), self.line, self.rule, self.message.clone())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (stable field order, sorted input
/// expected). Hand-rolled: the workspace has no JSON library and the
/// schema is four flat fields.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"file\":\"{}\",", escape_json(&d.file)));
        out.push_str(&format!("\"line\":{},", d.line));
        out.push_str(&format!("\"rule\":\"{}\",", escape_json(d.rule)));
        out.push_str(&format!("\"message\":\"{}\"", escape_json(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_is_clickable() {
        let d = Diagnostic {
            file: "crates/core/src/pipeline.rs".to_string(),
            line: 42,
            rule: "no-panic",
            message: "`.unwrap()` in supervised library code".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "crates/core/src/pipeline.rs:42: [no-panic] `.unwrap()` in supervised library code"
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let diags = vec![Diagnostic {
            file: "a.rs".to_string(),
            line: 1,
            rule: "float-eq",
            message: "uses \"==\"".to_string(),
        }];
        let json = to_json(&diags);
        assert!(json.contains("\"rule\":\"float-eq\""));
        assert!(json.contains("\\\"==\\\""));
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(to_json(&[]).trim(), "[]");
    }
}

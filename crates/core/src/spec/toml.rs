//! A hand-rolled TOML-subset parser for `experiments/*.toml`.
//!
//! The workspace is dependency-free by design (tier-1 must build
//! offline), so experiment specs use a small, strictly-defined subset
//! of TOML rather than a crates.io parser:
//!
//! * `[section]` and `[dotted.section]` headers;
//! * `key = value` items, where a value is a double-quoted string
//!   (with `\\ \" \n \t` escapes), a decimal integer (optional `_`
//!   separators), `true`/`false`, or a single-line array of those;
//! * `#` comments and blank lines.
//!
//! Everything else — multi-line arrays, floats, dates, inline tables,
//! key dotting — is a typed parse error, never a silent skip: a spec
//! the parser does not fully understand must not half-configure an
//! experiment. Every parsed item carries its source line so spec-level
//! validation (unknown key, type mismatch, bad registry id) can point
//! at the offending line, and duplicate sections or duplicate keys are
//! refused at parse time.

use super::SpecError;

/// One parsed value of the TOML subset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A double-quoted string.
    Str(String),
    /// A decimal integer (`u64`: every numeric knob in the spec
    /// universe is a budget, seed, size or threshold).
    Int(u64),
    /// `true` / `false`.
    Bool(bool),
    /// A single-line `[v, v, ...]` array.
    Array(Vec<Value>),
}

impl Value {
    /// Human name of the value's type, for mismatch diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` item, with the line it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    /// The key, verbatim.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line of the item.
    pub line: usize,
}

/// One `[section]`, with its items in file order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// The header name (dots preserved: `scheme.l2-192`).
    pub name: String,
    /// 1-based source line of the header.
    pub line: usize,
    /// The section's items, in file order.
    pub items: Vec<Item>,
}

/// A parsed document: sections in file order. Items before the first
/// header are refused (the spec format has no root-level keys).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Doc {
    /// The sections, in file order.
    pub sections: Vec<Section>,
}

impl Doc {
    /// The section named `name`, if present.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// Parses `text` (read from `file`, used for diagnostics only) into a
/// [`Doc`]. Any construct outside the documented subset is a typed
/// [`SpecError`] carrying the file name and line.
pub fn parse(file: &str, text: &str) -> Result<Doc, SpecError> {
    let err = |line: usize, message: String| SpecError {
        file: file.to_string(),
        line,
        message,
    };
    let mut doc = Doc {
        sections: Vec::new(),
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(lineno, format!("unterminated section header `{line}`")));
            };
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            {
                return Err(err(lineno, format!("invalid section name `{name}`")));
            }
            if let Some(prev) = doc.section(name) {
                return Err(err(
                    lineno,
                    format!(
                        "duplicate section `[{name}]` (first defined on line {})",
                        prev.line
                    ),
                ));
            }
            doc.sections.push(Section {
                name: name.to_string(),
                line: lineno,
                items: Vec::new(),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(err(
                lineno,
                format!("expected `key = value` or `[section]`, found `{line}`"),
            ));
        };
        let key = line[..eq].trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'))
        {
            return Err(err(lineno, format!("invalid key `{key}`")));
        }
        let Some(section) = doc.sections.last_mut() else {
            return Err(err(
                lineno,
                format!("key `{key}` before any `[section]` header"),
            ));
        };
        if let Some(prev) = section.items.iter().find(|i| i.key == key) {
            return Err(err(
                lineno,
                format!(
                    "duplicate key `{key}` in `[{}]` (first set on line {})",
                    section.name, prev.line
                ),
            ));
        }
        let value = parse_value(line[eq + 1..].trim())
            .map_err(|m| err(lineno, format!("value of `{key}`: {m}")))?;
        section.items.push(Item {
            key: key.to_string(),
            value,
            line: lineno,
        });
    }
    Ok(doc)
}

/// Strips a `#` comment, honoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one value of the subset. Errors are bare messages; the
/// caller attaches file/line context.
fn parse_value(s: &str) -> Result<Value, String> {
    if s.is_empty() {
        return Err("missing value".into());
    }
    if let Some(rest) = s.strip_prefix('"') {
        let (string, remainder) = parse_string(rest)?;
        if !remainder.trim().is_empty() {
            return Err(format!("trailing text `{}` after string", remainder.trim()));
        }
        return Ok(Value::Str(string));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err("unterminated array (the subset is single-line)".into());
        };
        let mut items = Vec::new();
        for part in split_array(body)? {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Array(_) => return Err("nested arrays are not in the subset".into()),
                v => items.push(v),
            }
        }
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = s.chars().filter(|&c| c != '_').collect();
    if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
        return digits
            .parse::<u64>()
            .map(Value::Int)
            .map_err(|_| format!("integer `{s}` exceeds u64"));
    }
    Err(format!(
        "`{s}` is not a string, unsigned integer, boolean or array \
         (the supported TOML subset)"
    ))
}

/// Parses the body of a double-quoted string (opening quote already
/// consumed), returning the unescaped text and whatever follows the
/// closing quote.
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => return Err(format!("unsupported escape `\\{other}`")),
                None => return Err("dangling escape at end of string".into()),
            },
            _ => out.push(c),
        }
    }
    Err("unterminated string".into())
}

/// Splits an array body on top-level commas (commas inside strings are
/// preserved).
fn split_array(body: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    parts.push(&body[start..]);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_items_and_comments() {
        let doc = parse(
            "t.toml",
            "# header comment\n[experiment]\nid = \"fig2\" # trailing\nbudget = 40_000\n\
             flag = true\nschemes = [\"a\", \"b\"]\n[scheme.x]\nl2_entries = 192\n",
        )
        .unwrap();
        assert_eq!(doc.sections.len(), 2);
        let exp = doc.section("experiment").unwrap();
        assert_eq!(exp.items[0].value, Value::Str("fig2".into()));
        assert_eq!(exp.items[0].line, 3);
        assert_eq!(exp.items[1].value, Value::Int(40_000));
        assert_eq!(exp.items[2].value, Value::Bool(true));
        assert_eq!(
            exp.items[3].value,
            Value::Array(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(
            doc.section("scheme.x").unwrap().items[0].value,
            Value::Int(192)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = parse("t.toml", "[s]\nv = \"a \\\"q\\\" \\\\ # not a comment\"\n").unwrap();
        let Value::Str(s) = &doc.section("s").unwrap().items[0].value else {
            panic!("expected string")
        };
        assert_eq!(s, "a \"q\" \\ # not a comment");
    }

    #[test]
    fn duplicate_section_and_key_are_typed_errors() {
        let e = parse("t.toml", "[a]\n[b]\n[a]\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate section `[a]`"), "{e}");
        assert!(e.message.contains("line 1"), "{e}");
        let e = parse("t.toml", "[a]\nk = 1\nk = 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate key `k`"), "{e}");
    }

    #[test]
    fn out_of_subset_constructs_are_refused_with_lines() {
        for (text, line, frag) in [
            ("k = 1\n", 1, "before any `[section]`"),
            ("[a]\nk = 1.5\n", 2, "not a string"),
            ("[a]\nk = [1,\n2]\n", 2, "unterminated array"),
            ("[a]\nk = \"x\n", 2, "unterminated string"),
            ("[a\nk = 1\n", 1, "unterminated section"),
            ("[a]\njust words\n", 2, "expected `key = value`"),
            ("[a]\nk = [[1]]\n", 2, "nested arrays"),
            ("[a]\nk = \"x\" y\n", 2, "trailing text"),
        ] {
            let e = parse("t.toml", text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(frag), "{text:?}: {e}");
            assert_eq!(e.file, "t.toml");
        }
    }
}

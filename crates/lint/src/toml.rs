//! A minimal TOML parser covering the subset the `nf` config schema and
//! `lint.toml` use.
//!
//! Supported: `[section]` and `[nested.section]` headers,
//! `[[array-of-tables]]` headers, `key = value` pairs, dotted keys
//! (`model.name = "x"`), basic strings with the JSON escapes, integers
//! (with optional `_` separators), floats, booleans, arrays (also over
//! several lines, with comments and a trailing comma), `#` comments, and
//! blank lines. Unsupported (rejected with a line-numbered error, not
//! silently misread): multi-line and literal strings, inline tables, and
//! dates.
//!
//! Structural conflicts — a scalar assigned where a table is expected
//! (`model = 3` then `model.name = ...`, or a `[model]` header over that
//! scalar) — are typed [`DocError::Config`] errors carrying the offending
//! key path, never panics.
//!
//! The documents stay inside this subset on purpose: the workspace's
//! vendored `serde` is a no-op stub, so this parser is the offline
//! stand-in for the `toml` crate.

use crate::value::{DocError, Value};

/// A `[table]` or `[[array-of-tables]]` header of a parsed document.
pub(crate) struct Header {
    /// 1-based line of the header.
    pub(crate) line: usize,
    /// Whether it is an `[[array-of-tables]]` header.
    pub(crate) array: bool,
    /// The header's dotted path, one component per key.
    pub(crate) path: Vec<String>,
}

/// Parses a TOML document into a [`Value::Table`].
pub fn parse(input: &str) -> Result<Value, DocError> {
    parse_with_headers(input).map(|(doc, _)| doc)
}

/// Parses like [`parse`] and also lists the document's headers in order,
/// so a typed reader can point its errors at a section's line.
pub(crate) fn parse_with_headers(input: &str) -> Result<(Value, Vec<Header>), DocError> {
    let mut root = Vec::new();
    let mut headers = Vec::new();
    // Path of the currently open [section].
    let mut current: Vec<String> = Vec::new();
    let mut lines = Lines {
        iter: input.lines().enumerate(),
        lineno: 0,
    };
    while let Some(line) = lines.next_line() {
        let lineno = lines.lineno;
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let (array, header) = match header.strip_prefix('[') {
                Some(inner) => (true, inner.strip_suffix("]]")),
                None => (false, header.strip_suffix(']')),
            };
            let header = header.ok_or_else(|| err(lineno, "unterminated section header"))?;
            if header.trim().is_empty() {
                return Err(err(lineno, "empty section header"));
            }
            current = header.split('.').map(|p| p.trim().to_string()).collect();
            if current.iter().any(String::is_empty) {
                return Err(err(lineno, "empty component in section path"));
            }
            if array {
                push_table(&mut root, &current, lineno)?;
            } else {
                // Materialise the section even if it stays empty.
                table_at(&mut root, &current, lineno)?;
            }
            headers.push(Header {
                line: lineno,
                array,
                path: current.clone(),
            });
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| err(lineno, "expected `key = value` or `[section]`"))?;
        let key = key.trim();
        if key.is_empty() {
            return Err(err(lineno, "empty key"));
        }
        // Dotted keys extend the open section's path: under `[model]`,
        // `head.classes = 10` writes `model.head.classes`. A quoted key is
        // one literal component — dots inside it are not separators.
        let mut path: Vec<String> = current.clone();
        if key.contains('"') {
            let inner = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .filter(|k| !k.contains('"'))
                .ok_or_else(|| {
                    err(
                        lineno,
                        &format!(
                            "unsupported key {key:?} (quoted keys must be a single \
                             fully-quoted component)"
                        ),
                    )
                })?;
            path.push(inner.to_string());
        } else {
            path.extend(key.split('.').map(|p| p.trim().to_string()));
        }
        if path.iter().any(String::is_empty) {
            return Err(err(lineno, &format!("empty component in key {key:?}")));
        }
        let Some(leaf) = path.pop() else {
            return Err(err(lineno, "empty key"));
        };
        let (value, remainder) = parse_value(rest, &mut lines)?;
        if !remainder.trim().is_empty() {
            return Err(lines.err(&format!("trailing content after value: {remainder:?}")));
        }
        let table = table_at(&mut root, &path, lineno)?;
        if table.iter().any(|(k, _)| *k == leaf) {
            return Err(err(lineno, &format!("duplicate key {key:?}")));
        }
        table.push((leaf, value));
    }
    Ok((Value::Table(root), headers))
}

/// Reads the TOML file at `path`.
pub fn parse_file(path: &std::path::Path) -> Result<Value, DocError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DocError::Msg(format!("reading {}: {e}", path.display())))?;
    parse(&text).map_err(|e| DocError::Msg(format!("{}: {e}", path.display())))
}

fn err(line: usize, msg: &str) -> DocError {
    DocError::Toml {
        line,
        message: msg.to_string(),
    }
}

/// The document's lines, comment-stripped and trimmed, and the 1-based
/// number of the line last read. Values that span lines (arrays) read on
/// through it.
struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn next_line(&mut self) -> Option<&'a str> {
        let (idx, raw) = self.iter.next()?;
        self.lineno = idx + 1;
        Some(strip_comment(raw).trim())
    }

    /// `rest` without leading whitespace, or the next non-blank line once
    /// `rest` is used up; `None` at the end of the document.
    fn skip_blank(&mut self, rest: &'a str) -> Option<&'a str> {
        let mut rest = rest.trim_start();
        while rest.is_empty() {
            rest = self.next_line()?;
        }
        Some(rest)
    }

    fn err(&self, msg: &str) -> DocError {
        err(self.lineno, msg)
    }
}

/// Strips a `#` comment, respecting `#` inside basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return line.split_at(i).0,
            _ => escaped = false,
        }
    }
    line
}

/// Walks (creating as needed) the nested table at `path` and returns its
/// entries. A component naming an array of tables walks into the array's
/// last table, the one the latest `[[...]]` header opened.
///
/// Hitting a non-table value along the way — a scalar where a table is
/// expected — is a typed [`DocError::Config`] naming the conflicting
/// path prefix.
fn table_at<'a>(
    mut entries: &'a mut Vec<(String, Value)>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Vec<(String, Value)>, DocError> {
    let mut prefix = String::new();
    for part in path {
        if !prefix.is_empty() {
            prefix.push('.');
        }
        prefix.push_str(part);
        if !entries.iter().any(|(k, _)| k == part) {
            entries.push((part.clone(), Value::table()));
        }
        let next = entries.iter_mut().find(|(k, _)| k == part).map(|(_, v)| v);
        let kind = next.as_ref().map_or("missing", |v| v.type_name());
        entries = match next {
            Some(Value::Table(sub)) => sub,
            Some(Value::Array(items)) => match items.last_mut() {
                Some(Value::Table(sub)) => sub,
                _ => return Err(not_a_table(path, &prefix, kind, lineno)),
            },
            _ => return Err(not_a_table(path, &prefix, kind, lineno)),
        };
    }
    Ok(entries)
}

fn not_a_table(path: &[String], prefix: &str, kind: &str, lineno: usize) -> DocError {
    DocError::Config {
        path: path.join("."),
        message: format!("line {lineno}: `{prefix}` is already {kind}, not a table"),
    }
}

/// Appends a new table to the array of tables at `path` (`[[path]]`),
/// creating the array on its first header.
fn push_table(
    root: &mut Vec<(String, Value)>,
    path: &[String],
    lineno: usize,
) -> Result<(), DocError> {
    let Some((leaf, parent)) = path.split_last() else {
        return Err(err(lineno, "empty section header"));
    };
    let entries = table_at(root, parent, lineno)?;
    match entries.iter_mut().find(|(k, _)| k == leaf) {
        None => entries.push((leaf.clone(), Value::Array(vec![Value::table()]))),
        Some((_, Value::Array(items))) if matches!(items.last(), Some(Value::Table(_))) => {
            items.push(Value::table());
        }
        Some((_, other)) => {
            return Err(DocError::Config {
                path: path.join("."),
                message: format!(
                    "line {lineno}: `{}` is already {}, not an array of tables",
                    path.join("."),
                    other.type_name()
                ),
            })
        }
    }
    Ok(())
}

/// Parses one value from the front of `input`, reading on through `lines`
/// when an array continues past the line; returns it plus the rest of the
/// line it ends on.
fn parse_value<'a>(input: &'a str, lines: &mut Lines<'a>) -> Result<(Value, &'a str), DocError> {
    let input = input.trim_start();
    if let Some(body) = input.strip_prefix('"') {
        let (s, rest) = crate::json::unquote(body).map_err(|m| lines.err(&m))?;
        Ok((Value::Str(s), rest))
    } else if let Some(rest) = input.strip_prefix('[') {
        parse_array(rest, lines)
    } else if let Some(rest) = input.strip_prefix("true") {
        Ok((Value::Bool(true), rest))
    } else if let Some(rest) = input.strip_prefix("false") {
        Ok((Value::Bool(false), rest))
    } else if input.is_empty() {
        Err(lines.err("missing value"))
    } else {
        parse_number(input, lines.lineno)
    }
}

/// Parses array items after the opening `[`, across lines if need be.
fn parse_array<'a>(mut rest: &'a str, lines: &mut Lines<'a>) -> Result<(Value, &'a str), DocError> {
    let opened = lines.lineno;
    let unterminated = || err(opened, "unterminated array");
    let mut items = Vec::new();
    loop {
        rest = lines.skip_blank(rest).ok_or_else(unterminated)?;
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        let (value, after) = parse_value(rest, lines)?;
        items.push(value);
        rest = lines.skip_blank(after).ok_or_else(unterminated)?;
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma;
        } else if !rest.starts_with(']') {
            return Err(lines.err("expected `,` or `]` in array"));
        }
    }
}

fn parse_number(input: &str, lineno: usize) -> Result<(Value, &str), DocError> {
    let end = input
        .find(|c: char| !(c.is_ascii_alphanumeric() || "+-._".contains(c)))
        .unwrap_or(input.len());
    let (token, rest) = input.split_at(end);
    let cleaned: String = token.chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() {
        return Err(err(lineno, &format!("expected a value, found {input:?}")));
    }
    if !cleaned.contains(['.', 'e', 'E']) {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok((Value::Int(i), rest));
        }
    }
    match cleaned.parse::<f64>() {
        Ok(f) => Ok((Value::Float(f), rest)),
        Err(_) => Err(err(lineno, &format!("cannot parse value {token:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = r#"
# a comment
top = 1

[run]
name = "quickstart"  # trailing comment
seed = 42
frac = 0.5
flag = true
channels = [8, 16, 32]
label = "a # not a comment"

[train.inner]
lr = 1e-2
"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("top"), Some(&Value::Int(1)));
        let run = v.get("run").unwrap();
        assert_eq!(run.get("name").and_then(Value::as_str), Some("quickstart"));
        assert_eq!(run.get("seed"), Some(&Value::Int(42)));
        assert_eq!(run.get("frac"), Some(&Value::Float(0.5)));
        assert_eq!(run.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            run.get("channels").unwrap().as_array().unwrap(),
            &[Value::Int(8), Value::Int(16), Value::Int(32)]
        );
        assert_eq!(
            run.get("label").and_then(Value::as_str),
            Some("a # not a comment")
        );
        let inner = v.get("train").unwrap().get("inner").unwrap();
        assert_eq!(inner.get("lr"), Some(&Value::Float(1e-2)));
    }

    #[test]
    fn underscored_integers_and_negatives() {
        let v = parse("big = 1_000_000\nneg = -3\nnegf = -0.25").unwrap();
        assert_eq!(v.get("big"), Some(&Value::Int(1_000_000)));
        assert_eq!(v.get("neg"), Some(&Value::Int(-3)));
        assert_eq!(v.get("negf"), Some(&Value::Float(-0.25)));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#"s = "a\n\"b\"\\c""#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\"b\"\\c"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (doc, needle) in [
            ("x 1", "line 1"),
            ("[sec\nx = 1", "unterminated section"),
            ("x = 1\nx = 2", "duplicate key"),
            ("a = [1, 2", "array"),
            ("a = [", "unterminated array"),
            ("a = \"oops", "unterminated string"),
            ("a..b = 1", "empty component"),
            ("x = zebra", "cannot parse"),
        ] {
            let e = parse(doc).unwrap_err().to_string();
            assert!(e.contains(needle), "{doc:?} -> {e}");
        }
        // Arrays of tables and multi-line arrays parse (they were once
        // rejected here).
        let v = parse("[[t]]\na = 1\n[[t]]\na = 2\n").unwrap();
        let t = v.get("t").and_then(Value::as_array).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].get("a"), Some(&Value::Int(2)));
        let v = parse("a = [\n  1, # one\n  # between\n  2,\n]\nb = 3").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array),
            Some(&[Value::Int(1), Value::Int(2)][..])
        );
        assert_eq!(v.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn dotted_keys_nest() {
        let v = parse("model.name = \"vgg\"\nmodel.depth = 16\n[train]\nopt.lr = 0.1").unwrap();
        let model = v.get("model").unwrap();
        assert_eq!(model.get("name").and_then(Value::as_str), Some("vgg"));
        assert_eq!(model.get("depth"), Some(&Value::Int(16)));
        let lr = v.get("train").unwrap().get("opt").unwrap().get("lr");
        assert_eq!(lr, Some(&Value::Float(0.1)));
    }

    #[test]
    fn quoted_keys_are_single_literal_components() {
        // A dot inside a quoted key is part of the name, not a separator.
        let v = parse("\"a.b\" = 1\nplain = 2").unwrap();
        assert_eq!(v.get("a.b"), Some(&Value::Int(1)));
        assert_eq!(v.get("a"), None, "no `a` table must be created");
        // Mixed quoted/dotted keys are rejected, not silently misread.
        for doc in ["a.\"b.c\" = 1", "\"a\".b = 1", "\"a\"b\" = 1"] {
            let e = parse(doc).unwrap_err().to_string();
            assert!(e.contains("fully-quoted"), "{doc:?} -> {e}");
        }
    }

    #[test]
    fn scalar_where_table_expected_is_a_typed_config_error() {
        // The satellite case: `model = 3` then `model.name = ...` must be
        // a config error naming the path — never a panic/abort.
        let err = parse("model = 3\nmodel.name = \"x\"").unwrap_err();
        match &err {
            DocError::Config { path, message } => {
                assert_eq!(path, "model");
                assert!(message.contains("already an integer"), "{message}");
                assert!(message.contains("line 2"), "{message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(err.to_string().contains("config error at `model`"));
        // Same conflict via a section header over a scalar.
        let err = parse("model = 3\n[model]\nname = \"x\"").unwrap_err();
        assert!(matches!(err, DocError::Config { .. }), "{err}");
        // And via a deep dotted key whose prefix is a scalar.
        let err = parse("[a]\nb = true\n[x]\ny = 1\n\n[a.b.c]\nz = 2").unwrap_err();
        match err {
            DocError::Config { path, message } => {
                assert_eq!(path, "a.b.c");
                assert!(message.contains("`a.b` is already a boolean"), "{message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_with_value_to_toml() {
        let doc = "\
top = 3

[run]
name = \"x\"
ratio = 0.25
ints = [1, 2]
";
        let v = parse(doc).unwrap();
        let rendered = v.to_toml();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(v, reparsed, "rendered:\n{rendered}");
    }
}

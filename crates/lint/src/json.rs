//! A minimal JSON parser (for `nf inspect` reading `metrics.json`, and
//! the bench tools re-reading their artifacts).
//!
//! Writing JSON lives on [`crate::value::Value::to_json`]; this is the
//! other direction. Standard JSON: objects, arrays, strings with escapes
//! (including `\uXXXX`), numbers, booleans, null. Its string decoder,
//! `unquote`, also reads TOML basic strings. Like the TOML module it
//! exists because the vendored `serde` is a no-op stub.

use crate::value::{DocError, Table, Value};

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, DocError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

/// Reads the JSON file at `path`.
pub fn parse_file(path: &std::path::Path) -> Result<Value, DocError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DocError::Msg(format!("reading {}: {e}", path.display())))?;
    parse(&text).map_err(|e| DocError::Msg(format!("{}: {e}", path.display())))
}

/// Decodes the body of a double-quoted string: `input` starts just past
/// the opening quote. Returns the text and what follows the closing
/// quote. The one string decoder of both parsers: JSON's escapes
/// (`\" \\ \/ \b \f \n \r \t \uXXXX`) are a superset of the ones the
/// renderer writes for either format.
pub(crate) fn unquote(input: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = input.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Ok((out, chars.as_str())),
            '\\' => {
                let esc = chars.next().ok_or("unterminated escape")?;
                out.push(match esc {
                    '"' => '"',
                    '\\' => '\\',
                    '/' => '/',
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'b' => '\u{0008}',
                    'f' => '\u{000C}',
                    'u' => {
                        let rest = chars.as_str();
                        let (Some(hex), Some(after)) = (rest.get(..4), rest.get(4..)) else {
                            return Err("truncated \\u escape".into());
                        };
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        chars = after.chars();
                        // Surrogate pairs are not needed for our own
                        // artifacts; map lone surrogates to U+FFFD.
                        char::from_u32(code).unwrap_or('\u{FFFD}')
                    }
                    other => return Err(format!("unsupported escape \\{other}")),
                });
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> DocError {
        DocError::Msg(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    /// The unread input.
    fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), DocError> {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {token:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, DocError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, DocError> {
        self.pos += 1; // '{'
        let mut table = Table::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(table.build());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            table.insert(&key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(table.build());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, DocError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, DocError> {
        let Some(body) = self.rest().strip_prefix('"') else {
            return Err(self.err("expected string"));
        };
        let (out, after) = unquote(body).map_err(|m| self.err(&m))?;
        self.pos = self.input.len() - after.len();
        Ok(out)
    }

    fn number(&mut self) -> Result<Value, DocError> {
        let rest = self.rest();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
            .unwrap_or(rest.len());
        let token = rest.split_at(end).0;
        self.pos += end;
        if !token.contains(['.', 'e', 'E']) {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("cannot parse number {token:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, null, true], "b": {"c": "x\ny"}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                Value::Int(1),
                Value::Float(2.5),
                Value::Null,
                Value::Bool(true)
            ]
        );
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Value::as_str),
            Some("x\ny")
        );
    }

    #[test]
    fn round_trips_own_rendering() {
        let mut t = Table::new();
        t.insert("name", Value::Str("run \"1\"".into()));
        t.insert(
            "losses",
            Value::Array(vec![Value::Float(1.5), Value::Float(0.25)]),
        );
        t.insert("n", Value::Int(-7));
        t.insert("none", Value::Null);
        let t = t.build();
        let json = t.to_json();
        assert_eq!(parse(&json).unwrap(), t);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#"{"s": "Aé"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("Aé"));
    }

    #[test]
    fn malformed_documents_error() {
        for doc in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\": 1} extra", ""] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
    }
}

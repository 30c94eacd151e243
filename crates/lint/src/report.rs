//! Rendering: machine-readable JSON and human-readable text.
//!
//! The JSON report is a [`Table`] rendered by the workspace's one JSON
//! writer ([`Value::to_json`]), which escapes the dynamic strings (file
//! paths, excerpts, help text).

use crate::engine::RunResult;
use crate::value::{Table, Value};
use std::fmt::Write as _;

/// Renders the run as a single JSON object.
pub fn render_json(result: &RunResult) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let count = |n: usize| Value::Int(n as i64);
    let mut doc = Table::new();
    doc.insert("tool", text("nf-lint"));
    doc.insert("files_scanned", count(result.files_scanned));
    doc.insert("allows_used", count(result.allows_used));
    let unused = result.unused_allows.iter().map(|a| {
        let mut t = Table::new();
        t.insert("rule", text(a.rule.name()));
        t.insert("path", text(&a.path));
        t.insert("line", count(a.line));
        t.build()
    });
    doc.insert("unused_allows", Value::Array(unused.collect()));
    let findings = result.findings.iter().map(|f| {
        let mut t = Table::new();
        t.insert("rule", text(f.rule.name()));
        t.insert("file", text(&f.file));
        t.insert("line", count(f.line));
        t.insert("fn", f.func.as_deref().map_or(Value::Null, text));
        t.insert("excerpt", text(&f.excerpt));
        t.insert("help", text(&f.help));
        t.build()
    });
    doc.insert("findings", Value::Array(findings.collect()));
    doc.build().to_json()
}

/// Renders the run as human-readable text.
pub fn render_human(result: &RunResult) -> String {
    let mut out = String::new();
    for f in &result.findings {
        let _ = writeln!(out, "{}: {}:{}", f.rule.name(), f.file, f.line);
        if !f.excerpt.is_empty() {
            let _ = writeln!(out, "    | {}", f.excerpt);
        }
        let _ = writeln!(out, "    = help: {}", f.help);
    }
    for a in &result.unused_allows {
        let _ = writeln!(
            out,
            "warning: unused [[allow]] (lint.toml:{}) rule={} path={}",
            a.line,
            a.rule.name(),
            a.path
        );
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} finding(s), {} allow(s) used",
        result.files_scanned,
        result.findings.len(),
        result.allows_used
    );
    out
}

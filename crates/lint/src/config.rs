//! Typed lint configuration, loaded from a committed `lint.toml`.
//!
//! The document parses through the workspace's one TOML parser
//! ([`crate::toml`]); this module reads the typed settings out of the
//! parsed tree. Unknown sections, rule names and keys, and values of the
//! wrong kind, are errors: a typo in `lint.toml` must not silently
//! disable a rule. Errors point at the line of the offending section or
//! entry header.

use crate::rules::Rule;
use crate::toml::Header;
use crate::value::{DocError, Value};
use std::fmt;

/// A parse or validation error in `lint.toml`.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in lint.toml, when known.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        line,
        message: message.into(),
    })
}

/// Path scope shared by every rule: where it runs and where it doesn't.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Rule is skipped entirely when false.
    pub enabled: bool,
    /// Path prefixes (relative, forward slashes) the rule applies to.
    pub paths: Vec<String>,
    /// Path prefixes carved back out of `paths`.
    pub exclude: Vec<String>,
}

impl Scope {
    /// Whether `path` (relative, forward slashes) is inside this scope.
    pub fn contains(&self, path: &str) -> bool {
        self.enabled
            && self.paths.iter().any(|p| path.starts_with(p.as_str()))
            && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// One `[[allow]]` entry: a justified, narrowly-scoped suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Which rule the entry suppresses.
    pub rule: Rule,
    /// Path prefix the suppression applies to.
    pub path: String,
    /// Optional substring that must appear in the finding's source line.
    pub pattern: Option<String>,
    /// Optional enclosing-function name the finding must sit in.
    pub func: Option<String>,
    /// Mandatory human explanation; the tool refuses empty ones.
    pub justification: String,
    /// lint.toml line the entry starts on (for unused-allow reporting).
    pub line: usize,
}

/// One `[[unsafe-module]]` entry: a file where `unsafe` is permitted
/// (every use still needs a SAFETY comment), with a mandatory
/// justification for why this module gets the exemption at all.
#[derive(Debug, Clone)]
pub struct UnsafeModule {
    /// Path suffix (relative, forward slashes) of the exempted module.
    pub path: String,
    /// Mandatory human explanation; the tool refuses empty ones.
    pub justification: String,
    /// lint.toml line the entry starts on.
    pub line: usize,
}

/// The full typed configuration.
#[derive(Debug, Default)]
pub struct LintConfig {
    /// Scope for `hot-path-alloc` plus its rule-specific path lists.
    pub hot_path_alloc: Scope,
    /// Kernel modules where all allocation is forbidden.
    pub kernel_paths: Vec<String>,
    /// Paths where `*_into` function bodies are additionally policed.
    pub into_paths: Vec<String>,
    /// Scope for `no-panic`.
    pub no_panic: Scope,
    /// Scope for `unsafe-confinement`.
    pub unsafe_confinement: Scope,
    /// Modules where `unsafe` is permitted, each with a justification.
    pub unsafe_modules: Vec<UnsafeModule>,
    /// Scope for `clock-discipline`.
    pub clock_discipline: Scope,
    /// Scope for `determinism`.
    pub determinism: Scope,
    /// Scope for `lint-hygiene`.
    pub lint_hygiene: Scope,
    /// All `[[allow]]` entries in file order.
    pub allows: Vec<AllowEntry>,
}

impl LintConfig {
    /// The scope for a given rule.
    pub fn scope(&self, rule: Rule) -> &Scope {
        match rule {
            Rule::HotPathAlloc => &self.hot_path_alloc,
            Rule::NoPanic => &self.no_panic,
            Rule::UnsafeConfinement => &self.unsafe_confinement,
            Rule::ClockDiscipline => &self.clock_discipline,
            Rule::Determinism => &self.determinism,
            Rule::LintHygiene => &self.lint_hygiene,
        }
    }
}

/// Parses the full `lint.toml` text into a validated [`LintConfig`].
pub fn parse(text: &str) -> Result<LintConfig, ConfigError> {
    let (doc, headers) = crate::toml::parse_with_headers(text).map_err(|e| match e {
        DocError::Toml { line, message } => ConfigError { line, message },
        // A structural conflict names its line in the message.
        other => ConfigError {
            line: 0,
            message: other.to_string(),
        },
    })?;
    let line_of = |path: &[&str]| {
        headers
            .iter()
            .find(|h| h.path == path)
            .map_or(0, |h| h.line)
    };
    let mut cfg = LintConfig::default();
    for (key, value) in doc.entries().unwrap_or_default() {
        match key.as_str() {
            "rules" if value.entries().is_some() => {
                for (name, table) in value.entries().unwrap_or_default() {
                    let line = line_of(&["rules", name]);
                    let Some(rule) = Rule::from_name(name) else {
                        return err(line, format!("unknown rule `{name}`"));
                    };
                    read_rule(&mut cfg, rule, table, line)?;
                }
            }
            "allow" => {
                for (entry, line) in entries(value, key, &headers)? {
                    cfg.allows.push(read_allow(entry, line)?);
                }
            }
            "unsafe-module" => {
                for (entry, line) in entries(value, key, &headers)? {
                    cfg.unsafe_modules.push(read_unsafe_module(entry, line)?);
                }
            }
            other if value.entries().is_some() => {
                return err(line_of(&[other]), format!("unknown section `[{other}]`"));
            }
            other => return err(0, format!("key `{other}` outside any section")),
        }
    }
    Ok(cfg)
}

/// The tables of the `[[name]]` entries, each with its header's line.
fn entries<'a>(
    value: &'a Value,
    name: &str,
    headers: &[Header],
) -> Result<Vec<(&'a Value, usize)>, ConfigError> {
    let mut lines = headers
        .iter()
        .filter(|h| h.array && h.path == [name])
        .map(|h| h.line);
    let Some(items) = value.as_array() else {
        return err(0, format!("`{name}` must be a list of [[{name}]] entries"));
    };
    Ok(items
        .iter()
        .map(|item| (item, lines.next().unwrap_or(0)))
        .collect())
}

/// An array of strings, or `None` for any other value.
fn strings(value: &Value) -> Option<Vec<String>> {
    value
        .as_array()?
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect()
}

/// Reads one `[rules.<name>]` table into `rule`'s scope. Appearing in the
/// file turns the rule on unless it sets `enabled = false` explicitly.
fn read_rule(
    cfg: &mut LintConfig,
    rule: Rule,
    table: &Value,
    line: usize,
) -> Result<(), ConfigError> {
    let scope = match rule {
        Rule::HotPathAlloc => &mut cfg.hot_path_alloc,
        Rule::NoPanic => &mut cfg.no_panic,
        Rule::UnsafeConfinement => &mut cfg.unsafe_confinement,
        Rule::ClockDiscipline => &mut cfg.clock_discipline,
        Rule::Determinism => &mut cfg.determinism,
        Rule::LintHygiene => &mut cfg.lint_hygiene,
    };
    let Some(keys) = table.entries() else {
        return err(line, format!("`rules.{}` must be a table", rule.name()));
    };
    scope.enabled = true;
    for (key, value) in keys {
        match (rule, key.as_str(), value.as_bool(), strings(value)) {
            (_, "enabled", Some(on), _) => scope.enabled = on,
            (_, "paths", _, Some(items)) => scope.paths = items,
            (_, "exclude", _, Some(items)) => scope.exclude = items,
            (Rule::HotPathAlloc, "kernel_paths", _, Some(items)) => cfg.kernel_paths = items,
            (Rule::HotPathAlloc, "into_paths", _, Some(items)) => cfg.into_paths = items,
            (Rule::HotPathAlloc, "kernel_paths" | "into_paths", _, None) => {
                return err(line, format!("{key} must be an array of strings"));
            }
            (Rule::UnsafeConfinement, "allowed", ..) => {
                // The bare suffix list predates justifications; refuse it
                // with a pointer so a stale config fails loudly.
                return err(
                    line,
                    "`allowed` was replaced by [[unsafe-module]] entries \
                     (path + mandatory justification)",
                );
            }
            (_, other, ..) => {
                return err(
                    line,
                    format!(
                        "unknown or mistyped key `{other}` for rule `{}`",
                        rule.name()
                    ),
                )
            }
        }
    }
    Ok(())
}

/// Checks that `entry` (an `[[<name>]]` table) sets only string-valued
/// `keys`, and returns a reader for them.
fn string_keys<'a>(
    entry: &'a Value,
    name: &str,
    keys: &[&str],
    line: usize,
) -> Result<impl Fn(&str) -> Option<String> + 'a, ConfigError> {
    for (key, value) in entry.entries().unwrap_or_default() {
        if !keys.contains(&key.as_str()) || value.as_str().is_none() {
            return err(
                line,
                format!("unknown or mistyped key `{key}` in [[{name}]]"),
            );
        }
    }
    Ok(|key: &str| entry.get(key).and_then(Value::as_str).map(str::to_string))
}

fn read_allow(entry: &Value, line: usize) -> Result<AllowEntry, ConfigError> {
    let get = string_keys(
        entry,
        "allow",
        &["rule", "path", "pattern", "fn", "justification"],
        line,
    )?;
    let Some(name) = get("rule") else {
        return err(line, "[[allow]] entry is missing `rule`");
    };
    let Some(rule) = Rule::from_name(&name) else {
        return err(line, format!("unknown rule `{name}` in [[allow]]"));
    };
    let Some(path) = get("path") else {
        return err(line, "[[allow]] entry is missing `path`");
    };
    let justification = get("justification").unwrap_or_default();
    if justification.trim().is_empty() {
        return err(
            line,
            "[[allow]] entry has no justification — every suppression must say why",
        );
    }
    Ok(AllowEntry {
        rule,
        path,
        pattern: get("pattern"),
        func: get("fn"),
        justification,
        line,
    })
}

fn read_unsafe_module(entry: &Value, line: usize) -> Result<UnsafeModule, ConfigError> {
    let get = string_keys(entry, "unsafe-module", &["path", "justification"], line)?;
    let Some(path) = get("path") else {
        return err(line, "[[unsafe-module]] entry is missing `path`");
    };
    let justification = get("justification").unwrap_or_default();
    if justification.trim().is_empty() {
        return err(
            line,
            "[[unsafe-module]] entry has no justification — every unsafe exemption must say why",
        );
    }
    Ok(UnsafeModule {
        path,
        justification,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scopes_and_allows() {
        let cfg = parse(
            r#"
# comment
[rules.no-panic]
paths = ["crates/cli/src/serve.rs", "crates/core/src/serve.rs"]

[rules.clock-discipline]
paths = ["crates/"]
exclude = ["crates/bench/"]

[[allow]]
rule = "clock-discipline"
path = "crates/cli/src/loadgen.rs"
pattern = "Instant::now"
justification = "loadgen measures real client-observed latency"
"#,
        )
        .unwrap();
        assert!(cfg.no_panic.contains("crates/cli/src/serve.rs"));
        assert!(!cfg.no_panic.contains("crates/cli/src/main.rs"));
        assert!(cfg.clock_discipline.contains("crates/core/src/lib.rs"));
        assert!(!cfg.clock_discipline.contains("crates/bench/src/lib.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].pattern.as_deref(), Some("Instant::now"));
        // Rules without a section stay disabled.
        assert!(!cfg.determinism.enabled);
    }

    #[test]
    fn unsafe_modules_parse_with_justifications() {
        let cfg = parse(
            r#"
[rules.unsafe-confinement]
paths = ["crates/"]

[[unsafe-module]]
path = "kernels/simd.rs"
justification = "SIMD intrinsics"

[[unsafe-module]]
path = "net/sys.rs"
justification = "epoll bindings"
"#,
        )
        .unwrap();
        assert_eq!(cfg.unsafe_modules.len(), 2);
        assert_eq!(cfg.unsafe_modules[1].path, "net/sys.rs");
        assert_eq!(cfg.unsafe_modules[1].justification, "epoll bindings");
    }

    #[test]
    fn unsafe_module_without_justification_is_an_error() {
        let e = parse("[[unsafe-module]]\npath = \"net/sys.rs\"\n").unwrap_err();
        assert!(e.message.contains("justification"), "{e}");
        let e = parse("[[unsafe-module]]\njustification = \"why\"\n").unwrap_err();
        assert!(e.message.contains("path"), "{e}");
    }

    #[test]
    fn legacy_allowed_key_points_at_unsafe_module() {
        let e = parse("[rules.unsafe-confinement]\nallowed = [\"kernels/simd.rs\"]\n").unwrap_err();
        assert!(e.message.contains("unsafe-module"), "{e}");
    }

    #[test]
    fn missing_justification_is_an_error() {
        let e = parse("[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"\njustification = \"  \"\n")
            .unwrap_err();
        assert!(e.message.contains("justification"));
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        assert!(parse("[rules.no-such-rule]\n").is_err());
        assert!(parse("[rules.no-panic]\nbogus = true\n").is_err());
        assert!(parse("[[allow]]\nrule = \"no-panic\"\n").is_err());
        // Validation errors point at their section header, parse errors
        // at the offending line.
        assert_eq!(
            parse("# c\n[rules.no-panic]\nbogus = true\n")
                .unwrap_err()
                .line,
            2
        );
        assert_eq!(
            parse("[rules.no-panic]\npaths = [\n\"a\",\n")
                .unwrap_err()
                .line,
            2
        );
        assert_eq!(
            parse("\n[rules.no-panic]\npaths = 1 2\n").unwrap_err().line,
            3
        );
    }

    #[test]
    fn unused_allow_reports_its_header_line() {
        let cfg = parse(
            "# one\n# two\n\n[rules.determinism]\npaths = [\n  \"crates/\", # all\n]\n\n\
             # why\n[[allow]]\nrule = \"determinism\"\npath = \"crates/x.rs\"\n\
             justification = \"never iterated\"\n",
        )
        .unwrap();
        // No workspace files: the allow matches nothing.
        let run = crate::engine::run(std::path::Path::new("no-such-workspace"), &cfg).unwrap();
        assert_eq!(run.unused_allows.len(), 1);
        let report = crate::render_human(&run);
        assert!(
            report.contains("unused [[allow]] (lint.toml:10)"),
            "{report}"
        );
    }

    #[test]
    fn committed_lint_toml_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
        let cfg = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let enabled = Rule::ALL.into_iter().filter(|&r| cfg.scope(r).enabled);
        assert_eq!(enabled.count(), 6);
        assert_eq!(cfg.allows.len(), 20);
        assert_eq!(cfg.unsafe_modules.len(), 3);
    }
}

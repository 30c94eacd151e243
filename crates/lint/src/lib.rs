//! `nf-lint`: the workspace invariant checker.
//!
//! Statically enforces the contracts the rest of the workspace only
//! checks dynamically: zero allocation in tensor kernels and `*_into`
//! bodies (PR 3's counting-allocator tests), panic-freedom in the
//! serve/proto/loadgen layer (PR 7), `unsafe` confined to the two SIMD
//! modules with `// SAFETY:` comments, wall-clock/sleep discipline
//! outside `Clock` impls (PR 8's idle-CPU test), `HashMap`-free code
//! where bit-identity is pinned, and crate-root lint hygiene.
//!
//! Deliberately dependency-free: a hand-rolled lexer ([`lexer`]) and
//! document codec mean the checker builds wherever the toolchain does
//! and is never skewed by the code it checks. The codec — the [`Value`]
//! tree, the [`toml`] and [`json`] parsers, and the renderers on
//! [`Value`] — is the workspace's only one: `nf-cli` reads its configs
//! and writes its artifacts through it too. Driven by the committed
//! `lint.toml`, whose every `[[allow]]` entry must carry a
//! justification string.
//!
//! This crate uses `BTreeMap`-style ordering throughout its own output:
//! findings sort by (file, line, rule), so runs are byte-identical.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod config;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod toml;
pub mod value;

pub use config::{ConfigError, LintConfig};
pub use engine::{run, workspace_files, EngineError, RunResult};
pub use report::{render_human, render_json};
pub use rules::{Finding, Rule};
pub use value::{DocError, Table, Value};

use std::path::Path;

/// Loads `lint.toml` from `root` and lints the workspace beneath it.
///
/// This is the one entry point both binaries (`nf-lint` and `nf lint`)
/// call; exit-code policy stays with the callers.
pub fn lint_workspace(root: &Path) -> Result<RunResult, String> {
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&text).map_err(|e| e.to_string())?;
    engine::run(root, &cfg).map_err(|e| e.to_string())
}

//! Config serde round-trip: TOML file → `RunConfig` → rendered snapshot →
//! `RunConfig`, asserting full equality (the property `runs/<name>/config.toml`
//! snapshots rely on), the schema documentation in `DESIGN.md` §6
//! pinned to the schema, and random documents round-tripping through the
//! JSON and TOML codecs.

use nf_cli::{RunConfig, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::collections::BTreeSet;
use std::path::Path;

fn workspace_file(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn reparse(rendered: &str) -> RunConfig {
    RunConfig::from_value(&nf_cli::toml::parse(rendered).unwrap()).unwrap()
}

#[test]
fn every_example_config_round_trips_and_resolves() {
    let examples: Vec<_> = std::fs::read_dir(workspace_file("examples"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    assert!(examples.len() >= 4, "{examples:?}");
    for path in &examples {
        let cfg = RunConfig::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rendered = cfg.to_value().to_toml();
        assert_eq!(cfg, reparse(&rendered), "{}:\n{rendered}", path.display());
        cfg.resolve().unwrap();
    }
}

#[test]
fn quickstart_example_round_trips() {
    let cfg = RunConfig::load(&workspace_file("examples/quickstart.toml")).unwrap();
    assert_eq!(cfg.run.name, "quickstart");
    let rendered = cfg.to_value().to_toml();
    assert_eq!(cfg, reparse(&rendered), "snapshot:\n{rendered}");
}

#[test]
fn sweep_example_round_trips_and_resolves() {
    let cfg = RunConfig::load(&workspace_file("examples/sweep.toml")).unwrap();
    let sweep = cfg.sweep.as_ref().expect("sweep section");
    assert_eq!(sweep.devices, ["agx-orin"]);
    assert_eq!(sweep.budgets_mb.len(), 5);
    assert_eq!(cfg, reparse(&cfg.to_value().to_toml()));
    // The model section resolves to the real VGG-16 at CIFAR geometry.
    let (model, dataset, _) = cfg.resolve().unwrap();
    assert_eq!(model.name, "vgg16");
    assert_eq!(dataset.classes, 10);
}

/// Every `section.key` path set in a document.
fn key_paths(doc: &nf_cli::Value) -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    for (section, table) in doc.entries().unwrap() {
        for (key, _) in table.entries().unwrap() {
            paths.insert(format!("{section}.{key}"));
        }
    }
    paths
}

#[test]
fn design_schema_block_matches_the_schema() {
    // DESIGN.md §6 documents every key in one ```toml block. Unknown keys
    // are errors, so the block parsing proves every documented key
    // exists; its snapshot writing back exactly the block's keys proves
    // every schema key is documented.
    let design = std::fs::read_to_string(workspace_file("DESIGN.md")).unwrap();
    let section = &design[design.find("## §6 Config schema").unwrap()..];
    let block = section.split("```toml\n").nth(1).unwrap();
    let block = &block[..block.find("```").unwrap()];
    let doc = nf_cli::toml::parse(block).unwrap();
    let cfg = RunConfig::from_value(&doc).unwrap();
    // `budget_mb` is the documented input alias of `budget_bytes`.
    let documented: BTreeSet<String> = key_paths(&doc)
        .into_iter()
        .map(|path| path.replace("train.budget_mb", "train.budget_bytes"))
        .collect();
    assert_eq!(key_paths(&cfg.to_value()), documented);
}

#[test]
fn json_config_parses_too() {
    let json = r#"{
        "run": {"name": "fromjson"},
        "model": {"preset": "tiny", "channels": [4, 8]},
        "dataset": {"preset": "quick", "classes": 3, "image_hw": 8, "train": 32},
        "train": {"budget_mb": 16, "batch_limit": 8}
    }"#;
    let value = nf_cli::json::parse(json).unwrap();
    let cfg = RunConfig::from_value(&value).unwrap();
    assert_eq!(cfg.run.name, "fromjson");
    let (model, _, nf) = cfg.resolve().unwrap();
    assert_eq!(model.num_units(), 2);
    assert_eq!(nf.budget_bytes, 16_000_000);
}

#[test]
fn spec_serialization_survives_model_resolution() {
    // The resolved ModelSpec must be reconstructible purely from the
    // snapshot (same preset + knobs ⇒ same spec) — the property resume
    // relies on to rebuild the architecture in a fresh process.
    let cfg = RunConfig::load(&workspace_file("examples/quickstart.toml")).unwrap();
    let reparsed = reparse(&cfg.to_value().to_toml());
    let (a, da, ca) = cfg.resolve().unwrap();
    let (b, db, cb) = reparsed.resolve().unwrap();
    assert_eq!(a, b);
    assert_eq!(da, db);
    assert_eq!(ca, cb);
    // Sanity on the metrics document model too.
    let mut doc = nf_cli::Table::new();
    doc.insert("config", cfg.to_value());
    let json = doc.build().to_json();
    let back = nf_cli::json::parse(&json).unwrap();
    let from_json = RunConfig::from_value(back.get("config").unwrap()).unwrap();
    assert_eq!(from_json, cfg);
}

/// Random documents for the codec round trip: finite floats (whole ones
/// from 1e15 up included), strings with quotes, `#`, backslashes, control
/// characters and non-ASCII, nested tables, and arrays. TOML documents
/// leave out `Null` and arrays of tables, which the TOML renderer does not
/// write, use bare keys, and list scalars before sub-tables, the order
/// the renderer writes them in.
struct Doc {
    toml: bool,
}

impl Strategy for Doc {
    type Value = Value;

    fn sample(&self, rng: &mut StdRng) -> Value {
        random_table(rng, self.toml, 0)
    }
}

fn random_table(rng: &mut StdRng, toml: bool, depth: usize) -> Value {
    let mut table = Table::new();
    for i in 0..rng.gen_range(0..5) {
        let key = if toml {
            format!(
                "{}{i}",
                ["k", "snake_key", "kebab-key"][rng.gen_range(0..3usize)]
            )
        } else {
            random_string(rng)
        };
        let value = if rng.gen_bool(0.25) {
            let items = 0..rng.gen_range(0..4);
            Value::Array(items.map(|_| random_item(rng, toml, depth)).collect())
        } else {
            random_scalar(rng, toml)
        };
        table.insert(&key, value);
    }
    if depth < 2 {
        for i in 0..rng.gen_range(0..3) {
            table.insert(&format!("t{i}"), random_table(rng, toml, depth + 1));
        }
    }
    table.build()
}

fn random_item(rng: &mut StdRng, toml: bool, depth: usize) -> Value {
    if toml || depth >= 2 || rng.gen_bool(0.7) {
        random_scalar(rng, toml)
    } else {
        random_table(rng, toml, depth + 1)
    }
}

fn random_scalar(rng: &mut StdRng, toml: bool) -> Value {
    match rng.gen_range(0..if toml { 5 } else { 6 }) {
        0 => Value::Bool(rng.gen_bool(0.5)),
        1 => Value::Int(rng.next_u64() as i64),
        2 | 3 => Value::Float(random_float(rng)),
        4 => Value::Str(random_string(rng)),
        _ => Value::Null,
    }
}

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3) {
        0 => rng.gen_range(-1e6f64..1e6),
        // Whole floats from 1e15 up, which `{f}` prints with no fraction.
        1 => {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            (sign * 10f64.powi(rng.gen_range(15..300)) * rng.gen_range(1.0f64..10.0)).trunc()
        }
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn random_string(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '#', '\\', '=', '[', ']', '.', ',', '\n', '\t', '\r', '\u{0}',
        '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', '中', '🦀',
    ];
    (0..rng.gen_range(0..8))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn documents_round_trip_through_json_and_toml(
        json_doc in Doc { toml: false },
        toml_doc in Doc { toml: true },
    ) {
        let json = json_doc.to_json();
        let back = nf_cli::json::parse(&json).map_err(|e| e.to_string());
        prop_assert_eq!(back, Ok(json_doc));
        let toml = toml_doc.to_toml();
        let back = nf_cli::toml::parse(&toml).map_err(|e| e.to_string());
        prop_assert_eq!(back, Ok(toml_doc));
    }
}

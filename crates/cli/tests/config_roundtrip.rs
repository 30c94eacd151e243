//! Config serde round-trip: TOML file → `RunConfig` → rendered snapshot →
//! `RunConfig`, asserting full equality (the property `runs/<name>/config.toml`
//! snapshots rely on), and the schema documentation in `DESIGN.md` §6
//! pinned to the schema.

use nf_cli::RunConfig;
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

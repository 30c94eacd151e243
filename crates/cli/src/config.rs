//! The `nf` config schema: typed sections, TOML/JSON loading, resolution
//! into workspace types, and snapshot rendering.
//!
//! A run config has five sections — `[run]`, `[model]`, `[dataset]`,
//! `[train]`, and optionally `[baseline]` / `[sweep]` — documented field
//! by field in `DESIGN.md` §6. Each section lists its keys once and takes
//! its defaults from its `Default`; [`RunConfig::from_value`] reads a
//! parsed [`Value`] through that listing (rejecting unknown keys), and
//! [`RunConfig::to_value`] renders the *resolved* config back out through
//! it, which is what `runs/<name>/config.toml` snapshots (a snapshot
//! re-parses to an identical `RunConfig`, the round-trip property the
//! tests pin).

use crate::error::{CliError, Result};
use neuroflux_core::{CodecKind, NeuroFluxConfig};
use nf_data::SyntheticSpec;
use nf_lint::{Table, Value};
use nf_models::{AuxPolicy, ModelSpec};
use nf_tensor::KernelBackend;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// `[run]`: identity and placement of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSection {
    /// Run name; the run directory is `<out_dir>/<name>`.
    pub name: String,
    /// Master seed for model init and planning (dataset has its own).
    pub seed: u64,
    /// Directory run artifacts are written under.
    pub out_dir: String,
}

impl Default for RunSection {
    fn default() -> Self {
        RunSection {
            name: String::new(),
            seed: 0,
            out_dir: "runs".to_string(),
        }
    }
}

/// `[model]`: which architecture to train.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSection {
    /// `vgg11|vgg16|vgg19|resnet18|mobilenet` or `tiny`.
    pub preset: String,
    /// Conv channels per unit (`tiny` only).
    pub channels: Option<Vec<usize>>,
    /// Channel-scale factor applied to a named preset (e.g. `0.25` for
    /// CPU-sized runs; `DESIGN.md` §2).
    pub scale: Option<f64>,
    /// Rounding granularity for `scale` (default 4).
    pub granularity: usize,
    /// Square input resolution override. Defaults to the dataset's
    /// `image_hw`; the model is re-headed to match.
    pub input_size: Option<usize>,
}

impl Default for ModelSection {
    fn default() -> Self {
        ModelSection {
            preset: String::new(),
            channels: None,
            scale: None,
            granularity: 4,
            input_size: None,
        }
    }
}

/// `[dataset]`: which synthetic dataset to generate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetSection {
    /// `cifar10|cifar100|tiny-imagenet` or `quick`.
    pub preset: String,
    /// Class count (`quick` only).
    pub classes: Option<usize>,
    /// Square image size (`quick` only).
    pub image_hw: Option<usize>,
    /// Training-split size.
    pub train: usize,
    /// Validation-split size (default `train / 4`).
    pub val: Option<usize>,
    /// Test-split size (default `train / 4`).
    pub test: Option<usize>,
    /// Pixel-noise override.
    pub noise: Option<f64>,
    /// Dataset seed override.
    pub seed: Option<u64>,
}

/// `[train]`: the NeuroFlux run configuration (§0 inputs + loop knobs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSection {
    /// GPU memory budget in bytes (configs may write `budget_mb` instead;
    /// 1 MB = 10⁶ bytes, the paper's unit).
    pub budget_bytes: u64,
    /// Batch-size cap (Algorithm 1, line 4).
    pub batch_limit: usize,
    /// Grouping threshold ρ.
    pub rho: f64,
    /// Learning rate.
    pub lr: f64,
    /// SGD momentum.
    pub momentum: f64,
    /// Epochs per block.
    pub epochs_per_block: usize,
    /// Early-exit selection tolerance (accuracy points, 0–1).
    pub exit_tolerance: f64,
    /// Whether trained blocks round-trip through serialised storage.
    pub evict_params: bool,
    /// GEMM kernel backend (`naive|blocked|blocked-parallel|auto`; `auto`
    /// — the default — benchmarks tile sizes and thread splits per shape
    /// class at first use and caches the winning plan).
    pub kernel_backend: KernelBackend,
    /// Auxiliary-head policy (`adaptive|classic|fixed:<n>`).
    pub aux_policy: AuxPolicy,
    /// Whether frozen blocks consume int8-cached activations through the
    /// integer GEMM path without decoding to f32 (requires
    /// `[cache].codec = "int8"` to take effect; training stays f32).
    pub int8_compute: bool,
}

impl Default for TrainSection {
    fn default() -> Self {
        TrainSection {
            budget_bytes: 0,
            batch_limit: 0,
            rho: 0.4,
            lr: 0.05,
            momentum: 0.9,
            epochs_per_block: 3,
            exit_tolerance: 0.005,
            evict_params: true,
            kernel_backend: KernelBackend::default(),
            aux_policy: AuxPolicy::Adaptive,
            int8_compute: false,
        }
    }
}

/// `[cache]`: how the activation cache stores block outputs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSection {
    /// Activation-cache codec: `f32` (bit-exact, the default), `f16`
    /// (half precision, 2× smaller), or `int8` (per-channel quantized,
    /// ~4× smaller). See `DESIGN.md` §10.
    pub codec: CodecKind,
}

/// `[baseline]`: knobs for `nf baseline <bp|ll|fa|sp>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSection {
    /// Training epochs.
    pub epochs: usize,
    /// Fixed batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for BaselineSection {
    fn default() -> Self {
        BaselineSection {
            epochs: 5,
            batch: 16,
            lr: 0.05,
        }
    }
}

/// `[federated]`: knobs for `nf federated` (the parallel multi-client
/// FedAvg engine in `neuroflux-core`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedSection {
    /// Number of clients the training split is sharded across.
    pub clients: usize,
    /// Synchronous FedAvg rounds.
    pub rounds: usize,
    /// Client-training worker threads (`0` = one per core, `1` =
    /// sequential; results are bit-identical either way).
    pub threads: usize,
    /// Shard strategy: `round-robin`, `by-label`, or `dirichlet:<alpha>`.
    pub strategy: String,
    /// Sharding/client-stream seed override (defaults to `[run].seed`).
    pub seed: Option<u64>,
}

impl Default for FederatedSection {
    fn default() -> Self {
        FederatedSection {
            clients: 4,
            rounds: 3,
            threads: 0,
            strategy: "round-robin".to_string(),
            seed: None,
        }
    }
}

/// `[serve]`: knobs for the `nf serve` inference service (and the
/// in-process server `nf loadgen` spins up). Every key has a default, so
/// the section is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSection {
    /// Listen address; port 0 picks a free port (printed at startup).
    pub addr: String,
    /// Cascade exit threshold (max softmax probability).
    pub threshold: f64,
    /// Largest micro-batch formed per inference pass.
    pub max_batch: usize,
    /// Bounded request-queue capacity (admission control).
    pub queue_capacity: usize,
    /// How long the batcher waits for a batch to fill (µs), measured from
    /// the oldest queued arrival.
    pub batch_window_us: u64,
    /// Queue deadline for `fast`-tier requests (µs).
    pub fast_deadline_us: u64,
    /// Queue deadline for `balanced`-tier requests (µs).
    pub balanced_deadline_us: u64,
    /// Queue deadline for `exact`-tier requests (µs).
    pub exact_deadline_us: u64,
    /// Batcher/model replicas sharing the admission queue; 0 = one per
    /// host core. Each replica owns a bit-identical model clone.
    pub replicas: usize,
    /// Per-connection reply-outbox cap (KiB): a client that stops reading
    /// while this many reply bytes pile up is disconnected (backpressure).
    pub outbox_kib: usize,
    /// Whether a client may stop the server with a shutdown frame (the
    /// in-process loadgen/test harness turns this on; defaults to off).
    pub allow_shutdown: bool,
}

impl Default for ServeSection {
    fn default() -> Self {
        let p = neuroflux_core::ServePolicy::default();
        let [fast_deadline_us, balanced_deadline_us, exact_deadline_us] = p.deadline_us;
        ServeSection {
            addr: "127.0.0.1:0".to_string(),
            threshold: p.threshold as f64,
            max_batch: p.max_batch,
            queue_capacity: p.queue_capacity,
            batch_window_us: p.batch_window_us,
            fast_deadline_us,
            balanced_deadline_us,
            exact_deadline_us,
            replicas: p.replicas,
            outbox_kib: p.outbox_kib,
            allow_shutdown: false,
        }
    }
}

/// `[loadgen]`: the deterministic load generator `nf loadgen` drives the
/// server with. Every key has a default, so the section is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenSection {
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client connections (closed-loop each).
    pub connections: usize,
    /// Total requests in flight across all connections (keep-alive
    /// pipelining); 0 = `connections`, i.e. one in flight per connection
    /// (plain closed loop). Must be ≥ `connections` when set.
    pub inflight: usize,
    /// Relative traffic weights for the `fast`/`balanced`/`exact` tiers.
    pub tier_weights: [usize; 3],
    /// Request-stream seed override (defaults to `[run].seed`).
    pub seed: Option<u64>,
}

impl Default for LoadgenSection {
    fn default() -> Self {
        LoadgenSection {
            requests: 256,
            connections: 4,
            inflight: 0,
            tier_weights: [1, 1, 1],
            seed: None,
        }
    }
}

/// `[sweep]`: device-budget sweep for `nf sweep` (runs the analytic
/// `nf-memsim` models, not real training).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSection {
    /// Device slugs (`pi4b|jetson-nano|xavier-nx|agx-orin`, or `host` —
    /// *this* machine, profiled live from measured GEMM/codec primitives).
    pub devices: Vec<String>,
    /// Memory budgets to sweep, in MB (10⁶ bytes).
    pub budgets_mb: Vec<u64>,
    /// Batch-size cap.
    pub batch_limit: usize,
    /// Simulated training epochs.
    pub epochs: usize,
    /// Simulated training-set size.
    pub samples: usize,
}

impl Default for SweepSection {
    fn default() -> Self {
        SweepSection {
            devices: Vec::new(),
            budgets_mb: Vec::new(),
            batch_limit: 512,
            epochs: 30,
            samples: 50_000,
        }
    }
}

/// A fully-parsed `nf` config file. `Default` holds every documented
/// default, with empty placeholders for the keys a document must set.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// `[run]` section.
    pub run: RunSection,
    /// `[model]` section.
    pub model: ModelSection,
    /// `[dataset]` section.
    pub dataset: DatasetSection,
    /// `[train]` section.
    pub train: TrainSection,
    /// `[cache]` section (optional in the document; defaults to the
    /// bit-exact `f32` codec and always appears in snapshots).
    pub cache: CacheSection,
    /// `[baseline]` section (optional; defaults used by `nf baseline`).
    pub baseline: Option<BaselineSection>,
    /// `[sweep]` section (required by `nf sweep` only).
    pub sweep: Option<SweepSection>,
    /// `[federated]` section (required by `nf federated` only).
    pub federated: Option<FederatedSection>,
    /// `[serve]` section (optional; defaults used by `nf serve`).
    pub serve: Option<ServeSection>,
    /// `[loadgen]` section (optional; defaults used by `nf loadgen`).
    pub loadgen: Option<LoadgenSection>,
}

/// A table of the schema: its key listing, in snapshot order, over the
/// documented defaults its `Default` holds.
trait Section: Clone + Default {
    /// Visits every key once.
    fn keys(&mut self, s: &mut impl Visit) -> Result<()>;
}

impl Section for RunConfig {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.req("run", &mut self.run)?;
        s.req("model", &mut self.model)?;
        s.req("dataset", &mut self.dataset)?;
        s.req("train", &mut self.train)?;
        s.key("cache", &mut self.cache)?;
        s.key("baseline", &mut self.baseline)?;
        s.key("sweep", &mut self.sweep)?;
        s.key("federated", &mut self.federated)?;
        s.key("serve", &mut self.serve)?;
        s.key("loadgen", &mut self.loadgen)
    }
}

impl Section for RunSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.req("name", &mut self.name)?;
        s.key("seed", &mut self.seed)?;
        s.key("out_dir", &mut self.out_dir)
    }
}

impl Section for ModelSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.req("preset", &mut self.preset)?;
        s.key("channels", &mut self.channels)?;
        s.key("scale", &mut self.scale)?;
        s.key("granularity", &mut self.granularity)?;
        s.key("input_size", &mut self.input_size)
    }
}

impl Section for DatasetSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.req("preset", &mut self.preset)?;
        s.key("classes", &mut self.classes)?;
        s.key("image_hw", &mut self.image_hw)?;
        s.req("train", &mut self.train)?;
        s.key("val", &mut self.val)?;
        s.key("test", &mut self.test)?;
        s.key("noise", &mut self.noise)?;
        s.key("seed", &mut self.seed)
    }
}

impl Section for TrainSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("budget_bytes", &mut self.budget_bytes)?;
        s.req("batch_limit", &mut self.batch_limit)?;
        s.key("rho", &mut self.rho)?;
        s.key("lr", &mut self.lr)?;
        s.key("momentum", &mut self.momentum)?;
        s.key("epochs_per_block", &mut self.epochs_per_block)?;
        s.key("exit_tolerance", &mut self.exit_tolerance)?;
        s.key("evict_params", &mut self.evict_params)?;
        s.key("kernel_backend", &mut self.kernel_backend)?;
        s.key("aux_policy", &mut self.aux_policy)?;
        s.key("int8_compute", &mut self.int8_compute)
    }
}

impl Section for CacheSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("codec", &mut self.codec)
    }
}

impl Section for BaselineSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("epochs", &mut self.epochs)?;
        s.key("batch", &mut self.batch)?;
        s.key("lr", &mut self.lr)
    }
}

impl Section for SweepSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.req("devices", &mut self.devices)?;
        s.req("budgets_mb", &mut self.budgets_mb)?;
        s.key("batch_limit", &mut self.batch_limit)?;
        s.key("epochs", &mut self.epochs)?;
        s.key("samples", &mut self.samples)
    }
}

impl Section for FederatedSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("clients", &mut self.clients)?;
        s.key("rounds", &mut self.rounds)?;
        s.key("threads", &mut self.threads)?;
        s.key("strategy", &mut self.strategy)?;
        s.key("seed", &mut self.seed)
    }
}

impl Section for ServeSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("addr", &mut self.addr)?;
        s.key("threshold", &mut self.threshold)?;
        s.key("max_batch", &mut self.max_batch)?;
        s.key("queue_capacity", &mut self.queue_capacity)?;
        s.key("batch_window_us", &mut self.batch_window_us)?;
        s.key("fast_deadline_us", &mut self.fast_deadline_us)?;
        s.key("balanced_deadline_us", &mut self.balanced_deadline_us)?;
        s.key("exact_deadline_us", &mut self.exact_deadline_us)?;
        s.key("replicas", &mut self.replicas)?;
        s.key("outbox_kib", &mut self.outbox_kib)?;
        s.key("allow_shutdown", &mut self.allow_shutdown)
    }
}

impl Section for LoadgenSection {
    fn keys(&mut self, s: &mut impl Visit) -> Result<()> {
        s.key("requests", &mut self.requests)?;
        s.key("connections", &mut self.connections)?;
        s.key("inflight", &mut self.inflight)?;
        s.key("tier_weights", &mut self.tier_weights)?;
        s.key("seed", &mut self.seed)
    }
}

/// One pass over a key listing: the [`Reader`] or the [`Writer`].
trait Visit {
    /// Visits a key a document may leave out (the field keeps its default).
    fn key<F: Field>(&mut self, key: &'static str, field: &mut F) -> Result<()>;

    /// Visits a key every document must set.
    fn req<F: Field>(&mut self, key: &'static str, field: &mut F) -> Result<()> {
        self.key(key, field)
    }
}

/// Fills a section from its document table and records the path of every
/// key it reads, so that keys no listing reads can be rejected.
struct Reader<'a> {
    table: &'a Value,
    /// Dotted path of `table` (`""` for the document root).
    path: &'a str,
    seen: &'a mut Vec<String>,
}

impl<'a> Reader<'a> {
    fn new(table: &'a Value, path: &'a str, seen: &'a mut Vec<String>) -> Self {
        Reader { table, path, seen }
    }
}

impl Visit for Reader<'_> {
    fn key<F: Field>(&mut self, key: &'static str, field: &mut F) -> Result<()> {
        if let Some(value) = self.table.get(key) {
            let at = join(self.path, key);
            *field = F::read(value, &at, self.seen)?;
            self.seen.push(at);
        }
        Ok(())
    }

    fn req<F: Field>(&mut self, key: &'static str, field: &mut F) -> Result<()> {
        if self.table.get(key).is_none() {
            return Err(CliError::new(match self.path {
                "" => format!("missing [{key}] section"),
                section => format!("missing required key [{section}].{key}"),
            }));
        }
        self.key(key, field)
    }
}

/// Renders a section's keys into a snapshot table.
struct Writer(Table);

impl Visit for Writer {
    fn key<F: Field>(&mut self, key: &'static str, field: &mut F) -> Result<()> {
        if let Some(value) = field.write() {
            self.0.insert(key, value);
        }
        Ok(())
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A typed error for a value of the wrong kind at key path `at`.
fn bad(at: &str, expected: &str) -> CliError {
    CliError::config(at, format!("must be {expected}"))
}

/// A typed error at key path `path` unless `ok`.
fn ensure(ok: bool, path: &str, message: &str) -> Result<()> {
    if ok {
        return Ok(());
    }
    Err(CliError::config(path, message))
}

/// Rejects the first key, in document order, that no listing read.
fn reject_unread(table: &Value, at: &str, seen: &[String]) -> Result<()> {
    for (key, value) in table.entries().unwrap_or_default() {
        let path = join(at, key);
        if !seen.contains(&path) {
            let what = if at.is_empty() { "section" } else { "key" };
            return Err(CliError::config(path, format!("unknown {what}")));
        }
        reject_unread(value, &path, seen)?;
    }
    Ok(())
}

/// A config value type: how it reads from a document and renders into a
/// snapshot.
trait Field: Sized {
    /// Reads `value`, found at key path `at`; a section records the paths
    /// of the keys it reads in `seen`.
    fn read(value: &Value, at: &str, seen: &mut Vec<String>) -> Result<Self>;

    /// The snapshot value; `None` leaves the key out.
    fn write(&self) -> Option<Value>;
}

impl<S: Section> Field for S {
    fn read(value: &Value, at: &str, seen: &mut Vec<String>) -> Result<Self> {
        if value.entries().is_none() {
            return Err(bad(at, "a table"));
        }
        let mut section = S::default();
        section.keys(&mut Reader::new(value, at, seen))?;
        Ok(section)
    }

    fn write(&self) -> Option<Value> {
        let mut writer = Writer(Table::new());
        // The writer never fails.
        self.clone().keys(&mut writer).ok()?;
        Some(writer.0.build())
    }
}

impl<T: Field> Field for Option<T> {
    fn read(value: &Value, at: &str, seen: &mut Vec<String>) -> Result<Self> {
        T::read(value, at, seen).map(Some)
    }

    fn write(&self) -> Option<Value> {
        self.as_ref()?.write()
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(value: &Value, at: &str, seen: &mut Vec<String>) -> Result<Self> {
        let items = value.as_array().ok_or_else(|| bad(at, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, &format!("{at}[{i}]"), seen))
            .collect()
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Array(self.iter().filter_map(T::write).collect()))
    }
}

impl Field for [usize; 3] {
    fn read(value: &Value, at: &str, seen: &mut Vec<String>) -> Result<Self> {
        Self::try_from(Vec::read(value, at, seen)?)
            .map_err(|_| bad(at, "three non-negative integers"))
    }

    fn write(&self) -> Option<Value> {
        self.to_vec().write()
    }
}

/// Reads a non-negative integer that fits `T`.
fn int<T: TryFrom<i64>>(value: &Value, at: &str) -> Result<T> {
    let i = value.as_int().ok_or_else(|| bad(at, "an integer"))?;
    T::try_from(i).map_err(|_| bad(at, "a non-negative integer"))
}

/// Reads a string through `FromStr` (enums by name); an unknown name is a
/// typed error carrying the key path, so scripts can tell "your config is
/// wrong" from "the run failed".
fn parsed<T: FromStr<Err: ToString>>(value: &Value, at: &str) -> Result<T> {
    let s = value.as_str().ok_or_else(|| bad(at, "a string"))?;
    s.parse::<T>()
        .map_err(|e| CliError::config(at, e.to_string()))
}

fn number(value: &Value, at: &str) -> Result<f64> {
    value.as_float().ok_or_else(|| bad(at, "a number"))
}

fn boolean(value: &Value, at: &str) -> Result<bool> {
    value.as_bool().ok_or_else(|| bad(at, "a boolean"))
}

/// `Field` for a value type that is not a section: `read(value, at)`
/// reads the document value at key path `at`, `|x| write` renders `x`.
macro_rules! scalar {
    ($ty:ty: $read:ident, |$x:ident| $write:expr) => {
        impl Field for $ty {
            fn read(value: &Value, at: &str, _: &mut Vec<String>) -> Result<Self> {
                $read(value, at)
            }

            fn write(&self) -> Option<Value> {
                let $x = self;
                Some($write)
            }
        }
    };
}

scalar!(u64: int, |n| Value::Int(*n as i64));
scalar!(usize: int, |n| Value::Int(*n as i64));
scalar!(f64: number, |f| Value::Float(*f));
scalar!(bool: boolean, |b| Value::Bool(*b));
scalar!(String: parsed, |s| Value::Str(s.clone()));
scalar!(KernelBackend: parsed, |k| Value::Str(k.name().into()));
scalar!(AuxPolicy: parsed, |p| Value::Str(p.name()));
scalar!(CodecKind: parsed, |c| Value::Str(c.name().into()));

impl RunConfig {
    /// Loads a config from a `.toml` or `.json` file (decided by
    /// extension; anything other than `.json` parses as TOML).
    pub fn load(path: &std::path::Path) -> Result<RunConfig> {
        let value = if path.extension().is_some_and(|e| e == "json") {
            nf_lint::json::parse_file(path)?
        } else {
            nf_lint::toml::parse_file(path)?
        };
        Self::from_value(&value)
    }

    /// Reads a config out of a parsed document tree. Keys and sections
    /// outside the schema are typed errors.
    pub fn from_value(root: &Value) -> Result<RunConfig> {
        let mut seen = Vec::new();
        let mut config = RunConfig::default();
        config.keys(&mut Reader::new(root, "", &mut seen))?;

        // `budget_mb` is the input alias of `budget_bytes` (1 MB = 10⁶
        // bytes, the paper's unit); `budget_bytes` wins when both are set.
        let mut budget_mb: Option<f64> = None;
        if let Some(train) = root.get("train") {
            Reader::new(train, "train", &mut seen).key("budget_mb", &mut budget_mb)?;
        }
        if !seen.iter().any(|p| p == "train.budget_bytes") {
            let mb = budget_mb.ok_or_else(|| {
                CliError::new("missing required key [train].budget_mb (or budget_bytes)")
            })?;
            config.train.budget_bytes = (mb * 1e6) as u64;
        }
        reject_unread(root, "", &seen)?;

        let name = &config.run.name;
        if name.is_empty() || name.contains(['/', '\\', '.']) {
            return Err(CliError::new(
                "[run].name must be non-empty and free of path separators and dots",
            ));
        }
        config.model.granularity = config.model.granularity.max(1);
        if let Some(f) = &config.federated {
            // Validate eagerly so a typo fails at parse time, with the
            // offending key path.
            f.strategy
                .parse::<nf_data::ShardStrategy>()
                .map_err(|e| CliError::config("federated.strategy", e))?;
        }
        if let Some(s) = &config.serve {
            let threshold_ok = s.threshold.is_finite() && s.threshold > 0.0;
            ensure(
                threshold_ok,
                "serve.threshold",
                "must be a finite number > 0",
            )?;
            ensure(s.max_batch > 0, "serve.max_batch", "must be > 0")?;
            ensure(s.queue_capacity > 0, "serve.queue_capacity", "must be > 0")?;
            let max = neuroflux_core::MAX_REPLICAS;
            let replicas = format!("must be ≤ {max} (0 = one per core)");
            ensure(s.replicas <= max, "serve.replicas", &replicas)?;
            ensure(s.outbox_kib > 0, "serve.outbox_kib", "must be > 0")?;
        }
        if let Some(l) = &config.loadgen {
            ensure(
                l.tier_weights.iter().sum::<usize>() > 0,
                "loadgen.tier_weights",
                "must be three non-negative integers (fast, balanced, exact) \
                 that do not all vanish",
            )?;
            ensure(l.requests > 0, "loadgen.requests", "must be > 0")?;
            ensure(l.connections > 0, "loadgen.connections", "must be > 0")?;
            ensure(
                l.inflight == 0 || l.inflight >= l.connections,
                "loadgen.inflight",
                "must be 0 (= connections) or ≥ connections \
                 (every connection keeps at least one request in flight)",
            )?;
        }
        // Resolution validates the cross-section constraints (model fits
        // dataset geometry, NeuroFlux config sanity) up front.
        config.resolve()?;
        Ok(config)
    }

    /// Renders the resolved config back into a document tree; the snapshot
    /// written to `runs/<name>/config.toml`.
    pub fn to_value(&self) -> Value {
        Field::write(self).unwrap_or_else(Value::table)
    }

    /// Resolves the dataset section into a generator spec.
    pub fn resolve_dataset(&self) -> Result<SyntheticSpec> {
        let d = &self.dataset;
        let val = d.val.unwrap_or(d.train / 4);
        let test = d.test.unwrap_or(d.train / 4);
        let mut spec = match d.preset.as_str() {
            "quick" => {
                let classes = d.classes.ok_or_else(|| {
                    CliError::new("[dataset].classes is required for preset \"quick\"")
                })?;
                let image_hw = d.image_hw.ok_or_else(|| {
                    CliError::new("[dataset].image_hw is required for preset \"quick\"")
                })?;
                let mut s = SyntheticSpec::quick(classes, image_hw, d.train);
                s.val = val.max(classes);
                s.test = test.max(classes);
                s
            }
            name => {
                SyntheticSpec::by_name(name, d.train, val.max(1), test.max(1)).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown dataset preset {name:?} (expected quick, {})",
                        SyntheticSpec::preset_names().join(", ")
                    ))
                })?
            }
        };
        if let Some(noise) = d.noise {
            spec = spec.with_noise(noise as f32);
        }
        if let Some(seed) = d.seed {
            spec = spec.with_seed(seed);
        }
        if spec.train == 0 {
            return Err(CliError::new("[dataset].train must be > 0"));
        }
        Ok(spec)
    }

    /// Resolves the model section against the dataset geometry.
    pub fn resolve_model(&self, dataset: &SyntheticSpec) -> Result<ModelSpec> {
        let m = &self.model;
        let target_hw = m.input_size.unwrap_or(dataset.image_hw);
        let spec = match m.preset.as_str() {
            "tiny" => {
                let channels = m.channels.clone().ok_or_else(|| {
                    CliError::new("[model].channels is required for preset \"tiny\"")
                })?;
                if channels.is_empty() || channels.contains(&0) {
                    return Err(CliError::new("[model].channels must be non-empty, all > 0"));
                }
                ModelSpec::tiny("tiny", target_hw, &channels, dataset.classes)
            }
            name => {
                let mut spec = ModelSpec::by_name(name, dataset.classes).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown model preset {name:?} (expected tiny, {})",
                        ModelSpec::preset_names().join(", ")
                    ))
                })?;
                if let Some(scale) = m.scale {
                    if scale <= 0.0 || !scale.is_finite() {
                        return Err(CliError::new("[model].scale must be a finite number > 0"));
                    }
                    spec = spec.scale_channels(scale, m.granularity);
                }
                if spec.input.1 != target_hw {
                    spec = safe_with_input_size(&spec, target_hw)?;
                }
                spec
            }
        };
        let (_, h, w) = spec.final_feature_shape();
        if h == 0 || w == 0 {
            return Err(CliError::new(format!(
                "model {} collapses to zero spatial extent at input {target_hw}×{target_hw}",
                spec.name
            )));
        }
        Ok(spec)
    }

    /// Resolves the `[train]` section into a [`NeuroFluxConfig`].
    pub fn resolve_train(&self) -> Result<NeuroFluxConfig> {
        let t = &self.train;
        let mut config = NeuroFluxConfig::new(t.budget_bytes, t.batch_limit)
            .with_rho(t.rho)
            .with_lr(t.lr as f32)
            .with_epochs(t.epochs_per_block)
            .with_exit_tolerance(t.exit_tolerance as f32)
            .with_aux_policy(t.aux_policy)
            .with_kernel_backend(t.kernel_backend)
            .with_cache_codec(self.cache.codec)
            .with_int8_compute(t.int8_compute);
        config.momentum = t.momentum as f32;
        config.evict_params = t.evict_params;
        config.validate()?;
        Ok(config)
    }

    /// Resolves the `[federated]` section into an engine configuration
    /// (without a cache dir; `nf federated` points that at the run
    /// directory).
    pub fn resolve_federated(&self) -> Result<neuroflux_core::FederatedConfig> {
        let f = self.federated.as_ref().ok_or_else(|| {
            CliError::new("config has no [federated] section (required by `nf federated`)")
        })?;
        ensure(f.clients > 0, "federated.clients", "must be > 0")?;
        ensure(f.rounds > 0, "federated.rounds", "must be > 0")?;
        let strategy = f
            .strategy
            .parse::<nf_data::ShardStrategy>()
            .map_err(|e| CliError::config("federated.strategy", e))?;
        Ok(
            neuroflux_core::FederatedConfig::new(f.clients, f.rounds, self.resolve_train()?)
                .with_threads(f.threads)
                .with_strategy(strategy)
                .with_seed(f.seed.unwrap_or(self.run.seed)),
        )
    }

    /// Resolves all three training inputs at once.
    pub fn resolve(&self) -> Result<(ModelSpec, SyntheticSpec, NeuroFluxConfig)> {
        let dataset = self.resolve_dataset()?;
        let model = self.resolve_model(&dataset)?;
        let config = self.resolve_train()?;
        Ok((model, dataset, config))
    }

    /// The `[serve]` section, or its documented defaults.
    pub fn serve(&self) -> ServeSection {
        self.serve.clone().unwrap_or_default()
    }

    /// The `[loadgen]` section, or its documented defaults.
    pub fn loadgen(&self) -> LoadgenSection {
        self.loadgen.clone().unwrap_or_default()
    }

    /// Resolves the `[serve]` section (or its defaults) into the core
    /// serving policy.
    pub fn resolve_serve(&self) -> Result<neuroflux_core::ServePolicy> {
        let s = self.serve();
        let policy = neuroflux_core::ServePolicy {
            threshold: s.threshold as f32,
            max_batch: s.max_batch,
            queue_capacity: s.queue_capacity,
            batch_window_us: s.batch_window_us,
            deadline_us: [
                s.fast_deadline_us,
                s.balanced_deadline_us,
                s.exact_deadline_us,
            ],
            replicas: s.replicas,
            outbox_kib: s.outbox_kib,
        };
        policy
            .validate()
            .map_err(|e| CliError::config("serve", e.to_string()))?;
        Ok(policy)
    }

    /// The `[baseline]` section, or its documented defaults.
    pub fn baseline(&self) -> BaselineSection {
        self.baseline.clone().unwrap_or_default()
    }
}

/// Resizes through the typed [`ModelSpec::try_with_input_size`] path,
/// anchoring the error at the config keys that chose the resolution.
fn safe_with_input_size(spec: &ModelSpec, hw: usize) -> Result<ModelSpec> {
    spec.try_with_input_size(hw).map_err(|e| {
        CliError::config(
            "model.input_size",
            format!("{e}; raise [dataset].image_hw or set [model].input_size"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quickstart_toml() -> &'static str {
        r#"
[run]
name = "qs"
seed = 42

[model]
preset = "tiny"
channels = [8, 16]

[dataset]
preset = "quick"
classes = 3
image_hw = 8
train = 64

[train]
budget_mb = 32
batch_limit = 16
epochs_per_block = 2
"#
    }

    fn parse_config(text: &str) -> RunConfig {
        RunConfig::from_value(&nf_lint::toml::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn quickstart_parses_and_resolves() {
        let cfg = parse_config(quickstart_toml());
        assert_eq!(cfg.run.name, "qs");
        assert_eq!(cfg.run.out_dir, "runs");
        let (model, dataset, nf) = cfg.resolve().unwrap();
        assert_eq!(model.num_units(), 2);
        assert_eq!(model.classes, 3);
        assert_eq!(dataset.classes, 3);
        assert_eq!(nf.budget_bytes, 32_000_000);
        assert_eq!(nf.batch_limit, 16);
        assert_eq!(nf.epochs_per_block, 2);
        assert_eq!(nf.kernel_backend, KernelBackend::Auto);
        assert_eq!(nf.aux_policy, AuxPolicy::Adaptive);
    }

    #[test]
    fn snapshot_round_trips_to_identical_config() {
        let cfg = parse_config(quickstart_toml());
        let rendered = cfg.to_value().to_toml();
        let back = parse_config(&rendered);
        assert_eq!(cfg, back, "snapshot:\n{rendered}");
        // And again, to make sure the snapshot is a fixed point.
        assert_eq!(back.to_value().to_toml(), rendered);
    }

    #[test]
    fn preset_model_scales_and_resizes() {
        let cfg = parse_config(
            r#"
[run]
name = "vgg"

[model]
preset = "vgg11"
scale = 0.25

[dataset]
preset = "cifar10"
train = 128

[train]
budget_mb = 64
batch_limit = 32
aux_policy = "classic"
kernel_backend = "naive"
"#,
        );
        let (model, dataset, nf) = cfg.resolve().unwrap();
        assert!(model.name.starts_with("vgg11"));
        assert_eq!(model.classes, 10);
        assert!(model.total_params() < ModelSpec::vgg11(10).total_params() / 4);
        assert_eq!(dataset.val, 32);
        assert_eq!(nf.aux_policy, AuxPolicy::CLASSIC);
        assert_eq!(nf.kernel_backend, KernelBackend::Naive);
    }

    #[test]
    fn config_errors_name_the_field() {
        let must_fail = [
            ("", "missing [run] section"),
            ("[run]\nseed = 1", "missing required key [run].name"),
            (
                "[run]\nname = \"a/b\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "path separators",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbatch_limit=1",
                "budget_mb",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"nope\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "unknown model preset",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"nope\"\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
                "unknown dataset preset",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"vgg19\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=64\nbatch_limit=8",
                "downsampling",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1\nkernel_backend=\"cuda\"",
                "kernel backend",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1\nepoch_per_block=5",
                "config error at `train.epoch_per_block`: unknown key",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"vgg16\"\n[dataset]\npreset=\"cifar10\"\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1\n[sweep]\ndevice=\"pi4b\"\nbudgets_mb=[1]",
                "missing required key [sweep].devices",
            ),
            (
                "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\nchannels=[4]\n[dataset]\npreset=\"quick\"\ntrain=8\n[[train]]\nbudget_mb=1\nbatch_limit=1",
                "config error at `train`: must be a table",
            ),
        ];
        for (doc, needle) in must_fail {
            let err = nf_lint::toml::parse(doc)
                .map_err(CliError::from)
                .and_then(|v| RunConfig::from_value(&v))
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
    }

    #[test]
    fn federated_section_parses_resolves_and_round_trips() {
        let doc = format!(
            "{}\n[federated]\nclients = 3\nrounds = 2\nthreads = 4\nstrategy = \"dirichlet:0.5\"\nseed = 9\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let f = cfg.federated.clone().unwrap();
        assert_eq!((f.clients, f.rounds, f.threads), (3, 2, 4));
        assert_eq!(f.strategy, "dirichlet:0.5");
        let fed = cfg.resolve_federated().unwrap();
        assert_eq!(fed.clients, 3);
        assert_eq!(fed.seed, 9);
        assert_eq!(fed.strategy, nf_data::ShardStrategy::Dirichlet(0.5),);
        // Snapshot round-trip covers the new section.
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        // Defaults and the [run].seed fallback.
        let cfg = parse_config(&format!("{}\n[federated]\n", quickstart_toml()));
        let fed = cfg.resolve_federated().unwrap();
        assert_eq!((fed.clients, fed.rounds, fed.threads), (4, 3, 0));
        assert_eq!(fed.seed, cfg.run.seed);
        // A typo'd strategy fails at parse time with the key path.
        let err = nf_lint::toml::parse(&format!(
            "{}\n[federated]\nstrategy = \"zipf\"\n",
            quickstart_toml()
        ))
        .map_err(CliError::from)
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err()
        .to_string();
        assert!(err.contains("federated.strategy"), "{err}");
        // No [federated] section: `nf federated` refuses with a hint.
        let err = parse_config(quickstart_toml())
            .resolve_federated()
            .unwrap_err()
            .to_string();
        assert!(err.contains("[federated]"), "{err}");
    }

    #[test]
    fn cache_section_parses_resolves_and_round_trips() {
        // Default: no [cache] section means the bit-exact f32 codec, and
        // the snapshot still renders the section explicitly.
        let cfg = parse_config(quickstart_toml());
        assert_eq!(cfg.cache.codec, CodecKind::F32Raw);
        assert_eq!(cfg.resolve_train().unwrap().cache_codec, CodecKind::F32Raw);
        let rendered = cfg.to_value().to_toml();
        assert!(rendered.contains("[cache]"), "{rendered}");
        assert_eq!(parse_config(&rendered), cfg);

        // Explicit codecs parse, resolve, and round-trip.
        for (name, kind) in [
            ("f32", CodecKind::F32Raw),
            ("f16", CodecKind::F16),
            ("int8", CodecKind::Int8Affine),
        ] {
            let doc = format!("{}\n[cache]\ncodec = \"{name}\"\n", quickstart_toml());
            let cfg = parse_config(&doc);
            assert_eq!(cfg.cache.codec, kind);
            assert_eq!(cfg.resolve_train().unwrap().cache_codec, kind);
            let rendered = cfg.to_value().to_toml();
            assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        }

        // A typo'd codec is a typed config error carrying the key path.
        let err = nf_lint::toml::parse(&format!(
            "{}\n[cache]\ncodec = \"f64\"\n",
            quickstart_toml()
        ))
        .map_err(CliError::from)
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err();
        match &err {
            CliError::Config { path, .. } => assert_eq!(path, "cache.codec"),
            other => panic!("expected Config error, got {other}"),
        }
        assert!(err.to_string().contains("f64"), "{err}");
    }

    #[test]
    fn auto_backend_and_int8_compute_parse_and_round_trip() {
        // `auto` is a first-class kernel_backend value.
        let doc = format!(
            "{}\nkernel_backend = \"auto\"\nint8_compute = true\n[cache]\ncodec = \"int8\"\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        assert_eq!(cfg.train.kernel_backend, KernelBackend::Auto);
        assert!(cfg.train.int8_compute);
        let nf = cfg.resolve_train().unwrap();
        assert_eq!(nf.kernel_backend, KernelBackend::Auto);
        assert!(nf.int8_compute);
        assert_eq!(nf.cache_codec, CodecKind::Int8Affine);
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");

        // Default: off, and the default backend is the autotuner.
        let cfg = parse_config(quickstart_toml());
        assert!(!cfg.train.int8_compute);
        assert!(!cfg.resolve_train().unwrap().int8_compute);

        // Non-boolean values are typed config errors naming the key.
        let err = nf_lint::toml::parse(&format!("{}\nint8_compute = \"yes\"\n", quickstart_toml()))
            .map_err(CliError::from)
            .and_then(|v| RunConfig::from_value(&v))
            .unwrap_err()
            .to_string();
        assert!(err.contains("int8_compute"), "{err}");
    }

    #[test]
    fn serve_and_loadgen_sections_parse_resolve_and_round_trip() {
        let doc = format!(
            "{}\n[serve]\naddr = \"127.0.0.1:9000\"\nthreshold = 0.9\nmax_batch = 4\n\
             queue_capacity = 16\nbatch_window_us = 250\nfast_deadline_us = 1000\n\
             balanced_deadline_us = 2000\nexact_deadline_us = 3000\nreplicas = 2\n\
             allow_shutdown = true\n\
             \n[loadgen]\nrequests = 32\nconnections = 2\ninflight = 6\n\
             tier_weights = [2, 1, 1]\nseed = 7\n",
            quickstart_toml()
        );
        let cfg = parse_config(&doc);
        let s = cfg.serve();
        assert_eq!(s.addr, "127.0.0.1:9000");
        assert_eq!(
            (s.max_batch, s.queue_capacity, s.batch_window_us),
            (4, 16, 250)
        );
        assert_eq!(s.replicas, 2);
        assert!(s.allow_shutdown);
        let policy = cfg.resolve_serve().unwrap();
        assert_eq!(policy.threshold, 0.9f32);
        assert_eq!(policy.deadline_us, [1000, 2000, 3000]);
        assert_eq!(policy.replicas, 2);
        assert_eq!(policy.effective_replicas(8), 2);
        let lg = cfg.loadgen();
        assert_eq!((lg.requests, lg.connections), (32, 2));
        assert_eq!(lg.inflight, 6);
        assert_eq!(lg.tier_weights, [2, 1, 1]);
        assert_eq!(lg.seed, Some(7));
        // Snapshot round-trip covers both sections.
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
        // No sections → defaults, and the snapshot fixed point holds.
        let cfg = parse_config(quickstart_toml());
        assert!(cfg.serve.is_none() && cfg.loadgen.is_none());
        let s = cfg.serve();
        assert_eq!(
            s.max_batch,
            neuroflux_core::ServePolicy::default().max_batch
        );
        assert_eq!(s.replicas, 0, "replicas default to auto (one per core)");
        assert_eq!(cfg.loadgen().seed, None);
        assert_eq!(
            cfg.loadgen().inflight,
            0,
            "inflight defaults to the plain closed loop"
        );
        let rendered = cfg.to_value().to_toml();
        assert_eq!(parse_config(&rendered), cfg, "snapshot:\n{rendered}");
    }

    #[test]
    fn serve_and_loadgen_bad_values_are_typed_errors() {
        for (snippet, path) in [
            ("[serve]\nthreshold = 0.0\n", "serve.threshold"),
            ("[serve]\nthreshold = -1.5\n", "serve.threshold"),
            ("[serve]\nmax_batch = 0\n", "serve.max_batch"),
            ("[serve]\nqueue_capacity = 0\n", "serve.queue_capacity"),
            ("[serve]\nreplicas = 65\n", "serve.replicas"),
            ("[loadgen]\nrequests = 0\n", "loadgen.requests"),
            ("[loadgen]\nconnections = 0\n", "loadgen.connections"),
            (
                "[loadgen]\nconnections = 4\ninflight = 2\n",
                "loadgen.inflight",
            ),
            ("[loadgen]\ntier_weights = [1, 2]\n", "loadgen.tier_weights"),
            (
                "[loadgen]\ntier_weights = [0, 0, 0]\n",
                "loadgen.tier_weights",
            ),
            ("[serve]\nmax_batchs = 4\n", "serve.max_batchs"),
            ("[serv]\nmax_batch = 4\n", "serv"),
            ("[loadgen]\nrequest = 4\n", "loadgen.request"),
        ] {
            let err = nf_lint::toml::parse(&format!("{}\n{snippet}", quickstart_toml()))
                .map_err(CliError::from)
                .and_then(|v| RunConfig::from_value(&v))
                .unwrap_err();
            match &err {
                CliError::Config { path: p, .. } => assert_eq!(p, path, "{err}"),
                other => panic!("expected typed config error for {path}, got {other}"),
            }
        }
    }

    #[test]
    fn tiny_preset_requires_channels() {
        let err = nf_lint::toml::parse(
            "[run]\nname=\"x\"\n[model]\npreset=\"tiny\"\n[dataset]\npreset=\"quick\"\nclasses=2\nimage_hw=8\ntrain=8\n[train]\nbudget_mb=1\nbatch_limit=1",
        )
        .map_err(CliError::from)
        .and_then(|v| RunConfig::from_value(&v))
        .unwrap_err()
        .to_string();
        assert!(err.contains("[model].channels"), "{err}");
    }
}

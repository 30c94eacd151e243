//! The workloads. Every trial trains a model under a memory budget
//! (`nf train`'s pipeline), then serves the trained early-exit model
//! in-process (`nf serve`'s server) to the benchmark's own client.
//! The workloads differ in which half carries the weight.

use neuroflux_core::serve::splitmix64;

pub struct Workload {
    pub name: &'static str,
    /// `[dataset]` keys (the seed is appended per run).
    dataset: &'static str,
    /// `[model]`, `[train]` and `[cache]` sections.
    training: &'static str,
    /// Lowest acceptable test accuracy of the selected exit.
    pub acc_floor: f64,
    /// Open-loop arrival rate, requests per second: about a tenth of the
    /// model's measured closed-loop peak, far below the knee.
    pub open_rate: f64,
    /// Requests in the open-loop phase.
    pub open_requests: usize,
    /// Requests in the closed-loop phase: about a second at the peak.
    pub closed_requests: usize,
}

/// The serving policy of `examples/serve.toml`: 3 tiers over a 500 µs
/// window, micro-batches of up to 8, one replica per core. Only the
/// admission limits are wider (queue 64, fast and balanced deadlines 10
/// and 50 ms there): on a shared virtual machine a vCPU can stall for
/// tens of milliseconds, and those limits would turn each stall into
/// rejections that measure the neighbours, not the server.
const SERVE: &str = r#"
[serve]
addr = "127.0.0.1:0"
threshold = 0.85
max_batch = 8
queue_capacity = 256
batch_window_us = 500
fast_deadline_us = 100000
balanced_deadline_us = 100000
exact_deadline_us = 250000
replicas = 0
outbox_kib = 1024
"#;

pub const WORKLOADS: &[Workload] = &[
    // `examples/quickstart.toml` as `nf train` runs it: 2 blocks at
    // batch 10 and 20, 5 epochs each, f32 cache on disk. Thousands of
    // tiny GEMMs, so kernel dispatch and thread overhead dominate.
    // Serving rates: closed-loop peak of the trained 6-exit model about
    // 8700 req/s on a 2-vCPU Xeon (mean batch 7.5), open loop at 1000
    // (mean batch 1.0).
    Workload {
        name: "train_quickstart",
        dataset: "preset = \"quick\"\nclasses = 4\nimage_hw = 16\ntrain = 256\ntest = 256\n",
        training: r#"
[model]
preset = "tiny"
channels = [8, 16, 16, 32, 32, 32]

[train]
budget_mb = 1.0
batch_limit = 32
epochs_per_block = 5
lr = 0.05

[cache]
codec = "f32"
"#,
        acc_floor: 0.5,
        open_rate: 1000.0,
        open_requests: 2000,
        closed_requests: 6000,
    },
    // Six single-unit blocks (rho = 0) at 32x32 under a budget tight
    // enough that batches climb block by block; 1 epoch per block, int8
    // cache consumed through the int8 GEMM path. Every block encodes,
    // writes, reads and regenerates, and exit selection re-runs deep
    // units, so cache, codec, regeneration and exits carry real shares.
    // Serving rates: closed-loop peak about 2500 req/s on a 2-vCPU Xeon
    // (mean batch 6.5), open loop at 250 (mean batch 1.0).
    Workload {
        name: "train_int8_cache",
        dataset: "preset = \"quick\"\nclasses = 4\nimage_hw = 32\ntrain = 256\ntest = 256\n",
        training: r#"
[model]
preset = "tiny"
channels = [16, 16, 32, 32, 32, 32]

[train]
budget_mb = 3.0
batch_limit = 64
rho = 0.0
epochs_per_block = 1
lr = 0.05
int8_compute = true

[cache]
codec = "int8"
"#,
        acc_floor: 0.4,
        open_rate: 250.0,
        open_requests: 500,
        closed_requests: 2500,
    },
    // `examples/serve.toml`'s 3-exit model (on a 10x larger train split,
    // so its training lasts long enough to time), then an open-loop phase
    // far below the knee (window wait and the reactor dominate) and a
    // closed-loop pipelined phase (batches fill; forward compute and
    // admission dominate). Serving rates: closed-loop peak about 28 000
    // req/s on a 2-vCPU Xeon (mean batch 7.7), open loop at 3000 (mean
    // batch 1.4).
    Workload {
        name: "serve_mixed",
        dataset: "preset = \"quick\"\nclasses = 4\nimage_hw = 8\ntrain = 2400\ntest = 256\n",
        training: r#"
[model]
preset = "tiny"
channels = [8, 16, 24]

[train]
budget_mb = 25
batch_limit = 16
epochs_per_block = 2
"#,
        acc_floor: 0.5,
        open_rate: 3000.0,
        open_requests: 4500,
        closed_requests: 20000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeds derived from the benchmark seed: model/planning, dataset, and
/// the request schedule. Kept below 2^31 so they fit any config integer.
pub fn derived_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed, stream) % (1 << 31)
}

impl Workload {
    /// The run config (TOML) for benchmark seed `seed`.
    pub fn config_toml(&self, seed: u64) -> String {
        format!(
            "[run]\nname = \"{}\"\nseed = {}\nout_dir = \".\"\n\n[dataset]\n{}seed = {}\n{}{}",
            self.name,
            derived_seed(seed, 1),
            self.dataset,
            derived_seed(seed, 2),
            self.training,
            SERVE
        )
    }
}

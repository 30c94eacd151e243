//! The training half of a trial: `NeuroFluxTrainer::train_with` over an
//! on-disk activation cache and a checkpoint file, exactly as `nf train`
//! wires it. The traced form wraps the public hooks (the
//! `ActivationStore`, the `CheckpointSink` and the progress callback) to
//! time each layer, and replays one training step per block through the
//! public `Layer`/`Sgd` calls.

use crate::probe;
use crate::stats::{median, Fnv};
use crate::trial::Report;
use crate::workload::Workload;
use neuroflux_core::{
    ActivationStore, Block, CheckpointSink, CodecKind, DiskStore, FileCheckpoint, NeuroFluxConfig,
    NeuroFluxOutcome, NeuroFluxTrainer, RunHooks, TrainEvent, TrainHooks, WorkerReport,
};
use nf_cli::RunConfig;
use nf_data::SplitDataset;
use nf_models::{build_aux_head, BuiltModel, ModelSpec};
use nf_nn::loss::cross_entropy;
use nf_nn::optim::Sgd;
use nf_nn::{Layer, Mode, Sequential};
use nf_tensor::{QuantTensor, Tensor};
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measured replays of one step per block (after a warm-up step).
const STEP_REPS: usize = 5;

pub struct Trained {
    pub cfg: RunConfig,
    pub data: SplitDataset,
    pub outcome: NeuroFluxOutcome,
    /// Config resolution plus dataset generation.
    pub setup: Duration,
}

/// Runs the training half, recording its metrics and checks in `rep`.
pub fn run(
    w: &Workload,
    seed: u64,
    trace: bool,
    work: &Path,
    rep: &mut Report,
) -> Result<Trained, String> {
    let setup_start = Instant::now();
    let doc = nf_cli::toml::parse(&w.config_toml(seed)).map_err(|e| e.to_string())?;
    let cfg = RunConfig::from_value(&doc).map_err(|e| e.to_string())?;
    let (spec, data_spec, nf_config) = cfg.resolve().map_err(|e| e.to_string())?;
    let data = data_spec.generate();
    let setup = setup_start.elapsed();

    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run.seed);
    let mut store = DiskStore::with_codec(work.join("cache"), nf_config.cache_codec)
        .map_err(|e| e.to_string())?;
    let mut sink = FileCheckpoint::new(work.join("checkpoint.bin"));
    let trainer = NeuroFluxTrainer::new(nf_config);

    let usage_start = probe::usage();
    let start = Instant::now();
    // The traced form passes timing wrappers of the same hooks.
    let mut timed_store = TimedStore::new(&mut store, start);
    let mut timed_sink = TimedSink::new(&mut sink, start);
    let mut events = Vec::new();
    let mut progress = |e: &TrainEvent| {
        if trace {
            events.push((secs(start.elapsed()), Ev::of(e)));
        }
        true
    };
    let (store, sink): (&mut dyn ActivationStore, &mut dyn CheckpointSink) = if trace {
        (&mut timed_store, &mut timed_sink)
    } else {
        (&mut *timed_store.inner, &mut *timed_sink.inner)
    };
    let outcome = trainer.train_with(
        &mut rng,
        &spec,
        &data,
        TrainHooks {
            store: Some(store),
            run: RunHooks {
                progress: Some(&mut progress),
                checkpoint: Some(sink),
                resume_from: None,
            },
        },
    );
    let wall = secs(start.elapsed());
    let usage = probe::usage().since(usage_start);
    let train_peak_rss = probe::peak_rss_mib();
    let mut outcome = outcome.map_err(|e| format!("training failed: {e}"))?;

    let samples = data.train.len() * nf_config.epochs_per_block;
    rep.metric("train_samples_per_s", samples as f64 / wall);
    rep.metric("train.wall_s", wall);
    let finite = outcome
        .report
        .block_losses
        .iter()
        .flatten()
        .all(|l| l.is_finite());
    if !finite {
        rep.error(format!(
            "non-finite block loss: {:?}",
            outcome.report.block_losses
        ));
    }
    let acc = outcome
        .selected_exit_accuracy(&data.test)
        .map_err(|e| format!("measuring test accuracy: {e}"))? as f64;
    rep.metric("train_test_acc", acc);
    if acc < w.acc_floor {
        rep.error(format!(
            "test accuracy {acc:.4} is below the floor {}",
            w.acc_floor
        ));
    }
    rep.ops(1, u64::from(!finite || acc < w.acc_floor));

    let plans = nf_tensor::kernels::autotune::plan_snapshot();
    let mut fp = Fnv::new();
    for p in &plans {
        fp.update(format!("{p:?}").as_bytes());
    }
    rep.info("plan_fp", fp.hex());

    if trace {
        let log = TraceLog {
            events,
            cache: timed_store.calls,
            checkpoints: timed_sink.calls,
        };
        log.report(wall, rep);
        report_cache(&outcome.report, rep);
        rep.metric("plan.blocks", outcome.blocks.len() as f64);
        let batch_min = outcome.blocks.iter().map(|b| b.batch).min().unwrap_or(0);
        rep.metric("plan.batch_min", batch_min as f64);
        rep.metric("kernel.plans", plans.len() as f64);
        rep.metric("proc.train.user_s", secs(usage.user));
        rep.metric("proc.train.sys_s", secs(usage.sys));
        rep.metric("proc.train.ctxsw_vol", usage.ctxsw_vol as f64);
        rep.metric("proc.train.ctxsw_invol", usage.ctxsw_invol as f64);
        rep.metric("train.peak_rss_mb", train_peak_rss);
        let step = replay_steps(&spec, &nf_config, &outcome.blocks, &data)
            .map_err(|e| format!("replaying training steps: {e}"))?;
        for (name, ms) in STEP_PARTS.iter().zip(step) {
            rep.metric(name, ms);
        }
    }
    Ok(Trained {
        cfg,
        data,
        outcome,
        setup,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn report_cache(report: &WorkerReport, rep: &mut Report) {
    const MIB: f64 = (1u64 << 20) as f64;
    rep.metric("cache.encoded_mb", report.cache_bytes_written as f64 / MIB);
    rep.metric("cache.peak_mb", report.cache_peak_bytes as f64 / MIB);
    let ratio = if report.cache_bytes_written > 0 {
        report.cache_logical_bytes as f64 / report.cache_bytes_written as f64
    } else {
        0.0
    };
    rep.metric("cache.compression", ratio);
}

/// A training event reduced to what the layer breakdown needs.
#[derive(Clone, Copy, PartialEq)]
enum Ev {
    BlockStarted(usize),
    Epoch(usize),
    BlockFinished(usize),
    HeadTrained,
    ExitMeasured,
    Other,
}

impl Ev {
    fn of(e: &TrainEvent) -> Ev {
        match *e {
            TrainEvent::BlockStarted { block, .. } => Ev::BlockStarted(block),
            TrainEvent::EpochFinished { block, .. } => Ev::Epoch(block),
            TrainEvent::BlockFinished { block, .. } => Ev::BlockFinished(block),
            TrainEvent::HeadTrained => Ev::HeadTrained,
            TrainEvent::ExitMeasured { .. } => Ev::ExitMeasured,
            TrainEvent::BlockSkipped { .. } => Ev::Other,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum CacheOp {
    Write,
    Read,
    Delete,
}

/// One timed call, in seconds since `train_with` was entered.
struct Call<K> {
    at: f64,
    dur: f64,
    kind: K,
}

/// Everything the traced training call recorded.
struct TraceLog {
    events: Vec<(f64, Ev)>,
    cache: Vec<Call<CacheOp>>,
    checkpoints: Vec<Call<()>>,
}

impl TraceLog {
    fn first(&self, ev: Ev) -> Option<f64> {
        self.events.iter().find(|(_, e)| *e == ev).map(|&(t, _)| t)
    }

    fn last(&self, pred: impl Fn(Ev) -> bool) -> Option<f64> {
        self.events
            .iter()
            .rev()
            .find(|(_, e)| pred(*e))
            .map(|&(t, _)| t)
    }

    /// Time inside `[from, to)` spent in cache and checkpoint calls.
    fn hooks_within(&self, from: f64, to: f64) -> f64 {
        let inside = |at: f64| at >= from && at < to;
        self.cache
            .iter()
            .filter(|c| inside(c.at))
            .map(|c| c.dur)
            .sum::<f64>()
            + self
                .checkpoints
                .iter()
                .filter(|c| inside(c.at))
                .map(|c| c.dur)
                .sum::<f64>()
    }

    /// Self time of `[from, to)`: its length minus the hook calls in it.
    fn self_time(&self, from: f64, to: f64) -> f64 {
        (to - from) - self.hooks_within(from, to)
    }

    /// Tiles the `train_with` call into consecutive layer intervals (plan,
    /// per-block training and persistence, head, exit selection), takes
    /// cache and checkpoint calls out of each, and reports what the
    /// tiles leave unexplained against the wall time.
    fn report(&self, wall: f64, rep: &mut Report) {
        let plan = self.first(Ev::BlockStarted(0)).unwrap_or(0.0);
        let (mut train, mut persist) = (0.0, 0.0);
        let mut last_finished = plan;
        let blocks = self
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Ev::BlockStarted(_)))
            .count();
        for b in 0..blocks {
            let (Some(s), Some(e), Some(f)) = (
                self.first(Ev::BlockStarted(b)),
                self.last(|ev| ev == Ev::Epoch(b)),
                self.first(Ev::BlockFinished(b)),
            ) else {
                continue;
            };
            train += self.self_time(s, e);
            persist += self.self_time(e, f);
            last_finished = f;
        }
        let head_at = self.first(Ev::HeadTrained).unwrap_or(last_finished);
        let head = self.self_time(last_finished, head_at);
        let exits_end = self.last(|ev| ev == Ev::ExitMeasured).unwrap_or(head_at);
        let exits = self.self_time(head_at, exits_end);
        let sum = |op: CacheOp| -> f64 {
            self.cache
                .iter()
                .filter(|c| c.kind == op)
                .map(|c| c.dur)
                .sum()
        };
        let cache_total: f64 = self.cache.iter().map(|c| c.dur).sum();
        let ckpt: f64 = self.checkpoints.iter().map(|c| c.dur).sum();
        rep.metric("plan.s", plan);
        rep.metric("worker.train_s", train);
        rep.metric("worker.persist_s", persist);
        rep.metric("worker.head_s", head);
        rep.metric("exits.s", exits);
        rep.metric("cache.write_s", sum(CacheOp::Write));
        rep.metric("cache.read_s", sum(CacheOp::Read));
        rep.metric("cache.calls", self.cache.len() as f64);
        rep.metric("checkpoint.s", ckpt);
        rep.metric("checkpoint.saves", self.checkpoints.len() as f64);
        let explained = plan + train + persist + head + exits + cache_total + ckpt;
        rep.metric("closure.train_explained_frac", explained / wall);
        rep.metric("closure.train_unexplained_s", wall - explained);
    }
}

/// Times every call into the wrapped activation store.
struct TimedStore<'s> {
    inner: &'s mut dyn ActivationStore,
    start: Instant,
    calls: Vec<Call<CacheOp>>,
}

impl<'s> TimedStore<'s> {
    fn new(inner: &'s mut dyn ActivationStore, start: Instant) -> Self {
        TimedStore {
            inner,
            start,
            calls: Vec::new(),
        }
    }

    fn timed<T>(&mut self, kind: CacheOp, f: impl FnOnce(&mut dyn ActivationStore) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.calls.push(Call {
            at: secs(t - self.start),
            dur: secs(t.elapsed()),
            kind,
        });
        out
    }
}

impl ActivationStore for TimedStore<'_> {
    fn write(&mut self, block: usize, activations: &Tensor) -> neuroflux_core::Result<u64> {
        self.timed(CacheOp::Write, |s| s.write(block, activations))
    }

    fn read_into(&mut self, block: usize, out: &mut Tensor) -> neuroflux_core::Result<()> {
        self.timed(CacheOp::Read, |s| s.read_into(block, out))
    }

    fn read_quant(&mut self, block: usize, out: &mut QuantTensor) -> neuroflux_core::Result<bool> {
        self.timed(CacheOp::Read, |s| s.read_quant(block, out))
    }

    fn delete(&mut self, block: usize) -> neuroflux_core::Result<()> {
        self.timed(CacheOp::Delete, |s| s.delete(block))
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored()
    }

    fn peak_bytes(&self) -> u64 {
        self.inner.peak_bytes()
    }

    fn codec(&self) -> CodecKind {
        self.inner.codec()
    }
}

/// Times every snapshot the wrapped checkpoint sink saves.
struct TimedSink<'s> {
    inner: &'s mut dyn CheckpointSink,
    start: Instant,
    calls: Vec<Call<()>>,
}

impl<'s> TimedSink<'s> {
    fn new(inner: &'s mut dyn CheckpointSink, start: Instant) -> Self {
        TimedSink {
            inner,
            start,
            calls: Vec::new(),
        }
    }
}

impl CheckpointSink for TimedSink<'_> {
    fn save_state(
        &mut self,
        completed_blocks: usize,
        head_trained: bool,
        model: &mut BuiltModel,
        aux_heads: &mut [Sequential],
        report: &WorkerReport,
    ) -> neuroflux_core::Result<()> {
        let t = Instant::now();
        let out = self
            .inner
            .save_state(completed_blocks, head_trained, model, aux_heads, report);
        self.calls.push(Call {
            at: secs(t - self.start),
            dur: secs(t.elapsed()),
            kind: (),
        });
        out
    }
}

const STEP_PARTS: [&str; 5] = [
    "step.unit_fwd_ms",
    "step.unit_bwd_ms",
    "step.aux_fwd_ms",
    "step.aux_bwd_ms",
    "step.sgd_ms",
];

/// Replays one training step of every block at the block's batch size on
/// a freshly built copy of the model (same shapes, kernels and workspace
/// wiring as the Worker), returning the median time of each part summed
/// over the blocks, in ms.
fn replay_steps(
    spec: &ModelSpec,
    config: &NeuroFluxConfig,
    blocks: &[Block],
    data: &SplitDataset,
) -> Result<[f64; 5], Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = spec.build(&mut rng)?;
    let mut heads = Vec::new();
    for a in nf_models::assign_aux(spec, config.aux_policy) {
        heads.push(build_aux_head(&mut rng, &a)?);
    }
    let ws_units = nf_tensor::shared_workspace();
    let ws_heads = nf_tensor::shared_workspace();
    for unit in &mut model.units {
        unit.set_kernel_backend(config.kernel_backend);
        unit.set_workspace(&ws_units);
    }
    for head in &mut heads {
        head.set_kernel_backend(config.kernel_backend);
        head.set_workspace(&ws_heads);
    }
    let sgd = Sgd::new(config.lr).with_momentum(config.momentum);
    let images = data.train.images();
    let n = images.shape()[0];
    let mut totals = [0.0; 5];
    for block in blocks {
        let batch = block.batch.clamp(1, n);
        let labels = &data.train.labels()[..batch];
        let mut input = images.slice_batch(0, batch)?;
        for unit in &mut model.units[..block.units.start] {
            input = unit.forward(&input, Mode::Eval)?;
        }
        let mut reps: Vec<[f64; 5]> = Vec::with_capacity(STEP_REPS);
        for rep in 0..=STEP_REPS {
            let mut t = [0.0; 5];
            let mut cur = input.clone();
            for u in block.units.clone() {
                let s = Instant::now();
                let out = model.units[u].forward(&cur, Mode::Train)?;
                t[0] += secs(s.elapsed());
                let s = Instant::now();
                let logits = heads[u].forward(&out, Mode::Train)?;
                t[2] += secs(s.elapsed());
                let (_, grad_logits) = cross_entropy(&logits, labels)?;
                let s = Instant::now();
                let grad_out = heads[u].backward(&grad_logits)?;
                t[3] += secs(s.elapsed());
                let s = Instant::now();
                model.units[u].backward(&grad_out)?;
                t[1] += secs(s.elapsed());
                let s = Instant::now();
                sgd.step(&mut model.units[u]);
                sgd.step(&mut heads[u]);
                t[4] += secs(s.elapsed());
                cur = out;
            }
            if rep > 0 {
                reps.push(t);
            }
        }
        for (i, total) in totals.iter_mut().enumerate() {
            let part: Vec<f64> = reps.iter().map(|t| t[i]).collect();
            *total += median(&part).unwrap_or(0.0) * 1e3;
        }
    }
    Ok(totals)
}

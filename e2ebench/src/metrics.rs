//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; an untraced run prints every
//! end-to-end metric and a traced run every per-layer metric.

/// Metrics a user of the system sees (printed with `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("train_test_acc", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("serve_p50_ms", "ms"),
    ("serve_peak_rps", "req/s"),
];

/// Metrics of single layers (printed with `--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Training: profiler + partitioner, worker, cache + codec,
    // checkpoint, controller exit selection.
    ("plan.s", "s"),
    ("plan.blocks", "count"),
    ("plan.batch_min", "count"),
    ("worker.train_s", "s"),
    ("worker.persist_s", "s"),
    ("worker.head_s", "s"),
    ("cache.write_s", "s"),
    ("cache.read_s", "s"),
    ("cache.calls", "count"),
    ("cache.encoded_mb", "MiB"),
    ("cache.peak_mb", "MiB"),
    ("cache.compression", "ratio"),
    ("checkpoint.s", "s"),
    ("checkpoint.saves", "count"),
    ("exits.s", "s"),
    // nf-nn layers replayed one step per block; nf-tensor autotuner.
    ("step.unit_fwd_ms", "ms"),
    ("step.unit_bwd_ms", "ms"),
    ("step.aux_fwd_ms", "ms"),
    ("step.aux_bwd_ms", "ms"),
    ("step.sgd_ms", "ms"),
    ("kernel.plans", "count"),
    // Process counters over the training call and over the serve phases.
    ("proc.train.user_s", "s"),
    ("proc.train.sys_s", "s"),
    ("proc.train.ctxsw_vol", "count"),
    ("proc.train.ctxsw_invol", "count"),
    ("train.peak_rss_mb", "MiB"),
    ("proc.serve.user_s", "s"),
    ("proc.serve.sys_s", "s"),
    ("proc.serve.ctxsw_vol", "count"),
    ("proc.serve.ctxsw_invol", "count"),
    ("closure.train_explained_frac", "fraction"),
    ("closure.train_unexplained_s", "s"),
    ("trace.train_overhead_frac", "fraction"),
    // Serving: nf-cli serve/net/proto and core serve/confidence_exit.
    // The open phase's p99 is here rather than end to end: one vCPU
    // stall of a shared host covers 1% of the phase, so it does not
    // repeat within any bound a regression gate could use.
    ("serve_p99_ms", "ms"),
    ("server.p50_us", "us"),
    ("server.p99_us", "us"),
    ("net.p50_us", "us"),
    ("net.p99_us", "us"),
    ("tier.fast.p50_us", "us"),
    ("tier.balanced.p50_us", "us"),
    ("tier.exact.p50_us", "us"),
    ("batcher.mean_batch.open", "count"),
    ("batcher.mean_batch.closed", "count"),
    ("replica.busy_frac.open", "fraction"),
    ("replica.busy_frac.closed", "fraction"),
    ("replica.busy_us_per_batch.open", "us"),
    ("replica.busy_us_per_batch.closed", "us"),
    ("engine.infer_us.b1", "us"),
    ("engine.infer_us.bmax", "us"),
    ("engine.warmup_s", "s"),
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("rejected.queue-full", "count"),
    ("rejected.deadline", "count"),
    ("rejected.bad-input", "count"),
    ("rejected.shutting-down", "count"),
    ("exit_hist.0", "count"),
    ("exit_hist.1", "count"),
    ("exit_hist.2", "count"),
    ("exit_hist.3", "count"),
    ("exit_hist.4", "count"),
    ("exit_hist.5", "count"),
    ("serve.conf_bits_mismatch", "count"),
    ("gen.lag_p99_us", "us"),
    ("closure.serve_explained_frac", "fraction"),
    ("closure.serve_unexplained_us", "us"),
    ("trace.serve_overhead_frac", "fraction"),
    // Run validity: cross-process determinism and neighbour noise.
    ("fp.params_distinct", "count"),
    ("fp.plans_distinct", "count"),
    ("host.steal_frac", "fraction"),
];

/// Deepest exit histogram bucket reported (`exit_hist.0` …); the
/// workloads' models have at most this many units.
pub const MAX_EXITS: usize = 6;

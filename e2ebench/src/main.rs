//! End-to-end benchmark of NeuroFlux: block-wise training under a memory
//! budget, then early-exit serving of the trained model, timed layer by
//! layer from outside the program.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats fresh-process trials of the workload until `--seconds`
//! have passed (at least three). It reports each metric as the median
//! over its trials, leaving out trials during which the host lost more
//! than [`STEAL_LIMIT`] of its CPU time to steal (a neighbour's load, not
//! the program); when no trial was that calm, over all of them. End-to-end
//! metrics come from untraced trials, per-layer metrics from traced ones.
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with every
//! end-to-end metric under `--trace 0` and every per-layer metric under
//! `--trace 1`. A traced run alternates untraced and traced trials, so it
//! also reports the tracing overhead. The line before it records the host
//! (CPU model, SIMD kernels, cores, CPU steal over the run) and the
//! per-trial fingerprints of the trained parameters and kernel plans.

mod metrics;
mod probe;
mod serve;
mod stats;
mod sys;
mod train;
mod trial;
mod workload;

use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest trials a run makes, however short `--seconds` is.
const MIN_TRIALS: usize = 3;
/// Trials run under this directory of the working directory.
const WORK_DIR: &str = ".e2ebench_work";
/// Share of the host's CPU time lost to steal above which a trial is left
/// out of the medians. Measured from `/proc/stat` around each trial.
const STEAL_LIMIT: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set when this process is one trial of a run.
    trial_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: if flags.contains_key("seconds") {
            num("seconds")?
        } else {
            0
        },
        trace,
        trial_dir: flags.get("trial-dir").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        fail(&format!(
            "unknown workload {:?} (expected one of {names:?})",
            args.workload
        ));
    };
    match &args.trial_dir {
        Some(dir) => trial::run(w, args.seed, args.trace, dir),
        None => {
            if let Err(e) = run(w, &args) {
                fail(&e);
            }
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("e2ebench: {message}");
    std::process::exit(2);
}

/// What the trials of one run reported.
#[derive(Default)]
struct Trials {
    /// Metric values per name, each with its trial's steal share, from
    /// untraced (0) and traced (1) trials.
    values: [BTreeMap<String, Vec<(f64, f64)>>; 2],
    /// Trials left out of the medians for their steal share.
    stolen: usize,
    info: BTreeMap<String, Vec<String>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Trials {
    fn absorb(&mut self, traced: bool, steal: f64, stdout: &str) {
        for line in stdout.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("metric"), Some(name), Some(v)) => match v.parse::<f64>() {
                    Ok(v) if v.is_finite() => self.values[usize::from(traced)]
                        .entry(name.to_string())
                        .or_default()
                        .push((v, steal)),
                    _ => self
                        .errors
                        .push(format!("metric {name} is not a finite number: {v}")),
                },
                (Some("info"), Some(name), Some(v)) => {
                    self.info
                        .entry(name.to_string())
                        .or_default()
                        .push(v.to_string());
                }
                (Some("ops"), Some(a), Some(f)) => {
                    self.attempted += a.parse::<u64>().unwrap_or(0);
                    self.failed += f.parse::<u64>().unwrap_or(1);
                }
                (Some("error"), Some(first), rest) => {
                    self.errors.push(format!("{first} {}", rest.unwrap_or("")));
                }
                _ => {}
            }
        }
    }

    /// Median of `name` over the trials whose steal share was at most
    /// [`STEAL_LIMIT`], or over all trials when none was.
    fn median(&self, traced: bool, name: &str) -> Option<f64> {
        let samples = self.values[usize::from(traced)].get(name)?;
        let calm: Vec<f64> = samples
            .iter()
            .filter(|&&(_, steal)| steal <= STEAL_LIMIT)
            .map(|&(v, _)| v)
            .collect();
        if !calm.is_empty() {
            return median(&calm);
        }
        median(&samples.iter().map(|&(v, _)| v).collect::<Vec<_>>())
    }

    fn distinct(&self, name: &str) -> f64 {
        let mut v = self.info.get(name).cloned().unwrap_or_default();
        v.sort();
        v.dedup();
        v.len() as f64
    }
}

fn run(w: &workload::Workload, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let ticks_start = probe::cpu_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut trials = Trials::default();
    let mut n = 0usize;
    // Start another trial only while it can end before the deadline, so
    // a run lasts about `--seconds` whatever a trial takes.
    while n < MIN_TRIALS || Instant::now() + start.elapsed() / n as u32 <= deadline {
        // A traced run alternates untraced and traced trials.
        let traced = args.trace && n % 2 == 1;
        let dir = PathBuf::from(WORK_DIR).join(format!("{}-{n}", std::process::id()));
        let trial_ticks = probe::cpu_ticks();
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--trial-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a trial: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        let trial_steal = probe::steal_frac(trial_ticks, probe::cpu_ticks());
        trials
            .info
            .entry("steal_frac".into())
            .or_default()
            .push(format!("{trial_steal:.3}"));
        if trial_steal > STEAL_LIMIT {
            trials.stolen += 1;
        }
        if !out.status.success() {
            trials
                .errors
                .push(format!("trial {n} exited with {}", out.status));
            trials.attempted += 1;
            trials.failed += 1;
        }
        trials.absorb(traced, trial_steal, &String::from_utf8_lossy(&out.stdout));
        n += 1;
    }
    let _ = std::fs::remove_dir(WORK_DIR);
    let steal = probe::steal_frac(ticks_start, probe::cpu_ticks());

    let mut out: Vec<(&str, f64, &str)> = Vec::new();
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for &(name, unit) in catalogue {
        let value = match name {
            "trace.train_overhead_frac" => overhead(&trials, "train.wall_s"),
            "trace.serve_overhead_frac" => overhead(&trials, "serve_p50_ms"),
            "fp.params_distinct" => Some(trials.distinct("params_fp")),
            "fp.plans_distinct" => Some(trials.distinct("plan_fp")),
            "host.steal_frac" => Some(steal),
            _ => trials.median(args.trace, name),
        };
        match value {
            Some(v) => out.push((name, v, unit)),
            None => trials.errors.push(format!("no trial measured {name}")),
        }
    }

    let host = format!(
        "{{\"cpu\": {}, \"simd\": {}, \"simd_int8\": {}, \"host_cores\": {}, \"steal_frac\": {steal}}}",
        json_str(&probe::cpu_model()),
        json_str(nf_tensor::kernels::simd::kernel_name()),
        json_str(nf_tensor::kernels::int8::kernel_name()),
        nf_tensor::host_cores(),
    );
    let list = |name: &str| {
        let items: Vec<String> = trials
            .info
            .get(name)
            .into_iter()
            .flatten()
            .map(|s| json_str(s))
            .collect();
        format!("[{}]", items.join(", "))
    };
    let errors: Vec<String> = trials.errors.iter().map(|e| json_str(e)).collect();
    let per_trial: Vec<String> = catalogue
        .iter()
        .filter_map(|&(name, _)| {
            let v = trials.values[usize::from(args.trace)].get(name)?;
            let v: Vec<String> = v.iter().map(|(v, _)| v.to_string()).collect();
            Some(format!("{}: [{}]", json_str(name), v.join(", ")))
        })
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"trials\": {n}, \"elapsed_s\": {}, \"host\": {host}, \
         \"params_fp\": {}, \"plan_fp\": {}, \"conf_bits_mismatch\": {}, \"trial_steal_frac\": {}, \"trials_over_steal_limit\": {}, \"rejected\": {}, \
         \"trial_metrics\": {{{}}}, \"errors\": [{}]}}",
        json_str(w.name),
        args.seed,
        args.trace,
        start.elapsed().as_secs_f64(),
        list("params_fp"),
        list("plan_fp"),
        list("conf_bits_mismatch"),
        list("steal_frac"),
        trials.stolen,
        list("rejected"),
        per_trial.join(", "),
        errors.join(", ")
    );
    if out.len() != catalogue.len() {
        return Err(format!("incomplete result: {}", trials.errors.join("; ")));
    }
    let metrics: Vec<String> = out
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        trials.errors.is_empty(),
        trials.attempted.max(1),
        trials.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// Traced over untraced median of `name`, minus one.
fn overhead(trials: &Trials, name: &str) -> Option<f64> {
    Some(trials.median(true, name)? / trials.median(false, name)? - 1.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

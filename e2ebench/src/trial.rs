//! One trial: a fresh process that trains and then serves one workload,
//! printing what it measured as `metric`, `info`, `ops` and `error`
//! lines for the parent run to aggregate.
//!
//! Each trial is its own process because the autotuner's plan table is
//! process-global: a second training run in one process would skip the
//! tuning every `nf train` user pays, and `VmHWM` would mix workloads.

use crate::workload::Workload;
use crate::{probe, serve, train};
use std::path::Path;

/// What a trial measured and checked.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.lines.push(format!("metric {name} {value}"));
    }

    pub fn info(&mut self, name: &str, value: String) {
        self.lines.push(format!("info {name} {value}"));
    }

    /// Operations attempted and failed (training runs, requests).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.lines.push(format!("ops {attempted} {failed}"));
    }

    /// A failed correctness check.
    pub fn error(&mut self, message: String) {
        self.lines
            .push(format!("error {}", message.replace('\n', " ")));
    }
}

/// Runs one trial of `w` in `work` (created and removed here) and prints
/// its report to stdout.
pub fn run(w: &Workload, seed: u64, trace: bool, work: &Path) {
    let mut rep = Report::default();
    let outcome = std::fs::create_dir_all(work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| train::run(w, seed, trace, work, &mut rep))
        .and_then(|trained| serve::run(w, seed, trace, trained, &mut rep));
    if let Err(e) = outcome {
        rep.ops(1, 1);
        rep.error(e);
    }
    rep.metric("peak_rss_mb", probe::peak_rss_mib());
    let _ = std::fs::remove_dir_all(work);
    println!("{}", rep.lines.join("\n"));
}

//! Process and host counters read from outside the measured program:
//! `getrusage(2)`, `/proc/self/status`, `/proc/stat` and `/proc/cpuinfo`.

use std::time::Duration;

/// Whole-process resource usage, threads that already exited included
/// (the vendored `rayon` spawns and joins threads on every parallel call,
/// so per-thread counters would miss most of its cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub ctxsw_vol: u64,
    pub ctxsw_invol: u64,
}

impl Usage {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            ctxsw_vol: self.ctxsw_vol.saturating_sub(earlier.ctxsw_vol),
            ctxsw_invol: self.ctxsw_invol.saturating_sub(earlier.ctxsw_invol),
        }
    }
}

/// Resource usage of this process so far.
pub fn usage() -> Usage {
    crate::sys::rusage().unwrap_or_default()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

/// The `cpu` line of `/proc/stat`: user nice system idle iowait irq
/// softirq steal (guest time is already inside user).
pub fn cpu_ticks() -> CpuTicks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    CpuTicks {
        total: fields.iter().sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// Share of all CPU time the hypervisor stole between two readings.
pub fn steal_frac(start: CpuTicks, end: CpuTicks) -> f64 {
    let total = end.total.saturating_sub(start.total);
    if total == 0 {
        0.0
    } else {
        end.steal.saturating_sub(start.steal) as f64 / total as f64
    }
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

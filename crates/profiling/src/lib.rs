//! # pcs-profiling — cpusage and trimusage
//!
//! The thesis' CPU profiling pipeline (Chapter 5): `cpusage` samples the
//! OS's CPU state tick counters every half second into rows of per-state
//! percentages; `trimusage` post-processes the rows, selecting the
//! longest consecutive run below an idle limit — the loaded measurement
//! window — and averaging over exactly that.
//!
//! Fed by the simulator's [`pcs_oskernel::CpuSample`] stream instead of
//! `/proc/stat` / `sysctl kern.cp_time`, but otherwise the same
//! computation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpusage;
pub mod trimusage;

pub use cpusage::{usage_rows, UsageRow};
pub use trimusage::{trim, TrimResult};

/// The full pipeline: simulator samples → interval rows → trimmed average
/// busy percentage. Returns the peak busy row when the machine never
/// dipped under the idle limit.
pub fn trimmed_busy_percent(samples: &[pcs_oskernel::CpuSample], idle_limit: f64) -> f64 {
    let rows = usage_rows(samples);
    match trim(&rows, idle_limit) {
        Some(t) => t.avg.busy(),
        None => rows.iter().map(|r| r.busy()).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_des::SimTime;
    use pcs_oskernel::{CpuAccounting, CpuSample, CpuState};

    #[test]
    fn pipeline_on_synthetic_samples() {
        // 0-0.5s idle, 0.5-1.5s busy, 1.5-2s idle.
        let mut samples = Vec::new();
        let mut acct = CpuAccounting::default();
        samples.push(CpuSample {
            t: SimTime::ZERO,
            per_cpu: vec![acct],
        });
        acct.add(CpuState::Idle, 500_000_000);
        samples.push(CpuSample {
            t: SimTime::from_millis(500),
            per_cpu: vec![acct],
        });
        acct.add(CpuState::User, 500_000_000);
        samples.push(CpuSample {
            t: SimTime::from_millis(1000),
            per_cpu: vec![acct],
        });
        acct.add(CpuState::User, 450_000_000);
        acct.add(CpuState::Idle, 50_000_000);
        samples.push(CpuSample {
            t: SimTime::from_millis(1500),
            per_cpu: vec![acct],
        });
        acct.add(CpuState::Idle, 500_000_000);
        samples.push(CpuSample {
            t: SimTime::from_millis(2000),
            per_cpu: vec![acct],
        });
        let busy = trimmed_busy_percent(&samples, 95.0);
        assert!((busy - 95.0).abs() < 1.0, "busy {busy}");
    }

    #[test]
    fn all_idle_falls_back_to_peak() {
        let mut acct = CpuAccounting::default();
        let s0 = CpuSample {
            t: SimTime::ZERO,
            per_cpu: vec![acct],
        };
        acct.add(CpuState::Idle, 500_000_000);
        let s1 = CpuSample {
            t: SimTime::from_millis(500),
            per_cpu: vec![acct],
        };
        assert_eq!(trimmed_busy_percent(&[s0, s1], 95.0), 0.0);
    }
}

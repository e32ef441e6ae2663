//! The `cpusage` tool (thesis Chapter 5, Appendix A.3).
//!
//! cpusage reads the OS's CPU state tick counters every half second and
//! prints the percentage spent in each state. Here it is the sampler
//! only: [`usage_rows`] turns the simulator's cumulative
//! [`CpuAccounting`] samples into those half-second rows, and
//! [`trim`](crate::trimusage::trim) averages the loaded window.

use pcs_oskernel::{CpuAccounting, CpuSample};

/// One output row: percentages per state, summed over all CPUs, for one
/// 0.5 s interval.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRow {
    /// Interval end, seconds.
    pub t_secs: f64,
    /// Percent user.
    pub user: f64,
    /// Percent nice.
    pub nice: f64,
    /// Percent system.
    pub system: f64,
    /// Percent iowait (Linux only; 0 on FreeBSD).
    pub iowait: f64,
    /// Percent hardware interrupt.
    pub irq: f64,
    /// Percent soft interrupt (Linux only; folded into irq on FreeBSD).
    pub softirq: f64,
    /// Percent idle.
    pub idle: f64,
}

impl UsageRow {
    /// Percent busy (everything but idle and iowait).
    pub fn busy(&self) -> f64 {
        self.user + self.nice + self.system + self.irq + self.softirq
    }
}

fn diff_to_row(t_secs: f64, d: &CpuAccounting) -> UsageRow {
    let total = d.total().max(1) as f64;
    let pct = |x: u64| x as f64 * 100.0 / total;
    UsageRow {
        t_secs,
        user: pct(d.user),
        nice: pct(d.nice),
        system: pct(d.system),
        iowait: pct(d.iowait),
        irq: pct(d.irq),
        softirq: pct(d.softirq),
        idle: pct(d.idle),
    }
}

/// Turn the simulator's cumulative samples into per-interval usage rows
/// (percentages across all CPUs combined).
pub fn usage_rows(samples: &[CpuSample]) -> Vec<UsageRow> {
    let mut rows = Vec::new();
    for w in samples.windows(2) {
        let mut agg = CpuAccounting::default();
        for (a, b) in w[0].per_cpu.iter().zip(&w[1].per_cpu) {
            let d = b.since(a);
            agg.user += d.user;
            agg.nice += d.nice;
            agg.system += d.system;
            agg.iowait += d.iowait;
            agg.irq += d.irq;
            agg.softirq += d.softirq;
            agg.idle += d.idle;
        }
        rows.push(diff_to_row(w[1].t.as_secs_f64(), &agg));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_des::SimTime;
    use pcs_oskernel::CpuState;

    fn sample(t_ms: u64, busy_ns: u64, idle_ns: u64) -> CpuSample {
        let mut acct = CpuAccounting::default();
        acct.add(CpuState::User, busy_ns / 2);
        acct.add(CpuState::System, busy_ns / 2);
        acct.add(CpuState::Idle, idle_ns);
        CpuSample {
            t: SimTime::from_millis(t_ms),
            per_cpu: vec![acct],
        }
    }

    #[test]
    fn rows_are_interval_percentages() {
        // Cumulative: 0..500ms fully idle; 500..1000ms fully busy.
        let samples = vec![
            sample(0, 0, 0),
            sample(500, 0, 500_000_000),
            sample(1000, 500_000_000, 500_000_000),
        ];
        let rows = usage_rows(&samples);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].idle - 100.0).abs() < 1e-9);
        assert!((rows[1].busy() - 100.0).abs() < 1e-9);
        assert!((rows[1].user - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(usage_rows(&[]).is_empty());
    }
}

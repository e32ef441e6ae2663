//! The `cpusage` tool (thesis Chapter 5, Appendix A.3).
//!
//! cpusage reads the OS's CPU state tick counters every half second and
//! prints the percentage spent in each state, plus min/max/average rows.
//! The average can be *snapped*: recording starts only when the idle
//! percentage drops below a limit and stops when it rises above it again
//! (the `-l` option) — so the average covers the loaded window only.
//!
//! Here the tick counters come from the simulator's cumulative
//! [`CpuAccounting`] samples.

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

    /// Render like cpusage's machine-readable `-o` mode (colon-separated
    /// percentages).
    pub fn machine_readable(&self, freebsd: bool) -> String {
        if freebsd {
            // FreeBSD's five states: user, nice, system (incl. softirq),
            // interrupt, idle.
            format!(
                "{:.1}:{:.1}:{:.1}:{:.1}:{:.1}",
                self.user,
                self.nice,
                self.system + self.softirq,
                self.irq,
                self.idle + self.iowait
            )
        } else {
            format!(
                "{:.1}:{:.1}:{:.1}:{:.1}:{:.1}:{:.1}:{:.1}",
                self.user, self.nice, self.system, self.iowait, self.irq, self.softirq, self.idle
            )
        }
    }
}

/// Summary of a cpusage run: per-state min/max plus the (possibly
/// limit-snapped) average.
#[derive(Debug, Clone, Copy)]
pub struct UsageSummary {
    /// Minimum busy percentage over all rows.
    pub min_busy: f64,
    /// Maximum busy percentage.
    pub max_busy: f64,
    /// Average busy percentage over the recorded (snapped) window.
    pub avg_busy: f64,
    /// Rows that fell inside the snapped window.
    pub recorded_rows: usize,
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

/// Run the cpusage averaging over rows with the given idle `limit` (the
/// `-l` option): recording starts when idle < limit and stops when idle
/// returns above it. `limit = 100` averages everything (the `-a` flag).
pub fn summarize(rows: &[UsageRow], limit: f64) -> UsageSummary {
    let mut avg_busy = 0.0;
    let mut min_busy = f64::INFINITY;
    let mut max_busy = f64::NEG_INFINITY;
    let mut recording = false;
    let mut recorded = 0usize;
    for r in rows {
        let busy = r.busy();
        min_busy = min_busy.min(busy);
        max_busy = max_busy.max(busy);
        if r.idle < limit {
            recording = true;
        } else if recording {
            recording = false;
        }
        if recording {
            recorded += 1;
            avg_busy += (busy - avg_busy) / recorded as f64;
        }
    }
    UsageSummary {
        min_busy: if min_busy.is_finite() { min_busy } else { 0.0 },
        max_busy: if max_busy.is_finite() { max_busy } else { 0.0 },
        avg_busy,
        recorded_rows: recorded,
    }
}

/// Render the classic cpusage report: one row per half-second interval
/// plus the `Min`/`Max`/`Avg` summary rows (Appendix A.3's default,
/// human-readable output).
pub fn render_report(rows: &[UsageRow], limit: f64, freebsd: bool) -> String {
    let mut out = String::new();
    if freebsd {
        out.push_str(&format!(
            "{:>8} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
            "time", "user", "nice", "system", "intr", "idle"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:>8.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}\n",
                r.t_secs,
                r.user,
                r.nice,
                r.system + r.softirq,
                r.irq,
                r.idle + r.iowait
            ));
        }
    } else {
        out.push_str(&format!(
            "{:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
            "time", "user", "nice", "system", "iowait", "irq", "sirq", "idle"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:>8.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}\n",
                r.t_secs, r.user, r.nice, r.system, r.iowait, r.irq, r.softirq, r.idle
            ));
        }
    }
    out.push_str("---\n");
    let s = summarize(rows, limit);
    out.push_str(&format!("{:>8} {:>6.1}\n", "Min", s.min_busy));
    out.push_str(&format!("{:>8} {:>6.1}\n", "Max", s.max_busy));
    out.push_str(&format!(
        "{:>8} {:>6.1}  ({} rows under the {limit}% idle limit)\n",
        "Avg", s.avg_busy, s.recorded_rows
    ));
    out
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
    fn limit_snapping_selects_loaded_window() {
        let rows = vec![
            UsageRow {
                t_secs: 0.5,
                user: 2.0,
                nice: 0.0,
                system: 1.0,
                iowait: 0.0,
                irq: 0.0,
                softirq: 0.0,
                idle: 97.0,
            },
            UsageRow {
                t_secs: 1.0,
                user: 50.0,
                nice: 0.0,
                system: 30.0,
                iowait: 0.0,
                irq: 10.0,
                softirq: 0.0,
                idle: 10.0,
            },
            UsageRow {
                t_secs: 1.5,
                user: 40.0,
                nice: 0.0,
                system: 40.0,
                iowait: 0.0,
                irq: 10.0,
                softirq: 0.0,
                idle: 10.0,
            },
            UsageRow {
                t_secs: 2.0,
                user: 1.0,
                nice: 0.0,
                system: 1.0,
                iowait: 0.0,
                irq: 0.0,
                softirq: 0.0,
                idle: 98.0,
            },
        ];
        let s = summarize(&rows, 95.0);
        assert_eq!(s.recorded_rows, 2);
        assert!((s.avg_busy - 90.0).abs() < 1e-9);
        assert!((s.max_busy - 90.0).abs() < 1e-9);
        assert!((s.min_busy - 2.0).abs() < 1e-9);
        // -a equivalent records everything.
        let all = summarize(&rows, 100.0);
        assert_eq!(all.recorded_rows, 4);
    }

    #[test]
    fn machine_readable_formats() {
        let r = UsageRow {
            t_secs: 1.0,
            user: 10.0,
            nice: 0.0,
            system: 20.0,
            iowait: 1.0,
            irq: 5.0,
            softirq: 4.0,
            idle: 60.0,
        };
        assert_eq!(r.machine_readable(false), "10.0:0.0:20.0:1.0:5.0:4.0:60.0");
        // FreeBSD folds softirq into system and iowait into idle.
        assert_eq!(r.machine_readable(true), "10.0:0.0:24.0:5.0:61.0");
    }

    #[test]
    fn report_renders_both_dialects() {
        let rows = vec![UsageRow {
            t_secs: 0.5,
            user: 10.0,
            nice: 0.0,
            system: 20.0,
            iowait: 1.0,
            irq: 5.0,
            softirq: 4.0,
            idle: 60.0,
        }];
        let linux = render_report(&rows, 95.0, false);
        assert!(linux.contains("sirq"));
        assert!(linux.contains("Avg"));
        assert!(linux.lines().count() >= 6);
        let bsd = render_report(&rows, 95.0, true);
        assert!(!bsd.contains("sirq"));
        // FreeBSD folds softirq into system: 24.0.
        assert!(bsd.contains("24.0"));
    }

    #[test]
    fn empty_input() {
        assert!(usage_rows(&[]).is_empty());
        let s = summarize(&[], 95.0);
        assert_eq!(s.avg_busy, 0.0);
        assert_eq!(s.recorded_rows, 0);
    }
}

//! The sim-wide invariant oracle.
//!
//! Machine-checked statements of what *every* run — faulted or not —
//! must satisfy. The testbed calls [`Oracle::check_report`] on every
//! machine report of every cell, in every build, so any future change
//! that breaks conservation or a bound fails loudly with the cell label
//! attached.

use pcs_hw::MachineSpec;
use pcs_oskernel::RunReport;

/// Headroom factor over the sender's link rate for the achieved-rate
/// sanity check (framing-accounting differences).
const RATE_HEADROOM: f64 = 1.1;

/// Validates run reports against the simulation's conservation laws and
/// bounds. All methods are stateless; `label` names the offending cell
/// in the error.
pub struct Oracle;

impl Oracle {
    /// Check every invariant one machine's [`RunReport`] must satisfy:
    ///
    /// 1. **NIC conservation** — `nic_ring_drops + nic_ring_residue ≤
    ///    offered`, and the residue fits in the configured RX ring.
    /// 2. **Filter conservation** (per app) — every packet the kernel
    ///    picked up was either accepted or rejected:
    ///    `accepted + rejected == offered - nic_ring_drops - nic_ring_residue`.
    /// 3. **Kernel conservation** (per app) — every accepted packet was
    ///    delivered, dropped, or left in a kernel buffer:
    ///    `accepted == delivered + dropped_buffer + dropped_pool + kernel_residue`.
    /// 4. **Application conservation** (per app) —
    ///    `delivered == received + app_residue`.
    /// 5. **Attribution balance** — [`pcs_trace::DropAttribution::balanced`]
    ///    per app (the roll-up of 1–4).
    /// 6. **Range sanity** — capture rates and CPU utilisations in [0, 1].
    /// 7. **Clock monotonicity** — cpusage sample times never go
    ///    backwards, and the run's `elapsed` is past the last sample.
    /// 8. **Scheduler serialisation** — when the report carries `sched`
    ///    trace events, the spans on each CPU are monotone and never
    ///    overlap: a CPU runs one work item at a time.
    /// 9. **Stage-time conservation** — when the report carries a
    ///    stage-time account, it covers every CPU and, per CPU, the
    ///    per-work-kind busy entries plus idle sum exactly to the CPU's
    ///    accounted total, the idle entries agree, and no kind's stretch
    ///    exceeds its busy time.
    pub fn check_report(label: &str, spec: &MachineSpec, report: &RunReport) -> Result<(), String> {
        let err = |what: String| Err(format!("oracle[{label}/{}]: {what}", report.machine));

        let nic_gone = report.nic_ring_drops + report.nic_ring_residue;
        if nic_gone > report.offered {
            return err(format!(
                "NIC accounted for more packets than arrived: drops {} + residue {} > offered {}",
                report.nic_ring_drops, report.nic_ring_residue, report.offered
            ));
        }
        if report.nic_ring_residue > spec.nic.rx_ring_slots as u64 {
            return err(format!(
                "NIC ring residue {} exceeds the configured {} slots",
                report.nic_ring_residue, spec.nic.rx_ring_slots
            ));
        }
        let seen = report.offered - nic_gone;
        for (i, app) in report.apps.iter().enumerate() {
            let s = &app.stats;
            if s.accepted + s.rejected != seen {
                return err(format!(
                    "app {i}: filter saw {} + {} packets, kernel picked up {seen}",
                    s.accepted, s.rejected
                ));
            }
            if s.accepted != s.delivered + s.dropped_buffer + s.dropped_pool + s.kernel_residue {
                return err(format!(
                    "app {i}: accepted {} != delivered {} + buffer {} + pool {} + residue {}",
                    s.accepted, s.delivered, s.dropped_buffer, s.dropped_pool, s.kernel_residue
                ));
            }
            if s.delivered != app.received + s.app_residue {
                return err(format!(
                    "app {i}: delivered {} != received {} + app residue {}",
                    s.delivered, app.received, s.app_residue
                ));
            }
            let attr = report.attribution(i);
            if !attr.balanced() {
                return err(format!(
                    "app {i}: attribution unbalanced: generated {} != delivered {} + dropped {}",
                    attr.generated,
                    attr.delivered,
                    attr.dropped()
                ));
            }
            let rate = report.capture_rate(i);
            if !(0.0..=1.0).contains(&rate) {
                return err(format!("app {i}: capture rate {rate} outside [0, 1]"));
            }
        }
        for acct in &report.final_acct {
            let u = acct.utilisation();
            if !(0.0..=1.0).contains(&u) {
                return err(format!("CPU utilisation {u} outside [0, 1]"));
            }
        }
        let mut last = None;
        for sample in &report.samples {
            if let Some(prev) = last {
                if sample.t < prev {
                    return err(format!(
                        "cpusage sample clock went backwards: {:?} after {:?}",
                        sample.t, prev
                    ));
                }
            }
            last = Some(sample.t);
        }
        if let Some(prev) = last {
            if report.elapsed < prev {
                return err(format!(
                    "elapsed {:?} precedes the last sample at {:?}",
                    report.elapsed, prev
                ));
            }
        }
        if let Some(trace) = &report.trace {
            // Sched events are emitted in dispatch order, so each CPU's
            // spans must already be sorted — and disjoint, because a CPU
            // runs one work item at a time.
            let mut cpu_free: Vec<u64> = Vec::new();
            for ev in &trace.sched {
                let cpu = ev.cpu as usize;
                if cpu >= cpu_free.len() {
                    cpu_free.resize(cpu + 1, 0);
                }
                if ev.t_ns < cpu_free[cpu] {
                    return err(format!(
                        "cpu{cpu}: {} dispatched at {} ns while busy until {} ns",
                        ev.kind.name(),
                        ev.t_ns,
                        cpu_free[cpu]
                    ));
                }
                cpu_free[cpu] = ev.t_ns + ev.dur_ns;
            }
        }
        if let Some(stage) = &report.stage_times {
            if stage.cpus.len() != report.final_acct.len() {
                return err(format!(
                    "stage times cover {} CPUs, accounting has {}",
                    stage.cpus.len(),
                    report.final_acct.len()
                ));
            }
            for (cpu, (st, acct)) in stage.cpus.iter().zip(&report.final_acct).enumerate() {
                if st.total() != acct.total() {
                    return err(format!(
                        "cpu{cpu}: stage times sum to {} ns, accounting to {} ns",
                        st.total(),
                        acct.total()
                    ));
                }
                if st.idle_ns != acct.idle {
                    return err(format!(
                        "cpu{cpu}: stage idle {} ns disagrees with accounted idle {} ns",
                        st.idle_ns, acct.idle
                    ));
                }
                for (k, (&busy, &stretch)) in st.busy_ns.iter().zip(&st.stretch_ns).enumerate() {
                    if stretch > busy {
                        return err(format!(
                            "cpu{cpu}: work kind {k} stretch {stretch} ns exceeds busy {busy} ns"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Check the generator-side achieved rate: finite and inside
    /// [0, link rate × 1.1] Mbit/s — the sender's physical line rate
    /// plus framing-accounting headroom, so the bound follows the
    /// testbed's NIC (GbE in the thesis setup, 10 GigE in ext-10gige).
    pub fn check_rate(label: &str, achieved_mbps: f64, link_mbps: f64) -> Result<(), String> {
        let ceiling = link_mbps * RATE_HEADROOM;
        if !achieved_mbps.is_finite() || !(0.0..=ceiling).contains(&achieved_mbps) {
            return Err(format!(
                "oracle[{label}]: achieved rate {achieved_mbps} Mbit/s outside [0, {ceiling}]"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_des::SimTime;
    use pcs_oskernel::{AppReport, StackStats};

    fn clean_report() -> RunReport {
        let stats = StackStats {
            accepted: 90,
            rejected: 5,
            dropped_buffer: 3,
            dropped_pool: 1,
            delivered: 80,
            kernel_residue: 6,
            app_residue: 2,
        };
        RunReport {
            machine: "test".into(),
            offered: 100,
            nic_ring_drops: 4,
            nic_ring_residue: 1,
            apps: vec![AppReport {
                received: 78,
                received_bytes: 0,
                stats,
                captured: Vec::new(),
            }],
            samples: Vec::new(),
            final_acct: Vec::new(),
            load_acct: None,
            elapsed: SimTime::from_secs(1),
            disk_bytes: 0,
            pipe_bytes: 0,
            trace: None,
            stage_times: None,
        }
    }

    fn spec() -> MachineSpec {
        MachineSpec::moorhen()
    }

    #[test]
    fn clean_report_passes() {
        Oracle::check_report("t", &spec(), &clean_report()).unwrap();
    }

    #[test]
    fn lost_packet_is_caught() {
        let mut r = clean_report();
        r.apps[0].received -= 1; // one delivered packet vanished
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("delivered"), "{e}");
    }

    #[test]
    fn filter_miscount_is_caught() {
        let mut r = clean_report();
        r.apps[0].stats.rejected += 1;
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("filter"), "{e}");
    }

    #[test]
    fn kernel_miscount_is_caught() {
        let mut r = clean_report();
        r.apps[0].stats.kernel_residue += 1; // filter identity stays intact
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("accepted"), "{e}");
    }

    #[test]
    fn oversized_ring_residue_is_caught() {
        let mut r = clean_report();
        let slots = spec().nic.rx_ring_slots as u64;
        r.offered += slots + 100;
        r.nic_ring_residue += slots + 100;
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("ring residue"), "{e}");
    }

    #[test]
    fn backwards_sample_clock_is_caught() {
        let mut r = clean_report();
        r.samples = vec![
            pcs_oskernel::CpuSample {
                t: SimTime::from_millis(500),
                per_cpu: Vec::new(),
            },
            pcs_oskernel::CpuSample {
                t: SimTime::from_millis(400),
                per_cpu: Vec::new(),
            },
        ];
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("backwards"), "{e}");
    }

    #[test]
    fn empty_run_passes() {
        let mut r = clean_report();
        r.offered = 0;
        r.nic_ring_drops = 0;
        r.nic_ring_residue = 0;
        r.apps[0] = AppReport {
            received: 0,
            received_bytes: 0,
            stats: StackStats::default(),
            captured: Vec::new(),
        };
        Oracle::check_report("t", &spec(), &r).unwrap();
    }

    #[test]
    fn overlapping_sched_spans_are_caught() {
        use pcs_trace::{SchedEvent, TraceReport, WorkKind};
        let span = |t_ns: u64, dur_ns: u64, cpu: u16| SchedEvent {
            t_ns,
            dur_ns,
            cpu,
            app: 0,
            kind: WorkKind::KernelBatch,
        };
        let mut r = clean_report();
        // Disjoint per CPU — interleaving across CPUs is fine.
        r.trace = Some(Box::new(TraceReport {
            events: Vec::new(),
            sched: vec![span(0, 100, 0), span(50, 100, 1), span(100, 50, 0)],
            truncated: 0,
            metrics: Default::default(),
        }));
        Oracle::check_report("t", &spec(), &r).unwrap();
        // Overlap on one CPU: dispatched while still busy.
        r.trace.as_mut().unwrap().sched = vec![span(0, 100, 0), span(99, 10, 0)];
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("while busy"), "{e}");
    }

    #[test]
    fn inconsistent_stage_times_are_caught() {
        use pcs_oskernel::CpuAccounting;
        use pcs_trace::{StageTimes, WorkKind};
        let mut r = clean_report();
        let mut acct = CpuAccounting::default();
        acct.add(pcs_oskernel::CpuState::Irq, 700);
        acct.add(pcs_oskernel::CpuState::Idle, 300);
        r.final_acct = vec![acct];
        let mut st = StageTimes::new(1);
        st.add_busy(0, WorkKind::KernelBatch, 700);
        st.add_idle(0, 300);
        r.stage_times = Some(st.clone());
        Oracle::check_report("t", &spec(), &r).unwrap();
        // A lost nanosecond breaks conservation.
        r.stage_times.as_mut().unwrap().cpus[0].busy_ns[0] -= 1;
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("stage times sum"), "{e}");
        // Idle totals must agree bucket-for-bucket, not just in sum.
        let mut skewed = st.clone();
        skewed.cpus[0].idle_ns -= 50;
        skewed.cpus[0].busy_ns[0] += 50;
        r.stage_times = Some(skewed);
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("stage idle"), "{e}");
        // Stretch is a share of busy time, never more.
        let mut stretched = st.clone();
        stretched.cpus[0].stretch_ns[0] = 701;
        r.stage_times = Some(stretched);
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("stretch"), "{e}");
        // Coverage must match the CPU count.
        r.stage_times = Some(StageTimes::new(2));
        let e = Oracle::check_report("t", &spec(), &r).unwrap_err();
        assert!(e.contains("CPUs"), "{e}");
    }

    #[test]
    fn rate_bounds_follow_the_sender_link() {
        Oracle::check_rate("t", 0.0, 1_000.0).unwrap();
        Oracle::check_rate("t", 970.0, 1_000.0).unwrap();
        assert!(Oracle::check_rate("t", -1.0, 1_000.0).is_err());
        assert!(Oracle::check_rate("t", 2_000.0, 1_000.0).is_err());
        assert!(Oracle::check_rate("t", f64::NAN, 1_000.0).is_err());
        // A 10 GigE sender raises the ceiling with it (ext-10gige).
        Oracle::check_rate("t", 2_000.0, 10_000.0).unwrap();
        assert!(Oracle::check_rate("t", 11_500.0, 10_000.0).is_err());
    }
}

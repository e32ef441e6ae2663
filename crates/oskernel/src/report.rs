//! Run reports: everything one machine simulation measures.
//!
//! The report types ([`RunReport`], [`AppReport`], [`CpuSample`]) and the
//! end-of-run assembly that turns a finished [`MachineSim`] into a
//! [`RunReport`] — residue accounting, stack finalization, and the
//! derived capture-rate/attribution helpers the experiments consume.

use crate::cpustate::{CpuAccounting, CpuState};
use crate::sim::{MachineSim, Stack};
use pcs_des::SimTime;
use pcs_trace::{DropAttribution, StageTimes, TraceReport};

/// The per-application outcome of a run.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Packets the application processed — the numerator of the thesis'
    /// capturing rate.
    pub received: u64,
    /// Captured bytes (post-snaplen).
    pub received_bytes: u64,
    /// Kernel-side counters for this app's consumer.
    pub stats: crate::stack::StackStats,
    /// Captured packet metadata (only when `AppConfig::record` was set).
    pub captured: Vec<crate::stack::CapturedPacket>,
}

/// One cpusage-style sample: cumulative accounting per CPU.
#[derive(Debug, Clone)]
pub struct CpuSample {
    /// Sample timestamp.
    pub t: SimTime,
    /// Cumulative per-CPU accounting at `t`.
    pub per_cpu: Vec<CpuAccounting>,
}

/// Everything measured in one machine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Machine label (e.g. "FreeBSD/AMD - moorhen").
    pub machine: String,
    /// Packets that arrived on the wire (the denominator of the capture
    /// rate, equal to the generator's count when the splitter is
    /// lossless).
    pub offered: u64,
    /// Packets dropped at the NIC ring (kernel never saw them).
    pub nic_ring_drops: u64,
    /// Packets still sitting in the NIC ring when the run stopped (the
    /// kernel never picked them up; counted separately so the per-stage
    /// attribution sums exactly to `offered`).
    pub nic_ring_residue: u64,
    /// Per-application results.
    pub apps: Vec<AppReport>,
    /// 0.5 s cpusage samples (cumulative).
    pub samples: Vec<CpuSample>,
    /// Final per-CPU accounting.
    pub final_acct: Vec<CpuAccounting>,
    /// Accounting snapshot at the moment the last packet arrived (the
    /// "loaded" window cpusage averages over).
    pub load_acct: Option<CpuSample>,
    /// Virtual time of the last processed event.
    pub elapsed: SimTime,
    /// Bytes that reached the disk.
    pub disk_bytes: u64,
    /// Bytes pushed through the capture→gzip pipe.
    pub pipe_bytes: u64,
    /// Event log and metrics, present when the sim ran with a tracing
    /// sink ([`MachineSim::with_trace`]).
    pub trace: Option<Box<TraceReport>>,
    /// Per-CPU/per-work-kind sim-time attribution, present when the sim
    /// ran with [`MachineSim::with_stage_times`]. Per CPU, the busy
    /// entries plus idle equal the matching [`CpuAccounting::total`]
    /// exactly.
    pub stage_times: Option<StageTimes>,
}

impl RunReport {
    /// Capture rate of one application (0..1).
    pub fn capture_rate(&self, app: usize) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.apps[app].received as f64 / self.offered as f64
    }

    /// Mean capture rate over all applications.
    pub fn mean_capture_rate(&self) -> f64 {
        if self.apps.is_empty() {
            return 0.0;
        }
        (0..self.apps.len())
            .map(|i| self.capture_rate(i))
            .sum::<f64>()
            / self.apps.len() as f64
    }

    /// Worst and best per-application capture rates.
    pub fn worst_best(&self) -> (f64, f64) {
        let mut worst = f64::INFINITY;
        let mut best = f64::NEG_INFINITY;
        for i in 0..self.apps.len() {
            let r = self.capture_rate(i);
            worst = worst.min(r);
            best = best.max(r);
        }
        (worst.clamp(0.0, 1.0), best.clamp(0.0, 1.0))
    }

    /// Mean CPU busy fraction across CPUs over the whole run.
    pub fn mean_cpu_usage(&self) -> f64 {
        if self.final_acct.is_empty() {
            return 0.0;
        }
        self.final_acct.iter().map(|a| a.utilisation()).sum::<f64>() / self.final_acct.len() as f64
    }

    /// Exhaustive per-stage drop attribution for one consumer: where every
    /// generated packet ended up. The identity
    /// `generated == delivered + dropped()` holds exactly
    /// ([`DropAttribution::balanced`]) — this is the paper's
    /// loss-localization analysis computed from end-of-run counters, not
    /// from the (bounded) event log.
    pub fn attribution(&self, app: usize) -> DropAttribution {
        let s = &self.apps[app].stats;
        DropAttribution {
            generated: self.offered,
            nic_drops: self.nic_ring_drops,
            nic_residue: self.nic_ring_residue,
            filter_rejects: s.rejected,
            kernel_buffer_drops: s.dropped_buffer,
            kernel_pool_drops: s.dropped_pool,
            kernel_residue: s.kernel_residue,
            app_residue: s.app_residue,
            delivered: self.apps[app].received,
        }
    }

    /// [`RunReport::attribution`] for every consumer.
    pub fn attributions(&self) -> Vec<DropAttribution> {
        (0..self.apps.len()).map(|i| self.attribution(i)).collect()
    }

    /// Mean CPU busy fraction across CPUs during the loaded window (up to
    /// the last packet arrival) — what the thesis' cpusage/trimusage
    /// pipeline reports.
    pub fn load_cpu_usage(&self) -> f64 {
        match &self.load_acct {
            Some(s) if !s.per_cpu.is_empty() => {
                s.per_cpu.iter().map(|a| a.utilisation()).sum::<f64>() / s.per_cpu.len() as f64
            }
            _ => self.mean_cpu_usage(),
        }
    }
}

impl MachineSim {
    /// Close out a finished event loop into the run's report: idle
    /// accounting up to the last event, end-of-run residue attribution,
    /// and the final per-app/per-CPU numbers.
    pub(crate) fn finish_report(mut self) -> RunReport {
        let end = self.sched.queue.now();
        // Close idle accounting (mirrored into the stage-time account so
        // its per-CPU totals match `acct` exactly).
        let mut stage_times = self.sched.stage.take();
        for (i, cpu) in self.sched.cpus.iter_mut().enumerate() {
            if cpu.current.is_none() && end > cpu.idle_since {
                let gap = end.since(cpu.idle_since).as_nanos();
                cpu.acct.add(CpuState::Idle, gap);
                if let Some(st) = stage_times.as_mut() {
                    st.add_idle(i, gap);
                }
            }
        }
        // End-of-run residue accounting: packets still in flight when the
        // controller stopped the run were never captured; attributing them
        // to the buffer that held them keeps the per-stage drop identity
        // exact (`generated == delivered + every loss bucket`).
        let nic_ring_residue = self.ring.len() as u64;
        for i in 0..self.apps.len() {
            let received = self.apps[i].received;
            match &mut self.stack {
                Stack::Bpf(devs) => {
                    devs[i].finalize_residue();
                    devs[i].stats.app_residue = devs[i].stats.delivered - received;
                }
                Stack::Lsf(l) => {
                    l.sockets[i].finalize_residue();
                    l.sockets[i].stats.app_residue = l.sockets[i].stats.delivered - received;
                }
            }
        }
        if let Some(m) = self.trace.metrics_mut() {
            m.set_gauge("dirty_bytes_final", self.dirty_bytes as f64);
            m.set_gauge("pipe_used_final", self.pipe_used as f64);
            m.inc("disk_bytes", self.disk_bytes);
            m.inc("pipe_bytes", self.pipe_bytes_total);
        }
        let apps = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppReport {
                received: a.received,
                received_bytes: a.received_bytes,
                captured: a.captured.clone(),
                stats: match &self.stack {
                    Stack::Bpf(devs) => devs[i].stats,
                    Stack::Lsf(l) => l.sockets[i].stats,
                },
            })
            .collect();
        // Publish pool statistics to the probe, if one is armed. This is
        // pure observability: the numbers never enter the RunReport.
        if let Some(probe) = &self.pool_probe {
            probe.publish(self.sched.pool.stats());
        }
        let trace = std::mem::take(&mut self.trace).into_report().map(Box::new);
        RunReport {
            machine: self.spec.label(),
            offered: self.offered,
            nic_ring_drops: self.nic_ring_drops,
            nic_ring_residue,
            apps,
            samples: self.samples,
            final_acct: self.sched.cpus.iter().map(|c| c.acct).collect(),
            load_acct: self.load_end,
            elapsed: end,
            disk_bytes: self.disk_bytes + self.dirty_bytes,
            pipe_bytes: self.pipe_bytes_total,
            trace,
            stage_times,
        }
    }
}

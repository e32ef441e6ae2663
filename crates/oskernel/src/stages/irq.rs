//! Interrupt fire: moderation/polling gates, the batch drain across the
//! bus, and kernel-side delivery into every consumer.

use super::MAX_IRQ_BATCH;
use crate::cpustate::CpuState;
use crate::event::{Completion, SimEvent, Work};
use crate::sim::{MachineSim, Stack};
use crate::stack::DropKind;
use pcs_des::{SimDuration, SimTime};
use pcs_hw::InterruptScheme;
use pcs_trace::{Stage, WorkKind, APP_NONE, SEQ_NONE};

/// Map one consumer's [`crate::stack::DeliverOutcome`] to its trace
/// stages: the filter verdict, and (for accepted packets) whether the
/// kernel stored or dropped it.
pub(crate) fn consumer_stages(o: &crate::stack::DeliverOutcome) -> (Stage, Option<Stage>) {
    if !o.accepted {
        (Stage::FilterReject, None)
    } else if o.stored {
        (Stage::FilterAccept, Some(Stage::KernelEnqueue))
    } else {
        let dropped = match o.drop {
            DropKind::Pool => Stage::KernelDropPool,
            _ => Stage::KernelDropBuffer,
        };
        (Stage::FilterAccept, Some(dropped))
    }
}

impl MachineSim {
    /// Fire an interrupt (or poll visit) over the ring when the NIC's
    /// interrupt scheme allows it now, else arm an [`SimEvent::IrqGate`]
    /// for when it will. Also the handler of `IrqGate` itself.
    pub(crate) fn try_fire_irq(&mut self, now: SimTime) {
        if self.irq_pending || self.ring.is_empty() {
            return;
        }
        if let Some(f) = self.faults.as_deref_mut() {
            let extra = f.irq_extra_gap_ns(now.as_nanos());
            if extra > 0 {
                let until = now + SimDuration::from_nanos(extra);
                if until > self.fault_irq_gate {
                    self.fault_irq_gate = until;
                    self.sched.queue.schedule(until, SimEvent::IrqGate);
                }
                return;
            }
        }
        match self.spec.nic.interrupts {
            InterruptScheme::Moderated { min_gap_ns } => {
                if now < self.next_irq_allowed {
                    self.sched
                        .queue
                        .schedule(self.next_irq_allowed, SimEvent::IrqGate);
                    return;
                }
                self.next_irq_allowed = now + SimDuration::from_nanos(min_gap_ns);
            }
            InterruptScheme::Polling { interval_ns } => {
                // The ring is only visited on the polling clock.
                if now < self.next_irq_allowed {
                    self.sched
                        .queue
                        .schedule(self.next_irq_allowed, SimEvent::IrqGate);
                    return;
                }
                self.next_irq_allowed = now + SimDuration::from_nanos(interval_ns);
            }
            InterruptScheme::PerPacket => {}
        }
        self.irq_pending = true;
        let n = self.ring.len().min(MAX_IRQ_BATCH);
        // Pooled batch scratch of stream positions: the same buffer
        // circulates between interrupts, so draining the ring allocates
        // nothing in steady state.
        let mut batch = self.sched.pool.views.get();
        batch.reserve(n);
        for _ in 0..n {
            batch.push(self.ring.pop_front().expect("len checked"));
        }
        if self.trace.is_on() {
            let bytes: u64 = batch
                .iter()
                .map(|&pos| self.window.get(pos).packet.frame_len as u64)
                .sum();
            self.trace.emit(
                now.as_nanos(),
                Stage::BusTransfer,
                SEQ_NONE,
                bytes,
                APP_NONE,
                n as u32,
            );
            if let Some(m) = self.trace.metrics_mut() {
                m.observe("irq_batch_packets", n as u64);
                m.inc("irq_fires", 1);
            }
        }
        if let Some(f) = self.faults.as_deref_mut() {
            let permille = f.buffer_permille(now.as_nanos());
            match &mut self.stack {
                Stack::Bpf(devs) => devs
                    .iter_mut()
                    .for_each(|d| d.set_capacity_permille(permille)),
                Stack::Lsf(l) => l.set_capacity_permille(permille),
            }
        }
        let work = self.kernel_batch_work(now, &batch);
        self.sched.pool.views.put(batch);
        self.submit(now, 0, work, true);
    }

    /// Deliver the batch of stream positions `batch` to every consumer
    /// and price it as one kernel work item.
    pub(crate) fn kernel_batch_work(&mut self, now: SimTime, batch: &[u64]) -> Work {
        let c = &self.costs;
        let consumer_cost = |insns: u32| c.tap_pkt_ns + (insns as f64 * c.filter_insn_ns) as u64;
        let freebsd = self.spec.os.is_freebsd();
        // A poll visit skips the interrupt entry/ack machinery.
        let mut irq_ns = match self.spec.nic.interrupts {
            InterruptScheme::Polling { .. } => c.irq_ns / 4,
            _ => c.irq_ns,
        };
        let mut soft_ns = 0u64;
        let recv_ns = now.as_nanos();
        let mut copy_total = 0u64;
        let tracing = self.trace.is_on();
        for &pos in batch {
            let tp = self.window.get(pos);
            let len = tp.packet.frame_len as u64;
            let per_pkt = c.rx_pkt_ns;
            let mut consumer_ns = 0u64;
            match &mut self.stack {
                Stack::Bpf(devs) => {
                    for (i, d) in devs.iter_mut().enumerate() {
                        let o = d.deliver(pos, tp, recv_ns);
                        consumer_ns += consumer_cost(o.filter_insns);
                        copy_total += o.copied_bytes as u64;
                        if tracing {
                            let (verdict, kernel) = consumer_stages(&o);
                            self.trace.emit(recv_ns, verdict, pos, len, i as u16, 1);
                            if let Some(k) = kernel {
                                self.trace.emit(recv_ns, k, pos, len, i as u16, 1);
                            }
                        }
                    }
                }
                Stack::Lsf(l) => {
                    let outcomes = l.deliver(pos, tp, recv_ns);
                    for (i, o) in outcomes.iter().enumerate() {
                        consumer_ns += consumer_cost(o.filter_insns);
                        copy_total += o.copied_bytes as u64;
                        if tracing {
                            let (verdict, kernel) = consumer_stages(o);
                            self.trace.emit(recv_ns, verdict, pos, len, i as u16, 1);
                            if let Some(k) = kernel {
                                self.trace.emit(recv_ns, k, pos, len, i as u16, 1);
                            }
                        }
                    }
                }
            }
            if freebsd {
                irq_ns += per_pkt + consumer_ns;
            } else {
                soft_ns += per_pkt + c.softirq_pkt_ns + consumer_ns;
            }
        }
        // Buffer copies: DMA-fresh data, uncached.
        let copy_ns = if copy_total > 0 {
            self.copy_ns(copy_total, false)
        } else {
            0
        };
        let segments: &[(CpuState, u64)] = if freebsd {
            &[(CpuState::Irq, irq_ns + copy_ns)]
        } else {
            &[
                (CpuState::Irq, irq_ns),
                (CpuState::SoftIrq, soft_ns + copy_ns),
            ]
        };
        Work::new(WorkKind::KernelBatch, segments, Completion::KernelBatch)
    }

    pub(crate) fn wake_readable_apps(&mut self, now: SimTime) {
        for app in 0..self.apps.len() {
            if self.apps[app].state == crate::sim::AppState::Blocked && self.consumer_readable(app)
            {
                self.app_try_work(now, app);
            }
        }
    }
}

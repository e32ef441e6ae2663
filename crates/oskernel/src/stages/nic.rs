//! Wire arrival: PCI-bus admission, the RX descriptor ring, and the
//! arrival-rate estimator.

use super::ArrivalSource;
use crate::event::SimEvent;
use crate::sim::MachineSim;
use pcs_des::{SimDuration, SimTime};
use pcs_trace::{Stage, APP_NONE};

impl MachineSim {
    /// Handle [`SimEvent::Arrival`] of the packet at stream position
    /// `pos`: PCI credit, ring entry, the next source pull, and the IRQ
    /// gate. One call per packet.
    pub(super) fn on_arrival(&mut self, now: SimTime, pos: u64, src: ArrivalSource) {
        self.offered += 1;
        let frame_len = self.window.get(pos).packet.frame_len as u64;
        self.note_arrival(now, frame_len as u32);
        self.trace
            .emit(now.as_nanos(), Stage::Wire, pos, frame_len, APP_NONE, 1);
        // The NIC's FIFO drains across the PCI bus, which it
        // shares with the disk write-back traffic. When the
        // bus is oversubscribed only a fraction of the frames
        // make it to host memory (fractional credit keeps the
        // model deterministic).
        let mut demand = self.arrival_ema_bps as u64 + self.writeback_ema_bps as u64;
        let mut ring_slots = self.ring_slots;
        if let Some(f) = self.faults.as_deref_mut() {
            demand = demand.saturating_add(f.bus_extra_demand_bps(now.as_nanos()));
            ring_slots = f.ring_slots(now.as_nanos(), ring_slots);
        }
        self.pci_credit += self.spec.pci.service_fraction(demand);
        if self.pci_credit < 1.0 {
            self.nic_ring_drops += 1;
            self.trace.emit(
                now.as_nanos(),
                Stage::NicDropBus,
                pos,
                frame_len,
                APP_NONE,
                1,
            );
        } else {
            self.pci_credit -= 1.0;
            if self.ring.len() < ring_slots {
                self.ring.push_back(pos);
                self.trace.emit(
                    now.as_nanos(),
                    Stage::NicEnqueue,
                    pos,
                    frame_len,
                    APP_NONE,
                    1,
                );
                if let Some(m) = self.trace.metrics_mut() {
                    m.observe("nic_ring_depth", self.ring.len() as u64);
                }
            } else {
                self.nic_ring_drops += 1;
                self.trace.emit(
                    now.as_nanos(),
                    Stage::NicDropRing,
                    pos,
                    frame_len,
                    APP_NONE,
                    1,
                );
            }
        }
        // The ring holds the only live positions now: this arrival is
        // handled and the next one not yet pulled.
        match self.window.pull(src, self.ring.front().copied()) {
            Some(next) => self.schedule_arrival(next),
            None => {
                self.source_done = true;
                self.load_end = Some(self.sample(now));
                self.stop_at = Some(now + SimDuration::from_nanos(self.drain_timeout_ns));
            }
        }
        self.try_fire_irq(now);
    }

    /// Schedule the pulled packet at stream position `pos` as the next
    /// arrival. It waits in the admission cursor under a reserved heap
    /// sequence number (tie-breaking identical to the heap), or, in the
    /// `with_batching(false)` oracle, is scheduled through the heap.
    pub(crate) fn schedule_arrival(&mut self, pos: u64) {
        let t = self.window.get(pos).time;
        if self.batching {
            let seq = self.sched.queue.reserve_seq();
            let key = pcs_des::EventQueue::<SimEvent>::admission_key(t, seq);
            self.pending_arrival.stash(key, pos);
        } else {
            self.sched.queue.schedule(t, SimEvent::Arrival(pos));
        }
    }

    pub(crate) fn note_arrival(&mut self, now: SimTime, frame_len: u32) {
        let dt = now.since(self.last_arrival).as_nanos().max(1) as f64;
        let inst = frame_len as f64 * 1e9 / dt;
        // ~2 ms smoothing.
        let alpha = (-dt / 2e6).exp();
        self.arrival_ema_bps = self.arrival_ema_bps * alpha + inst * (1.0 - alpha);
        self.last_arrival = now;
    }
}

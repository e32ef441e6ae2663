//! Wire arrival: PCI-bus admission, the RX descriptor ring, and the
//! arrival-rate estimator.

use super::ArrivalSource;
use crate::event::SimEvent;
use crate::sim::MachineSim;
use pcs_des::{SimDuration, SimTime};
use pcs_pktgen::PacketRef;
use pcs_trace::{Stage, APP_NONE};

/// The NIC stage: handles [`SimEvent::Arrival`].
pub(crate) struct Nic;

impl super::Stage for Nic {
    const NAME: &'static str = "nic";

    fn on_event(sim: &mut MachineSim, now: SimTime, ev: SimEvent, src: ArrivalSource) {
        let SimEvent::Arrival(pkt) = ev else {
            unreachable!("{} stage only handles arrivals", Self::NAME);
        };
        sim.on_arrival(now, pkt, src);
    }
}

impl MachineSim {
    fn on_arrival(&mut self, now: SimTime, pkt: PacketRef, src: ArrivalSource) {
        self.admit_arrival(now, pkt, src);
        if !self.batching {
            return;
        }
        // Macro-event coalescing: while the next arrival precedes every
        // queued event, admit it here instead of bouncing through the
        // main loop. This is exact, not approximate — the loop repeats
        // precisely the main loop's admission (same `precedes` check
        // over the same keys, same clock advance, same per-arrival
        // handler including the fault hooks, trace emissions, ring
        // bounds and IRQ gate), so any intervening event — a CpuFree, a
        // fault-window IRQ gate, the sample clock — splits the run
        // exactly where the unbatched engine would have interleaved it.
        // The main loop's stop_at check cannot be bypassed either:
        // stop_at is set only on source exhaustion, which leaves the
        // cursor empty and ends the run here.
        let mut run_len = 1u64;
        while run_len < crate::sim::BATCH_COALESCE_CAP
            && self.pending_arrival.precedes(self.sched.queue.peek_key())
        {
            let (t, pkt) = self
                .pending_arrival
                .take()
                .expect("cursor checked non-empty");
            self.sched.queue.advance_to(t);
            self.admit_arrival(t, pkt, src);
            run_len += 1;
        }
        self.batch_stats.note_run(run_len);
    }

    /// The per-arrival admission body: PCI credit, ring entry, the next
    /// source pull, and the IRQ gate. One call per packet, identical
    /// whether entered from the main loop or a coalesced run.
    fn admit_arrival(&mut self, now: SimTime, pkt: PacketRef, src: ArrivalSource) {
        self.offered += 1;
        let (seq, frame_len) = {
            let p = pkt.packet();
            (p.seq, p.frame_len as u64)
        };
        self.note_arrival(now, frame_len as u32);
        self.trace
            .emit(now.as_nanos(), Stage::Wire, seq, frame_len, APP_NONE, 1);
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
                seq,
                frame_len,
                APP_NONE,
                1,
            );
        } else {
            self.pci_credit -= 1.0;
            if self.ring.len() < ring_slots {
                self.ring.push_back(pkt);
                self.trace.emit(
                    now.as_nanos(),
                    Stage::NicEnqueue,
                    seq,
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
                    seq,
                    frame_len,
                    APP_NONE,
                    1,
                );
            }
        }
        match src.next() {
            Some(next) => self.schedule_arrival(next),
            None => {
                self.source_done = true;
                self.load_end = Some(self.sample(now));
                self.stop_at = Some(now + SimDuration::from_nanos(self.drain_timeout_ns));
            }
        }
        self.try_fire_irq(now);
    }

    /// Schedule one pulled packet as the next arrival. Batched, it waits
    /// in the admission cursor under a reserved heap sequence number
    /// (tie-breaking identical to the heap); unbatched, it is scheduled
    /// through the heap as always.
    pub(crate) fn schedule_arrival(&mut self, pkt: PacketRef) {
        let t = pkt.time();
        if self.batching {
            let seq = self.sched.queue.reserve_seq();
            let key = pcs_des::EventQueue::<SimEvent>::admission_key(t, seq);
            self.pending_arrival.stash(key, pkt);
        } else {
            self.sched.queue.schedule(t, SimEvent::Arrival(pkt));
        }
    }

    pub(crate) fn note_arrival(&mut self, now: SimTime, frame_len: u32) {
        let dt = now.since(self.last_arrival).as_nanos().max(1) as f64;
        let inst = frame_len as f64 * 1e9 / dt;
        // ~2 ms smoothing; memoized (constant-gap streams repeat dt).
        let alpha = self.memo.alpha_arrival.get(dt, |dt| (-dt / 2e6).exp());
        self.arrival_ema_bps = self.arrival_ema_bps * alpha + inst * (1.0 - alpha);
        self.last_arrival = now;
    }
}

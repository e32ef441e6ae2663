//! Periodic cpusage-style accounting samples and drain detection.

use crate::cpustate::CpuState;
use crate::event::SimEvent;
use crate::report::CpuSample;
use crate::sim::{AppState, MachineSim};
use pcs_des::{SimDuration, SimTime};

impl MachineSim {
    /// Handle [`SimEvent::Sample`]: record a cpusage sample and re-arm
    /// the half-second clock until the run has drained.
    pub(super) fn on_sample(&mut self, now: SimTime) {
        self.samples.push(self.sample(now));
        // Defensive kicks: restart any stalled background
        // consumer so sampling can't outlive real work.
        self.schedule_writeback(now);
        self.gzip_try_work(now);
        let done = self.source_done && (self.fully_drained() || self.sched.queue.is_empty());
        if self.sampling && !done {
            self.sched
                .queue
                .schedule(now + SimDuration::from_millis(500), SimEvent::Sample);
        } else {
            self.sampling = false;
        }
    }

    pub(crate) fn sample(&self, t: SimTime) -> CpuSample {
        // Cumulative accounting including implicit idle up to `t`.
        let per_cpu = self
            .sched
            .cpus
            .iter()
            .map(|c| {
                let mut acct = c.acct;
                if c.current.is_none() && t > c.idle_since {
                    acct.add(CpuState::Idle, t.since(c.idle_since).as_nanos());
                }
                acct
            })
            .collect();
        CpuSample { t, per_cpu }
    }

    pub(crate) fn fully_drained(&self) -> bool {
        self.source_done
            && self.ring.is_empty()
            && !self.irq_pending
            && self.sched.cpus.iter().all(|c| !c.busy())
            && self.apps.iter().enumerate().all(|(i, a)| {
                a.state == AppState::Blocked && a.pending.is_empty() && !self.consumer_readable(i)
            })
            && self.dirty_bytes == 0
            && self.pipe_used == 0
    }
}

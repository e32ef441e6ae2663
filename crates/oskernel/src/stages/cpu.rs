//! CPU completion: account the finished work item, run what it
//! triggers, and restart the CPU.

use crate::event::{Completion, SimEvent};
use crate::sim::MachineSim;
use pcs_des::SimTime;
use pcs_trace::Stage;

impl MachineSim {
    /// Handle [`SimEvent::CpuFree`]: account the work item that just
    /// finished on `cpu`, run its completion, and restart the CPU.
    pub(super) fn cpu_free(&mut self, now: SimTime, cpu: usize) {
        let (mut work, kernel_ns) = self.sched.finish_current(now, cpu);
        if cpu == 0 && kernel_ns > 0 {
            self.note_kernel_busy(now, kernel_ns);
        }
        // Extract the completion and retire the work box before running
        // the handler, so the box is on the free list in time for any
        // work the handler itself submits.
        let complete = std::mem::replace(&mut work.complete, Completion::None);
        self.sched.pool.recycle_work(work);
        match complete {
            Completion::KernelBatch => {
                self.irq_pending = false;
                self.wake_readable_apps(now);
                self.try_fire_irq(now);
            }
            Completion::AppCopyout { app } => self.app_process_pending(now, app),
            Completion::AppChunk {
                app,
                packets,
                bytes,
                mut recorded,
                traced,
            } => {
                self.apps[app].received += packets;
                self.apps[app].received_bytes += bytes;
                self.apps[app].captured.append(&mut recorded);
                self.sched.pool.captured.put(recorded);
                if !traced.is_empty() {
                    let now_ns = now.as_nanos();
                    for &(seq, _, caplen) in &traced {
                        self.trace.emit(
                            now_ns,
                            Stage::AppDeliver,
                            seq,
                            caplen as u64,
                            app as u16,
                            1,
                        );
                    }
                    // One digest lookup per chunk, not per packet; the
                    // recorded values are identical.
                    if let Some(m) = self.trace.metrics_mut() {
                        let d = m.digest_entry("wire_to_app_latency_ns");
                        for &(_, gen_ns, _) in &traced {
                            d.record(now_ns.saturating_sub(gen_ns));
                        }
                    }
                }
                self.sched.pool.traced.put(traced);
                self.app_continue(now, app);
            }
            Completion::GzipChunk { bytes } => {
                self.pipe_used = self.pipe_used.saturating_sub(bytes);
                self.gzip_busy = false;
                // Wake pipe writers blocked on space.
                let writers = std::mem::take(&mut self.pipe_writers_asleep);
                for w in writers {
                    self.sched.queue.schedule(now, SimEvent::AppResume(w));
                }
                self.gzip_try_work(now);
            }
            Completion::None => {}
        }
        // A completion handler may already have started the next item on
        // this CPU (e.g. a wakeup submitting application work).
        if !self.sched.cpus[cpu].busy() {
            self.start_next(now, cpu);
        }
    }
}

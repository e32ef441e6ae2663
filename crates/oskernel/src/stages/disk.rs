//! Disk write-back and the gzip helper process fed through the FIFO.

use super::{PIPE_CAPACITY, WRITEBACK_CHUNK};
use crate::cpustate::CpuState;
use crate::event::{Completion, SimEvent, Work};
use crate::sim::MachineSim;
use pcs_des::{SimDuration, SimTime};
use pcs_trace::{Stage, WorkKind, APP_NONE, SEQ_NONE};

impl MachineSim {
    /// Handle [`SimEvent::WritebackDone`]: one write-back chunk reached
    /// the disk.
    pub(super) fn writeback_done(&mut self, now: SimTime) {
        let chunk = WRITEBACK_CHUNK.min(self.dirty_bytes);
        self.dirty_bytes -= chunk;
        self.disk_bytes += chunk;
        self.writeback_scheduled = false;
        self.trace.emit(
            now.as_nanos(),
            Stage::DiskWrite,
            SEQ_NONE,
            chunk,
            APP_NONE,
            1,
        );
        // Track the write-back rate for PCI bus sharing.
        let dt = now.since(self.last_writeback).as_nanos().max(1) as f64;
        let inst = chunk as f64 * 1e9 / dt;
        let alpha = (-dt / 50e6).exp();
        self.writeback_ema_bps = self.writeback_ema_bps * alpha + inst * (1.0 - alpha);
        self.last_writeback = now;
        // Completion interrupt cost on CPU0.
        let w = Work::new(
            WorkKind::DiskIrq,
            &[(CpuState::Irq, self.spec.disk.irq_ns)],
            Completion::None,
        );
        self.submit(now, 0, w, true);
        self.schedule_writeback(now);
    }

    pub(crate) fn schedule_writeback(&mut self, now: SimTime) {
        if self.writeback_scheduled || self.dirty_bytes == 0 {
            return;
        }
        self.writeback_scheduled = true;
        let chunk = WRITEBACK_CHUNK.min(self.dirty_bytes);
        let t = now + SimDuration::from_nanos(self.spec.disk.write_ns(chunk));
        self.sched.queue.schedule(t, SimEvent::WritebackDone);
    }

    pub(crate) fn gzip_try_work(&mut self, now: SimTime) {
        if self.gzip_busy || self.pipe_used == 0 {
            return;
        }
        // Find the compression level from the piping app.
        let level = self
            .apps
            .iter()
            .find_map(|a| a.cfg.pipe_to_gzip)
            .unwrap_or(3);
        self.gzip_busy = true;
        let c = &self.costs;
        let bytes = self.pipe_used.min(PIPE_CAPACITY);
        let cycles = c.compress_cycles_per_byte[level.min(9) as usize];
        let compress_ns = (bytes as f64 * cycles * 1e9 / self.spec.cpu.clock_hz as f64) as u64;
        let read_ns = c.pipe_syscall_ns + (bytes as f64 * c.pipe_ns_per_byte) as u64;
        let work = Work::new(
            WorkKind::Gzip,
            &[(CpuState::System, read_ns), (CpuState::User, compress_ns)],
            Completion::GzipChunk { bytes },
        );
        // A fresh CPU-bound process lands wherever the scheduler finds
        // room — on either OS, migration across CPUs is routine for
        // whole processes.
        let cpu = self.least_loaded_cpu();
        self.submit(now, cpu, work, false);
    }
}

//! Application work: reads from the capture stacks, chunked user-space
//! processing with the configured analysis loads, and the disk/pipe
//! throttles that put applications to sleep.

use super::{APP_CHUNK, DIRTY_LIMIT, PIPE_CAPACITY};
use crate::cpustate::CpuState;
use crate::event::{Completion, SimEvent, Work};
use crate::sim::{AppState, MachineSim, Stack};
use crate::stack::CapturedPacket;
use pcs_des::{SimDuration, SimTime};
use pcs_trace::WorkKind;

impl MachineSim {
    /// Handle [`SimEvent::AppResume`]: a sleeping application wakes and
    /// retries its read.
    pub(super) fn app_resume(&mut self, now: SimTime, app: usize) {
        self.apps[app].state = AppState::Blocked;
        self.app_try_work(now, app);
    }

    pub(crate) fn consumer_readable(&self, app: usize) -> bool {
        match &self.stack {
            Stack::Bpf(devs) => devs[app].readable(),
            Stack::Lsf(l) => l.sockets[app].readable(),
        }
    }

    /// Start a read if the app is blocked and data is available.
    pub(crate) fn app_try_work(&mut self, now: SimTime, app: usize) {
        if self.apps[app].state != AppState::Blocked {
            return;
        }
        if self.fault_pause_app(now, app) {
            return;
        }
        if !self.apps[app].pending.is_empty() {
            self.apps[app].state = AppState::Running;
            self.app_process_pending(now, app);
            return;
        }

        if !self.consumer_readable(app) {
            return;
        }
        self.apps[app].state = AppState::Running;
        let c = &self.costs;
        match &mut self.stack {
            Stack::Bpf(devs) => {
                // One read() returns a whole buffer: syscall + bulk
                // copyout straight into the app's pending queue (no
                // intermediate vector), then per-packet user processing.
                let (_, bytes) = devs[app].read_into(&mut self.apps[app].pending);
                let cached = 2 * devs[app].half_capacity() <= self.spec.cpu.l2_bytes;
                let copy = self
                    .spec
                    .memory
                    .copy_ns(bytes, self.arrival_ema_bps as u64, 0, cached);
                let work = Work::new(
                    WorkKind::AppRead,
                    &[(CpuState::System, c.wakeup_ns + c.syscall_ns + copy)],
                    Completion::AppCopyout { app },
                );
                let cpu = self.app_run_cpu(app);
                self.submit(now, cpu, work, false);
            }
            Stack::Lsf(_) => {
                self.app_linux_chunk(now, app);
            }
        }
    }

    /// If an armed plan pauses `app` at `now`, park it until the window
    /// closes and return `true`.
    pub(crate) fn fault_pause_app(&mut self, now: SimTime, app: usize) -> bool {
        if let Some(f) = self.faults.as_deref_mut() {
            if let Some(resume_ns) = f.app_pause_until_ns(now.as_nanos(), app) {
                self.apps[app].state = AppState::Sleeping;
                self.sched.queue.schedule(
                    SimTime::from_nanos(resume_ns.max(now.as_nanos() + 1)),
                    SimEvent::AppResume(app),
                );
                return true;
            }
        }
        false
    }

    /// FreeBSD: process copied-out packets in user space, chunked.
    pub(crate) fn app_process_pending(&mut self, now: SimTime, app: usize) {
        if self.fault_pause_app(now, app) {
            return;
        }
        let n = self.apps[app].pending.len().min(APP_CHUNK);
        if n == 0 {
            self.app_continue(now, app);
            return;
        }
        // Pooled chunk scratch: the buffer only lives for this call and
        // goes back to the pool on every path.
        let mut pkts = self.sched.pool.captured.get();
        pkts.extend(self.apps[app].pending.drain(..n));
        let work = self.user_processing_work(app, &pkts, 0);
        match work {
            Ok(w) => {
                let cpu = self.app_run_cpu(app);
                self.submit(now, cpu, w, false);
            }
            Err(delay) => {
                // Throttled (disk or pipe): put the packets back and sleep.
                for p in pkts.drain(..).rev() {
                    self.apps[app].pending.push_front(p);
                }
                self.apps[app].state = AppState::Sleeping;
                if delay != u64::MAX {
                    self.sched.queue.schedule(
                        now + SimDuration::from_nanos(delay),
                        SimEvent::AppResume(app),
                    );
                }
            }
        }
        self.sched.pool.captured.put(pkts);
    }

    /// Linux: one chunk = up to APP_CHUNK recvfrom calls.
    pub(crate) fn app_linux_chunk(&mut self, now: SimTime, app: usize) {
        let c = &self.costs;
        // Pooled chunk scratch (returned to the pool on every exit path).
        let mut pkts = self.sched.pool.captured.get();
        let (copy_bytes, mmap) = match &mut self.stack {
            Stack::Lsf(l) => {
                let s = &mut l.sockets[app];
                let mmap = s.mmap;
                let bytes = s.dequeue_into(APP_CHUNK, &mut pkts);
                if !mmap {
                    for p in pkts.iter() {
                        l.release_seq(p.seq);
                    }
                }
                (bytes, mmap)
            }
            Stack::Bpf(_) => unreachable!("linux chunk on BPF stack"),
        };
        if pkts.is_empty() {
            self.sched.pool.captured.put(pkts);
            self.app_continue(now, app);
            return;
        }
        let syscalls = if mmap {
            // The mmap ring is scanned without syscalls; one poll() per
            // chunk keeps the app honest.
            c.syscall_ns
        } else {
            (c.syscall_ns + c.recv_pkt_ns + c.wakeup_ns / APP_CHUNK as u64) * pkts.len() as u64
        };
        let copy = if copy_bytes > 0 {
            self.copy_ns(copy_bytes, false)
        } else {
            0
        };
        match self.user_processing_work(app, &pkts, syscalls + copy) {
            Ok(w) => {
                let cpu = self.app_run_cpu(app);
                self.submit(now, cpu, w, false);
            }
            Err(delay) => {
                // Throttled: stash into pending (processed on resume with
                // zero syscall re-cost — acceptable).
                self.apps[app].pending.extend(pkts.drain(..));
                self.apps[app].state = AppState::Sleeping;
                if delay != u64::MAX {
                    self.sched.queue.schedule(
                        now + SimDuration::from_nanos(delay),
                        SimEvent::AppResume(app),
                    );
                }
            }
        }
        self.sched.pool.captured.put(pkts);
    }

    /// Per-packet user-space processing cost for a chunk, including the
    /// configured analysis loads. Returns `Err(delay_ns)` when the app
    /// must sleep first (dirty throttle / full pipe).
    pub(crate) fn user_processing_work(
        &mut self,
        app: usize,
        pkts: &[CapturedPacket],
        extra_system_ns: u64,
    ) -> Result<Work, u64> {
        let c = &self.costs;
        let cfg = &self.apps[app].cfg;
        let n = pkts.len() as u64;
        let cap_bytes: u64 = pkts.iter().map(|p| p.caplen as u64).sum();

        // Disk throttle check first.
        if cfg.disk_write_bytes.is_some() && self.dirty_bytes > DIRTY_LIMIT {
            let over = self.dirty_bytes - DIRTY_LIMIT / 2;
            return Err(self.spec.disk.write_ns(over));
        }
        // Pipe space check: the writer blocks until the reader frees
        // space; the resume comes from the gzip chunk completion, so no
        // timed event is scheduled (signalled by u64::MAX).
        if cfg.pipe_to_gzip.is_some() && self.pipe_used >= PIPE_CAPACITY {
            self.pipe_writers_asleep.push(app);
            return Err(u64::MAX);
        }

        // Contention grows with the number of sockets sharing the packet
        // pool and its refcounts (Linux); FreeBSD devices are independent.
        let sharers = if self.spec.os.is_freebsd() {
            1.0
        } else {
            1.0 + 0.5 * (self.apps.len() as f64 - 1.0)
        };
        let contention = (c.contention_ns as f64 * self.kernel_util * sharers) as u64;
        let mut user_ns = n * (c.user_pkt_ns + contention);
        if self.apps[app].cfg.mmap {
            // The mmap app skips the kernel round trip per packet; its
            // per-packet user cost shrinks to header parsing.
            user_ns = n * (c.user_pkt_ns / 2 + contention);
        }
        let mut system_ns = extra_system_ns;

        if cfg.extra_copies > 0 {
            // Fig. 6.10: N user-space memcpys of the packet; the data was
            // just touched, so these run mostly from cache.
            let per_copy =
                self.spec
                    .memory
                    .copy_ns(cap_bytes, self.arrival_ema_bps as u64, 0, true)
                    / n.max(1);
            user_ns += n * cfg.extra_copies as u64 * (c.memcpy_call_ns + per_copy);
        }
        if let Some(level) = cfg.compress_level {
            // Fig. 6.11: gzwrite per packet. Core-bound: cycles per byte.
            let cycles = c.compress_cycles_per_byte[level.min(9) as usize];
            let ns = (cap_bytes as f64 * cycles * 1e9 / self.spec.cpu.clock_hz as f64) as u64;
            user_ns += ns + n * 150; // gzwrite call overhead
        }
        if let Some(hdr) = cfg.disk_write_bytes {
            // Fig. 6.14: write the first `hdr` bytes of each packet.
            let bytes: u64 = pkts.iter().map(|p| (p.caplen.min(hdr)) as u64).sum();
            system_ns += self.spec.disk.cpu_ns(bytes) + c.syscall_ns * n / 8;
            self.dirty_bytes += bytes;
        }
        if cfg.pipe_to_gzip.is_some() {
            // Fig. 6.12: write whole packets into the FIFO.
            system_ns += n * c.pipe_syscall_ns / 4 + (cap_bytes as f64 * c.pipe_ns_per_byte) as u64;
            self.pipe_used += cap_bytes;
            self.pipe_bytes_total += cap_bytes;
        }
        // Pooled result buffers: they travel inside the completion and
        // come back to the pool when the chunk retires (cpu stage). The
        // disabled cases hand over an empty non-pooled Vec, which the
        // pool's put() ignores (capacity 0).
        let recorded = if self.apps[app].cfg.record {
            let mut r = self.sched.pool.captured.get();
            r.extend_from_slice(pkts);
            r
        } else {
            Vec::new()
        };
        let traced = if self.trace.is_on() {
            let mut t = self.sched.pool.traced.get();
            t.extend(pkts.iter().map(|p| (p.seq, p.gen_ns, p.caplen)));
            t
        } else {
            Vec::new()
        };

        Ok(Work::new(
            WorkKind::AppChunk,
            &[(CpuState::System, system_ns), (CpuState::User, user_ns)],
            Completion::AppChunk {
                app,
                packets: n,
                bytes: cap_bytes,
                recorded,
                traced,
            },
        ))
    }

    /// After a chunk: keep going if more data, otherwise block.
    pub(crate) fn app_continue(&mut self, now: SimTime, app: usize) {
        // Side effects that piggyback on chunk completion:
        self.schedule_writeback(now);
        self.gzip_try_work(now);

        if !self.apps[app].pending.is_empty() {
            self.app_process_pending(now, app);
            return;
        }
        if self.consumer_readable(app) {
            self.apps[app].state = AppState::Blocked;
            self.app_try_work(now, app);
        } else {
            self.apps[app].state = AppState::Blocked;
        }
    }
}

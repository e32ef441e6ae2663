//! The per-machine discrete-event simulation: the [`MachineSim`] façade.
//!
//! One [`MachineSim`] models one system under test end to end: NIC ring,
//! interrupt batching, the OS capture stack (BPF device or PF_PACKET
//! sockets), CPUs with priority work queues and state accounting, capture
//! applications with their per-packet analysis loads, the disk write-back
//! path and pipes to helper processes.
//!
//! ## Execution model
//!
//! The simulation is event-scheduled: typed [`crate::event::SimEvent`]s
//! flow through the pcs-des queue owned by the
//! [`crate::sched::Scheduler`], and each event kind is handled by its
//! lifecycle stage module under [`crate::stages`]. CPUs execute *work
//! items* — bounded chunks of kernel or application work whose durations
//! come from the calibrated cost model ([`pcs_hw::OsCosts`]) and the
//! memory-system model. Kernel work (interrupt + stack processing) has
//! strict priority; application work is round-robin in chunks small
//! enough that interrupt latency stays realistic. This reproduces the
//! receive-livelock dynamics of Mogul & Ramakrishnan that the thesis
//! discusses in §2.2.1: as the packet rate grows, kernel work crowds out
//! the applications, buffers fill, and the capture rate collapses
//! gracefully (FreeBSD) or abruptly (Linux with its shared refcounted
//! pool).
//!
//! This module holds only the façade: construction, the one run entry
//! point ([`MachineSim::run_source`]), and state shared across stages.
//! The sim holds the source's chunks it still needs in a
//! [`StreamWindow`] and addresses every packet by its `u64` stream
//! position: arrivals, the NIC ring and the IRQ batch carry positions,
//! and a packet is read in place inside its chunk, never copied.

use crate::config::{AppConfig, SimConfig};
use crate::event::SimEvent;
use crate::fault::MachineFaults;
use crate::report::{CpuSample, RunReport};
use crate::sched::Scheduler;
use crate::stack::{BpfDevice, CapturedPacket, LsfSocket, LsfState};
use crate::stages;
use pcs_des::{AdmissionCursor, BatchProbe, PoolProbe, SimTime};
use pcs_hw::{MachineSpec, OsCosts};
use pcs_pktgen::{Chunk, PacketSource, TimedPacket};
use pcs_trace::TraceSink;
use std::collections::VecDeque;
use std::sync::Arc;

/// Application run states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AppState {
    /// Waiting for data.
    Blocked,
    /// Has work queued or executing on its CPU.
    Running,
    /// Sleeping on an I/O throttle or a full pipe.
    Sleeping,
}

pub(crate) struct AppSim {
    pub(crate) cfg: AppConfig,
    pub(crate) cpu: usize,
    pub(crate) state: AppState,
    /// FreeBSD: packets copied out and awaiting user-space processing.
    pub(crate) pending: VecDeque<CapturedPacket>,
    /// Packets handed to the application (the thesis' capture count).
    pub(crate) received: u64,
    pub(crate) received_bytes: u64,
    /// Recorded packets when `cfg.record` is set.
    pub(crate) captured: Vec<CapturedPacket>,
}

pub(crate) enum Stack {
    Bpf(Vec<BpfDevice>),
    Lsf(LsfState),
}

/// The source chunks a run still needs, addressed by stream position:
/// the run's `n`-th packet, counted from 0 across every chunk, is
/// position `n`.
///
/// The live positions are the NIC ring's entries and the pending
/// arrival; an IRQ batch is priced as soon as it leaves the ring and
/// holds nothing afterwards. [`StreamWindow::pull`] releases every chunk
/// that ends at or before the oldest of them, so the window spans the
/// ring's front to the pending arrival — one or two chunks at the
/// default chunk size — and no packet holds a refcount of its own.
#[derive(Default)]
pub(crate) struct StreamWindow {
    /// `(first position, chunk)` in stream order; never an empty chunk.
    chunks: VecDeque<(u64, Chunk)>,
    /// The next position to hand out.
    next: u64,
}

impl StreamWindow {
    /// Hand out the next stream position, or `None` once `src` is
    /// exhausted. When every position of the window is handed out, the
    /// next non-empty chunk is pulled from `src` into the window, and
    /// every chunk that ends at or before the oldest live position
    /// leaves it: `oldest_live`, or the new chunk's first position when
    /// no earlier one is live.
    pub(crate) fn pull(
        &mut self,
        src: &mut dyn PacketSource,
        oldest_live: Option<u64>,
    ) -> Option<u64> {
        let end = self
            .chunks
            .back()
            .map_or(0, |(first, chunk)| first + chunk.len() as u64);
        if self.next == end {
            let chunk = loop {
                let chunk = src.next_chunk()?;
                if !chunk.is_empty() {
                    break chunk;
                }
            };
            self.chunks.push_back((end, chunk));
            let oldest = oldest_live.unwrap_or(end);
            while let Some((first, chunk)) = self.chunks.front() {
                if first + chunk.len() as u64 > oldest {
                    break;
                }
                self.chunks.pop_front();
            }
        }
        let pos = self.next;
        self.next += 1;
        Some(pos)
    }

    /// The packet at stream position `pos`, which must be live.
    pub(crate) fn get(&self, pos: u64) -> &TimedPacket {
        // Newest first: the arrival being handled sits in the last chunk,
        // and the ring rarely reaches back past it.
        for (first, chunk) in self.chunks.iter().rev() {
            if pos >= *first {
                return &chunk[(pos - first) as usize];
            }
        }
        panic!("stream position {pos} has left the window")
    }
}

/// The machine simulator. Feed it a chunked packet source via
/// [`MachineSim::run_source`].
///
/// ```
/// use pcs_oskernel::{MachineSim, SimConfig};
/// use pcs_hw::MachineSpec;
/// use pcs_pktgen::{ChunkedGenerator, Generator, PktgenConfig, TxModel, DEFAULT_CHUNK_PACKETS};
///
/// let gen = Generator::new(
///     PktgenConfig { count: 1_000, ..PktgenConfig::default() },
///     TxModel::syskonnect(),
///     42,
/// );
/// let report = MachineSim::new(MachineSpec::moorhen(), SimConfig::default())
///     .run_source(ChunkedGenerator::new(gen, DEFAULT_CHUNK_PACKETS));
/// assert_eq!(report.offered, 1_000);
/// assert_eq!(report.apps[0].received, 1_000);
/// ```
pub struct MachineSim {
    pub(crate) spec: MachineSpec,
    pub(crate) costs: OsCosts,
    /// Sim clock + per-CPU run state (the event-scheduled core).
    pub(crate) sched: Scheduler,
    pub(crate) apps: Vec<AppSim>,
    pub(crate) stack: Stack,

    // NIC
    /// The input chunks still needed, addressed by stream position.
    pub(crate) window: StreamWindow,
    /// Stream positions of the frames in the RX descriptor ring.
    pub(crate) ring: VecDeque<u64>,
    pub(crate) ring_slots: usize,
    pub(crate) nic_ring_drops: u64,
    pub(crate) irq_pending: bool,
    pub(crate) next_irq_allowed: SimTime,

    // Rate estimators
    pub(crate) arrival_ema_bps: f64,
    pub(crate) last_arrival: SimTime,
    pub(crate) kernel_util: f64,
    pub(crate) last_kernel_update: SimTime,

    // Disk
    pub(crate) dirty_bytes: u64,
    pub(crate) writeback_scheduled: bool,
    pub(crate) disk_bytes: u64,
    /// Recent write-back byte rate (shares the PCI bus with the NIC).
    pub(crate) writeback_ema_bps: f64,
    pub(crate) last_writeback: SimTime,

    /// I/O bus admission: fractional credit per arriving frame when the
    /// PCI bus is oversubscribed (§2.2.3 — standard PCI cannot carry a
    /// loaded GbE link; PCI-64 can).
    pub(crate) pci_credit: f64,

    // Pipe + gzip helper
    pub(crate) pipe_used: u64,
    pub(crate) pipe_bytes_total: u64,
    pub(crate) gzip_busy: bool,
    pub(crate) pipe_writers_asleep: Vec<usize>,

    // Bookkeeping
    pub(crate) offered: u64,
    pub(crate) source_done: bool,
    pub(crate) samples: Vec<CpuSample>,
    pub(crate) sampling: bool,
    pub(crate) load_end: Option<CpuSample>,
    /// Hard stop: the controller's stop.sh kills the applications this
    /// long after the last packet (§3.4).
    pub(crate) stop_at: Option<SimTime>,
    pub(crate) drain_timeout_ns: u64,

    /// Lifecycle tracing; `TraceSink::Off` costs one branch per event
    /// site.
    pub(crate) trace: TraceSink,

    /// Armed fault plan; `None` (the default) costs one branch per hook
    /// site, mirroring the trace sink.
    pub(crate) faults: Option<Box<dyn MachineFaults>>,
    /// Latest IRQ-jitter gate already scheduled, so a jitter window
    /// queues one wakeup instead of one per arrival.
    pub(crate) fault_irq_gate: SimTime,

    /// Cursor admission of arrivals. Always on, except in the
    /// per-packet test oracle ([`MachineSim::with_batching`]`(false)`),
    /// which schedules every arrival through the heap, byte-identically.
    pub(crate) batching: bool,
    /// Lazy-admission cursor: the stream position of the next wire
    /// arrival, held outside the event heap under its reserved (time,
    /// seq) key. Always empty when batching is off.
    pub(crate) pending_arrival: AdmissionCursor<u64>,

    /// Observability tap for the hot-path buffer pools. Stats are
    /// published here when the run finishes; they never enter the
    /// [`RunReport`] (pool usage describes execution, not the simulated
    /// machine).
    pub(crate) pool_probe: Option<Arc<PoolProbe>>,
}

impl MachineSim {
    /// Build a simulator for `spec` under `cfg`.
    pub fn new(spec: MachineSpec, cfg: SimConfig) -> MachineSim {
        let ncpu = spec.cpu.logical_cpus() as usize;
        let costs = spec.costs();
        let napps = cfg.apps.len();
        assert!(napps > 0, "at least one capture application required");

        // Application placement: fill CPUs from the last one backwards so
        // CPU0 (which owns interrupts) is used last.
        let app_cpu = |i: usize| -> usize {
            if ncpu == 1 {
                0
            } else {
                ncpu - 1 - (i % ncpu)
            }
        };
        let apps: Vec<AppSim> = cfg
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppSim {
                cfg: a.clone(),
                cpu: app_cpu(i),
                state: AppState::Blocked,
                pending: VecDeque::new(),
                received: 0,
                received_bytes: 0,
                captured: Vec::new(),
            })
            .collect();

        let stack = if spec.os.is_freebsd() {
            Stack::Bpf(
                cfg.apps
                    .iter()
                    .map(|a| {
                        BpfDevice::new(cfg.buffers.bpf_half_bytes, a.snaplen, a.filter.clone())
                    })
                    .collect(),
            )
        } else {
            let sockets: Vec<LsfSocket> = cfg
                .apps
                .iter()
                .map(|a| {
                    LsfSocket::new(cfg.buffers.rmem_bytes, a.snaplen, a.filter.clone(), a.mmap)
                })
                .collect();
            Stack::Lsf(LsfState::new(sockets, cfg.buffers.rmem_bytes))
        };

        // In-flight event bound: one CpuFree per CPU, one resume per
        // app, the sample clock, at most one arrival/IRQ gate/write-back
        // each, and slack for fault-injected gates. Pre-sizing to it
        // keeps the heap off the allocator for the whole run.
        let queue_hint = ncpu + napps + 8;

        MachineSim {
            ring_slots: spec.nic.rx_ring_slots as usize,
            sched: Scheduler::new(
                ncpu,
                spec.cpu.hyperthreading,
                spec.cpu.smt_factor(),
                queue_hint,
            ),
            spec,
            costs,
            apps,
            stack,
            window: StreamWindow::default(),
            ring: VecDeque::new(),
            nic_ring_drops: 0,
            irq_pending: false,
            next_irq_allowed: SimTime::ZERO,
            arrival_ema_bps: 0.0,
            last_arrival: SimTime::ZERO,
            kernel_util: 0.0,
            last_kernel_update: SimTime::ZERO,
            dirty_bytes: 0,
            writeback_scheduled: false,
            disk_bytes: 0,
            writeback_ema_bps: 0.0,
            last_writeback: SimTime::ZERO,
            pci_credit: 0.0,
            pipe_used: 0,
            pipe_bytes_total: 0,
            gzip_busy: false,
            pipe_writers_asleep: Vec::new(),
            offered: 0,
            source_done: false,
            samples: Vec::new(),
            sampling: true,
            load_end: None,
            stop_at: None,
            drain_timeout_ns: cfg.drain_timeout_ns,
            trace: TraceSink::Off,
            faults: None,
            fault_irq_gate: SimTime::ZERO,
            batching: true,
            pending_arrival: AdmissionCursor::new(),
            pool_probe: None,
        }
    }

    /// Attach a trace sink. With [`TraceSink::Off`] (the default) the
    /// simulation is byte-identical to an untraced run.
    pub fn with_trace(mut self, sink: TraceSink) -> MachineSim {
        self.trace = sink;
        self
    }

    /// Arm a fault plan. With `None` (the default) the simulation is
    /// byte-identical to an unfaulted run.
    pub fn with_faults(mut self, faults: Option<Box<dyn MachineFaults>>) -> MachineSim {
        self.faults = faults;
        self
    }

    /// Arm per-CPU/per-work-kind sim-time attribution: the report gains
    /// [`RunReport::stage_times`] breaking each CPU's accounted time
    /// into busy-by-[`pcs_trace::WorkKind`], dispatch-added stretch, and
    /// idle. Off (the default) costs one branch per dispatch/finish and
    /// the run is byte-identical to an unarmed one; the attribution
    /// never feeds back into scheduling.
    pub fn with_stage_times(mut self, enabled: bool) -> MachineSim {
        self.sched.set_stage_times(enabled);
        self
    }

    /// Attach a probe that receives the pooled-buffer statistics
    /// (gets / misses / recycles / high-water) when the run finishes.
    /// The probe is observability only — nothing it records feeds back
    /// into the simulation or its report.
    pub fn with_pool_probe(mut self, probe: Arc<PoolProbe>) -> MachineSim {
        self.pool_probe = Some(probe);
        self
    }

    /// Enable or disable lazy arrival admission through the admission
    /// cursor (on by default).
    ///
    /// `with_batching(false)` is the per-packet **test oracle**: every
    /// arrival goes through the heap, which is what the cursor engine
    /// must reproduce byte for byte (the `batching_is_invisible`
    /// proptest and `tests/batching.rs` compare against it). No run
    /// outside the tests switches it off.
    pub fn with_batching(mut self, enabled: bool) -> MachineSim {
        self.batching = enabled;
        self
    }

    /// Does nothing: [`BatchProbe`] is a stub whose counters always read
    /// 0, kept so callers that still arm it keep compiling.
    pub fn with_batch_probe(self, _probe: Arc<BatchProbe>) -> MachineSim {
        self
    }

    /// Run the simulation over a chunked [`PacketSource`], to completion
    /// (including the post-generation drain), and report. The one way to
    /// run a `MachineSim`.
    ///
    /// Packets are pulled out of the source chunk by chunk into the
    /// sim's [`StreamWindow`] and injected by stream position: the sim
    /// reads each packet in place inside its broadcast chunk without
    /// copying it, and lets a chunk go once no live position falls in
    /// it. A source that has caught up with a still-generating producer
    /// blocks the pull until the next chunk is published. Because the
    /// event loop only requests the next arrival after the current one
    /// has been injected, the event sequence — and therefore the whole
    /// [`RunReport`] — is the same at any chunk size.
    pub fn run_source<S>(mut self, mut source: S) -> RunReport
    where
        S: PacketSource,
    {
        match self.window.pull(&mut source, None) {
            Some(pos) => self.schedule_arrival(pos),
            None => self.source_done = true,
        }
        self.sched
            .queue
            .schedule(SimTime::from_millis(500), SimEvent::Sample);

        loop {
            // Cursor admission: the pending arrival bypasses the heap
            // when its reserved (time, seq) key precedes every queued
            // event — exact, because keys embed unique sequence numbers
            // allocated in scheduling order. With batching off the
            // cursor is always empty and this is a plain heap pop.
            let (now, ev) = if self.pending_arrival.precedes(self.sched.queue.peek_key()) {
                let (t, pos) = self
                    .pending_arrival
                    .take()
                    .expect("cursor checked non-empty");
                self.sched.queue.advance_to(t);
                (t, SimEvent::Arrival(pos))
            } else {
                match self.sched.queue.pop() {
                    Some(x) => x,
                    None => break,
                }
            };
            // The measurement controller stops the applications a bounded
            // time after generation ends; whatever is still buffered then
            // is lost (it never reached the application).
            if let Some(stop) = self.stop_at {
                if now > stop {
                    break;
                }
            }
            stages::dispatch(&mut self, now, ev, &mut source);
        }

        self.finish_report()
    }

    // ----- shared rate estimators and memory-cost helpers -----

    pub(crate) fn note_kernel_busy(&mut self, now: SimTime, busy_ns: u64) {
        let dt = now.since(self.last_kernel_update).as_nanos().max(1) as f64;
        let inst = (busy_ns as f64 / dt).min(1.0);
        // ~5 ms smoothing.
        let alpha = (-dt / 5e6).exp();
        self.kernel_util = self.kernel_util * alpha + inst * (1.0 - alpha);
        self.last_kernel_update = now;
    }

    pub(crate) fn dma_rate(&self) -> u64 {
        self.arrival_ema_bps as u64
    }

    pub(crate) fn copy_ns(&self, bytes: u64, cached: bool) -> u64 {
        let others = self
            .sched
            .cpus
            .iter()
            .filter(|c| c.busy())
            .count()
            .saturating_sub(1) as u32;
        self.spec
            .memory
            .copy_ns(bytes, self.dma_rate(), others, cached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_pktgen::{TimedPacket, DEFAULT_CHUNK_PACKETS};
    use pcs_trace::Stage;
    use pcs_wire::{MacAddr, SimPacket};
    use std::net::Ipv4Addr;

    fn timed(n: u64, gap_us: u64) -> Vec<TimedPacket> {
        (0..n)
            .map(|i| {
                let time = SimTime::from_micros((i + 1) * gap_us);
                let packet = SimPacket::build_udp(
                    i,
                    time.as_nanos(),
                    659,
                    MacAddr::ZERO,
                    MacAddr::BROADCAST,
                    Ipv4Addr::new(192, 168, 10, 100),
                    Ipv4Addr::new(192, 168, 10, 12),
                    9,
                    9,
                );
                TimedPacket { time, packet }
            })
            .collect()
    }

    fn packets(n: u64, gap_us: u64) -> Chunks {
        replay(&timed(n, gap_us), DEFAULT_CHUNK_PACKETS)
    }

    /// A source replaying `chunks` in order.
    struct Chunks(std::vec::IntoIter<Chunk>);

    impl PacketSource for Chunks {
        fn next_chunk(&mut self) -> Option<Chunk> {
            self.0.next()
        }
    }

    /// `packets` replayed in chunks of `n`.
    fn replay(packets: &[TimedPacket], n: usize) -> Chunks {
        let chunks: Vec<Chunk> = packets.chunks(n).map(Chunk::from).collect();
        Chunks(chunks.into_iter())
    }

    /// The first positions of the chunks a window holds.
    fn window_firsts(w: &StreamWindow) -> Vec<u64> {
        w.chunks.iter().map(|(first, _)| *first).collect()
    }

    #[test]
    fn window_resolves_positions_across_chunks() {
        let all = timed(9_000, 1);
        for chunk_packets in [1usize, 7, 4096] {
            // An empty chunk before every real one: each is skipped.
            let mut chunks = Vec::new();
            for part in all.chunks(chunk_packets) {
                chunks.push(Chunk::from(Vec::new()));
                chunks.push(Chunk::from(part.to_vec()));
            }
            let mut src = Chunks(chunks.into_iter());
            let mut w = StreamWindow::default();
            // Position 0 stays live, so nothing is released.
            let mut positions = Vec::new();
            while let Some(pos) = w.pull(&mut src, Some(0)) {
                positions.push(pos);
            }
            assert_eq!(positions, (0..9_000).collect::<Vec<u64>>());
            assert_eq!(w.chunks.len(), 9_000usize.div_ceil(chunk_packets));
            for (pos, tp) in all.iter().enumerate() {
                assert_eq!(w.get(pos as u64), tp, "chunk={chunk_packets} pos={pos}");
            }
        }
    }

    #[test]
    fn window_releases_exactly_the_chunks_behind_the_oldest_live_position() {
        let mut src = replay(&timed(40, 1), 7);
        let mut w = StreamWindow::default();
        let mut pull = |w: &mut StreamWindow, oldest_live: Option<u64>| {
            w.pull(&mut src, oldest_live).expect("stream not exhausted")
        };
        for pos in 0..7 {
            assert_eq!(pull(&mut w, None), pos);
        }
        assert_eq!(window_firsts(&w), [0]);
        // Chunk [7, 14) enters while position 6 is live: [0, 7) stays.
        assert_eq!(pull(&mut w, Some(6)), 7);
        assert_eq!(window_firsts(&w), [0, 7]);
        for pos in 8..14 {
            // No chunk enters, so nothing is released.
            assert_eq!(pull(&mut w, None), pos);
        }
        assert_eq!(window_firsts(&w), [0, 7]);
        // Chunk [14, 21) enters with 7 the oldest live position: [0, 7)
        // ends at 7 and goes; [7, 14) holds 7 and stays.
        assert_eq!(pull(&mut w, Some(7)), 14);
        assert_eq!(window_firsts(&w), [7, 14]);
        assert_eq!(w.get(7).time, SimTime::from_micros(8));
        for pos in 15..21 {
            assert_eq!(pull(&mut w, Some(7)), pos);
        }
        // Nothing earlier live: only the entering chunk [21, 28) stays.
        assert_eq!(pull(&mut w, None), 21);
        assert_eq!(window_firsts(&w), [21]);
        assert_eq!(w.get(21).time, SimTime::from_micros(22));
    }

    #[test]
    #[should_panic(expected = "stream position 3 has left the window")]
    fn window_refuses_a_released_position() {
        let mut src = replay(&timed(20, 1), 7);
        let mut w = StreamWindow::default();
        for _ in 0..8 {
            w.pull(&mut src, None);
        }
        w.get(3);
    }

    #[test]
    fn window_holds_no_chunk_the_run_no_longer_needs() {
        // A ring of 0 slots: every frame is dropped at the NIC, so no
        // position stays live past its arrival and no interrupt fires.
        struct NoRing;
        impl MachineFaults for NoRing {
            fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
                0
            }
        }
        /// Hands out 1-packet chunks and checks, at every pull, how
        /// many of them are still alive.
        struct Watched {
            packets: Vec<TimedPacket>,
            handed: Vec<std::sync::Weak<[TimedPacket]>>,
        }
        impl PacketSource for Watched {
            fn next_chunk(&mut self) -> Option<Chunk> {
                let alive = self.handed.iter().filter(|c| c.strong_count() > 0).count();
                assert!(
                    alive <= 2,
                    "{alive} chunks alive at pull {}",
                    self.handed.len()
                );
                let chunk = Chunk::from(vec![self.packets.get(self.handed.len())?.clone()]);
                self.handed.push(Arc::downgrade(&chunk));
                Some(chunk)
            }
        }

        for batching in [true, false] {
            let source = Watched {
                packets: timed(2_000, 3),
                handed: Vec::new(),
            };
            let r = MachineSim::new(pcs_hw::MachineSpec::swan(), SimConfig::default())
                .with_batching(batching)
                .with_faults(Some(Box::new(NoRing)))
                .run_source(source);
            // Every chunk was pulled, each past the check above.
            assert_eq!((r.offered, r.nic_ring_drops), (2_000, 2_000));
            assert_eq!(r.final_acct[0].irq, 0, "no interrupt fires");
        }
    }

    #[test]
    fn sparse_arrivals_cost_one_interrupt_each() {
        // 1 ms apart: every packet gets its own interrupt, so interrupt
        // time ≈ n × (irq + per-packet work).
        let spec = pcs_hw::MachineSpec::moorhen();
        let costs = spec.costs();
        let r = MachineSim::new(spec, SimConfig::default()).run_source(packets(100, 1_000));
        assert_eq!(r.apps[0].received, 100);
        let irq_ns = r.final_acct[0].irq;
        let floor = 100 * (costs.irq_ns + costs.rx_pkt_ns);
        assert!(
            irq_ns >= floor,
            "irq time {irq_ns} below the per-packet floor {floor}"
        );
    }

    #[test]
    fn dense_arrivals_batch_interrupts() {
        // Back-to-back arrivals amortize the entry cost over batches:
        // total interrupt time per packet must fall well below the
        // one-interrupt-per-packet case.
        let spec = pcs_hw::MachineSpec::moorhen();
        let sparse = MachineSim::new(spec, SimConfig::default()).run_source(packets(500, 1_000));
        // 3 µs gaps outrun the kernel, so the ring accumulates and each
        // interrupt picks up a batch. Normalize by packets the kernel
        // actually processed.
        let dense = MachineSim::new(spec, SimConfig::default()).run_source(packets(500, 3));
        let per_pkt_sparse = sparse.final_acct[0].irq / sparse.apps[0].stats.accepted.max(1);
        let per_pkt_dense = dense.final_acct[0].irq / dense.apps[0].stats.accepted.max(1);
        assert!(
            per_pkt_dense < per_pkt_sparse,
            "batching must amortize: dense {per_pkt_dense} vs sparse {per_pkt_sparse}"
        );
    }

    #[test]
    fn samples_arrive_on_the_half_second() {
        let r = MachineSim::new(pcs_hw::MachineSpec::swan(), SimConfig::default())
            .run_source(packets(2_000, 1_000)); // 2 s of traffic
        assert!(r.samples.len() >= 4, "{} samples", r.samples.len());
        for (i, s) in r.samples.iter().enumerate() {
            assert_eq!(s.t.as_nanos(), (i as u64 + 1) * 500_000_000);
        }
    }

    #[test]
    fn load_accounting_snapshot_taken_at_last_arrival() {
        let r = MachineSim::new(pcs_hw::MachineSpec::swan(), SimConfig::default())
            .run_source(packets(100, 1_000));
        let load = r.load_acct.expect("load snapshot");
        assert_eq!(load.t.as_nanos(), 100 * 1_000_000);
        // The final accounting contains at least as much busy time.
        for (l, f) in load.per_cpu.iter().zip(&r.final_acct) {
            assert!(f.busy() >= l.busy());
        }
    }

    #[test]
    fn empty_source_terminates_immediately() {
        let r = MachineSim::new(pcs_hw::MachineSpec::moorhen(), SimConfig::default())
            .run_source(packets(0, 1));
        assert_eq!(r.offered, 0);
        assert!(r.apps[0].received == 0);
    }

    #[test]
    fn run_source_is_identical_at_any_chunk_size() {
        let timed = timed(400, 5);
        let spec = pcs_hw::MachineSpec::moorhen();
        let run = |chunk_packets: usize| {
            let report = MachineSim::new(spec, SimConfig::default())
                .run_source(replay(&timed, chunk_packets));
            format!("{report:?}")
        };
        let reference = run(4096);
        for chunk_packets in [1usize, 7] {
            assert_eq!(reference, run(chunk_packets), "chunk={chunk_packets}");
        }
    }

    #[test]
    fn traced_run_records_lifecycle_and_balances() {
        use pcs_trace::TraceSpec;
        let spec = pcs_hw::MachineSpec::moorhen();
        let r = MachineSim::new(spec, SimConfig::default())
            .with_trace(TraceSink::bounded(TraceSpec::default()))
            .run_source(packets(200, 10));
        let trace = r.trace.as_ref().expect("trace report present");
        assert_eq!(trace.truncated, 0);
        let count_stage = |s: Stage| trace.events.iter().filter(|e| e.stage == s).count() as u64;
        assert_eq!(count_stage(Stage::Wire), 200);
        assert_eq!(count_stage(Stage::NicEnqueue), 200);
        assert_eq!(count_stage(Stage::AppDeliver), r.apps[0].received);
        assert!(count_stage(Stage::BusTransfer) > 0);
        // Sim-clock timestamps, monotone within the log.
        assert!(trace.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let (_, lat) = trace
            .metrics
            .latencies()
            .find(|(name, _)| *name == "wire_to_app_latency_ns")
            .expect("latency digest");
        assert_eq!(lat.count(), r.apps[0].received);
        for a in r.attributions() {
            assert!(a.balanced(), "unbalanced attribution: {a:?}");
            assert_eq!(a.generated, 200);
        }
    }

    #[test]
    fn traced_run_is_identical_to_untraced_apart_from_trace() {
        use pcs_trace::TraceSpec;
        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(300, 3));
        let mut traced = MachineSim::new(spec, SimConfig::default())
            .with_trace(TraceSink::bounded(TraceSpec::default()))
            .run_source(packets(300, 3));
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
        traced.trace = None;
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    }

    #[test]
    fn sched_traced_run_records_dispatches_and_stays_identical() {
        use pcs_trace::{StageFilter, TraceSpec, WorkKind, DEFAULT_EVENT_CAP};
        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(250, 4));
        let mut traced = MachineSim::new(spec, SimConfig::default())
            .with_trace(TraceSink::bounded(TraceSpec {
                filter: StageFilter::parse("sched").unwrap(),
                cap: DEFAULT_EVENT_CAP,
            }))
            .run_source(packets(250, 4));
        let trace = traced.trace.take().expect("trace report present");
        // The sched filter selects no lifecycle stages.
        assert!(trace.events.is_empty());
        assert!(!trace.sched.is_empty());
        // Kernel batches and app work both dispatched.
        assert!(trace.sched.iter().any(|e| e.kind == WorkKind::KernelBatch));
        assert!(trace
            .sched
            .iter()
            .any(|e| matches!(e.kind, WorkKind::AppRead | WorkKind::AppChunk)));
        // Per-CPU dispatch spans are monotone and non-overlapping: a CPU
        // dispatches its next item no earlier than the previous end.
        let ncpu = plain.final_acct.len() as u16;
        for cpu in 0..ncpu {
            let mut last_end = 0u64;
            for ev in trace.sched.iter().filter(|e| e.cpu == cpu) {
                assert!(
                    ev.t_ns >= last_end,
                    "cpu{cpu} dispatch at {} overlaps previous span ending {last_end}",
                    ev.t_ns
                );
                last_end = ev.t_ns + ev.dur_ns;
            }
        }
        // Apart from the trace, the run is unchanged.
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    }

    #[test]
    fn stage_timed_run_is_identical_apart_from_the_account() {
        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(300, 3));
        let mut timed = MachineSim::new(spec, SimConfig::default())
            .with_stage_times(true)
            .run_source(packets(300, 3));
        assert!(plain.stage_times.is_none());
        assert!(timed.stage_times.is_some());
        timed.stage_times = None;
        assert_eq!(format!("{plain:?}"), format!("{timed:?}"));
    }

    #[test]
    fn stage_times_conserve_each_cpus_accounted_time() {
        use pcs_trace::WorkKind;
        // Overload an SMT machine with enough applications that sibling
        // CPUs run concurrently, so every path charges: batching, app
        // chunks, SMT stretch, idle gaps, end-of-run close-out.
        let spec = pcs_hw::MachineSpec::snipe().with_hyperthreading();
        let cfg = SimConfig {
            apps: vec![crate::config::AppConfig::plain(); 4],
            ..SimConfig::default()
        };
        let r = MachineSim::new(spec, cfg)
            .with_stage_times(true)
            .run_source(packets(20_000, 1));
        let st = r.stage_times.as_ref().expect("stage times present");
        assert_eq!(st.cpus.len(), r.final_acct.len());
        for (cpu, acct) in st.cpus.iter().zip(&r.final_acct) {
            assert_eq!(cpu.total(), acct.total(), "busy+idle == accounted total");
            assert_eq!(cpu.idle_ns, acct.idle, "idle mirrored exactly");
            for k in 0..pcs_trace::WORK_KINDS {
                assert!(cpu.stretch_ns[k] <= cpu.busy_ns[k]);
            }
        }
        // The interrupt CPU spent time on kernel batches; some app work
        // ran somewhere.
        assert!(st.cpus[0].busy_ns[WorkKind::KernelBatch as usize] > 0);
        let app_busy: u64 = st
            .cpus
            .iter()
            .map(|c| c.busy_ns[WorkKind::AppRead as usize] + c.busy_ns[WorkKind::AppChunk as usize])
            .sum();
        assert!(app_busy > 0);
        // Hyperthreaded and overloaded: SMT stretch must appear.
        assert!(st.cpus.iter().flat_map(|c| c.stretch_ns).sum::<u64>() > 0);
    }

    #[test]
    fn overloaded_run_attribution_stays_exact() {
        // Back-to-back frames overload the stack: drops and end-of-run
        // residue must still account for every generated packet.
        let spec = pcs_hw::MachineSpec::swan();
        let r = MachineSim::new(spec, SimConfig::default()).run_source(packets(20_000, 1));
        for a in r.attributions() {
            assert!(a.balanced(), "unbalanced: {a:?}");
            assert_eq!(a.generated, 20_000);
            assert_eq!(a.generated, r.offered);
        }
    }

    #[test]
    fn report_helpers() {
        let r = MachineSim::new(pcs_hw::MachineSpec::moorhen(), SimConfig::default())
            .run_source(packets(50, 100));
        assert!((r.capture_rate(0) - 1.0).abs() < 1e-12);
        assert!((r.mean_capture_rate() - 1.0).abs() < 1e-12);
        let (w, b) = r.worst_best();
        assert_eq!((w, b), (1.0, 1.0));
        assert!(r.mean_cpu_usage() >= 0.0 && r.mean_cpu_usage() <= 1.0);
    }

    #[test]
    fn unfaulted_run_is_identical_with_and_without_the_hooks() {
        // All-default hooks: every injection site asks and gets the base
        // value back.
        struct Inert;
        impl MachineFaults for Inert {}

        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(300, 3));
        let disarmed = MachineSim::new(spec, SimConfig::default())
            .with_faults(None)
            .run_source(packets(300, 3));
        let inert = MachineSim::new(spec, SimConfig::default())
            .with_faults(Some(Box::new(Inert)))
            .run_source(packets(300, 3));
        assert_eq!(format!("{plain:?}"), format!("{disarmed:?}"));
        assert_eq!(format!("{plain:?}"), format!("{inert:?}"));
    }

    #[test]
    fn ring_stall_fault_moves_drops_into_the_nic_bucket() {
        // A hook that pins the RX ring to one slot for the whole run:
        // back-to-back arrivals must overflow at the NIC, and the
        // attribution identity must stay exact.
        struct Stall;
        impl MachineFaults for Stall {
            fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
                1
            }
        }

        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(2_000, 3));
        let stalled = MachineSim::new(spec, SimConfig::default())
            .with_faults(Some(Box::new(Stall)))
            .run_source(packets(2_000, 3));
        assert!(
            stalled.nic_ring_drops > plain.nic_ring_drops,
            "stall must overflow the ring: {} vs {}",
            stalled.nic_ring_drops,
            plain.nic_ring_drops
        );
        for a in stalled.attributions() {
            assert!(a.balanced(), "unbalanced under fault: {a:?}");
        }
    }

    #[test]
    fn preempt_fault_charges_extra_occupancy_and_stays_balanced() {
        // A hook that holds every CPU 2 µs at each dispatch: the run must
        // slow down (less captured under overload), accounting must still
        // sum to wall occupancy, and attribution must stay exact.
        struct Preempt;
        impl MachineFaults for Preempt {
            fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
                2_000
            }
        }

        let spec = pcs_hw::MachineSpec::swan();
        let plain = MachineSim::new(spec, SimConfig::default()).run_source(packets(20_000, 1));
        let preempted = MachineSim::new(spec, SimConfig::default())
            .with_faults(Some(Box::new(Preempt)))
            .run_source(packets(20_000, 1));
        assert!(
            preempted.apps[0].received < plain.apps[0].received,
            "constant preemption must cost capture under overload: {} vs {}",
            preempted.apps[0].received,
            plain.apps[0].received
        );
        for a in preempted.attributions() {
            assert!(a.balanced(), "unbalanced under preemption: {a:?}");
        }
    }
}

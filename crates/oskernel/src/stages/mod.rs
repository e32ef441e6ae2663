//! The packet-lifecycle stages, one module per event kind.
//!
//! Each stage module owns the handler for one [`SimEvent`] variant and
//! the helper logic that belongs to it:
//!
//! | module       | event            | handler           | owns                                     |
//! |--------------|------------------|-------------------|------------------------------------------|
//! | [`nic`]      | `Arrival`        | `on_arrival`      | PCI admission, RX ring, arrival EMA      |
//! | [`irq`]      | `IrqGate`        | `try_fire_irq`    | interrupt schemes, batch drain, delivery |
//! | [`cpu`]      | `CpuFree`        | `cpu_free`        | completion dispatch, restart             |
//! | [`app`]      | `AppResume`      | `app_resume`      | reads, chunked user processing, throttles|
//! | [`disk`]     | `WritebackDone`  | `writeback_done`  | write-back, gzip helper process          |
//! | [`sample`]   | `Sample`         | `on_sample`       | cpusage sampling, drain detection        |
//!
//! [`dispatch`] matches the event and calls its `MachineSim` handler.
//! Handler contract: it runs exactly when the event is admitted, with
//! `now` equal to the queue clock; it may mutate any sim state, submit
//! work through the scheduler ([`crate::sched::Scheduler`]) and
//! schedule further events at times `>= now`, but must not pop the
//! queue itself. Only the arrival handler pulls the next packet from
//! the run's [`ArrivalSource`] — one pull per arrival keeps chunked
//! injection order-equivalent to flat injection. Stages pass packets
//! by stream position and read them in place through the sim's
//! [`crate::sim::StreamWindow`]; none owns or copies packet bytes.

pub(crate) mod app;
pub(crate) mod cpu;
pub(crate) mod disk;
pub(crate) mod irq;
pub(crate) mod nic;
pub(crate) mod sample;

use crate::event::SimEvent;
use crate::sim::MachineSim;
use pcs_des::SimTime;
use pcs_pktgen::PacketSource;

/// Maximum packets picked up by one interrupt batch.
pub(crate) const MAX_IRQ_BATCH: usize = 64;
/// Maximum packets processed per application work chunk.
pub(crate) const APP_CHUNK: usize = 64;
/// Pipe capacity (a classic 64 kB FIFO).
pub(crate) const PIPE_CAPACITY: u64 = 64 * 1024;
/// Write-back throttling threshold: an application writing to disk
/// blocks when this much dirty data is outstanding.
pub(crate) const DIRTY_LIMIT: u64 = 32 << 20;
/// Disk write-back granule.
pub(crate) const WRITEBACK_CHUNK: u64 = 1 << 20;

/// The run's chunked packet source, which the arrival stage pulls into
/// the sim's [`crate::sim::StreamWindow`].
pub(crate) type ArrivalSource<'a> = &'a mut dyn PacketSource;

/// Route one admitted event to its stage's handler.
pub(crate) fn dispatch(sim: &mut MachineSim, now: SimTime, ev: SimEvent, src: ArrivalSource) {
    match ev {
        SimEvent::Arrival(pos) => sim.on_arrival(now, pos, src),
        SimEvent::IrqGate => sim.try_fire_irq(now),
        SimEvent::CpuFree(cpu) => sim.cpu_free(now, cpu),
        SimEvent::AppResume(app) => sim.app_resume(now, app),
        SimEvent::WritebackDone => sim.writeback_done(now),
        SimEvent::Sample => sim.on_sample(now),
    }
}

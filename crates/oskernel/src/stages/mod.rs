//! The packet-lifecycle stages, one module per event kind.
//!
//! Each stage owns the handling of one [`SimEvent`] variant and the
//! helper logic that belongs to it:
//!
//! | stage                | event            | owns                                     |
//! |----------------------|------------------|------------------------------------------|
//! | [`nic::Nic`]         | `Arrival`        | PCI admission, RX ring, arrival EMA      |
//! | [`irq::Irq`]         | `IrqGate`        | interrupt schemes, batch drain, delivery |
//! | [`cpu::Cpu`]         | `CpuFree`        | completion dispatch, restart             |
//! | [`app::App`]         | `AppResume`      | reads, chunked user processing, throttles|
//! | [`disk::Disk`]       | `WritebackDone`  | write-back, gzip helper process          |
//! | [`sample::Sample`]   | `Sample`         | cpusage sampling, drain detection        |
//!
//! Stages implement the common [`Stage`] trait and are routed by
//! [`dispatch`]; they mutate the sim through `pub(crate)` fields and
//! submit work through the scheduler ([`crate::sched::Scheduler`]).
//! The split changes no behavior: handler bodies are the seed loop's
//! match arms, executed in the same order by the same event queue.
//! Packets reach the stages only as [`PacketRef`]s pulled by the NIC
//! stage from the run's [`ArrivalSource`]; no stage owns or copies
//! packet bytes.

pub(crate) mod app;
pub(crate) mod cpu;
pub(crate) mod disk;
pub(crate) mod irq;
pub(crate) mod nic;
pub(crate) mod sample;

use crate::event::SimEvent;
use crate::sim::MachineSim;
use pcs_des::SimTime;
use pcs_pktgen::PacketRef;

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

/// The timed packet source a stage may pull the next arrival from: the
/// run's [`pcs_pktgen::PacketSource`] flattened into shared references.
pub(crate) type ArrivalSource<'a> = &'a mut dyn Iterator<Item = PacketRef>;

/// One lifecycle stage: the handler for one event kind.
///
/// Contract: `on_event` is called exactly when the event queue pops an
/// event of the stage's kind, with `now` equal to the queue clock. A
/// stage may mutate any sim state, submit work to the scheduler, and
/// schedule further events at times `>= now`; it must not pop the
/// queue itself, and it may only pull `src` after consuming an
/// `Arrival` (one pull per arrival keeps chunked injection
/// order-equivalent to flat injection).
pub(crate) trait Stage {
    /// Stage name, for diagnostics and docs.
    const NAME: &'static str;
    /// Handle one dispatched event at sim-time `now`.
    fn on_event(sim: &mut MachineSim, now: SimTime, ev: SimEvent, src: ArrivalSource);
}

/// Route one popped event to its stage.
pub(crate) fn dispatch(sim: &mut MachineSim, now: SimTime, ev: SimEvent, src: ArrivalSource) {
    match ev {
        SimEvent::Arrival(_) => nic::Nic::on_event(sim, now, ev, src),
        SimEvent::IrqGate => irq::Irq::on_event(sim, now, ev, src),
        SimEvent::CpuFree(_) => cpu::Cpu::on_event(sim, now, ev, src),
        SimEvent::AppResume(_) => app::App::on_event(sim, now, ev, src),
        SimEvent::WritebackDone => disk::Disk::on_event(sim, now, ev, src),
        SimEvent::Sample => sample::Sample::on_event(sim, now, ev, src),
    }
}

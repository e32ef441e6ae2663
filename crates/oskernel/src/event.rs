//! The typed event and work-item vocabulary of the machine simulation.
//!
//! Everything the event loop schedules or executes is named here:
//! [`SimEvent`] is what sits in the pcs-des pending-event queue,
//! [`Work`] is what sits on a CPU's run queue, and [`Completion`] is
//! what a finished work item triggers. Making these first-class types
//! (instead of inlined branches of a monolithic loop) is what lets the
//! scheduler trace them (`--trace …:sched`) and the fault layer perturb
//! them (`--faults preempt:…`) without touching stage logic.
//!
//! ## Hot-path memory shape
//!
//! These types are built and torn down once per interrupt batch or app
//! chunk, so their layout is part of the allocation-free hot path
//! (DESIGN.md §15): a work item's segments live in a fixed inline array
//! of three slots (no per-`Work` heap allocation), its duration is the
//! sum of those at most three segments, and the `recorded`/`traced`
//! buffers in [`Completion::AppChunk`] are pooled vectors recycled when
//! the completion is consumed. Packets themselves travel as `u64`
//! stream positions into the sim's [`crate::sim::StreamWindow`], so an
//! arrival is one integer: no copy, no box and no refcount.

use crate::cpustate::CpuState;
use crate::stack::CapturedPacket;
use pcs_trace::{WorkKind, APP_NONE};

/// The most `(state, ns)` segments one work item holds. Every stage
/// builds a work item from one or two segments, and the only other
/// segment is the preemption hold `Scheduler::dispatch` appends once
/// per item, so three slots hold every work item by construction.
const MAX_SEGMENTS: usize = 3;

/// A work item's segments, inline in a fixed array: no heap allocation
/// per work item, and a push past [`MAX_SEGMENTS`] panics instead of
/// spilling.
#[derive(Default)]
struct Segments {
    slots: [(CpuState, u64); MAX_SEGMENTS],
    len: usize,
}

impl Segments {
    fn push(&mut self, segment: (CpuState, u64)) {
        assert!(
            self.len < MAX_SEGMENTS,
            "a work item holds at most {MAX_SEGMENTS} segments"
        );
        self.slots[self.len] = segment;
        self.len += 1;
    }
}

/// Simulation events: everything the pending-event queue can deliver.
///
/// Entries sit in the event queue by the hundreds, so the enum must
/// stay small: every variant's payload is at most one `u64` or `usize`,
/// and a check in this module's tests keeps the enum at 16 bytes.
#[derive(Debug)]
pub(crate) enum SimEvent {
    /// A frame has fully arrived at the NIC: its stream position, read
    /// in place through the sim's [`crate::sim::StreamWindow`].
    Arrival(u64),
    /// A CPU finished its current work item.
    CpuFree(usize),
    /// An interrupt may fire now (moderation gap elapsed).
    IrqGate,
    /// A sleeping application resumes (I/O throttle or pipe space).
    AppResume(usize),
    /// A chunk of dirty data reached the platters.
    WritebackDone,
    /// Periodic cpusage-style accounting sample.
    Sample,
}

/// What a finished work item triggers.
#[derive(Debug)]
pub(crate) enum Completion {
    KernelBatch,
    AppCopyout {
        app: usize,
    },
    AppChunk {
        app: usize,
        packets: u64,
        bytes: u64,
        /// Pooled buffer, recycled by the CPU stage after the packets
        /// are appended to the app's capture log.
        recorded: Vec<CapturedPacket>,
        /// (seq, gen_ns, caplen) per packet, captured only when tracing:
        /// app-delivery events and the wire→app latency digest are
        /// recorded when the chunk's processing completes. Pooled like
        /// `recorded`.
        traced: Vec<(u64, u64, u32)>,
    },
    GzipChunk {
        bytes: u64,
    },
    None,
}

/// A piece of CPU work.
pub(crate) struct Work {
    /// What kind of work this is — the scheduler-trace vocabulary.
    pub(crate) kind: WorkKind,
    /// (state, ns) segments; executed as one uninterruptible span.
    segments: Segments,
    pub(crate) complete: Completion,
}

impl Work {
    /// Build a work item from its `(state, ns)` segments.
    pub(crate) fn new(kind: WorkKind, segments: &[(CpuState, u64)], complete: Completion) -> Work {
        let mut work = Work {
            kind,
            segments: Segments::default(),
            complete,
        };
        for &segment in segments {
            work.segments.push(segment);
        }
        work
    }

    /// The segments, in execution order.
    pub(crate) fn segments(&self) -> &[(CpuState, u64)] {
        &self.segments.slots[..self.segments.len]
    }

    /// The total duration: the sum of the segments.
    pub(crate) fn duration(&self) -> u64 {
        self.segments().iter().map(|s| s.1).sum()
    }

    /// Scale every segment by `scale` (the SMT sibling stretch), each
    /// rounded down on its own.
    pub(crate) fn stretch(&mut self, scale: f64) {
        for seg in &mut self.segments.slots[..self.segments.len] {
            seg.1 = (seg.1 as f64 * scale) as u64;
        }
    }

    /// Append one segment (the preemption hold).
    pub(crate) fn push_segment(&mut self, state: CpuState, ns: u64) {
        self.segments.push((state, ns));
    }

    /// The application this work belongs to, for scheduler traces
    /// ([`APP_NONE`] for kernel/helper work).
    pub(crate) fn sched_app(&self) -> u16 {
        match &self.complete {
            Completion::AppCopyout { app } => *app as u16,
            Completion::AppChunk { app, .. } => *app as u16,
            _ => APP_NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_event_stays_small() {
        // EventQueue entries are (time, seq, event); the event payload
        // must not outgrow one 8-byte word beside the tag.
        assert!(
            std::mem::size_of::<SimEvent>() <= 16,
            "SimEvent grew to {} bytes — box the large variant",
            std::mem::size_of::<SimEvent>()
        );
    }

    #[test]
    fn work_duration_sums_the_segments() {
        let mut w = Work::new(
            WorkKind::KernelBatch,
            &[(CpuState::Irq, 100), (CpuState::SoftIrq, 50)],
            Completion::KernelBatch,
        );
        assert_eq!(w.duration(), 150);
        w.push_segment(CpuState::System, 25);
        assert_eq!(w.duration(), 175);
        assert_eq!(w.segments().len(), 3);
        // Stretch rounds each segment down on its own.
        w.stretch(0.5);
        assert_eq!(
            w.segments(),
            [
                (CpuState::Irq, 50),
                (CpuState::SoftIrq, 25),
                (CpuState::System, 12)
            ]
        );
        assert_eq!(w.duration(), 50 + 25 + 12);
    }

    #[test]
    #[should_panic(expected = "a work item holds at most 3 segments")]
    fn a_fourth_segment_panics() {
        let mut w = Work::new(
            WorkKind::KernelBatch,
            &[(CpuState::Irq, 100), (CpuState::SoftIrq, 50)],
            Completion::KernelBatch,
        );
        w.push_segment(CpuState::System, 25);
        w.push_segment(CpuState::System, 25);
    }
}

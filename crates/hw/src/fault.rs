//! NIC/bus-level fault-injection hooks.
//!
//! The machine simulation carries an `Option<Box<dyn …>>` of this trait;
//! `None` — no fault plan armed — costs exactly one branch per arrival,
//! the same zero-cost-when-off pattern the trace sink uses. An armed
//! implementation must derive its answers **only** from the simulated
//! clock (`now_ns`) and its own seeded state, never from host time or
//! call order, so a faulted run stays byte-identical at any worker
//! count or pipeline shape.
//!
//! Cursor admission (DESIGN.md §17) preserves the per-arrival hook
//! contract exactly: every arrival runs the full arrival handler —
//! including every hook consultation, at the same `now_ns`, in the same
//! order — whether it was admitted from the cursor or the heap. Hook
//! implementations need no admission awareness, and stateful hooks
//! observe the identical call sequence in the per-packet test oracle
//! (proved by the `batching_is_invisible` suite).

/// Deterministic NIC/bus fault hooks, consulted on the simulation clock.
///
/// Every method has a no-fault default, so an implementation overrides
/// only the faults its plan arms.
pub trait NicBusFault: Send {
    /// Effective RX descriptor ring size at `now_ns`, given the
    /// configured `base` slot count. A "ring stall" fault returns a
    /// smaller value while a stall window is active — as if the driver
    /// stopped replenishing descriptors.
    fn ring_slots(&mut self, _now_ns: u64, base: usize) -> usize {
        base
    }

    /// Extra demand (bytes/s) on the shared I/O bus at `now_ns` — foreign
    /// DMA traffic contending with the NIC during a bus-burst window.
    fn bus_extra_demand_bps(&mut self, _now_ns: u64) -> u64 {
        0
    }

    /// Additional interrupt hold-off at `now_ns`: how many nanoseconds
    /// the NIC must wait before it may fire (0 = no jitter). While an
    /// IRQ-jitter window is active this returns the time remaining until
    /// the window closes.
    fn irq_extra_gap_ns(&mut self, _now_ns: u64) -> u64 {
        0
    }
}

/// Deterministic CPU-scheduler fault hooks, consulted at work-item
/// dispatch on the simulation clock.
///
/// Models a host scheduler preempting the capture machine's workers: an
/// armed implementation returns extra occupancy (in nanoseconds) charged
/// to the CPU before the dispatched work item's own cost, as if a
/// foreign task held the core. The same determinism contract as
/// [`NicBusFault`] applies: answers derive only from `now_ns`, the CPU
/// index, and seeded state.
pub trait SchedFault: Send {
    /// Extra nanoseconds CPU `cpu` is held by a preempting task when a
    /// work item is dispatched at `now_ns` (0 = no preemption).
    fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
        0
    }
}

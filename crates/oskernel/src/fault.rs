//! Fault-injection hooks.
//!
//! One trait, [`MachineFaults`], carries every machine-side fault: the
//! NIC/bus hooks (ring stall, bus burst, IRQ jitter), the scheduler's
//! preemption hook, and the two faults that live above the driver
//! (kernel capture-buffer shrink and application backpressure pauses).
//! `MachineSim` consults an armed implementation through
//! `Option<Box<dyn MachineFaults>>`; `None` — no fault plan armed —
//! costs exactly one branch per site, the same zero-cost-when-off
//! pattern the trace sink uses.
//!
//! An armed implementation must derive its answers **only** from the
//! simulated clock (`now_ns`), its arguments and its own seeded state,
//! never from host time or call order, so a faulted run stays
//! byte-identical at any worker count or pipeline shape.
//!
//! Cursor admission (DESIGN.md §17) preserves the per-arrival hook
//! contract exactly: every arrival runs the full arrival handler —
//! including every hook consultation, at the same `now_ns`, in the same
//! order — whether it was admitted from the cursor or the heap. Hook
//! implementations need no admission awareness, and stateful hooks
//! observe the identical call sequence in the per-packet test oracle
//! (proved by the `batching_is_invisible` suite).

/// Deterministic machine fault hooks, consulted on the simulation clock.
///
/// Every method defaults to "no fault", so a plan overrides only what
/// it arms.
pub trait MachineFaults: Send {
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

    /// Extra nanoseconds CPU `cpu` is held by a preempting task when a
    /// work item is dispatched at `now_ns` (0 = no preemption): a host
    /// scheduler preempting the capture machine's workers, charged to
    /// the CPU before the work item's own cost, as if a foreign task
    /// held the core.
    fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
        0
    }

    /// Effective kernel capture-buffer capacity at `now_ns`, in
    /// permille of the configured size (1000 = unchanged). A
    /// kernel-shrink window returns a small value; outside the window
    /// the full capacity is restored automatically.
    fn buffer_permille(&mut self, _now_ns: u64) -> u32 {
        1000
    }

    /// If application `app` is backpressure-paused at `now_ns`, the
    /// sim-clock nanosecond at which it may resume reading; `None`
    /// when the app runs normally.
    fn app_pause_until_ns(&mut self, _now_ns: u64, _app: usize) -> Option<u64> {
        None
    }
}

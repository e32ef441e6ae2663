//! The machine-side hook implementation for an armed plan.
//!
//! Every fault manifests as periodic windows on the sim clock. A
//! window's position inside its period is a **closed-form function of
//! (plan seed, fault kind, period index)** — no mutable schedule state,
//! no host time — so every hook call at sim time `t` returns the same
//! answer no matter how many worker threads run, how the stream is
//! chunked, or in which order cells execute.

use crate::plan::{FaultKind, FaultPlan};
use pcs_des::SplitMix64;
use pcs_oskernel::MachineFaults;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Ring-stall window: the RX ring shrinks to `base/16` slots.
const RING_STALL_PERIOD_NS: u64 = 40_000_000;
const RING_STALL_DUR_NS: u64 = 6_000_000;

/// Bus-burst window: foreign DMA adds this many bytes/s of demand.
const BUS_BURST_PERIOD_NS: u64 = 35_000_000;
const BUS_BURST_DUR_NS: u64 = 5_000_000;
const BUS_BURST_BPS: u64 = 300_000_000;

/// IRQ-jitter window: interrupt delivery held off until the window ends.
const IRQ_JITTER_PERIOD_NS: u64 = 20_000_000;
const IRQ_JITTER_DUR_NS: u64 = 2_000_000;

/// Kernel-shrink window: capture buffers scaled to this permille.
const KERNEL_SHRINK_PERIOD_NS: u64 = 30_000_000;
const KERNEL_SHRINK_DUR_NS: u64 = 12_000_000;
const KERNEL_SHRINK_PERMILLE: u32 = 8;

/// App-pause window: the application stops reading until the window ends.
const APP_PAUSE_PERIOD_NS: u64 = 50_000_000;
const APP_PAUSE_DUR_NS: u64 = 30_000_000;

/// Preempt window: a foreign task holds the core at each dispatch, for
/// at most one scheduler slice per work item.
const PREEMPT_PERIOD_NS: u64 = 25_000_000;
const PREEMPT_DUR_NS: u64 = 4_000_000;
const PREEMPT_SLICE_NS: u64 = 150_000;

/// Periodic seeded fault windows: within each period of `period_ns`,
/// one window of `dur_ns` sits at a pseudorandom offset derived from
/// the seed and the period index.
#[derive(Debug, Clone, Copy)]
struct Windows {
    seed: u64,
    period_ns: u64,
    dur_ns: u64,
}

impl Windows {
    fn new(plan_seed: u64, kind: FaultKind, period_ns: u64, dur_ns: u64) -> Windows {
        debug_assert!(dur_ns < period_ns);
        // Fold the kind into the seed so co-armed faults don't align.
        let seed = SplitMix64::new(plan_seed ^ (kind.tag() as u64).wrapping_mul(GOLDEN)).next_u64();
        Windows {
            seed,
            period_ns,
            dur_ns,
        }
    }

    /// If `now_ns` falls inside this period's window, the window's end.
    fn active_until(&self, now_ns: u64) -> Option<u64> {
        let idx = now_ns / self.period_ns;
        let off = SplitMix64::new(self.seed ^ idx.wrapping_mul(GOLDEN)).next_u64()
            % (self.period_ns - self.dur_ns);
        let start = idx * self.period_ns + off;
        if now_ns >= start && now_ns < start + self.dur_ns {
            Some(start + self.dur_ns)
        } else {
            None
        }
    }
}

/// [`MachineFaults`] for one armed [`FaultPlan`]: one optional window
/// per machine-side fault kind.
///
/// Built via [`FaultPlan::arm_machine`]; one instance per simulated
/// machine.
pub struct ArmedMachineFaults {
    ring_stall: Option<Windows>,
    bus_burst: Option<Windows>,
    irq_jitter: Option<Windows>,
    kernel_shrink: Option<Windows>,
    app_pause: Option<Windows>,
    /// While a preempt window is active, every dispatch is charged the
    /// remaining window — capped at one scheduler slice — as extra
    /// occupancy before the work runs.
    preempt: Option<Windows>,
}

impl ArmedMachineFaults {
    pub(crate) fn new(plan: &FaultPlan) -> ArmedMachineFaults {
        let w = |kind: FaultKind, period: u64, dur: u64| {
            plan.has(kind)
                .then(|| Windows::new(plan.seed(), kind, period, dur))
        };
        ArmedMachineFaults {
            ring_stall: w(
                FaultKind::RingStall,
                RING_STALL_PERIOD_NS,
                RING_STALL_DUR_NS,
            ),
            bus_burst: w(FaultKind::BusBurst, BUS_BURST_PERIOD_NS, BUS_BURST_DUR_NS),
            irq_jitter: w(
                FaultKind::IrqJitter,
                IRQ_JITTER_PERIOD_NS,
                IRQ_JITTER_DUR_NS,
            ),
            kernel_shrink: w(
                FaultKind::KernelShrink,
                KERNEL_SHRINK_PERIOD_NS,
                KERNEL_SHRINK_DUR_NS,
            ),
            app_pause: w(FaultKind::AppPause, APP_PAUSE_PERIOD_NS, APP_PAUSE_DUR_NS),
            preempt: w(FaultKind::Preempt, PREEMPT_PERIOD_NS, PREEMPT_DUR_NS),
        }
    }
}

impl MachineFaults for ArmedMachineFaults {
    fn ring_slots(&mut self, now_ns: u64, base: usize) -> usize {
        match self.ring_stall {
            Some(w) if w.active_until(now_ns).is_some() => (base / 16).max(1),
            _ => base,
        }
    }

    fn bus_extra_demand_bps(&mut self, now_ns: u64) -> u64 {
        match self.bus_burst {
            Some(w) if w.active_until(now_ns).is_some() => BUS_BURST_BPS,
            _ => 0,
        }
    }

    fn irq_extra_gap_ns(&mut self, now_ns: u64) -> u64 {
        match self.irq_jitter.and_then(|w| w.active_until(now_ns)) {
            Some(end) => end - now_ns,
            None => 0,
        }
    }

    fn preempt_extra_ns(&mut self, now_ns: u64, _cpu: usize) -> u64 {
        match self.preempt.and_then(|w| w.active_until(now_ns)) {
            Some(end) => (end - now_ns).min(PREEMPT_SLICE_NS),
            None => 0,
        }
    }

    fn buffer_permille(&mut self, now_ns: u64) -> u32 {
        match self.kernel_shrink {
            Some(w) if w.active_until(now_ns).is_some() => KERNEL_SHRINK_PERMILLE,
            _ => 1000,
        }
    }

    fn app_pause_until_ns(&mut self, now_ns: u64, _app: usize) -> Option<u64> {
        self.app_pause.and_then(|w| w.active_until(now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_deterministic_and_bounded() {
        let w = Windows::new(42, FaultKind::RingStall, 1_000_000, 100_000);
        let mut active_ns = 0u64;
        for t in (0..10_000_000u64).step_by(1_000) {
            let a = w.active_until(t);
            assert_eq!(a, w.active_until(t), "same clock, same answer");
            if let Some(end) = a {
                assert!(end > t && end <= (t / 1_000_000 + 1) * 1_000_000 + 100_000);
                active_ns += 1_000;
            }
        }
        // Roughly one 100 µs window per 1 ms period over 10 ms.
        assert!((500_000..=1_500_000).contains(&active_ns), "{active_ns}");
    }

    #[test]
    fn co_armed_kinds_use_distinct_phases() {
        let a = Windows::new(7, FaultKind::RingStall, 1_000_000, 100_000);
        let b = Windows::new(7, FaultKind::BusBurst, 1_000_000, 100_000);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn unarmed_kinds_answer_no_fault() {
        let plan = FaultPlan::parse("ringstall:1").unwrap().unwrap();
        let mut f = ArmedMachineFaults::new(&plan);
        for t in (0..200_000_000u64).step_by(500_000) {
            assert_eq!(f.bus_extra_demand_bps(t), 0);
            assert_eq!(f.irq_extra_gap_ns(t), 0);
            assert_eq!(f.buffer_permille(t), 1000);
            assert_eq!(f.app_pause_until_ns(t, 0), None);
            assert_eq!(f.preempt_extra_ns(t, 0), 0);
        }
    }

    #[test]
    fn armed_kinds_eventually_fire() {
        let plan = FaultPlan::parse("chaos:11").unwrap().unwrap();
        let mut f = ArmedMachineFaults::new(&plan);
        let mut stalled = false;
        let mut burst = false;
        let mut jitter = false;
        let mut shrink = false;
        let mut pause = false;
        let mut preempted = false;
        for t in (0..400_000_000u64).step_by(100_000) {
            stalled |= f.ring_slots(t, 256) < 256;
            burst |= f.bus_extra_demand_bps(t) > 0;
            jitter |= f.irq_extra_gap_ns(t) > 0;
            shrink |= f.buffer_permille(t) < 1000;
            pause |= f.app_pause_until_ns(t, 0).is_some();
            preempted |= f.preempt_extra_ns(t, 0) > 0;
        }
        assert!(stalled && burst && jitter && shrink && pause && preempted);
    }

    #[test]
    fn preempt_hold_is_capped_at_one_slice() {
        let plan = FaultPlan::parse("preempt:9").unwrap().unwrap();
        let mut f = ArmedMachineFaults::new(&plan);
        let mut fired = false;
        for t in (0..400_000_000u64).step_by(50_000) {
            let extra = f.preempt_extra_ns(t, 1);
            assert!(extra <= PREEMPT_SLICE_NS, "hold {extra} exceeds the slice");
            fired |= extra > 0;
        }
        assert!(fired, "an armed preempt plan should eventually hold a core");
        let quiet = FaultPlan::parse("ringstall:9").unwrap().unwrap();
        let mut q = ArmedMachineFaults::new(&quiet);
        assert!((0..400_000_000u64)
            .step_by(50_000)
            .all(|t| q.preempt_extra_ns(t, 0) == 0));
    }

    #[test]
    fn pause_resume_time_is_past_now() {
        let plan = FaultPlan::parse("apppause:3").unwrap().unwrap();
        let mut f = ArmedMachineFaults::new(&plan);
        for t in (0..400_000_000u64).step_by(250_000) {
            if let Some(end) = f.app_pause_until_ns(t, 0) {
                assert!(end > t);
            }
        }
    }
}

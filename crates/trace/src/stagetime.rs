//! Per-CPU, per-work-kind simulated-time attribution.
//!
//! Where every nanosecond of each CPU's sim time went: busy time split
//! by the [`WorkKind`] that occupied the CPU, the share of that busy
//! time added by SMT stretching and preemption faults, and idle time.
//! Zero-cost-when-off: the scheduler carries an `Option` of this and
//! records through one branch per dispatch/finish; when enabled the
//! account is a fixed array per CPU, allocated once at arm time — the
//! pooled per-packet path stays allocation-free (DESIGN.md §15).
//!
//! The accounting mirrors the scheduler's `CpuAccounting` exactly, so
//! the invariant `Σ busy_ns + idle_ns == acct.total()` holds per CPU —
//! the sim-wide oracle checks it on every report. Cursor admission
//! (DESIGN.md §17) leaves this account untouched by construction: it
//! changes where the next arrival waits, not work execution, so every
//! dispatch/finish charge happens at the same instant with the same
//! amounts as in the per-packet test oracle.

use crate::event::WorkKind;

/// Number of work kinds a [`CpuStageTimes`] attributes busy time to.
pub const WORK_KINDS: usize = WorkKind::ALL.len();

/// One CPU's simulated-time account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStageTimes {
    /// Busy nanoseconds per [`WorkKind`] (indexed by discriminant). Each
    /// entry is the full wall occupancy of that kind's work items —
    /// stretch included — so the busy entries plus `idle_ns` sum to the
    /// CPU's total accounted time.
    pub busy_ns: [u64; WORK_KINDS],
    /// Of the busy time, nanoseconds added at dispatch by SMT sibling
    /// stretching and preemption-fault holds, per [`WorkKind`]. Always
    /// `stretch_ns[k] <= busy_ns[k]`.
    pub stretch_ns: [u64; WORK_KINDS],
    /// Idle nanoseconds (identical to the accounting's idle bucket).
    pub idle_ns: u64,
}

impl CpuStageTimes {
    /// Total busy nanoseconds over every work kind.
    pub fn busy_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Busy plus idle — must equal the CPU's accounted total.
    pub fn total(&self) -> u64 {
        self.busy_total() + self.idle_ns
    }
}

/// Per-stage time attribution for one machine run: one account per CPU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// One account per logical CPU, in CPU order.
    pub cpus: Vec<CpuStageTimes>,
}

impl StageTimes {
    /// An all-zero account for `ncpu` CPUs.
    pub fn new(ncpu: usize) -> StageTimes {
        StageTimes {
            cpus: vec![CpuStageTimes::default(); ncpu],
        }
    }

    /// Charge `ns` of busy time for `kind` on `cpu`.
    #[inline]
    pub fn add_busy(&mut self, cpu: usize, kind: WorkKind, ns: u64) {
        self.cpus[cpu].busy_ns[kind as usize] += ns;
    }

    /// Charge `ns` of dispatch-added stretch (SMT sibling or preemption
    /// hold) for `kind` on `cpu`.
    #[inline]
    pub fn add_stretch(&mut self, cpu: usize, kind: WorkKind, ns: u64) {
        self.cpus[cpu].stretch_ns[kind as usize] += ns;
    }

    /// Charge `ns` of idle time on `cpu`.
    #[inline]
    pub fn add_idle(&mut self, cpu: usize, ns: u64) {
        self.cpus[cpu].idle_ns += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_kind() {
        let mut st = StageTimes::new(2);
        st.add_busy(0, WorkKind::KernelBatch, 100);
        st.add_busy(0, WorkKind::KernelBatch, 50);
        st.add_busy(1, WorkKind::AppChunk, 30);
        st.add_stretch(0, WorkKind::KernelBatch, 20);
        st.add_idle(0, 850);
        assert_eq!(st.cpus[0].busy_ns[WorkKind::KernelBatch as usize], 150);
        assert_eq!(st.cpus[0].stretch_ns[WorkKind::KernelBatch as usize], 20);
        assert_eq!(st.cpus[0].busy_total(), 150);
        assert_eq!(st.cpus[0].total(), 1000);
        assert_eq!(st.cpus[1].busy_total(), 30);
        assert_eq!(st.cpus[1].idle_ns, 0);
    }
}

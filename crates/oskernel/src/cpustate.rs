//! Per-CPU time accounting, in the states `cpusage` samples (Chapter 5).
//!
//! Linux exposes seven states (user, nice, system, iowait, irq, softirq,
//! idle), FreeBSD five (user, nice, system, interrupt, idle) — the
//! trimusage script keys off that difference (Appendix A.4).

/// CPU execution states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CpuState {
    /// User-mode application work.
    User,
    /// Niced user work (unused by the testbed, present for fidelity).
    Nice,
    /// Kernel work on behalf of a process (syscalls, copies).
    System,
    /// Waiting on I/O with nothing else runnable (Linux accounting).
    IoWait,
    /// Hardware interrupt context.
    Irq,
    /// Software interrupt context (Linux; folded into Irq on FreeBSD).
    SoftIrq,
    /// Nothing to do (the default state — what an inline segment slot
    /// holds before it is written).
    #[default]
    Idle,
}

/// Accumulated nanoseconds per state for one CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuAccounting {
    /// ns in user mode.
    pub user: u64,
    /// ns niced.
    pub nice: u64,
    /// ns in system mode.
    pub system: u64,
    /// ns in iowait.
    pub iowait: u64,
    /// ns in hard-interrupt context.
    pub irq: u64,
    /// ns in soft-interrupt context.
    pub softirq: u64,
    /// ns idle.
    pub idle: u64,
}

impl CpuAccounting {
    /// Add `ns` to one state's bucket.
    pub fn add(&mut self, state: CpuState, ns: u64) {
        match state {
            CpuState::User => self.user += ns,
            CpuState::Nice => self.nice += ns,
            CpuState::System => self.system += ns,
            CpuState::IoWait => self.iowait += ns,
            CpuState::Irq => self.irq += ns,
            CpuState::SoftIrq => self.softirq += ns,
            CpuState::Idle => self.idle += ns,
        }
    }

    /// Total accounted time.
    pub fn total(&self) -> u64 {
        self.user + self.nice + self.system + self.iowait + self.irq + self.softirq + self.idle
    }

    /// Total non-idle time (iowait counts as idle-like, as `top` does).
    pub fn busy(&self) -> u64 {
        self.user + self.nice + self.system + self.irq + self.softirq
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &CpuAccounting) -> CpuAccounting {
        CpuAccounting {
            user: self.user - earlier.user,
            nice: self.nice - earlier.nice,
            system: self.system - earlier.system,
            iowait: self.iowait - earlier.iowait,
            irq: self.irq - earlier.irq,
            softirq: self.softirq - earlier.softirq,
            idle: self.idle - earlier.idle,
        }
    }

    /// Busy fraction over the accounted interval (0 when empty).
    pub fn utilisation(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.busy() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_state() {
        let mut a = CpuAccounting::default();
        a.add(CpuState::User, 100);
        a.add(CpuState::Irq, 50);
        a.add(CpuState::Idle, 850);
        assert_eq!(a.total(), 1000);
        assert_eq!(a.busy(), 150);
        assert!((a.utilisation() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn snapshot_difference() {
        let mut a = CpuAccounting::default();
        a.add(CpuState::System, 30);
        let snap = a;
        a.add(CpuState::System, 20);
        a.add(CpuState::Idle, 50);
        let d = a.since(&snap);
        assert_eq!(d.system, 20);
        assert_eq!(d.idle, 50);
        assert_eq!(d.total(), 70);
    }

    #[test]
    fn empty_accounting_is_zero_utilisation() {
        assert_eq!(CpuAccounting::default().utilisation(), 0.0);
    }
}

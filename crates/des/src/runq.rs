//! A two-class per-CPU run queue with strict kernel priority and a
//! bounded starvation-avoidance yield.
//!
//! [`RunQueue`] is the generic scheduling primitive behind the machine
//! simulator's CPUs: kernel work (interrupt and stack processing) runs
//! ahead of user work, but after a configurable number of back-to-back
//! kernel items the next slot is granted to queued user work — so
//! interrupt pressure crowds applications out *gradually* rather than
//! absolutely, which is exactly the receive-livelock shape of Mogul &
//! Ramakrishnan that the thesis reproduces (§2.2.1). Both classes are
//! FIFO internally, so picking is fully deterministic.

use std::collections::VecDeque;

/// The scheduling class of a queued work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Interrupt/kernel work: strict priority, subject to the yield cap.
    Kernel,
    /// User (application) work: runs when kernel work is absent or yields.
    User,
}

/// A deterministic two-class FIFO run queue for one CPU.
#[derive(Debug, Clone)]
pub struct RunQueue<W> {
    kernel: VecDeque<W>,
    user: VecDeque<W>,
    /// Kernel work items picked back to back since the last user slot.
    consecutive_kernel: u32,
}

impl<W> Default for RunQueue<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> RunQueue<W> {
    /// An empty run queue.
    pub fn new() -> RunQueue<W> {
        RunQueue {
            kernel: VecDeque::new(),
            user: VecDeque::new(),
            consecutive_kernel: 0,
        }
    }

    /// Enqueue `work` at the tail of its class queue.
    pub fn push(&mut self, class: WorkClass, work: W) {
        match class {
            WorkClass::Kernel => self.kernel.push_back(work),
            WorkClass::User => self.user.push_back(work),
        }
    }

    /// Pending kernel-class items.
    pub fn kernel_len(&self) -> usize {
        self.kernel.len()
    }

    /// Pending user-class items.
    pub fn user_len(&self) -> usize {
        self.user.len()
    }

    /// True when neither class has pending work.
    pub fn is_empty(&self) -> bool {
        self.kernel.is_empty() && self.user.is_empty()
    }

    /// Pick the next work item under the strict-priority-with-yield
    /// policy: kernel work first, except that after `kernel_slots`
    /// consecutive kernel picks a queued user item (if any) gets the
    /// slot. Returns `None` when both queues are empty.
    pub fn pick(&mut self, kernel_slots: u32) -> Option<W> {
        let yield_to_user = self.consecutive_kernel >= kernel_slots && !self.user.is_empty();
        if !yield_to_user {
            match self.kernel.pop_front() {
                Some(w) => {
                    self.consecutive_kernel += 1;
                    Some(w)
                }
                None => {
                    self.consecutive_kernel = 0;
                    self.user.pop_front()
                }
            }
        } else {
            self.consecutive_kernel = 0;
            self.user.pop_front()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_has_strict_priority() {
        let mut q = RunQueue::new();
        q.push(WorkClass::User, "u1");
        q.push(WorkClass::Kernel, "k1");
        q.push(WorkClass::Kernel, "k2");
        assert_eq!(q.pick(8), Some("k1"));
        assert_eq!(q.pick(8), Some("k2"));
        assert_eq!(q.pick(8), Some("u1"));
        assert_eq!(q.pick(8), None);
    }

    #[test]
    fn user_work_gets_every_nth_slot_under_pressure() {
        let mut q = RunQueue::new();
        for i in 0..10 {
            q.push(WorkClass::Kernel, format!("k{i}"));
        }
        q.push(WorkClass::User, "u0".to_string());
        let order: Vec<String> = std::iter::from_fn(|| q.pick(3)).collect();
        // Three kernel slots, then the user yield, then the rest.
        assert_eq!(order[..4], ["k0", "k1", "k2", "u0"]);
        assert_eq!(order.len(), 11);
    }

    #[test]
    fn consecutive_counter_resets_when_kernel_queue_drains() {
        let mut q = RunQueue::new();
        q.push(WorkClass::Kernel, 1);
        assert_eq!(q.pick(8), Some(1));
        // Kernel queue empty: a user pick resets the streak.
        q.push(WorkClass::User, 2);
        assert_eq!(q.pick(8), Some(2));
        for i in 0..8 {
            q.push(WorkClass::Kernel, 10 + i);
        }
        q.push(WorkClass::User, 99);
        // Fresh streak: all 8 kernel slots run before the user yield.
        let order: Vec<i32> = std::iter::from_fn(|| q.pick(8)).collect();
        assert_eq!(order, vec![10, 11, 12, 13, 14, 15, 16, 17, 99]);
    }

    #[test]
    fn lengths_track_both_classes() {
        let mut q: RunQueue<u32> = RunQueue::new();
        assert!(q.is_empty());
        q.push(WorkClass::Kernel, 1);
        q.push(WorkClass::User, 2);
        q.push(WorkClass::User, 3);
        assert_eq!(q.kernel_len(), 1);
        assert_eq!(q.user_len(), 2);
        assert!(!q.is_empty());
    }
}

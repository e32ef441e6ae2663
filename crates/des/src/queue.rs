//! The pending-event set of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs with **stable
//! FIFO ordering** for events scheduled at the same instant: two events with
//! equal timestamps pop in the order they were pushed. Stability is what
//! makes runs reproducible — a plain binary heap would break ties by
//! allocation order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    /// `(time, seq)` packed as `time << 64 | seq`: lexicographic order
    /// over the pair collapses to one integer comparison, which the heap
    /// performs O(log n) times per operation. `seq` is a strictly
    /// increasing u64, so the packing never aliases.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(time: SimTime, seq: u64) -> u128 {
        ((time.as_nanos() as u128) << 64) | seq as u128
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event
        // (and among equal times, the lowest sequence number) on top.
        other.key.cmp(&self.key)
    }
}

/// A time-ordered pending-event set.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Create an empty queue whose heap can hold `cap` events before
    /// reallocating. Simulations that know their in-flight bound (e.g.
    /// ring slots + CPUs + a few timers) pre-size here and never touch
    /// the allocator from the hot loop.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past — scheduling into the past is always
    /// a simulation bug and silently reordering it would corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "attempt to schedule event at {} before current time {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: Entry::<E>::key(at, seq),
            event,
        });
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when no events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let time = entry.time();
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event (the clock keeps its value).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Reserve the next sequence number without queueing anything.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Pack a (time, seq) pair into a comparable key.
    pub fn admission_key(at: SimTime, seq: u64) -> u128 {
        ((at.as_nanos() as u128) << 64) | seq as u128
    }

    /// Key of the earliest pending heap event.
    pub fn peek_key(&self) -> Option<u128> {
        self.heap.peek().map(|e| e.key)
    }

    /// Advance the clock to `at` without popping (cursor admission).
    pub fn advance_to(&mut self, at: SimTime) {
        debug_assert!(at >= self.now);
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(3), "c");
        q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1), 1);
        q.schedule(SimTime::from_micros(10), 10);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(1), 1));
        // Schedule something between now and the remaining event.
        q.schedule(q.now() + SimDuration::from_micros(3), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 10]);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_micros(1), ());
        q.schedule(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}

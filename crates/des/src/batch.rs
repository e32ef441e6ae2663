//! Lazy arrival admission: the one-slot [`AdmissionCursor`].
//!
//! The dominant event class of a packet-capture simulation is the wire
//! arrival — one event per packet. Scheduling each of them through the
//! binary heap up front means every packet pays two O(log n) heap
//! operations plus an event-struct move before any stage work happens.
//! [`AdmissionCursor`] removes that cost without changing a single
//! observable byte: the *next* arrival is held outside the heap under
//! the exact `(time, seq)` key it would have carried inside it
//! ([`crate::EventQueue::reserve_seq`] allocates the sequence number at
//! the very same program point `schedule` would have), and the main
//! loop admits it only when it precedes everything actually queued.
//! The pending-event set thus holds O(1) arrival entries regardless of
//! stream length.
//!
//! [`BatchProbe`] is a fieldless stub left from the deleted coalescing
//! and memo counters; see its docs.

use crate::time::SimTime;

/// A one-slot lazy-admission cursor: the next deferred event, held
/// outside the pending-event heap under its reserved `(time, seq)` key.
///
/// The key must come from [`crate::EventQueue::reserve_seq`] packed via
/// [`crate::EventQueue::admission_key`] *at the program point where the
/// event would otherwise have been scheduled* — that is what keeps
/// same-instant tie-breaking identical to the heap path.
#[derive(Debug, Default)]
pub struct AdmissionCursor<T> {
    slot: Option<(u128, T)>,
}

impl<T> AdmissionCursor<T> {
    /// An empty cursor.
    pub fn new() -> AdmissionCursor<T> {
        AdmissionCursor { slot: None }
    }

    /// True when no event is deferred.
    pub fn is_empty(&self) -> bool {
        self.slot.is_none()
    }

    /// Defer `item` under `key`. The cursor holds one event; stashing
    /// over an occupied slot is a logic error.
    pub fn stash(&mut self, key: u128, item: T) {
        debug_assert!(self.slot.is_none(), "admission cursor already occupied");
        self.slot = Some((key, item));
    }

    /// Whether the deferred event precedes the earliest heap event
    /// (`heap_key` as returned by [`crate::EventQueue::peek_key`]).
    /// Strict `<` is exact, not conservative: keys embed unique sequence
    /// numbers, so two keys never compare equal, and the deferred
    /// event's seq was reserved when it was stashed — any heap entry
    /// with the same timestamp but an earlier seq must pop first,
    /// exactly as if both sat in the heap.
    pub fn precedes(&self, heap_key: Option<u128>) -> bool {
        match (&self.slot, heap_key) {
            (Some((key, _)), Some(hk)) => *key < hk,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Take the deferred event, unpacking its admission time.
    pub fn take(&mut self) -> Option<(SimTime, T)> {
        self.slot
            .take()
            .map(|(key, item)| (SimTime::from_nanos((key >> 64) as u64), item))
    }
}

/// A fieldless stub whose accessors always read 0: the coalescing and
/// cost-memo counters it reported no longer exist (DESIGN.md §17). It
/// stays only so callers that still arm it keep compiling;
/// [`crate::PoolProbe`] is the live execution probe.
#[derive(Debug, Default)]
pub struct BatchProbe;

impl BatchProbe {
    /// Arrivals admitted beyond the first of a coalesced run: always 0.
    pub fn coalesced(&self) -> u64 {
        0
    }

    /// EMA smoothing-factor memo hits: always 0.
    pub fn alpha_hits(&self) -> u64 {
        0
    }

    /// EMA smoothing-factor memo misses: always 0.
    pub fn alpha_misses(&self) -> u64 {
        0
    }

    /// Size-keyed cost memo hits: always 0.
    pub fn size_hits(&self) -> u64 {
        0
    }

    /// Size-keyed cost memo misses: always 0.
    pub fn size_misses(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    #[test]
    fn cursor_orders_exactly_like_the_heap() {
        // Reference: everything through the heap.
        let mut heap: EventQueue<&str> = EventQueue::new();
        heap.schedule(SimTime::from_nanos(10), "arrival");
        heap.schedule(SimTime::from_nanos(10), "cpu-free");
        heap.schedule(SimTime::from_nanos(5), "early");
        let reference: Vec<&str> = std::iter::from_fn(|| heap.pop().map(|(_, e)| e)).collect();

        // Cursor path: the arrival reserves its seq at the same program
        // point but waits outside the heap.
        let mut q: EventQueue<&str> = EventQueue::new();
        let mut cursor = AdmissionCursor::new();
        let seq = q.reserve_seq();
        cursor.stash(
            EventQueue::<&str>::admission_key(SimTime::from_nanos(10), seq),
            "arrival",
        );
        q.schedule(SimTime::from_nanos(10), "cpu-free");
        q.schedule(SimTime::from_nanos(5), "early");
        let mut order = Vec::new();
        loop {
            if cursor.precedes(q.peek_key()) {
                let (t, e) = cursor.take().unwrap();
                q.advance_to(t);
                order.push(e);
            } else {
                match q.pop() {
                    Some((_, e)) => order.push(e),
                    None => break,
                }
            }
        }
        assert_eq!(order, reference);
    }

    #[test]
    fn cursor_same_instant_tiebreak_matches_seq_order() {
        // A heap event scheduled *before* the cursor reservation at the
        // same instant must win; one scheduled after must lose.
        let t = SimTime::from_nanos(7);
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(t, 1); // seq 0
        let mut cursor = AdmissionCursor::new();
        let seq = q.reserve_seq(); // seq 1
        cursor.stash(EventQueue::<u32>::admission_key(t, seq), 2);
        q.schedule(t, 3); // seq 2
        assert!(!cursor.precedes(q.peek_key()), "seq 0 beats the cursor");
        assert_eq!(q.pop(), Some((t, 1)));
        assert!(cursor.precedes(q.peek_key()), "cursor beats seq 2");
        assert_eq!(cursor.take().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop(), Some((t, 3)));
    }

    #[test]
    fn cursor_empty_and_take() {
        let mut c: AdmissionCursor<u8> = AdmissionCursor::new();
        assert!(c.is_empty());
        assert!(!c.precedes(None));
        assert_eq!(c.take(), None);
        c.stash(
            EventQueue::<u8>::admission_key(SimTime::from_nanos(3), 0),
            9,
        );
        assert!(!c.is_empty());
        assert!(c.precedes(None));
        assert_eq!(c.take(), Some((SimTime::from_nanos(3), 9)));
        assert!(c.is_empty());
    }
}

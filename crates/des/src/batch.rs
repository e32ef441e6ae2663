//! Macro-batched event admission: the lazy-arrival cursor, bit-exact
//! cost-model memo tables, and batching telemetry.
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
//! stream length — the simulator's own NAPI: batch amortization applied
//! to the engine that models batch amortization.
//!
//! The memo tables ([`ExpMemo`], [`SizeMemo`]) cache pure arithmetic
//! (EMA smoothing factors, size-keyed per-packet cost sums) keyed by the
//! exact input bits. Because `f(bits) == f(bits)` on every IEEE-754
//! platform, a memo hit returns bit-for-bit what recomputation would —
//! runs with memoization disabled (the simulator's per-packet test
//! oracle) are byte-identical.
//!
//! [`BatchStats`]/[`BatchProbe`] mirror the buffer-pool telemetry
//! ([`crate::PoolStats`]/[`crate::PoolProbe`]): counters describing how
//! the engine executed, published after a run, never part of any
//! simulation report.

use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A one-entry bit-exact memo for an expensive `f64 -> f64` function
/// (the EMA smoothing factors `exp(-dt/τ)` recomputed per packet).
///
/// Keyed by the input's exact bit pattern, so a hit returns precisely
/// the bits recomputation would produce. One entry suffices because the
/// dominant workloads are constant-gap streams: `dt` repeats for
/// thousands of consecutive packets, then changes once.
#[derive(Debug)]
pub struct ExpMemo {
    enabled: bool,
    primed: bool,
    last_bits: u64,
    last_val: f64,
    hits: u64,
    misses: u64,
}

impl ExpMemo {
    /// An empty memo; when `enabled` is false every lookup recomputes
    /// (the per-packet test oracle).
    pub fn new(enabled: bool) -> ExpMemo {
        ExpMemo {
            enabled,
            primed: false,
            last_bits: 0,
            last_val: 0.0,
            hits: 0,
            misses: 0,
        }
    }

    /// Enable or disable memoization (disabling clears the entry).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.primed = false;
        }
    }

    /// `compute(x)`, served from the memo when `x` has the same bit
    /// pattern as the previous call.
    #[inline]
    pub fn get(&mut self, x: f64, compute: impl FnOnce(f64) -> f64) -> f64 {
        if !self.enabled {
            return compute(x);
        }
        let bits = x.to_bits();
        if self.primed && bits == self.last_bits {
            self.hits += 1;
            return self.last_val;
        }
        let v = compute(x);
        self.misses += 1;
        self.primed = true;
        self.last_bits = bits;
        self.last_val = v;
        v
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that recomputed (and re-primed the entry).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Beyond this many distinct keys the table stops growing and extra
/// keys recompute every time (still counted as misses). Real workloads
/// carry a handful of packet-size/filter-path classes, not hundreds.
const SIZE_MEMO_CAP: usize = 32;

/// A small size-keyed memo for pure `u64 -> u64` cost arithmetic (e.g.
/// the per-packet tap + filter nanoseconds, keyed by the filter path
/// length). Linear scan over at most [`SIZE_MEMO_CAP`] entries: repeated
/// keys hit on the first few probes, which beats hashing for the
/// cardinalities involved.
#[derive(Debug)]
pub struct SizeMemo {
    enabled: bool,
    entries: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl SizeMemo {
    /// An empty memo; when `enabled` is false every lookup recomputes.
    pub fn new(enabled: bool) -> SizeMemo {
        SizeMemo {
            enabled,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Enable or disable memoization (disabling clears the table).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.entries = Vec::new();
        }
    }

    /// `compute()`, served from the memo when `key` was seen before.
    /// `compute` must be a pure function of `key` for the run.
    #[inline]
    pub fn get(&mut self, key: u64, compute: impl FnOnce() -> u64) -> u64 {
        if !self.enabled {
            return compute();
        }
        if let Some(&(_, v)) = self.entries.iter().find(|(k, _)| *k == key) {
            self.hits += 1;
            return v;
        }
        let v = compute();
        self.misses += 1;
        if self.entries.len() < SIZE_MEMO_CAP {
            self.entries.push((key, v));
        }
        v
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that recomputed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Cumulative batching counters of one run (or a sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Coalesced admission runs entered (each starts with one arrival).
    pub runs: u64,
    /// Arrivals admitted *beyond* the first of their run — the packets
    /// that skipped the main-loop round trip entirely.
    pub coalesced: u64,
    /// Longest single coalesced run, in arrivals.
    pub max_run: u64,
    /// EMA smoothing-factor memo hits / misses.
    pub alpha_hits: u64,
    /// See [`BatchStats::alpha_hits`].
    pub alpha_misses: u64,
    /// Size-keyed cost memo hits / misses.
    pub size_hits: u64,
    /// See [`BatchStats::size_hits`].
    pub size_misses: u64,
}

impl BatchStats {
    /// Record one coalesced admission run of `len` arrivals.
    pub fn note_run(&mut self, len: u64) {
        self.runs += 1;
        self.coalesced += len.saturating_sub(1);
        self.max_run = self.max_run.max(len);
    }

    /// Fold another run's counters into this sum.
    pub fn absorb(&mut self, other: BatchStats) {
        self.runs += other.runs;
        self.coalesced += other.coalesced;
        self.max_run = self.max_run.max(other.max_run);
        self.alpha_hits += other.alpha_hits;
        self.alpha_misses += other.alpha_misses;
        self.size_hits += other.size_hits;
        self.size_misses += other.size_misses;
    }
}

/// Thread-safe aggregation point for [`BatchStats`], mirroring
/// [`crate::PoolProbe`]: simulations publish their final counters here;
/// the sweep engine sums probes across cells and the CLI surfaces them
/// under `--profile`. Deliberately *not* part of any simulation report —
/// batching describes execution, not simulated behavior.
#[derive(Debug, Default)]
pub struct BatchProbe {
    runs: AtomicU64,
    coalesced: AtomicU64,
    max_run: AtomicU64,
    alpha_hits: AtomicU64,
    alpha_misses: AtomicU64,
    size_hits: AtomicU64,
    size_misses: AtomicU64,
}

impl BatchProbe {
    /// A zeroed probe.
    pub fn new() -> BatchProbe {
        BatchProbe::default()
    }

    /// Fold one simulation's counters into the probe.
    pub fn publish(&self, stats: BatchStats) {
        self.runs.fetch_add(stats.runs, Ordering::Relaxed);
        self.coalesced.fetch_add(stats.coalesced, Ordering::Relaxed);
        self.max_run.fetch_max(stats.max_run, Ordering::Relaxed);
        self.alpha_hits
            .fetch_add(stats.alpha_hits, Ordering::Relaxed);
        self.alpha_misses
            .fetch_add(stats.alpha_misses, Ordering::Relaxed);
        self.size_hits.fetch_add(stats.size_hits, Ordering::Relaxed);
        self.size_misses
            .fetch_add(stats.size_misses, Ordering::Relaxed);
    }

    /// Total coalesced admission runs.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Total arrivals admitted beyond the first of their run.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Longest single coalesced run seen by any published sim.
    pub fn max_run(&self) -> u64 {
        self.max_run.load(Ordering::Relaxed)
    }

    /// Summed EMA-memo hits.
    pub fn alpha_hits(&self) -> u64 {
        self.alpha_hits.load(Ordering::Relaxed)
    }

    /// Summed EMA-memo misses.
    pub fn alpha_misses(&self) -> u64 {
        self.alpha_misses.load(Ordering::Relaxed)
    }

    /// Summed size-memo hits.
    pub fn size_hits(&self) -> u64 {
        self.size_hits.load(Ordering::Relaxed)
    }

    /// Summed size-memo misses.
    pub fn size_misses(&self) -> u64 {
        self.size_misses.load(Ordering::Relaxed)
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

    #[test]
    fn exp_memo_is_bit_exact_and_counts() {
        let f = |x: f64| (-x / 2e6).exp();
        let mut m = ExpMemo::new(true);
        let a = m.get(25_000.0, f);
        let b = m.get(25_000.0, f);
        assert_eq!(a.to_bits(), f(25_000.0).to_bits());
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!((m.hits(), m.misses()), (1, 1));
        let c = m.get(30_000.0, f);
        assert_eq!(c.to_bits(), f(30_000.0).to_bits());
        assert_eq!((m.hits(), m.misses()), (1, 2));
    }

    #[test]
    fn exp_memo_disabled_recomputes_silently() {
        let mut m = ExpMemo::new(false);
        let f = |x: f64| x * 2.0;
        assert_eq!(m.get(3.0, f), 6.0);
        assert_eq!(m.get(3.0, f), 6.0);
        assert_eq!((m.hits(), m.misses()), (0, 0));
    }

    #[test]
    fn size_memo_caches_and_caps() {
        let mut m = SizeMemo::new(true);
        assert_eq!(m.get(659, || 100), 100);
        assert_eq!(m.get(659, || panic!("must hit")), 100);
        assert_eq!((m.hits(), m.misses()), (1, 1));
        // Overflow the table: extra keys recompute but still answer.
        for k in 0..(SIZE_MEMO_CAP as u64 + 10) {
            assert_eq!(m.get(1000 + k, || k), k);
        }
        for k in 0..(SIZE_MEMO_CAP as u64 + 10) {
            assert_eq!(m.get(1000 + k, || k), k);
        }
        assert!(m.misses() > SIZE_MEMO_CAP as u64);
    }

    #[test]
    fn batch_stats_note_and_absorb() {
        let mut s = BatchStats::default();
        s.note_run(1);
        s.note_run(64);
        assert_eq!((s.runs, s.coalesced, s.max_run), (2, 63, 64));
        let mut t = BatchStats {
            alpha_hits: 5,
            ..BatchStats::default()
        };
        t.note_run(8);
        s.absorb(t);
        assert_eq!(
            (s.runs, s.coalesced, s.max_run, s.alpha_hits),
            (3, 70, 64, 5)
        );
    }

    #[test]
    fn probe_sums_and_tracks_max_run() {
        let p = BatchProbe::new();
        p.publish(BatchStats {
            runs: 10,
            coalesced: 90,
            max_run: 32,
            alpha_hits: 80,
            alpha_misses: 20,
            size_hits: 99,
            size_misses: 1,
        });
        p.publish(BatchStats {
            max_run: 8,
            ..BatchStats::default()
        });
        assert_eq!(p.runs(), 10);
        assert_eq!(p.coalesced(), 90);
        assert_eq!(p.max_run(), 32);
        assert_eq!(p.alpha_hits(), 80);
        assert_eq!(p.alpha_misses(), 20);
        assert_eq!(p.size_hits(), 99);
        assert_eq!(p.size_misses(), 1);
    }
}

//! Free-list buffer pools for allocation-free hot paths.
//!
//! A [`BufPool`] hands out `Vec<T>` buffers and takes them back when
//! their user is done: after a short warm-up the same few buffers
//! circulate forever and the steady-state path performs no heap
//! allocation per transaction. The pool is plain single-threaded state
//! (a simulation owns its pools); cross-thread aggregation of pool
//! statistics goes through the atomic [`PoolProbe`].
//!
//! Recycling is always on: a recycled buffer is cleared before reuse,
//! so it is indistinguishable from a fresh one and pooling changes no
//! observable behavior — only allocator traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters of one pool (or the sum over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub gets: u64,
    /// Hand-outs that had to allocate because the free list was empty.
    /// This is also the pool's high-water mark: buffers are only created
    /// on a miss and never destroyed.
    pub misses: u64,
    /// Buffers returned to the free list.
    pub recycled: u64,
}

impl PoolStats {
    /// Fold another pool's counters into this sum.
    pub fn absorb(&mut self, other: PoolStats) {
        self.gets += other.gets;
        self.misses += other.misses;
        self.recycled += other.recycled;
    }
}

/// A free list of `Vec<T>` buffers.
#[derive(Debug)]
pub struct BufPool<T> {
    free: Vec<Vec<T>>,
    gets: u64,
    misses: u64,
    recycled: u64,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        BufPool::new()
    }
}

impl<T> BufPool<T> {
    /// An empty pool.
    pub fn new() -> BufPool<T> {
        BufPool {
            free: Vec::new(),
            gets: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Hand out an empty buffer: recycled when one is free, freshly
    /// allocated (a *miss*) otherwise.
    pub fn get(&mut self) -> Vec<T> {
        self.gets += 1;
        match self.free.pop() {
            Some(v) => v,
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a buffer to the free list. The buffer is cleared;
    /// zero-capacity buffers (never-used `Vec::new()` placeholders) are
    /// ignored so they don't dilute the free list.
    pub fn put(&mut self, mut v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        self.recycled += 1;
        self.free.push(v);
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            gets: self.gets,
            misses: self.misses,
            recycled: self.recycled,
        }
    }
}

/// Thread-safe aggregation point for [`PoolStats`].
///
/// A simulation publishes its pools' final counters into a shared probe
/// when it finishes; the sweep engine sums probes across cells and the
/// CLI prints them under `--profile`. The probe is deliberately *not*
/// part of any simulation report: pool traffic describes execution, not
/// simulated behavior.
#[derive(Debug, Default)]
pub struct PoolProbe {
    gets: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    /// Highest per-sim miss count seen — the largest buffer footprint
    /// any one simulation needed.
    high_water: AtomicU64,
}

impl PoolProbe {
    /// A zeroed probe.
    pub fn new() -> PoolProbe {
        PoolProbe::default()
    }

    /// Fold one simulation's summed pool counters into the probe.
    pub fn publish(&self, stats: PoolStats) {
        self.gets.fetch_add(stats.gets, Ordering::Relaxed);
        self.misses.fetch_add(stats.misses, Ordering::Relaxed);
        self.recycled.fetch_add(stats.recycled, Ordering::Relaxed);
        self.high_water.fetch_max(stats.misses, Ordering::Relaxed);
    }

    /// Total buffers handed out across published simulations.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Total hand-outs that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total buffers returned for reuse.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// The largest single-simulation miss count (pool high-water mark).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_capacity() {
        let mut pool: BufPool<u64> = BufPool::new();
        let mut a = pool.get();
        a.extend(0..100);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back empty");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(
            pool.stats(),
            PoolStats {
                gets: 2,
                misses: 1,
                recycled: 1
            }
        );
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool: BufPool<u8> = BufPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.stats().recycled, 0);
        // The next get still misses: nothing useful was stored.
        let _ = pool.get();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn steady_state_misses_stabilize() {
        // One buffer in flight at a time: exactly one miss regardless of
        // how many transactions run.
        let mut pool: BufPool<u32> = BufPool::new();
        for i in 0..1_000u32 {
            let mut v = pool.get();
            v.push(i);
            pool.put(v);
        }
        let s = pool.stats();
        assert_eq!(s.gets, 1_000);
        assert_eq!(s.misses, 1, "steady state must not allocate");
    }

    #[test]
    fn probe_sums_and_tracks_high_water() {
        let probe = PoolProbe::new();
        probe.publish(PoolStats {
            gets: 10,
            misses: 3,
            recycled: 7,
        });
        probe.publish(PoolStats {
            gets: 5,
            misses: 1,
            recycled: 4,
        });
        assert_eq!(probe.gets(), 15);
        assert_eq!(probe.misses(), 4);
        assert_eq!(probe.recycled(), 11);
        assert_eq!(probe.high_water(), 3);
    }
}

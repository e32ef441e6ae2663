//! The process-global, content-addressed stream chunk cache.
//!
//! The testbed generates *one* stream per (workload, rate, repeat) and
//! feeds it to every sniffer through the optical splitter — yet a sweep
//! that evaluates several SUT sets at the same measurement point used to
//! regenerate that identical stream once per cell. This cache shares the
//! generation: streams are addressed by a 128-bit [`Fingerprintable`]
//! digest of everything that determines their content (generator config,
//! pacing rate, per-repeat seed), the first cell to need a stream
//! generates and publishes its [`Chunk`]s, and every concurrent or later
//! cell at the same key subscribes to the published chunks instead of
//! running the generator again.
//!
//! Publication is incremental: a [`StreamPublisher`] appends chunks as
//! the producing cell pulls them, and a [`StreamSubscriber`] blocks only
//! when it catches up with the producer — concurrent cells overlap, they
//! do not serialize behind a fully generated stream. Subscribed chunks
//! are the *same allocations* the producer made (`Arc` clones), so a
//! shared stream is resident exactly once no matter how many cells read
//! it.
//!
//! Residency is bounded: completed streams are evicted least-recently-
//! used once the cache exceeds its byte budget. Eviction only unlinks a
//! stream from the cache — cells still holding its chunks keep them
//! alive until they finish — so it can never corrupt an in-flight cell,
//! it only forfeits future sharing.
//!
//! [`Fingerprintable`]: pcs_des::Fingerprintable

use crate::generator::TimedPacket;
use crate::source::{Chunk, PacketSource};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// 128-bit content address of a stream: the finished fingerprint of the
/// full generator configuration plus rate and per-repeat seed.
pub type StreamKey = (u64, u64);

/// Default byte budget for resident cached streams (1 GiB).
pub const DEFAULT_STREAM_CACHE_BYTES: u64 = 1 << 30;

/// Resident bytes of one chunk (packets are inline, no heap payload).
pub fn chunk_bytes(chunk: &Chunk) -> u64 {
    (chunk.len() * std::mem::size_of::<TimedPacket>()) as u64
}

/// Shared publication state of one stream.
struct StreamState {
    chunks: Vec<Chunk>,
    /// The producer finished (or abandoned) the stream.
    done: bool,
    /// The producer was dropped before the stream completed; subscribers
    /// must fail loudly instead of treating the prefix as the stream.
    abandoned: bool,
}

struct SharedStream {
    state: Mutex<StreamState>,
    progress: Condvar,
}

impl SharedStream {
    fn new() -> SharedStream {
        SharedStream {
            state: Mutex::new(StreamState {
                chunks: Vec::new(),
                done: false,
                abandoned: false,
            }),
            progress: Condvar::new(),
        }
    }
}

/// One cache slot: the stream plus the bookkeeping eviction needs.
struct CacheEntry {
    stream: Arc<SharedStream>,
    /// Bytes published so far (final size once `done`).
    bytes: u64,
    /// Completed streams are evictable; in-progress ones are pinned.
    done: bool,
    /// LRU clock value of the most recent acquire.
    last_used: u64,
}

#[derive(Default)]
struct CacheMap {
    entries: HashMap<StreamKey, CacheEntry>,
    clock: u64,
}

/// What [`StreamCache::acquire`] hands the caller: either the duty to
/// generate (and thereby publish), or a subscription to chunks someone
/// else is generating or has generated.
pub enum StreamRole<'a> {
    /// No stream at this key yet — the caller must generate it, routing
    /// every chunk through the publisher.
    Produce(StreamPublisher<'a>),
    /// The stream exists (possibly still being generated) — consume the
    /// published chunks instead of regenerating.
    Subscribe(StreamSubscriber),
}

/// A content-addressed cache of generated packet streams.
pub struct StreamCache {
    map: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
}

impl Default for StreamCache {
    fn default() -> StreamCache {
        StreamCache::new()
    }
}

impl StreamCache {
    /// A fresh, empty cache.
    pub fn new() -> StreamCache {
        StreamCache {
            map: Mutex::new(CacheMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// The process-global cache every streaming cell consults.
    pub fn global() -> &'static StreamCache {
        static GLOBAL: OnceLock<StreamCache> = OnceLock::new();
        GLOBAL.get_or_init(StreamCache::new)
    }

    /// Acquire the stream at `key`: the first caller becomes the
    /// producer, everyone else a subscriber. `budget_bytes` is the
    /// resident-byte bound enforced (by LRU eviction of completed
    /// streams) while this acquisition publishes.
    pub fn acquire(&self, key: StreamKey, budget_bytes: u64) -> StreamRole<'_> {
        let mut map = self.map.lock().expect("stream cache poisoned");
        map.clock += 1;
        let clock = map.clock;
        if let Some(entry) = map.entries.get_mut(&key) {
            entry.last_used = clock;
            let stream = Arc::clone(&entry.stream);
            drop(map);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return StreamRole::Subscribe(StreamSubscriber { stream, next: 0 });
        }
        let stream = Arc::new(SharedStream::new());
        map.entries.insert(
            key,
            CacheEntry {
                stream: Arc::clone(&stream),
                bytes: 0,
                done: false,
                last_used: clock,
            },
        );
        drop(map);
        self.misses.fetch_add(1, Ordering::Relaxed);
        StreamRole::Produce(StreamPublisher {
            cache: self,
            key,
            stream,
            budget_bytes,
            finished: false,
        })
    }

    /// Streams served by subscription instead of regeneration.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Streams that had to be generated.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes of stream data currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`StreamCache::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Number of streams currently in the cache (including in-progress).
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("stream cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no streams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict every *completed* stream (a "cold" cache for benchmarks and
    /// determinism tests); in-progress streams stay pinned.
    pub fn clear(&self) {
        let mut map = self.map.lock().expect("stream cache poisoned");
        let done: Vec<StreamKey> = map
            .entries
            .iter()
            .filter(|(_, e)| e.done)
            .map(|(k, _)| *k)
            .collect();
        for key in done {
            if let Some(entry) = map.entries.remove(&key) {
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
            }
        }
    }

    /// Account `bytes` of newly published stream data against `key`.
    fn note_published(&self, key: StreamKey, bytes: u64, budget_bytes: u64) {
        let mut map = self.map.lock().expect("stream cache poisoned");
        if let Some(entry) = map.entries.get_mut(&key) {
            entry.bytes += bytes;
            let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
            self.peak_resident.fetch_max(now, Ordering::Relaxed);
            Self::trim(&mut map, &self.resident, budget_bytes);
        }
    }

    /// Mark `key` complete (evictable) and enforce the byte budget, or —
    /// when `abandoned` — unlink it so later cells regenerate.
    fn note_done(&self, key: StreamKey, abandoned: bool, budget_bytes: u64) {
        let mut map = self.map.lock().expect("stream cache poisoned");
        if abandoned {
            if let Some(entry) = map.entries.remove(&key) {
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
            }
            return;
        }
        if let Some(entry) = map.entries.get_mut(&key) {
            entry.done = true;
        }
        Self::trim(&mut map, &self.resident, budget_bytes);
    }

    /// Evict completed streams, least recently used first, until resident
    /// bytes fit the budget. In-progress streams never move; cells still
    /// holding an evicted stream's chunks keep them alive on their own.
    fn trim(map: &mut CacheMap, resident: &AtomicU64, budget_bytes: u64) {
        while resident.load(Ordering::Relaxed) > budget_bytes {
            let victim = map
                .entries
                .iter()
                .filter(|(_, e)| e.done)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(key) => {
                    let entry = map.entries.remove(&key).expect("victim vanished");
                    resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                }
                None => break, // only pinned in-progress streams remain
            }
        }
    }
}

/// The producing side of one cached stream. Obtained from
/// [`StreamCache::acquire`]; normally driven through
/// [`PublishingSource`], which tees a generator's chunks into it.
pub struct StreamPublisher<'a> {
    cache: &'a StreamCache,
    key: StreamKey,
    stream: Arc<SharedStream>,
    budget_bytes: u64,
    finished: bool,
}

impl StreamPublisher<'_> {
    /// Publish one generated chunk to every subscriber.
    pub fn publish(&mut self, chunk: &Chunk) {
        {
            let mut state = self.stream.state.lock().expect("stream poisoned");
            state.chunks.push(Arc::clone(chunk));
        }
        self.stream.progress.notify_all();
        self.cache
            .note_published(self.key, chunk_bytes(chunk), self.budget_bytes);
    }

    /// Mark the stream complete: subscribers observe end of stream once
    /// they drain the published chunks.
    pub fn finish(mut self) {
        self.complete(false);
    }

    fn complete(&mut self, abandoned: bool) {
        if self.finished {
            return;
        }
        self.finished = true;
        {
            let mut state = self.stream.state.lock().expect("stream poisoned");
            state.done = true;
            state.abandoned = abandoned;
        }
        self.stream.progress.notify_all();
        self.cache.note_done(self.key, abandoned, self.budget_bytes);
    }
}

impl Drop for StreamPublisher<'_> {
    fn drop(&mut self) {
        // A producer dropped mid-stream (panic unwinding a cell) must not
        // leave subscribers waiting forever or, worse, let them mistake
        // the published prefix for the whole stream.
        self.complete(true);
    }
}

/// A [`PacketSource`] that tees every chunk of an inner source into a
/// [`StreamPublisher`] — how the producing cell generates for itself and
/// for every subscriber at once.
pub struct PublishingSource<'a, S: PacketSource> {
    inner: S,
    publisher: Option<StreamPublisher<'a>>,
}

impl<'a, S: PacketSource> PublishingSource<'a, S> {
    /// Tee `inner` through `publisher`.
    pub fn new(inner: S, publisher: StreamPublisher<'a>) -> PublishingSource<'a, S> {
        PublishingSource {
            inner,
            publisher: Some(publisher),
        }
    }
}

impl<S: PacketSource> PacketSource for PublishingSource<'_, S> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        match self.inner.next_chunk() {
            Some(chunk) => {
                if let Some(publisher) = &mut self.publisher {
                    publisher.publish(&chunk);
                }
                Some(chunk)
            }
            None => {
                if let Some(publisher) = self.publisher.take() {
                    publisher.finish();
                }
                None
            }
        }
    }
}

/// The consuming side of one cached stream: a [`PacketSource`] over the
/// published chunks, blocking only while it is caught up with a still-
/// publishing producer.
pub struct StreamSubscriber {
    stream: Arc<SharedStream>,
    next: usize,
}

impl PacketSource for StreamSubscriber {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let mut state = self.stream.state.lock().expect("stream poisoned");
        loop {
            if self.next < state.chunks.len() {
                let chunk = Arc::clone(&state.chunks[self.next]);
                self.next += 1;
                return Some(chunk);
            }
            if state.done {
                assert!(
                    !state.abandoned,
                    "stream cache producer abandoned its stream mid-publication"
                );
                return None;
            }
            state = self.stream.progress.wait(state).expect("stream poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, TxModel};
    use crate::procfs::PktgenConfig;
    use crate::source::{ChunkedGenerator, SourceRefs};

    fn gen(count: u64, seed: u64) -> ChunkedGenerator {
        ChunkedGenerator::new(
            Generator::new(
                PktgenConfig {
                    count,
                    ..PktgenConfig::default()
                },
                TxModel::syskonnect(),
                seed,
            ),
            128,
        )
    }

    fn drain(mut source: impl PacketSource) -> Vec<Chunk> {
        let mut out = Vec::new();
        while let Some(c) = source.next_chunk() {
            out.push(c);
        }
        out
    }

    #[test]
    fn first_acquire_produces_second_subscribes_to_identical_chunks() {
        let cache = StreamCache::new();
        let key = (1, 1);
        let produced = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(1_000, 7), p)),
            StreamRole::Subscribe(_) => panic!("empty cache must elect a producer"),
        };
        let subscribed = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(_) => panic!("published stream must be subscribable"),
            StreamRole::Subscribe(s) => drain(s),
        };
        assert_eq!(produced.len(), subscribed.len());
        for (a, b) in produced.iter().zip(&subscribed) {
            assert!(
                Arc::ptr_eq(a, b),
                "shared chunks must be the same allocation"
            );
            assert_eq!(a, b);
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.resident_bytes(), bytes);
        assert_eq!(cache.peak_resident_bytes(), bytes);
    }

    #[test]
    fn concurrent_subscriber_overlaps_the_producer() {
        let cache = StreamCache::new();
        let key = (2, 2);
        let publisher = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let subscriber = match cache.acquire(key, DEFAULT_STREAM_CACHE_BYTES) {
            StreamRole::Produce(_) => unreachable!(),
            StreamRole::Subscribe(s) => s,
        };
        let reference: Vec<_> = SourceRefs::new(gen(2_000, 9)).collect();
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || SourceRefs::new(subscriber).collect::<Vec<_>>());
            let produced = drain(PublishingSource::new(gen(2_000, 9), publisher));
            assert!(!produced.is_empty());
            let consumed = consumer.join().expect("subscriber thread");
            assert_eq!(consumed.len(), reference.len());
            for (r, expected) in consumed.iter().zip(&reference) {
                assert_eq!(r.get(), expected.get());
            }
        });
    }

    #[test]
    fn lru_eviction_keeps_residency_within_budget() {
        let cache = StreamCache::new();
        // Publish two streams under a budget that fits only one.
        let first = match cache.acquire((3, 1), u64::MAX) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(600, 1), p)),
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let first_bytes: u64 = first.iter().map(chunk_bytes).sum();
        let budget = first_bytes + first_bytes / 2;
        match cache.acquire((3, 2), budget) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(600, 2), p)),
            StreamRole::Subscribe(_) => unreachable!(),
        };
        // The older stream was evicted; the newer one is resident.
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() <= budget);
        match cache.acquire((3, 1), budget) {
            StreamRole::Produce(_) => {} // evicted => regenerate
            StreamRole::Subscribe(_) => panic!("evicted stream must not be subscribable"),
        };
    }

    #[test]
    fn clear_evicts_completed_streams_only() {
        let cache = StreamCache::new();
        match cache.acquire((4, 1), u64::MAX) {
            StreamRole::Produce(p) => drain(PublishingSource::new(gen(100, 3), p)),
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let _pinned = match cache.acquire((4, 2), u64::MAX) {
            StreamRole::Produce(p) => p, // in progress, never published
            StreamRole::Subscribe(_) => unreachable!(),
        };
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert_eq!(cache.len(), 1, "in-progress stream stays pinned");
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "abandoned")]
    fn abandoned_producer_fails_subscribers_loudly() {
        let cache = StreamCache::new();
        let publisher = match cache.acquire((5, 1), u64::MAX) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let subscriber = match cache.acquire((5, 1), u64::MAX) {
            StreamRole::Produce(_) => unreachable!(),
            StreamRole::Subscribe(s) => s,
        };
        drop(publisher); // producer dies before finishing
        assert!(cache.is_empty(), "abandoned stream must be unlinked");
        drain(subscriber);
    }

    #[test]
    fn empty_stream_round_trips() {
        let cache = StreamCache::new();
        match cache.acquire((6, 1), u64::MAX) {
            StreamRole::Produce(p) => {
                assert!(drain(PublishingSource::new(gen(0, 1), p)).is_empty())
            }
            StreamRole::Subscribe(_) => unreachable!(),
        };
        match cache.acquire((6, 1), u64::MAX) {
            StreamRole::Produce(_) => panic!("empty stream is still a published stream"),
            StreamRole::Subscribe(s) => assert!(drain(s).is_empty()),
        };
    }
}

//! The process-global, content-addressed stream chunk cache.
//!
//! The testbed generates *one* stream per (workload, rate, repeat) and
//! feeds it to every sniffer at once, as the thesis' optical splitter
//! does. A published stream is that broadcast: in order, without loss,
//! chunk by chunk, with every subscriber reading in place. Across cells
//! it also shares the generation: streams are addressed by a 128-bit
//! [`Fingerprintable`] digest of everything that determines their
//! content (generator config, pacing rate, per-repeat seed), the first
//! cell to need a stream generates and publishes its [`Chunk`]s, and
//! every cell that asks for the same key while the stream is linked
//! subscribes to the published chunks instead of running the generator
//! again.
//!
//! Publication is incremental: a [`StreamPublisher`] appends chunks as
//! the producing cell pulls them, and a [`StreamSubscriber`] blocks only
//! when it catches up with the producer — sniffers and concurrent cells
//! overlap with generation, they do not serialize behind a fully
//! generated stream. The producing cell's own sniffers read through
//! [`StreamPublisher::subscribe`], and each sniffer holds its own clone
//! of a subscriber. Subscribed chunks are the *same allocations* the
//! producer made (`Arc` clones), so a shared stream is resident exactly
//! once no matter how many sniffers and cells read it.
//!
//! Residency follows demand. In the thesis' measurement cycle a stream
//! lasts one cycle, and so a completed stream stays linked only when a
//! second cell asked for its key while it was live, or when its key had
//! been asked for before. Any other stream leaves the cache when its
//! producer finishes, and its full chunks go back to the generator with
//! its last reader (see [`crate::source`]). The cache remembers every key
//! it has been asked for, a 16-byte key each. Kept streams are evicted
//! least-recently-used once the cache exceeds its byte budget. Unlinking
//! a stream never corrupts an in-flight cell — the cell's subscribers
//! keep the whole stream alive until it finishes — it only forfeits
//! future sharing.
//!
//! [`Fingerprintable`]: pcs_des::Fingerprintable

use crate::generator::TimedPacket;
use crate::source::{retire, Chunk, PacketSource};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

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

impl Drop for SharedStream {
    fn drop(&mut self) {
        // The last reader let go. A reader that panicked holding the lock
        // (an abandoned stream) must not turn unwinding into an abort.
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        retire(std::mem::take(&mut state.chunks));
    }
}

/// One cache slot: the stream plus the bookkeeping eviction needs.
struct CacheEntry {
    stream: Arc<SharedStream>,
    /// Bytes published so far (final size once `done`).
    bytes: u64,
    /// Completed streams are evictable; in-progress ones are pinned.
    done: bool,
    /// A second acquire arrived while the stream was live, or its key had
    /// been acquired before: the stream stays linked once complete.
    keep: bool,
    /// LRU clock value of the most recent acquire.
    last_used: u64,
}

#[derive(Default)]
struct CacheMap {
    entries: HashMap<StreamKey, CacheEntry>,
    /// Every key ever acquired; [`StreamCache::clear`] keeps it.
    asked: HashSet<StreamKey>,
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
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// The process-global cache every streaming cell consults.
    pub fn global() -> &'static StreamCache {
        static GLOBAL: OnceLock<StreamCache> = OnceLock::new();
        GLOBAL.get_or_init(StreamCache::new)
    }

    /// Acquire the stream at `key`: the caller becomes its producer when
    /// no stream is linked at `key`, and a subscriber otherwise. A
    /// subscriber keeps the stream linked once it completes, and so does
    /// a producer of a key that was acquired before. `budget_bytes` is
    /// the resident-byte bound enforced (by LRU eviction of completed
    /// streams) while this acquisition publishes.
    pub fn acquire(&self, key: StreamKey, budget_bytes: u64) -> StreamRole<'_> {
        let mut map = self.map.lock().expect("stream cache poisoned");
        map.clock += 1;
        let clock = map.clock;
        if let Some(entry) = map.entries.get_mut(&key) {
            entry.last_used = clock;
            entry.keep = true;
            let stream = Arc::clone(&entry.stream);
            return StreamRole::Subscribe(StreamSubscriber { stream, next: 0 });
        }
        let keep = !map.asked.insert(key);
        let stream = Arc::new(SharedStream::new());
        map.entries.insert(
            key,
            CacheEntry {
                stream: Arc::clone(&stream),
                bytes: 0,
                done: false,
                keep,
                last_used: clock,
            },
        );
        drop(map);
        StreamRole::Produce(StreamPublisher {
            cache: self,
            key,
            stream,
            budget_bytes,
            finished: false,
        })
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
    /// determinism tests); in-progress streams stay pinned. The cache
    /// still remembers which keys it was asked for, so the next producer
    /// of such a key keeps its stream.
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

    /// Mark a kept `key` complete (evictable) and enforce the byte
    /// budget. Unlink it instead when no one else asked for it, or when
    /// it was `abandoned` so later cells regenerate.
    fn note_done(&self, key: StreamKey, abandoned: bool, budget_bytes: u64) {
        let mut map = self.map.lock().expect("stream cache poisoned");
        let Some(entry) = map.entries.get_mut(&key) else {
            return;
        };
        if entry.keep && !abandoned {
            entry.done = true;
            Self::trim(&mut map, &self.resident, budget_bytes);
        } else if let Some(entry) = map.entries.remove(&key) {
            self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
        }
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

    /// A subscriber to this stream that starts at chunk 0, whatever has
    /// been published so far: how the producing cell feeds its own
    /// sniffers from the stream it generates.
    pub fn subscribe(&self) -> StreamSubscriber {
        StreamSubscriber {
            stream: Arc::clone(&self.stream),
            next: 0,
        }
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
/// publishing producer. A clone reads on independently from the same
/// position.
#[derive(Clone)]
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
    use crate::source::ChunkedGenerator;

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

    fn publisher(cache: &StreamCache, key: StreamKey, budget: u64) -> StreamPublisher<'_> {
        match cache.acquire(key, budget) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => panic!("{key:?} is linked: expected to produce"),
        }
    }

    fn subscriber(cache: &StreamCache, key: StreamKey) -> StreamSubscriber {
        match cache.acquire(key, u64::MAX) {
            StreamRole::Produce(_) => panic!("{key:?} is not linked: expected to subscribe"),
            StreamRole::Subscribe(s) => s,
        }
    }

    /// Produce `key`'s stream from `source`.
    fn produce(cache: &StreamCache, key: StreamKey, source: ChunkedGenerator) -> Vec<Chunk> {
        let producer = publisher(cache, key, u64::MAX);
        drain(PublishingSource::new(source, producer))
    }

    /// Produce `key`'s stream from `source` while a second acquire of the
    /// key is live, so that the cache keeps it.
    fn produce_shared(
        cache: &StreamCache,
        key: StreamKey,
        budget: u64,
        source: ChunkedGenerator,
    ) -> Vec<Chunk> {
        let producer = publisher(cache, key, budget);
        drop(subscriber(cache, key));
        drain(PublishingSource::new(source, producer))
    }

    #[test]
    fn first_acquire_produces_second_subscribes_to_identical_chunks() {
        let cache = StreamCache::new();
        let key = (1, 1);
        let producer = publisher(&cache, key, DEFAULT_STREAM_CACHE_BYTES);
        let second = subscriber(&cache, key);
        let produced = drain(PublishingSource::new(gen(1_000, 7), producer));
        let subscribed = drain(second);
        assert_eq!(produced.len(), subscribed.len());
        for (a, b) in produced.iter().zip(&subscribed) {
            assert!(
                Arc::ptr_eq(a, b),
                "shared chunks must be the same allocation"
            );
            assert_eq!(a, b);
        }
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.resident_bytes(), bytes);
        assert_eq!(cache.peak_resident_bytes(), bytes);
    }

    #[test]
    fn a_stream_no_other_cell_asked_for_leaves_when_it_completes() {
        let cache = StreamCache::new();
        let produced = produce(&cache, (8, 1), gen(1_000, 5));
        assert!(!produced.is_empty());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.peak_resident_bytes(), bytes);
    }

    #[test]
    fn a_concurrent_acquire_keeps_the_stream() {
        let cache = StreamCache::new();
        let produced = produce_shared(&cache, (8, 2), u64::MAX, gen(1_000, 6));
        assert_eq!(cache.len(), 1);
        let bytes: u64 = produced.iter().map(chunk_bytes).sum();
        assert_eq!(cache.resident_bytes(), bytes);
        let later = drain(subscriber(&cache, (8, 2)));
        assert_eq!(produced.len(), later.len());
        assert!(produced.iter().zip(&later).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn reacquiring_an_unlinked_key_produces_and_keeps_the_stream() {
        let cache = StreamCache::new();
        let key = (8, 3);
        produce(&cache, key, gen(1_000, 4));
        assert!(cache.is_empty(), "nobody else asked: the stream left");
        let produced = produce(&cache, key, gen(1_000, 4));
        assert_eq!(cache.len(), 1, "asked for before: the stream stays");
        let third = drain(subscriber(&cache, key));
        assert_eq!(produced.len(), third.len());
        for (a, b) in produced.iter().zip(&third) {
            assert!(Arc::ptr_eq(a, b), "the third acquire reads the kept chunks");
        }
    }

    #[test]
    fn clear_keeps_the_asked_for_keys() {
        let cache = StreamCache::new();
        let key = (8, 4);
        produce(&cache, key, gen(100, 2));
        assert!(cache.is_empty());
        cache.clear();
        produce(&cache, key, gen(100, 2));
        assert_eq!(cache.len(), 1, "clear forgot that the key was asked for");
    }

    #[test]
    fn own_and_cloned_subscribers_read_the_producers_chunks() {
        let cache = StreamCache::new();
        let mut publisher = match cache.acquire((7, 1), u64::MAX) {
            StreamRole::Produce(p) => p,
            StreamRole::Subscribe(_) => unreachable!(),
        };
        let fresh = match cache.acquire((7, 1), u64::MAX) {
            StreamRole::Produce(_) => unreachable!(),
            StreamRole::Subscribe(s) => s,
        };
        let clone = fresh.clone();
        let mut source = gen(1_000, 11);
        let first = source.next_chunk().expect("a first chunk");
        publisher.publish(&first);
        // Subscribed after a chunk went out, the producer's own reader
        // still starts at chunk 0.
        let own = publisher.subscribe();
        let mut produced = vec![first];
        produced.extend(drain(PublishingSource::new(source, publisher)));
        for reader in [own, fresh, clone] {
            let read = drain(reader);
            assert_eq!(read.len(), produced.len());
            for (a, b) in read.iter().zip(&produced) {
                assert!(
                    Arc::ptr_eq(a, b),
                    "every reader shares the producer's chunks"
                );
            }
        }
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
        let packets = |chunks: Vec<Chunk>| -> Vec<TimedPacket> { chunks.concat() };
        let reference = packets(drain(gen(2_000, 9)));
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || drain(subscriber));
            let produced = drain(PublishingSource::new(gen(2_000, 9), publisher));
            assert!(!produced.is_empty());
            let consumed = packets(consumer.join().expect("subscriber thread"));
            assert_eq!(consumed, reference);
        });
    }

    #[test]
    fn lru_eviction_keeps_residency_within_budget() {
        let cache = StreamCache::new();
        // Publish two kept streams under a budget that fits only one.
        let first = produce_shared(&cache, (3, 1), u64::MAX, gen(600, 1));
        let first_bytes: u64 = first.iter().map(chunk_bytes).sum();
        let budget = first_bytes + first_bytes / 2;
        produce_shared(&cache, (3, 2), budget, gen(600, 2));
        // The older stream was evicted; the newer one is resident.
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() <= budget);
        // Evicted: regenerate.
        publisher(&cache, (3, 1), budget);
    }

    #[test]
    fn clear_evicts_completed_streams_only() {
        let cache = StreamCache::new();
        produce_shared(&cache, (4, 1), u64::MAX, gen(100, 3));
        // In progress, never published.
        let _pinned = publisher(&cache, (4, 2), u64::MAX);
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
        assert!(produce_shared(&cache, (6, 1), u64::MAX, gen(0, 1)).is_empty());
        // An empty stream is still a published stream.
        assert!(drain(subscriber(&cache, (6, 1))).is_empty());
    }
}

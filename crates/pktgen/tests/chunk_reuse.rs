//! A retired stream's full chunks carry the next generated stream: the
//! generator overwrites them in place instead of allocating. The spare
//! list is process-global, so this binary holds one test.

use pcs_pktgen::{
    ChunkedGenerator, Generator, PacketSource, PktgenConfig, PublishingSource, StreamCache,
    StreamRole, TimedPacket, TxModel, DEFAULT_CHUNK_PACKETS,
};
use std::sync::Arc;

/// Three full chunks and a short one.
fn generator(seed: u64) -> Generator {
    let count = 3 * DEFAULT_CHUNK_PACKETS as u64 + 100;
    let config = PktgenConfig {
        count,
        ..PktgenConfig::default()
    };
    Generator::new(config, TxModel::syskonnect(), seed)
}

/// Produce `seed`'s stream through `cache`, which no one else asks for,
/// so it retires as the last chunk is read. Returns the address of each
/// full chunk and every packet.
fn produce(cache: &StreamCache, seed: u64) -> (Vec<*const TimedPacket>, Vec<TimedPacket>) {
    let publisher = match cache.acquire((0xc4, seed), u64::MAX) {
        StreamRole::Produce(p) => p,
        StreamRole::Subscribe(_) => panic!("a fresh key must produce"),
    };
    let chunks = ChunkedGenerator::new(generator(seed), DEFAULT_CHUNK_PACKETS);
    let mut source = PublishingSource::new(chunks, publisher);
    let (mut full, mut packets) = (Vec::new(), Vec::new());
    while let Some(chunk) = source.next_chunk() {
        if chunk.len() == DEFAULT_CHUNK_PACKETS {
            full.push(Arc::as_ptr(&chunk).cast::<TimedPacket>());
        }
        packets.extend_from_slice(&chunk);
    }
    assert!(cache.is_empty(), "a stream no one else asked for retires");
    full.sort();
    (full, packets)
}

#[test]
fn the_next_stream_refills_a_retired_streams_full_chunks() {
    let cache = StreamCache::new();
    let (first, _) = produce(&cache, 1);
    assert_eq!(first.len(), 3);
    let (second, packets) = produce(&cache, 2);
    assert_eq!(second, first, "the full chunks are the same allocations");
    let fresh: Vec<TimedPacket> = generator(2).collect();
    assert_eq!(packets, fresh, "a refilled chunk holds the new stream");
}

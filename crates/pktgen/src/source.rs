//! Chunked packet sources: the streaming interface between the generator
//! and its consumers.
//!
//! The testbed feeds one generated stream through a passive optical
//! splitter to all sniffers *simultaneously* (thesis §3.1).
//! [`PacketSource`] is the software equivalent: a pull-based stream of
//! fixed-size chunks (`Arc<[TimedPacket]>`), shared by pointer with every
//! consumer, small enough (~4k packets) that the generator and the
//! machine simulations reading its published stream overlap instead of
//! serializing behind a fully generated run.

use crate::generator::{Generator, TimedPacket};
use pcs_des::SimTime;
use pcs_wire::SimPacket;
use std::sync::Arc;

/// One immutable chunk of consecutively generated packets. `Arc`-shared:
/// broadcasting a chunk to N consumers copies a pointer, not packets.
pub type Chunk = Arc<[TimedPacket]>;

/// Default packets per chunk. Large enough to amortize the per-chunk
/// handoff (a lock and an `Arc` clone per reader), small enough that a
/// chunk of worst-case frames stays comfortably in cache and sniffers
/// start soon after generation does.
pub const DEFAULT_CHUNK_PACKETS: usize = 4096;

/// A pull-based source of packet chunks.
///
/// Implementors yield consecutive, time-ordered chunks until the stream
/// ends. Chunks may be of any non-zero size (the last chunk is usually
/// short); consumers must not assume a fixed size.
pub trait PacketSource {
    /// The next chunk, or `None` once the stream is exhausted.
    fn next_chunk(&mut self) -> Option<Chunk>;
}

/// A shared reference to one packet inside a [`Chunk`]: the zero-copy
/// currency of the pipeline's hot path.
///
/// Cloning a `PacketRef` bumps the chunk's refcount and copies an index —
/// it never copies packet bytes. The machine simulations inject arrivals
/// as `PacketRef`s, so a chunk broadcast to N sniffers is read in place
/// by all of them and freed once the last one is done with it.
#[derive(Clone)]
pub struct PacketRef {
    chunk: Chunk,
    idx: usize,
}

impl PacketRef {
    /// A reference to packet `idx` of `chunk`, or `None` when `idx` is
    /// out of bounds — a `PacketRef` always points at a real packet.
    pub fn new(chunk: Chunk, idx: usize) -> Option<PacketRef> {
        (idx < chunk.len()).then_some(PacketRef { chunk, idx })
    }

    /// The referenced timed packet.
    pub fn get(&self) -> &TimedPacket {
        &self.chunk[self.idx]
    }

    /// Transmit timestamp of the referenced packet.
    pub fn time(&self) -> SimTime {
        self.get().time
    }

    /// The referenced packet itself.
    pub fn packet(&self) -> &SimPacket {
        &self.get().packet
    }
}

impl std::ops::Deref for PacketRef {
    type Target = TimedPacket;

    fn deref(&self) -> &TimedPacket {
        self.get()
    }
}

impl std::fmt::Debug for PacketRef {
    // A derived Debug would print the whole backing chunk.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketRef")
            .field("seq", &self.get().packet.seq)
            .field("idx", &self.idx)
            .finish()
    }
}

impl PartialEq for PacketRef {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl Eq for PacketRef {}

/// A [`Generator`] cut into fixed-size chunks.
///
/// ```
/// use pcs_pktgen::{ChunkedGenerator, Generator, PacketSource, PktgenConfig, TxModel};
///
/// let gen = Generator::new(
///     PktgenConfig { count: 10_000, ..PktgenConfig::default() },
///     TxModel::syskonnect(),
///     42,
/// );
/// let mut source = ChunkedGenerator::new(gen, 4096);
/// let mut total = 0;
/// while let Some(chunk) = source.next_chunk() {
///     assert!(chunk.len() <= 4096);
///     total += chunk.len();
/// }
/// assert_eq!(total, 10_000);
/// ```
pub struct ChunkedGenerator {
    gen: Generator,
    chunk_packets: usize,
}

impl ChunkedGenerator {
    /// Chunk `gen`'s stream into at most `chunk_packets` packets each
    /// (clamped to ≥ 1).
    pub fn new(gen: Generator, chunk_packets: usize) -> ChunkedGenerator {
        ChunkedGenerator {
            gen,
            chunk_packets: chunk_packets.max(1),
        }
    }
}

impl PacketSource for ChunkedGenerator {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let mut chunk = Vec::with_capacity(self.chunk_packets);
        while chunk.len() < self.chunk_packets {
            match self.gen.next_packet() {
                Some(tp) => chunk.push(tp),
                None => break,
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(chunk.into())
        }
    }
}

/// A materialized packet list replayed as a chunk stream (the adapter
/// for pcap replays and test vectors).
pub struct MaterializedSource {
    packets: Arc<Vec<TimedPacket>>,
    pos: usize,
    chunk_packets: usize,
}

impl MaterializedSource {
    /// Stream `packets` in chunks of at most `chunk_packets` (clamped to
    /// ≥ 1). The underlying storage is shared, but each chunk is its own
    /// allocation (chunks must be `Arc<[TimedPacket]>`).
    pub fn new(packets: Arc<Vec<TimedPacket>>, chunk_packets: usize) -> MaterializedSource {
        MaterializedSource {
            packets,
            pos: 0,
            chunk_packets: chunk_packets.max(1),
        }
    }
}

impl PacketSource for MaterializedSource {
    fn next_chunk(&mut self) -> Option<Chunk> {
        if self.pos >= self.packets.len() {
            return None;
        }
        let end = (self.pos + self.chunk_packets).min(self.packets.len());
        let chunk: Chunk = self.packets[self.pos..end].to_vec().into();
        self.pos = end;
        Some(chunk)
    }
}

/// Flatten any [`PacketSource`] into per-packet [`PacketRef`]s. Each
/// item costs one refcount bump on the current chunk; packet bytes are
/// never copied.
pub struct SourceRefs<S: PacketSource> {
    source: S,
    /// Invariant between calls: `idx <= chunk.len()`, and `idx ==
    /// chunk.len()` exactly when the current chunk is exhausted. Starts
    /// on an empty sentinel chunk so the first `next` refills.
    chunk: Chunk,
    idx: usize,
}

impl<S: PacketSource> SourceRefs<S> {
    /// Iterate `source` packet by packet, by shared reference.
    pub fn new(source: S) -> SourceRefs<S> {
        SourceRefs {
            source,
            chunk: Arc::from(Vec::new()),
            idx: 0,
        }
    }
}

impl<S: PacketSource> Iterator for SourceRefs<S> {
    type Item = PacketRef;

    fn next(&mut self) -> Option<PacketRef> {
        // The refill loop only runs once the previous chunk is fully
        // consumed (sources yield non-empty chunks, so it iterates once
        // in practice).
        while self.idx == self.chunk.len() {
            self.chunk = self.source.next_chunk()?;
            self.idx = 0;
        }
        let r = PacketRef {
            chunk: Arc::clone(&self.chunk),
            idx: self.idx,
        };
        self.idx += 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TxModel;
    use crate::procfs::PktgenConfig;

    fn gen(count: u64) -> Generator {
        Generator::new(
            PktgenConfig {
                count,
                ..PktgenConfig::default()
            },
            TxModel::syskonnect(),
            7,
        )
    }

    #[test]
    fn chunk_sizes_are_bounded_and_cover_the_count() {
        let mut source = ChunkedGenerator::new(gen(10_000), 4096);
        let mut sizes = Vec::new();
        while let Some(c) = source.next_chunk() {
            sizes.push(c.len());
        }
        assert_eq!(sizes, vec![4096, 4096, 1808]);
    }

    #[test]
    fn empty_generator_yields_no_chunks() {
        let mut source = ChunkedGenerator::new(gen(0), 4096);
        assert!(source.next_chunk().is_none());
        assert!(source.next_chunk().is_none());
    }

    #[test]
    fn zero_chunk_size_is_clamped() {
        let mut source = ChunkedGenerator::new(gen(3), 0);
        let mut n = 0;
        while let Some(c) = source.next_chunk() {
            assert_eq!(c.len(), 1);
            n += c.len();
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn chunked_generator_preserves_the_exact_stream() {
        let direct: Vec<TimedPacket> = gen(5_000).collect();
        for chunk_packets in [1usize, 1009, 4096, 100_000] {
            let refs: Vec<PacketRef> =
                SourceRefs::new(ChunkedGenerator::new(gen(5_000), chunk_packets)).collect();
            assert_eq!(refs.len(), direct.len(), "chunk={chunk_packets}");
            for (r, tp) in refs.iter().zip(&direct) {
                assert_eq!(r.get(), tp, "chunk={chunk_packets}");
                assert_eq!(r.time(), tp.time);
                assert_eq!(r.packet(), &tp.packet);
            }
        }
    }

    #[test]
    fn packet_refs_share_their_chunk() {
        let mut source = ChunkedGenerator::new(gen(100), 64);
        let chunk = source.next_chunk().unwrap();
        let a = PacketRef::new(Arc::clone(&chunk), 0).expect("index in bounds");
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.chunk, &b.chunk), "clone must share storage");
        assert_eq!(a.packet().seq, 0);
        assert_eq!(format!("{a:?}"), "PacketRef { seq: 0, idx: 0 }");
    }

    #[test]
    fn packet_ref_rejects_out_of_bounds_index() {
        let mut source = ChunkedGenerator::new(gen(4), 4);
        let chunk = source.next_chunk().unwrap();
        assert!(PacketRef::new(Arc::clone(&chunk), 3).is_some());
        assert!(PacketRef::new(chunk, 4).is_none());
    }

    #[test]
    fn materialized_source_replays_identically() {
        let all: Arc<Vec<TimedPacket>> = Arc::new(gen(5_000).collect());
        for chunk_packets in [1usize, 1009, 4096] {
            let replayed: Vec<PacketRef> =
                SourceRefs::new(MaterializedSource::new(Arc::clone(&all), chunk_packets)).collect();
            assert_eq!(replayed.len(), all.len(), "chunk={chunk_packets}");
            for (r, tp) in replayed.iter().zip(all.iter()) {
                assert_eq!(r.get(), tp, "chunk={chunk_packets}");
            }
        }
    }
}

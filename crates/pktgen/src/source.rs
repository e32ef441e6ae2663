//! Chunked packet sources: the streaming interface between the generator
//! and its consumers.
//!
//! The testbed feeds one generated stream through a passive optical
//! splitter to all sniffers *simultaneously* (thesis §3.1).
//! [`PacketSource`] is the software equivalent: a pull-based stream of
//! fixed-size chunks (`Arc<[TimedPacket]>`), shared by pointer with every
//! consumer, small enough (~4k packets) that the generator and the
//! machine simulations reading its published stream overlap instead of
//! serializing behind a fully generated run. A machine simulation keeps
//! the few chunks it still needs and reads each packet in place by its
//! position in the stream, so no consumer copies or refcounts a packet.
//!
//! Chunk memory is recycled, as a traffic generator sends from a
//! preallocated buffer pool: when the last reader of a cached stream
//! lets go, its full chunks wait on one spare list, and
//! [`ChunkedGenerator`] overwrites one of them in place before it
//! allocates a new chunk. Every chunk allocation takes from the list
//! first, so it never holds more chunks than were live at once.

use crate::generator::{Generator, TimedPacket};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
        let n = self.gen.remaining().min(self.chunk_packets as u64) as usize;
        if n == 0 {
            return None;
        }
        let gen = &mut self.gen;
        let mut next = || gen.next_packet().expect("the generator has n packets left");
        if n == DEFAULT_CHUNK_PACKETS {
            // Popped apart from the `if let`, so the list is unlocked while
            // the chunk refills. A spare someone still reads is theirs to
            // free.
            let spare = spares().pop();
            if let Some(mut chunk) = spare {
                if let Some(slots) = Arc::get_mut(&mut chunk) {
                    slots.fill_with(next);
                    return Some(chunk);
                }
            }
        }
        Some((0..n).map(|_| next()).collect())
    }
}

/// Full chunks of retired streams, waiting to be refilled in place.
static SPARES: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

/// The spare list. Every update pushes or pops whole chunks, so a panic
/// while it was locked leaves it valid.
fn spares() -> MutexGuard<'static, Vec<Chunk>> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hand back the chunks of a stream no one reads any more: the full ones
/// wait for [`ChunkedGenerator`] to overwrite them, the rest are freed.
pub(crate) fn retire(chunks: Vec<Chunk>) {
    let full = chunks
        .into_iter()
        .filter(|chunk| chunk.len() == DEFAULT_CHUNK_PACKETS);
    spares().extend(full);
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

    /// Every packet of `source`, in stream order.
    fn flatten(mut source: impl PacketSource) -> Vec<TimedPacket> {
        let mut packets = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            packets.extend_from_slice(&chunk);
        }
        packets
    }

    #[test]
    fn chunked_generator_preserves_the_exact_stream() {
        let direct: Vec<TimedPacket> = gen(5_000).collect();
        for chunk_packets in [1usize, 1009, 4096, 100_000] {
            let chunked = flatten(ChunkedGenerator::new(gen(5_000), chunk_packets));
            assert_eq!(chunked, direct, "chunk={chunk_packets}");
        }
    }
}

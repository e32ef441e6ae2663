//! # pcs-bench — the hot-path bench behind the CI perf gate
//!
//! `benches/hotpath.rs` times one `MachineSim::run_source` over a shared
//! 40k-packet workload, plus the bare event queue as a machine-speed
//! reference; `scripts/check_perf.py` gates its output against
//! `BENCH_HOTPATH.json`. Run it with `cargo bench -p pcs-bench --bench
//! hotpath`. The end-to-end and per-layer numbers come from the
//! repository benchmark under `benchmark/`.

use pcs_pktgen::{Chunk, PacketSource};

/// Packet count of the shared hot-path workload ([`hotpath_stream`]).
pub const HOTPATH_COUNT: u64 = 40_000;

/// The benches' shared hot-path workload: a deterministic 40k-packet
/// SysKonnect stream (seed 4242), pre-generated into 4096-packet
/// chunks. Returns the chunks (replayed into the simulator by
/// [`ReplayChunks`]) and the flattened packet list (for the event-queue
/// floor); both views contain the same packets in the same order.
pub fn hotpath_stream() -> (Vec<Chunk>, Vec<pcs_pktgen::TimedPacket>) {
    use pcs_pktgen::{ChunkedGenerator, Generator, PktgenConfig, TxModel};
    let mut source = ChunkedGenerator::new(
        Generator::new(
            PktgenConfig {
                count: HOTPATH_COUNT,
                ..PktgenConfig::default()
            },
            TxModel::syskonnect(),
            4242,
        ),
        4096,
    );
    let chunks: Vec<Chunk> = std::iter::from_fn(|| source.next_chunk()).collect();
    let packets = chunks.iter().flat_map(|c| c.iter().cloned()).collect();
    (chunks, packets)
}

/// A [`PacketSource`] replaying pre-generated chunks (`Arc` clones, no
/// packet copies): isolates the simulator's cost from generation cost.
pub struct ReplayChunks<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
}

impl<'a> ReplayChunks<'a> {
    /// Replay `chunks` from the first.
    pub fn new(chunks: &'a [Chunk]) -> ReplayChunks<'a> {
        ReplayChunks {
            chunks: chunks.iter(),
        }
    }
}

impl PacketSource for ReplayChunks<'_> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        self.chunks.next().cloned()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hotpath_stream_views_agree() {
        let (chunks, packets) = super::hotpath_stream();
        assert_eq!(packets.len() as u64, super::HOTPATH_COUNT);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total as u64, super::HOTPATH_COUNT);
        let first_chunk = &chunks[0];
        assert_eq!(first_chunk[0].packet.seq, packets[0].packet.seq);
    }
}

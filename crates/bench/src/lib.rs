//! # pcs-bench — benchmark harness
//!
//! Criterion benchmarks over the reproduction:
//!
//! * `benches/microbench.rs` — component throughput (BPF interpretation,
//!   filter compilation, distribution sampling, packet generation,
//!   DEFLATE, savefile writing, single-machine simulation);
//! * `benches/figures.rs` — one benchmark per thesis figure, running the
//!   actual regeneration code at a reduced scale so regressions in any
//!   experiment path show up as timing changes.
//!
//! Run with `cargo bench --workspace`.

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
    let chunks = collect_chunks(ChunkedGenerator::new(
        Generator::new(
            PktgenConfig {
                count: HOTPATH_COUNT,
                ..PktgenConfig::default()
            },
            TxModel::syskonnect(),
            4242,
        ),
        4096,
    ));
    let packets = chunks.iter().flat_map(|c| c.iter().cloned()).collect();
    (chunks, packets)
}

/// Drain `source` into its chunks, so a bench can replay them without
/// timing the generator.
pub fn collect_chunks(mut source: impl PacketSource) -> Vec<Chunk> {
    std::iter::from_fn(|| source.next_chunk()).collect()
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

/// A tiny helper shared by the benches: a deterministic packet for filter
/// benchmarks (the generator's canonical addressing).
pub fn sample_packet(seq: u64, frame_len: u32) -> pcs_wire::SimPacket {
    pcs_wire::SimPacket::build_udp(
        seq,
        seq * 6_000,
        frame_len,
        pcs_wire::MacAddr::ZERO.offset(seq % 3),
        pcs_wire::MacAddr::new(0, 0x0e, 0x0c, 1, 2, 3),
        std::net::Ipv4Addr::new(192, 168, 10, 100),
        std::net::Ipv4Addr::new(192, 168, 10, 12),
        9,
        9,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn sample_packet_is_ipv4() {
        let p = super::sample_packet(7, 750);
        assert!(p.ipv4().is_some());
    }

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

//! Cursor admission at its boundaries: the engine that holds the next
//! arrival outside the event heap must stay byte-identical to the
//! per-packet oracle (`with_batching(false)`), which schedules every
//! arrival through the heap.
//!
//! Each case drives a boundary family where a heap event lands on or
//! next to the cursor's arrival — ring-full IRQ traffic, fault-window
//! edges, single-CPU and SMT shapes, line-rate bursts, and interrupt
//! gates on the NIC's own clock — and requires the two engines to
//! agree on the full report, including a trace of every lifecycle stage
//! and every CPU dispatch, which pins the exact event interleaving.

use pcs_des::SimTime;
use pcs_hw::{MachineSpec, NicModel};
use pcs_oskernel::{MachineFaults, MachineSim, SimConfig};
use pcs_pktgen::{
    Chunk, ChunkedGenerator, Generator, PacketSource, PktgenConfig, SizeSource, TimedPacket,
    TxModel, DEFAULT_CHUNK_PACKETS,
};
use pcs_trace::{Stage, StageFilter, TraceSink, TraceSpec};
use pcs_wire::{MacAddr, SimPacket};
use std::net::Ipv4Addr;

fn source(count: u64, rate: f64, burst: u32, seed: u64) -> ChunkedGenerator {
    let cfg = PktgenConfig {
        count,
        size: SizeSource::Fixed(659),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(cfg, TxModel::syskonnect(), seed);
    g.set_target_rate(rate, 659.0);
    g.set_burstiness(burst);
    ChunkedGenerator::new(g, DEFAULT_CHUNK_PACKETS)
}

/// Run the same workload through the cursor engine and the per-packet
/// oracle, traced at every stage plus `sched`, and require identical
/// reports.
fn differential<S: PacketSource>(
    spec: MachineSpec,
    hooks: impl Fn() -> Option<Box<dyn MachineFaults>>,
    source: impl Fn() -> S,
) {
    let run = |batched: bool| {
        let mut filter = StageFilter::sched();
        for s in Stage::ALL {
            filter.insert(s);
        }
        let report = MachineSim::new(spec, SimConfig::default())
            .with_batching(batched)
            .with_stage_times(true)
            .with_trace(TraceSink::bounded(TraceSpec {
                filter,
                ..TraceSpec::default()
            }))
            .with_faults(hooks())
            .run_source(source());
        format!("{report:?}")
    };
    assert_eq!(run(true), run(false));
}

/// An RX ring pinned to one slot: every arrival beyond the first finds
/// the ring full, and the IRQ machinery runs continuously.
struct TinyRing;
impl MachineFaults for TinyRing {
    fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
        1
    }
}

/// A kernel-buffer-shrink window between 1 ms and 3 ms of sim time.
struct Window;
impl MachineFaults for Window {
    fn buffer_permille(&mut self, now_ns: u64) -> u32 {
        if (1_000_000..3_000_000).contains(&now_ns) {
            250
        } else {
            1000
        }
    }
}

#[test]
fn line_rate_bursts_match_the_per_packet_oracle() {
    // Flamingo at near line rate: long back-to-back arrival runs with
    // the cursor ahead of every queued event.
    differential(
        MachineSpec::flamingo(),
        || None,
        || source(4_000, 950.0, 64, 1234),
    );
}

#[test]
fn ring_full_traffic_matches_the_per_packet_oracle() {
    // With the ring pinned to one slot, IRQ-gate and kernel events fire
    // between arrivals continuously.
    for hooks in [
        || -> Option<Box<dyn MachineFaults>> { None },
        || -> Option<Box<dyn MachineFaults>> { Some(Box::new(TinyRing)) },
    ] {
        differential(MachineSpec::flamingo(), hooks, || {
            source(4_000, 860.0, 64, 1234)
        });
    }
}

#[test]
fn fault_window_edges_match_the_per_packet_oracle() {
    // The shrink window's hook is consulted per delivery; the cursor
    // engine must observe the 1 ms and 3 ms edges at exactly the same
    // arrival as the per-packet engine, or drops would move between
    // buckets.
    differential(
        MachineSpec::swan().single_cpu(),
        || Some(Box::new(Window)),
        || source(4_000, 700.0, 32, 1234),
    );
}

#[test]
fn single_cpu_and_hyperthreaded_machines_match_the_per_packet_oracle() {
    for spec in [
        MachineSpec::moorhen().single_cpu(),
        MachineSpec::snipe().with_hyperthreading(),
        MachineSpec::flamingo(),
    ] {
        differential(spec, || None, || source(2_000, 500.0, 16, 1234));
    }
}

/// A packet list replayed in chunks.
struct Replay(std::vec::IntoIter<Chunk>);

impl PacketSource for Replay {
    fn next_chunk(&mut self) -> Option<Chunk> {
        self.0.next()
    }
}

/// `n` 550-byte frames exactly 5 µs apart (880 Mbit/s). Every interrupt
/// gap below is a multiple of 5 µs, so a gate armed at an arrival
/// falls on the same nanosecond as a later arrival.
fn lockstep(n: u64) -> Replay {
    let packets: Vec<TimedPacket> = (1..=n)
        .map(|i| {
            let time = SimTime::from_micros(5 * i);
            let packet = SimPacket::build_udp(
                i,
                time.as_nanos(),
                550,
                MacAddr::ZERO,
                MacAddr::BROADCAST,
                Ipv4Addr::new(192, 168, 10, 100),
                Ipv4Addr::new(192, 168, 10, 12),
                9,
                9,
            );
            TimedPacket { time, packet }
        })
        .collect();
    let chunks: Vec<Chunk> = packets
        .chunks(DEFAULT_CHUNK_PACKETS)
        .map(Chunk::from)
        .collect();
    Replay(chunks.into_iter())
}

#[test]
fn interrupt_gates_on_a_nic_clock_match_the_per_packet_oracle() {
    // Moderated and polling NICs schedule `IrqGate` events on their own
    // clock. On the lockstep grid those gates share instants with
    // arrivals held in the cursor, so the same-instant tie-break between
    // a queued gate and the deferred arrival decides the event order;
    // the generated 900 Mbit/s stream runs the same NICs off the grid.
    for machine in [MachineSpec::flamingo(), MachineSpec::swan()] {
        for nic in [
            NicModel::intel_82544_moderated(100),
            NicModel::intel_82544_polling(150),
        ] {
            let spec = MachineSpec { nic, ..machine };
            differential(spec, || None, || source(4_000, 900.0, 1, 1234));
            differential(spec, || None, || lockstep(4_000));
        }
    }
}

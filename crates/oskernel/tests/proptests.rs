//! Property tests for the machine simulation: conservation and
//! determinism must hold for *any* workload and configuration.

use pcs_hw::MachineSpec;
use pcs_oskernel::{AppConfig, BufferConfig, MachineFaults, MachineSim, RunReport, SimConfig};
use pcs_pktgen::{
    ChunkedGenerator, Generator, PktgenConfig, SizeSource, TxModel, DEFAULT_CHUNK_PACKETS,
};
use pcs_trace::{CellTrace, SutTrace, TraceSink, TraceSpec};
use proptest::prelude::*;

fn source(count: u64, rate: f64, burst: u32, seed: u64) -> ChunkedGenerator {
    source_in_chunks(count, rate, burst, seed, DEFAULT_CHUNK_PACKETS)
}

fn source_in_chunks(
    count: u64,
    rate: f64,
    burst: u32,
    seed: u64,
    chunk_packets: usize,
) -> ChunkedGenerator {
    let cfg = PktgenConfig {
        count,
        size: SizeSource::Fixed(659),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(cfg, TxModel::syskonnect(), seed);
    g.set_target_rate(rate, 659.0);
    g.set_burstiness(burst);
    ChunkedGenerator::new(g, chunk_packets)
}

fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    prop_oneof![
        Just(MachineSpec::swan()),
        Just(MachineSpec::snipe()),
        Just(MachineSpec::moorhen()),
        Just(MachineSpec::flamingo()),
        Just(MachineSpec::swan().single_cpu()),
        Just(MachineSpec::moorhen().single_cpu()),
        Just(MachineSpec::snipe().with_hyperthreading()),
    ]
}

proptest! {
    // Each case runs a small simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packet conservation: every offered packet is accounted exactly
    /// once per application (received, buffer-dropped, pool-dropped or
    /// filter-rejected) or dropped at the NIC ring.
    #[test]
    fn conservation(
        spec in arb_machine(),
        count in 500u64..4_000,
        rate in 100f64..900.0,
        burst in 1u32..100,
        napps in 1usize..4,
        small_buffers in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let buffers = if small_buffers {
            BufferConfig::default_buffers()
        } else {
            BufferConfig::increased()
        };
        let cfg = SimConfig {
            buffers,
            apps: vec![AppConfig::plain(); napps],
            ..SimConfig::default()
        };
        let r = MachineSim::new(spec, cfg).run_source(source(count, rate, burst, seed));
        prop_assert_eq!(r.offered, count);
        for a in &r.apps {
            let s = a.stats;
            prop_assert_eq!(
                a.received + s.dropped_buffer + s.dropped_pool + s.rejected + r.nic_ring_drops,
                r.offered,
                "conservation violated on {}", r.machine
            );
            prop_assert_eq!(s.delivered, a.received);
            prop_assert!(a.received_bytes >= a.received * 42);
        }
        // CPU accounting covers the elapsed time.
        for acct in &r.final_acct {
            prop_assert!(acct.total() <= r.elapsed.as_nanos() + 1_000_000);
        }
    }

    /// Bitwise determinism: identical inputs give identical reports.
    #[test]
    fn determinism(
        count in 500u64..2_000,
        rate in 100f64..900.0,
        seed in any::<u64>(),
    ) {
        let run = || {
            MachineSim::new(MachineSpec::flamingo(), SimConfig::default())
                .run_source(source(count, rate, 16, seed))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.apps[0].received, b.apps[0].received);
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.final_acct, b.final_acct);
        prop_assert_eq!(a.nic_ring_drops, b.nic_ring_drops);
    }

    /// Monotonicity: offering the same packets more slowly never reduces
    /// the capture rate (single app, plain capture).
    #[test]
    fn slower_is_never_worse(
        count in 1_000u64..3_000,
        seed in any::<u64>(),
    ) {
        let run = |rate: f64| {
            MachineSim::new(MachineSpec::flamingo().single_cpu(), SimConfig::default())
                .run_source(source(count, rate, 16, seed))
                .capture_rate(0)
        };
        let slow = run(200.0);
        let fast = run(860.0);
        prop_assert!(slow + 1e-9 >= fast, "slow {slow} vs fast {fast}");
    }
}

/// A ring-stall hook (RX ring pinned to one slot) for the batching
/// differential test: every arrival beyond the first finds the ring
/// full, so IRQ traffic runs between arrivals continuously.
struct Stall;
impl MachineFaults for Stall {
    fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
        1
    }
}

/// A constant-preemption hook (2 µs per dispatch): every work item gains
/// a third segment at dispatch, the path that must carry the full
/// inline segment array correctly through the pool.
struct Preempt;
impl MachineFaults for Preempt {
    fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
        2_000
    }
}

/// A kernel-buffer-shrink window (capacity cut to 1/4 between 1 ms and
/// 3 ms of sim time) for the batching differential test: the
/// buffer_permille hook is consulted on every delivery, so the cursor
/// engine must observe the window edge at exactly the same arrival as
/// the per-packet engine.
struct Kshrink;
impl MachineFaults for Kshrink {
    fn buffer_permille(&mut self, now_ns: u64) -> u32 {
        if (1_000_000..3_000_000).contains(&now_ns) {
            250
        } else {
            1000
        }
    }
}

/// The trace spec a property draws by index: off, every stage, drops
/// only, or every stage plus `sched` (whose dispatch order pins the
/// exact event interleaving).
fn trace_spec(filter: u8) -> Option<TraceSpec> {
    match filter {
        1 => Some(TraceSpec::default()),
        2 => Some(TraceSpec {
            filter: pcs_trace::StageFilter::drops(),
            ..TraceSpec::default()
        }),
        3 => {
            let mut f = pcs_trace::StageFilter::sched();
            for s in pcs_trace::Stage::ALL {
                f.insert(s);
            }
            Some(TraceSpec {
                filter: f,
                ..TraceSpec::default()
            })
        }
        _ => None,
    }
}

/// The fault hooks a property draws by index: none, [`Stall`],
/// [`Preempt`] or [`Kshrink`].
fn hooks(fault: u8) -> Option<Box<dyn MachineFaults>> {
    match fault {
        1 => Some(Box::new(Stall)),
        2 => Some(Box::new(Preempt)),
        3 => Some(Box::new(Kshrink)),
        _ => None,
    }
}

/// Render a traced report's exports exactly as the sweep exporter
/// would: two runs a property compares must agree on every exported
/// byte, not just on the report struct.
fn rendered_exports(r: &RunReport) -> (String, String) {
    let cell = CellTrace {
        label: format!("prop {}", r.machine),
        key: 1,
        achieved_mbps: 0.0,
        suts: vec![SutTrace {
            label: r.machine.clone(),
            report: r.trace.as_deref().expect("traced run").clone(),
            attributions: r.attributions(),
            stage_times: r.stage_times.clone(),
        }],
    };
    let cells = std::slice::from_ref(&cell);
    (
        pcs_trace::export::chrome_trace_json(cells),
        pcs_trace::export::events_csv(cells),
    )
}

proptest! {
    // Two full runs per case; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batching is invisible: the cursor engine (lazy arrival
    /// admission) and its per-packet test oracle
    /// (`with_batching(false)`) produce byte-identical reports — and,
    /// when traced, byte-identical trace exports and run-ledger
    /// documents — across machines, rates, app counts, trace filters
    /// (including `sched`, whose dispatch order pins the exact event
    /// interleaving) and fault plans (kshrink / preempt / ringstall,
    /// whose hooks must fire at exactly the same arrival).
    #[test]
    fn batching_is_invisible(
        spec in arb_machine(),
        count in 500u64..2_500,
        rate in 100f64..900.0,
        burst in 1u32..64,
        napps in 1usize..3,
        filter in 0u8..4,
        fault in 0u8..4,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            apps: vec![AppConfig::plain(); napps],
            ..SimConfig::default()
        };
        let run = |batched: bool| {
            let mut sim = MachineSim::new(spec, cfg.clone())
                .with_batching(batched)
                .with_stage_times(true);
            if let Some(spec) = trace_spec(filter) {
                sim = sim.with_trace(TraceSink::bounded(spec));
            }
            sim.with_faults(hooks(fault)).run_source(source(count, rate, burst, seed))
        };
        let batched = run(true);
        let legacy = run(false);
        prop_assert_eq!(format!("{batched:?}"), format!("{legacy:?}"));
        if filter != 0 {
            let (json_a, csv_a) = rendered_exports(&batched);
            let (json_b, csv_b) = rendered_exports(&legacy);
            prop_assert_eq!(json_a, json_b);
            prop_assert_eq!(csv_a, csv_b);
            prop_assert_eq!(rendered_ledger(&batched), rendered_ledger(&legacy));
        }
    }
}

proptest! {
    // The default config: 256 cases, or `PROPTEST_CASES`.

    /// Chunk boundaries are invisible: a stream cut into chunks of 1,
    /// 2–64 or 4096 packets gives the report of the 4096-packet run —
    /// and, when traced, the same trace exports and ledger — on any
    /// machine, under any fault hook, with the admission cursor or its
    /// per-packet oracle. Streams of 200–1,500 packets cross a chunk
    /// boundary at every chunk size below 4096.
    #[test]
    fn chunk_size_is_invisible(
        spec in arb_machine(),
        count in 200u64..1_500,
        rate in 100f64..900.0,
        burst in 1u32..64,
        napps in 1usize..3,
        chunk_packets in prop_oneof![Just(1usize), 2usize..65, Just(4096usize)],
        filter in 0u8..4,
        fault in 0u8..4,
        batched in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            apps: vec![AppConfig::plain(); napps],
            ..SimConfig::default()
        };
        let run = |chunk_packets: usize| {
            let mut sim = MachineSim::new(spec, cfg.clone())
                .with_batching(batched)
                .with_stage_times(true);
            if let Some(spec) = trace_spec(filter) {
                sim = sim.with_trace(TraceSink::bounded(spec));
            }
            sim.with_faults(hooks(fault))
                .run_source(source_in_chunks(count, rate, burst, seed, chunk_packets))
        };
        let reference = run(DEFAULT_CHUNK_PACKETS);
        let chunked = run(chunk_packets);
        prop_assert_eq!(format!("{chunked:?}"), format!("{reference:?}"), "chunk={}", chunk_packets);
        if filter != 0 {
            prop_assert_eq!(rendered_exports(&chunked), rendered_exports(&reference));
            prop_assert_eq!(rendered_ledger(&chunked), rendered_ledger(&reference));
        }
    }
}

/// Render a traced report as the full `--ledger` document, exactly as
/// the experiments CLI would: two runs a property compares must agree
/// on every ledger byte, not just on the report struct.
fn rendered_ledger(r: &RunReport) -> String {
    let cell = CellTrace {
        label: format!("prop {}", r.machine),
        key: 1,
        achieved_mbps: 0.0,
        suts: vec![SutTrace {
            label: r.machine.clone(),
            report: r.trace.as_deref().expect("traced run").clone(),
            attributions: r.attributions(),
            stage_times: r.stage_times.clone(),
        }],
    };
    let meta = pcs_obs::LedgerMeta {
        scale: "prop".to_owned(),
        experiments: vec!["batching_is_invisible".to_owned()],
        faults: None,
    };
    pcs_obs::render_ledger(&meta, std::slice::from_ref(&cell), None)
}

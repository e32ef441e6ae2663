//! Batch-splitting boundaries: a coalesced NIC run must end exactly
//! where an intervening event begins.
//!
//! The macro-batched engine admits consecutive arrivals as one run only
//! while the next arrival precedes every heap event. These tests pin
//! the two boundary families that matter — IRQ/ring-full activity and
//! fault-window edges — by checking that (a) the batched and per-packet
//! engines stay byte-identical under each, and (b) the batch probe
//! shows the runs really did coalesce and really did split.

use pcs_des::BatchProbe;
use pcs_hw::MachineSpec;
use pcs_oskernel::{MachineFaults, MachineSim, SimConfig, BATCH_COALESCE_CAP};
use pcs_pktgen::{
    ChunkedGenerator, Generator, PktgenConfig, SizeSource, TxModel, DEFAULT_CHUNK_PACKETS,
};
use std::sync::Arc;

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

/// Run the same workload batched and per-packet; assert byte-identical
/// reports and return the batched side's probe.
fn differential(
    spec: MachineSpec,
    hooks: impl Fn() -> Option<Box<dyn MachineFaults>>,
    count: u64,
    rate: f64,
    burst: u32,
) -> Arc<BatchProbe> {
    let probe = Arc::new(BatchProbe::new());
    let batched = MachineSim::new(spec, SimConfig::default())
        .with_batching(true)
        .with_batch_probe(Arc::clone(&probe))
        .with_faults(hooks())
        .run_source(source(count, rate, burst, 1234));
    let legacy = MachineSim::new(spec, SimConfig::default())
        .with_batching(false)
        .with_faults(hooks())
        .run_source(source(count, rate, burst, 1234));
    assert_eq!(format!("{batched:?}"), format!("{legacy:?}"));
    probe
}

/// An RX ring pinned to one slot: every arrival beyond the first finds
/// the ring full, and the IRQ machinery runs continuously.
struct TinyRing;
impl pcs_hw::NicBusFault for TinyRing {
    fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
        1
    }
}
impl pcs_hw::SchedFault for TinyRing {}
impl MachineFaults for TinyRing {}

/// A kernel-buffer-shrink window between 1 ms and 3 ms of sim time.
struct Window;
impl pcs_hw::NicBusFault for Window {}
impl pcs_hw::SchedFault for Window {}
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
fn dense_bursts_coalesce_and_respect_the_cap() {
    // Flamingo at near line rate drives long back-to-back arrival runs
    // with no intervening events, deep enough to hit the cap. (A
    // multi-CPU swan, by contrast, nearly always has a CPU event
    // between arrivals — coalescing is workload-dependent by design.)
    let probe = differential(MachineSpec::flamingo(), || None, 4_000, 950.0, 64);
    assert!(probe.runs() > 0, "the NIC processed at least one run");
    assert!(
        probe.coalesced() > 0,
        "a dense burst must coalesce consecutive arrivals into one run"
    );
    assert_eq!(
        probe.max_run(),
        BATCH_COALESCE_CAP,
        "a near-line-rate burst must reach (and never exceed) the coalesce cap"
    );
}

#[test]
fn runs_split_at_ring_full_boundaries() {
    // With the ring pinned to one slot, IRQ-gate and kernel events fire
    // between arrivals continuously, so coalesced runs must split far
    // more often than on the healthy ring — and the output must still
    // not move by one byte.
    let healthy = differential(MachineSpec::flamingo(), || None, 4_000, 860.0, 64);
    let stalled = differential(
        MachineSpec::flamingo(),
        || Some(Box::new(TinyRing)),
        4_000,
        860.0,
        64,
    );
    assert!(stalled.runs() > 0);
    let healthy_mean = healthy.coalesced() as f64 / healthy.runs() as f64;
    let stalled_mean = stalled.coalesced() as f64 / stalled.runs() as f64;
    assert!(
        stalled_mean < healthy_mean,
        "ring-full IRQ traffic must shorten coalesced runs \
         (stalled mean {stalled_mean:.2} vs healthy mean {healthy_mean:.2})"
    );
}

#[test]
fn runs_split_at_fault_window_boundaries() {
    // The shrink window's hook is consulted per delivery; the batched
    // engine must observe the 1 ms and 3 ms edges at exactly the same
    // arrival as the per-packet engine (byte-equality inside
    // `differential` proves it — a run crossing an edge out of order
    // would move drop counts between buckets).
    let probe = differential(
        MachineSpec::swan().single_cpu(),
        || Some(Box::new(Window)),
        4_000,
        700.0,
        32,
    );
    assert!(probe.runs() > 0);
    assert!(probe.coalesced() > 0);
}

#[test]
fn single_cpu_and_hyperthreaded_machines_coalesce_identically_to_legacy() {
    for spec in [
        MachineSpec::moorhen().single_cpu(),
        MachineSpec::snipe().with_hyperthreading(),
        MachineSpec::flamingo(),
    ] {
        let probe = differential(spec, || None, 2_000, 500.0, 16);
        assert!(probe.runs() > 0);
    }
}

#[test]
fn explicit_batching_off_never_touches_the_cursor() {
    let probe = Arc::new(BatchProbe::new());
    let _ = MachineSim::new(MachineSpec::swan(), SimConfig::default())
        .with_batching(false)
        .with_batch_probe(Arc::clone(&probe))
        .run_source(source(1_000, 400.0, 16, 7));
    assert_eq!(probe.runs(), 0, "per-packet engine records no runs");
    assert_eq!(probe.coalesced(), 0);
    assert_eq!(
        probe.alpha_hits() + probe.alpha_misses(),
        0,
        "memos are disabled with batching off"
    );
}

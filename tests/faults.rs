//! Fault-injection guarantees: an armed plan is deterministic at any
//! worker count, host-side faults never change results, and the
//! shipped machine-side faults demonstrably move losses into their
//! advertised attribution buckets.
//!
//! Every cell simulates, and the invariant oracle checks every cell, so
//! each faulted sweep below is also a conservation proof. Figure-level
//! tests use packet counts no other test binary uses (41k/43k/12k), so
//! the process-global stream cache cannot share streams between them.

use pcapbench::core::{figures, ExecConfig, Scale};
use pcapbench::des::SimTime;
use pcapbench::faultsim::FaultPlan;
use pcapbench::hw::MachineSpec;
use pcapbench::oskernel::{MachineSim, SimConfig};
use pcapbench::pktgen::{Chunk, PacketSource, TimedPacket, DEFAULT_CHUNK_PACKETS};
use pcapbench::trace::{StageFilter, TraceCollector, TraceSpec};
use pcapbench::wire::{MacAddr, SimPacket};
use pcs_obs::{diff_ledgers, render_ledger, Ledger, LedgerMeta};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// `n` dense UDP arrivals, `gap_ns` apart.
fn packets(n: u64, gap_ns: u64) -> Vec<TimedPacket> {
    (0..n)
        .map(|i| {
            let time = SimTime::from_nanos((i + 1) * gap_ns);
            let packet = SimPacket::build_udp(
                i,
                time.as_nanos(),
                659,
                MacAddr::ZERO,
                MacAddr::BROADCAST,
                Ipv4Addr::new(192, 168, 10, 100),
                Ipv4Addr::new(192, 168, 10, 12),
                9,
                9,
            );
            TimedPacket { time, packet }
        })
        .collect()
}

/// A packet list replayed in chunks.
struct Replay(std::vec::IntoIter<Chunk>);

impl PacketSource for Replay {
    fn next_chunk(&mut self) -> Option<Chunk> {
        self.0.next()
    }
}

/// Replay `stream` as a chunked source.
fn replay(stream: &[TimedPacket]) -> Replay {
    let chunks: Vec<Chunk> = stream
        .chunks(DEFAULT_CHUNK_PACKETS)
        .map(Chunk::from)
        .collect();
    Replay(chunks.into_iter())
}

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec)
        .expect("valid spec")
        .expect("armed plan")
}

#[test]
fn armed_plan_is_deterministic_across_execution_knobs() {
    let scale = Scale {
        count: 41_000,
        repeats: 2,
        rates: vec![Some(250.0), None],
    };
    let chaos = Arc::new(plan("chaos:99"));

    let base = figures::fig6_2_default_buffers(&scale, true, &ExecConfig::with_jobs(1));

    let serial = figures::fig6_2_default_buffers(
        &scale,
        true,
        &ExecConfig::with_jobs(1).with_faults(Arc::clone(&chaos)),
    );

    // Same plan, more workers. Bytes must not move.
    let reshaped = figures::fig6_2_default_buffers(
        &scale,
        true,
        &ExecConfig::with_jobs(4).with_faults(Arc::clone(&chaos)),
    );
    assert_eq!(
        serial.to_csv(),
        reshaped.to_csv(),
        "same plan+seed must render identical CSV at any --jobs"
    );
    assert_eq!(serial.to_table(), reshaped.to_table());

    // The machine-side faults really bit: the faulted sweep differs from
    // the unfaulted baseline, and a reseeded plan differs from both.
    assert_ne!(
        base.to_csv(),
        serial.to_csv(),
        "an armed chaos plan must change the sweep"
    );
    let reseeded = figures::fig6_2_default_buffers(
        &scale,
        true,
        &ExecConfig::with_jobs(4).with_faults(Arc::new(plan("chaos:100"))),
    );
    assert_ne!(
        serial.to_csv(),
        reseeded.to_csv(),
        "a different fault seed must place the windows differently"
    );
}

#[test]
fn host_side_faults_do_not_change_results() {
    let scale = Scale {
        count: 43_000,
        repeats: 2,
        rates: vec![Some(220.0), None],
    };
    // Collected as `--ledger` collects: no events, but every cell's key,
    // attribution, metrics and stage times.
    let ledgered = || {
        let cells = Arc::new(TraceCollector::new(TraceSpec {
            filter: StageFilter::none(),
            ..TraceSpec::default()
        }));
        let exec = ExecConfig::with_jobs(4)
            .with_stage_times(true)
            .with_trace(Arc::clone(&cells));
        (exec, cells)
    };
    let (exec, base_cells) = ledgered();
    let base = figures::fig6_2_default_buffers(&scale, true, &exec);
    // Hiccups stall each cell's stream reader (a generating cell's
    // sniffers catch up and wait) and the cache squeeze shrinks the
    // stream budget: both reshape execution only, so the rendered bytes
    // must equal the unfaulted run's.
    let (exec, hiccuped_cells) = ledgered();
    let hiccuped = figures::fig6_2_default_buffers(
        &scale,
        true,
        &exec.with_faults(Arc::new(plan("hiccup+squeeze:7"))),
    );
    assert_eq!(
        base.to_csv(),
        hiccuped.to_csv(),
        "host-side faults must be invisible in the results"
    );
    assert_eq!(base.to_table(), hiccuped.to_table());
    // The traced cells, fingerprints included, are the unfaulted ones:
    // no fault plan enters a cell fingerprint.
    let cells = base_cells.cells();
    assert!(!cells.is_empty(), "tracing must record cells");
    assert_eq!(cells, hiccuped_cells.cells());
}

#[test]
fn a_machine_side_plan_leaves_every_cell_paired_with_its_configuration() {
    // One rate, one repeat: the buffer sweep's twelve SUT sets all share
    // the label `rate=full rep=0`.
    let scale = Scale {
        count: 12_000,
        repeats: 1,
        rates: vec![None],
    };
    let ledger = |faults: Option<&str>| {
        let cells = Arc::new(TraceCollector::new(TraceSpec {
            filter: StageFilter::none(),
            ..TraceSpec::default()
        }));
        let mut exec = ExecConfig::with_jobs(2).with_trace(Arc::clone(&cells));
        if let Some(spec) = faults {
            exec = exec.with_faults(Arc::new(plan(spec)));
        }
        figures::fig6_4_buffer_sweep(&scale, false, &exec);
        let meta = LedgerMeta {
            scale: "test".into(),
            experiments: vec!["fig6.4a".into()],
            faults: faults.map(str::to_owned),
        };
        Ledger::parse(&render_ledger(&meta, &cells.cells(), None)).expect("the ledger parses")
    };
    let plain = ledger(None);
    let shrunk = ledger(Some("kshrink:77"));
    assert!(plain.cells.len() > 1);
    assert!(plain.cells.iter().all(|c| c.label == "rate=full rep=0"));
    let fingerprints =
        |l: &Ledger| -> Vec<String> { l.cells.iter().map(|c| c.fingerprint.clone()).collect() };
    assert_eq!(fingerprints(&plain), fingerprints(&shrunk));
    let report = diff_ledgers(&plain, &shrunk);
    let text = report.render(4);
    assert_eq!(report.cells_compared, plain.cells.len());
    assert!(report.has_drift(), "kshrink must move losses");
    assert!(
        report
            .cells
            .iter()
            .all(|c| !c.fingerprint_changed && c.only_in.is_none()),
        "{text}"
    );
    assert!(
        text.contains("fault plan differs: A off, B kshrink:77"),
        "{text}"
    );
    assert!(!text.contains("fingerprint changed"), "{text}");
}

#[test]
fn ringstall_moves_losses_into_the_nic_bucket() {
    // 120 ms of dense traffic spans at least two 40 ms stall periods, so
    // the shrunken ring must overflow where the full ring did not.
    let spec = MachineSpec::swan();
    let stream = packets(40_000, 3_000);
    let plain = MachineSim::new(spec, SimConfig::default()).run_source(replay(&stream));
    let stalled = MachineSim::new(spec, SimConfig::default())
        .with_faults(Some(plan("ringstall:5").arm_machine()))
        .run_source(replay(&stream));
    assert!(
        stalled.nic_ring_drops > plain.nic_ring_drops,
        "ring stall must add NIC drops: {} vs {}",
        stalled.nic_ring_drops,
        plain.nic_ring_drops
    );
    for a in stalled.attributions() {
        assert!(a.balanced(), "unbalanced under ringstall: {a:?}");
    }
}

#[test]
fn kshrink_moves_losses_into_the_kernel_buffer_bucket() {
    // Shrinking the capture buffers to 0.8% for 12 ms of every 30 ms
    // must produce kernel drops the full-size buffers avoided. The 2005
    // OS-default buffers shrink below one packet charge, so admissions
    // inside a window overflow: on FreeBSD the BPF store rejects
    // (buffer bucket), on Linux the shared pool rejects (pool bucket).
    // The increased thesis setting would absorb a 120 ms run even
    // shrunken.
    let cfg = SimConfig {
        buffers: pcapbench::oskernel::BufferConfig::default_buffers(),
        ..SimConfig::default()
    };
    let stream = packets(40_000, 3_000);
    let buffer_drops = |r: &pcapbench::oskernel::RunReport| -> u64 {
        r.apps.iter().map(|a| a.stats.dropped_buffer).sum()
    };
    let pool_drops = |r: &pcapbench::oskernel::RunReport| -> u64 {
        r.apps.iter().map(|a| a.stats.dropped_pool).sum()
    };

    let spec = MachineSpec::moorhen();
    let plain = MachineSim::new(spec, cfg.clone()).run_source(replay(&stream));
    let shrunk = MachineSim::new(spec, cfg.clone())
        .with_faults(Some(plan("kshrink:5").arm_machine()))
        .run_source(replay(&stream));
    assert!(
        buffer_drops(&shrunk) > buffer_drops(&plain),
        "FreeBSD kernel shrink must add buffer drops: {} vs {}",
        buffer_drops(&shrunk),
        buffer_drops(&plain)
    );
    for a in shrunk.attributions() {
        assert!(a.balanced(), "unbalanced under kshrink: {a:?}");
    }

    let spec = MachineSpec::swan();
    let plain = MachineSim::new(spec, cfg.clone()).run_source(replay(&stream));
    let shrunk = MachineSim::new(spec, cfg)
        .with_faults(Some(plan("kshrink:5").arm_machine()))
        .run_source(replay(&stream));
    assert!(
        pool_drops(&shrunk) > pool_drops(&plain),
        "Linux kernel shrink must add pool drops: {} vs {}",
        pool_drops(&shrunk),
        pool_drops(&plain)
    );
    for a in shrunk.attributions() {
        assert!(a.balanced(), "unbalanced under kshrink: {a:?}");
    }
}

#[test]
fn preempt_shifts_drop_attribution_deterministically() {
    // A preempting foreign task holds the core at every dispatch inside
    // its windows, so capture work completes late and the run loses
    // packets it otherwise captured. The shift must be a pure function
    // of the plan seed: same seed, same report; new seed, new windows.
    let spec = MachineSpec::swan();
    let stream = packets(40_000, 3_000);
    let received =
        |r: &pcapbench::oskernel::RunReport| -> u64 { r.apps.iter().map(|a| a.received).sum() };
    let dropped = |r: &pcapbench::oskernel::RunReport| -> u64 {
        r.attributions().iter().map(|a| a.dropped()).sum()
    };

    let plain = MachineSim::new(spec, SimConfig::default()).run_source(replay(&stream));
    let preempted = MachineSim::new(spec, SimConfig::default())
        .with_faults(Some(plan("preempt:5").arm_machine()))
        .run_source(replay(&stream));
    assert!(
        received(&preempted) < received(&plain),
        "a preempted machine must capture less: {} vs {}",
        received(&preempted),
        received(&plain)
    );
    assert!(
        dropped(&preempted) > dropped(&plain),
        "the lost packets must land in the drop buckets: {} vs {}",
        dropped(&preempted),
        dropped(&plain)
    );
    for a in preempted.attributions() {
        assert!(a.balanced(), "unbalanced under preempt: {a:?}");
    }

    let again = MachineSim::new(spec, SimConfig::default())
        .with_faults(Some(plan("preempt:5").arm_machine()))
        .run_source(replay(&stream));
    assert_eq!(
        format!("{preempted:?}"),
        format!("{again:?}"),
        "same plan seed must reproduce the report exactly"
    );
    let reseeded = MachineSim::new(spec, SimConfig::default())
        .with_faults(Some(plan("preempt:6").arm_machine()))
        .run_source(replay(&stream));
    assert_ne!(
        format!("{preempted:?}"),
        format!("{reseeded:?}"),
        "a different seed must place the preempt windows differently"
    );
}

#[test]
fn apppause_moves_losses_into_the_app_bucket() {
    // Pausing the application 30 ms of every 50 ms with a short drain
    // grace leaves packets the app never got to process: the app-side
    // residue bucket must grow while NIC behaviour is untouched. FreeBSD
    // with the thesis' big buffers is the interesting machine — read()
    // copies a whole (multi-megabyte) buffer out before per-packet
    // processing, so a pause window strands thousands of packets on the
    // *application* side of the copyout, not just in the kernel.
    let spec = MachineSpec::moorhen();
    let cfg = SimConfig {
        drain_timeout_ns: 2_000_000,
        ..SimConfig::default()
    };
    let stream = packets(40_000, 3_000);
    let plain = MachineSim::new(spec, cfg.clone()).run_source(replay(&stream));
    let paused = MachineSim::new(spec, cfg)
        .with_faults(Some(plan("apppause:5").arm_machine()))
        .run_source(replay(&stream));
    let app_residue = |r: &pcapbench::oskernel::RunReport| -> u64 {
        r.apps.iter().map(|a| a.stats.app_residue).sum()
    };
    let received =
        |r: &pcapbench::oskernel::RunReport| -> u64 { r.apps.iter().map(|a| a.received).sum() };
    assert!(
        app_residue(&paused) > app_residue(&plain),
        "app pause must strand unprocessed packets at the application: {} vs {}",
        app_residue(&paused),
        app_residue(&plain)
    );
    assert!(
        received(&paused) < received(&plain),
        "a paused application must process fewer packets"
    );
    assert_eq!(
        paused.nic_ring_drops, plain.nic_ring_drops,
        "apppause is an application fault; the NIC must not notice"
    );
    for a in paused.attributions() {
        assert!(a.balanced(), "unbalanced under apppause: {a:?}");
    }
}

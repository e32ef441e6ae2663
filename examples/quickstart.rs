//! Quickstart: capture one generated workload on one simulated machine.
//!
//! Builds the thesis' best system (moorhen: FreeBSD 5.4 on dual Opteron),
//! points the enhanced packet generator at it at 500 Mbit/s, and prints
//! the capture statistics and CPU profile — the smallest end-to-end tour
//! of the library.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pcapbench::prelude::*;
use pcapbench::profiling;

fn main() {
    // 1. A capture session, libpcap style.
    let mut session = Pcap::open_live("em0", 65_535, true, 20);
    session
        .set_filter_expression("udp and dst port 9")
        .expect("filter compiles");

    // 2. The workload: 200k packets of the MWN-like size mix at 500 Mbit/s.
    let cycle = CycleConfig::mwn(200_000, /* seed */ 2005);
    let mut generator = Generator::new(
        PktgenConfig {
            count: cycle.count,
            size: cycle.size.clone(),
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        cycle.seed,
    );
    generator.set_target_rate(500.0, cycle.mean_frame);
    generator.set_burstiness(cycle.burst);

    // 3. The machine: moorhen with the thesis' increased buffers.
    let sim = SimConfig {
        buffers: BufferConfig::increased(),
        apps: vec![session.app_config()],
        ..SimConfig::default()
    };
    let report = MachineSim::new(MachineSpec::moorhen(), sim)
        .run_source(ChunkedGenerator::new(generator, DEFAULT_CHUNK_PACKETS));

    // 4. Results.
    let stats = Pcap::stats(&report.apps[0], report.nic_ring_drops);
    println!("machine          : {}", report.machine);
    println!("offered packets  : {}", report.offered);
    println!("ps_recv          : {}", stats.ps_recv);
    println!("ps_drop          : {}", stats.ps_drop);
    println!("ps_ifdrop        : {}", stats.ps_ifdrop);
    println!("capture rate     : {:.2}%", report.capture_rate(0) * 100.0);
    println!("virtual duration : {:.3}s", report.elapsed.as_secs_f64());
    let busy = profiling::trimmed_busy_percent(&report.samples, 95.0);
    println!("cpu busy (trim)  : {busy:.1}%");
    assert!(report.capture_rate(0) > 0.99, "moorhen captures 500 Mbit/s");
}

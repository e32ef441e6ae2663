//! An intrusion-detection-style deployment: the workload the thesis'
//! introduction motivates (§1.1, §4.1.4 — Bro on the MWN uplink).
//!
//! The monitor captures with a real filter (the kind an IDS installs to
//! shed load), performs per-packet analysis work (modelled as zlib
//! compression of every packet, like the thesis' gzwrite load), and
//! writes connection headers to disk for later forensics — the thesis'
//! "time machine" idea. Run on two candidate machines to see why the
//! thesis recommends FreeBSD/Opteron for this job.
//!
//! ```text
//! cargo run --release --example ids_monitor
//! ```

use pcapbench::prelude::*;

fn run_on(spec: MachineSpec, cycle: &CycleConfig, rate: f64) -> RunReport {
    // The IDS session: filter out what we never analyse, compress the
    // rest, keep 76-byte headers on disk.
    let app = MeasurementApp::new()
        .filter("ip and not tcp port 443")
        .expect("filter compiles")
        .compress(3)
        .write_headers(76)
        .build();
    let sim = SimConfig {
        apps: vec![app],
        ..SimConfig::default()
    };
    let mut generator = Generator::new(
        PktgenConfig {
            count: cycle.count,
            size: cycle.size.clone(),
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        cycle.seed,
    );
    generator.set_target_rate(rate, cycle.mean_frame);
    generator.set_burstiness(cycle.burst);
    MachineSim::new(spec, sim).run_source(ChunkedGenerator::new(generator, DEFAULT_CHUNK_PACKETS))
}

fn main() {
    let cycle = CycleConfig::mwn(120_000, 7);
    // The MWN uplink peaks around 400 Mbit/s per direction (§4.1.4);
    // provision for bursts beyond that.
    let rate = 400.0;

    println!("IDS monitor at {rate} Mbit/s (filter + gzip-3 + headers to disk)\n");
    for spec in [MachineSpec::moorhen(), MachineSpec::snipe()] {
        let r = run_on(spec, &cycle, rate);
        let stats = pcapbench::capture::Pcap::stats(&r.apps[0], r.nic_ring_drops);
        println!("{}", r.machine);
        println!("  captured        : {:.2}%", r.capture_rate(0) * 100.0);
        println!("  kernel drops    : {}", stats.ps_drop);
        println!("  headers to disk : {:.1} MB", r.disk_bytes as f64 / 1e6);
        println!(
            "  cpu busy        : {:.0}%",
            pcapbench::profiling::trimmed_busy_percent(&r.samples, 95.0)
        );
        println!();
    }
    println!(
        "(thesis §6.3.4: compression-heavy analysis is where the 3 GHz Xeons\n\
          shine — \"the Intel processors seem to be much more efficient for the\n\
          special task of compression\" — while plain capture still belongs to\n\
          FreeBSD on Opteron)"
    );
}

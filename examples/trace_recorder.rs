//! A header-trace recorder: capture a workload, keep 76 bytes of every
//! packet (the thesis' Fig. 6.14 setting), and write a real pcap savefile
//! that any analysis tool can read back — then read it back ourselves and
//! rebuild the packet-size distribution with the `createDist` pipeline,
//! closing the loop the thesis' tooling describes (Appendix A.1).
//!
//! ```text
//! cargo run --release --example trace_recorder [-- /tmp/trace.pcap]
//! ```

use pcapbench::capture::Dumper;
use pcapbench::pcapfile::SizeHistogram;
use pcapbench::pktgen::{convert, DistConfig, InputKind, OutputKind};
use pcapbench::prelude::*;
use std::collections::HashMap;

fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("trace_recorder: cannot write '{path}': {e}");
    std::process::exit(1);
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/pcapbench_trace.pcap".to_string());
    // Open the savefile before simulating, so a path that cannot be
    // written fails at once.
    let file = std::fs::File::create(&path).unwrap_or_else(|e| cannot_write(&path, e));
    let snaplen = 76u32;
    let cycle = CycleConfig::mwn(50_000, 11);

    // Capture with per-packet recording enabled.
    let app = MeasurementApp::new()
        .snaplen(snaplen)
        .write_headers(snaplen)
        .record()
        .build();
    let sim = SimConfig {
        apps: vec![app],
        ..SimConfig::default()
    };
    let make_gen = || {
        let mut g = Generator::new(
            PktgenConfig {
                count: cycle.count,
                size: cycle.size.clone(),
                ..PktgenConfig::default()
            },
            TxModel::syskonnect(),
            cycle.seed,
        );
        g.set_target_rate(300.0, cycle.mean_frame);
        g.set_burstiness(cycle.burst);
        g
    };
    let report = MachineSim::new(MachineSpec::moorhen(), sim)
        .run_source(ChunkedGenerator::new(make_gen(), DEFAULT_CHUNK_PACKETS));
    println!(
        "captured {} of {} packets",
        report.apps[0].received, report.offered
    );

    // Regenerate the packet bytes (determinism: same seed, same stream),
    // keyed by stream position, which is a captured packet's `seq`, and
    // write the savefile.
    let index: HashMap<u64, pcapbench::wire::SimPacket> =
        (0..).zip(make_gen().map(|tp| tp.packet)).collect();
    let mut dumper = Dumper::new(file, snaplen, &index).unwrap_or_else(|e| cannot_write(&path, e));
    let written = dumper
        .dump_all(&report.apps[0].captured)
        .unwrap_or_else(|e| cannot_write(&path, e));
    dumper.finish().unwrap_or_else(|e| cannot_write(&path, e));
    println!("wrote {written} records to {path}");

    // Read it back: summarize sizes and emit the pktgen procfs commands —
    // exactly what `createDist -I trace -O procfs` does.
    let bytes = std::fs::read(&path).expect("read savefile back");
    let hist = SizeHistogram::from_pcap(&bytes).expect("parse savefile");
    println!(
        "re-read {} packets, {} distinct IP sizes, mean {:.1} bytes",
        hist.total(),
        hist.distinct_sizes(),
        hist.mean()
    );
    let procfs = convert(
        InputKind::Trace,
        &bytes,
        OutputKind::Procfs {
            surround_pgset: true,
        },
        &DistConfig::default(),
        ' ',
    )
    .expect("createDist conversion");
    println!("\nfirst pgset commands for the enhanced pktgen:");
    for line in procfs.lines().take(5) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", procfs.lines().count());
}

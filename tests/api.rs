//! Public-API integration: the workflows a downstream user follows, via
//! the façade crate's prelude.

use pcapbench::prelude::*;
use pcapbench::{bpf, pcapfile, pktgen, profiling, zdeflate};

/// The quickstart path: session → workload → machine → stats.
#[test]
fn end_to_end_capture_session() {
    let mut session = Pcap::open_live("em0", 96, true, 20);
    session
        .set_filter_expression("udp and dst port 9")
        .expect("filter compiles");
    session.set_record(true);

    let cycle = CycleConfig::mwn(25_000, 7);
    let mut generator = Generator::new(
        PktgenConfig {
            count: cycle.count,
            size: cycle.size.clone(),
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        cycle.seed,
    );
    generator.set_target_rate(300.0, cycle.mean_frame);

    let sim = SimConfig {
        apps: vec![session.app_config()],
        ..SimConfig::default()
    };
    let report = MachineSim::new(MachineSpec::moorhen(), sim)
        .run_source(ChunkedGenerator::new(generator, DEFAULT_CHUNK_PACKETS));

    let stats = Pcap::stats(&report.apps[0], report.nic_ring_drops);
    assert_eq!(stats.ps_recv, 25_000);
    assert_eq!(stats.ps_drop, 0);
    assert_eq!(report.apps[0].received, 25_000);

    // pcap_loop-style dispatch over recorded packets.
    let mut caplens = 0u64;
    let n = Pcap::dispatch(&report.apps[0], |p| caplens += p.caplen as u64);
    assert_eq!(n, 25_000);
    assert!(caplens <= 96 * 25_000);

    // The profiling pipeline runs over the report's samples.
    let busy = profiling::trimmed_busy_percent(&report.samples, 95.0);
    assert!((0.0..=100.0).contains(&busy));
}

/// The savefile round trip: generator → savefile → re-read and
/// summarize → two-stage distribution → pgset commands.
#[test]
fn trace_tooling_round_trip() {
    let cycle = CycleConfig::mwn(5_000, 3);
    let generator = Generator::new(
        PktgenConfig {
            count: cycle.count,
            size: cycle.size,
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        cycle.seed,
    );
    // Write a savefile straight from the generator.
    let mut w = pcapfile::PcapWriter::new(Vec::new(), 1514).unwrap();
    for tp in generator {
        w.write_packet(
            tp.time.as_nanos(),
            tp.packet.frame_len,
            &tp.packet.materialize(1514),
        )
        .unwrap();
    }
    let file = w.finish().unwrap();

    // Summarize sizes and rebuild a generator distribution from it.
    let hist = pcapfile::SizeHistogram::from_pcap(&file).unwrap();
    assert_eq!(hist.total(), 5_000);
    let procfs = pktgen::convert(
        pktgen::InputKind::Trace,
        &file,
        pktgen::OutputKind::Procfs {
            surround_pgset: false,
        },
        &pktgen::DistConfig::default(),
        ' ',
    )
    .unwrap();
    let mut ctl = PktgenControl::new();
    for line in procfs.lines() {
        ctl.pgset(line).unwrap();
    }
    assert!(ctl.pktsize_real());
}

/// BPF toolchain: expression → program → attach-time validation → the
/// `tcpdump -d` listing the thesis counts Fig. 6.5's 50 instructions in.
#[test]
fn bpf_toolchain_round_trip() {
    let expr = bpf::programs::fig65_expression();
    let prog = bpf::compile(&expr, 96).unwrap();
    assert_eq!(prog.len(), 50);
    bpf::validate(&prog).unwrap();
    let text = bpf::asm::disasm(&prog);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 50);
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("({i:03}) ")), "{line}");
    }
    assert!(lines[49].starts_with("(049) ret "), "{}", lines[49]);
}

/// Compression round trip through the capture-load substrate.
#[test]
fn compression_substrate() {
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 97) as u8).collect();
    for level in [0u8, 3, 9] {
        let mut gz = zdeflate::GzWriter::new(level);
        gz.write(&payload);
        let out = gz.finish();
        assert_eq!(zdeflate::gunzip(&out).unwrap(), payload, "level {level}");
    }
}

//! A tiny tcpdump: read a pcap savefile (or generate a demo capture),
//! apply a filter expression, print one line per matching packet — and,
//! with `-d`, dump the compiled BPF program exactly like `tcpdump -d`.
//!
//! ```text
//! cargo run --release --example tcpdump_sim -- 'udp and dst port 9'
//! cargo run --release --example tcpdump_sim -- -r trace.pcap 'ip src 192.168.10.100'
//! cargo run --release --example tcpdump_sim -- -d 'not tcp and ether[6:4]=0'
//! ```

use pcapbench::bpf::{asm, compile, vm};
use pcapbench::pcapfile::PcapReader;
use pcapbench::prelude::*;
use pcapbench::wire::{EtherType, EthernetFrame, Ipv4Header, PacketBytes, Protocol, UdpHeader};

/// A snaplen-truncated record, filtered the way `pcap_offline_filter`
/// does: `len` is the original wire length, loads beyond the captured
/// bytes fail (reject).
struct Snapped<'a> {
    data: &'a [u8],
    wire_len: u32,
}

impl PacketBytes for Snapped<'_> {
    fn len(&self) -> u32 {
        self.wire_len
    }
    fn byte(&self, offset: u32) -> Option<u8> {
        self.data.get(offset as usize).copied()
    }
}

fn describe(data: &[u8], orig_len: u32) -> String {
    let eth = match EthernetFrame::parse(data) {
        Ok(e) => e,
        Err(_) => return format!("[malformed frame, {orig_len} bytes]"),
    };
    match eth.ethertype() {
        EtherType::Ipv4 => match Ipv4Header::parse(eth.payload()) {
            Ok(ip) => {
                let l4 = &eth.payload()[20.min(eth.payload().len())..];
                match ip.protocol {
                    Protocol::Udp => match UdpHeader::parse(l4) {
                        Ok(u) => format!(
                            "IP {}.{} > {}.{}: UDP, length {}",
                            ip.src,
                            u.src_port,
                            ip.dst,
                            u.dst_port,
                            u.length.saturating_sub(8)
                        ),
                        Err(_) => format!("IP {} > {}: UDP [truncated]", ip.src, ip.dst),
                    },
                    Protocol::Tcp => format!("IP {} > {}: TCP", ip.src, ip.dst),
                    Protocol::Icmp => format!("IP {} > {}: ICMP", ip.src, ip.dst),
                    Protocol::Other(p) => format!("IP {} > {}: proto {p}", ip.src, ip.dst),
                }
            }
            Err(_) => "[malformed IPv4]".to_string(),
        },
        EtherType::Arp => "ARP".to_string(),
        EtherType::Ipv6 => "IP6".to_string(),
        EtherType::Other(t) => format!("ethertype {t:#06x}, length {orig_len}"),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("tcpdump_sim: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut read_file: Option<String> = None;
    let mut dump_only = false;
    let mut limit = 20usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-r" | "-c" if i + 1 == args.len() => {
                usage_error(&format!("{} needs an argument", args[i]))
            }
            "-r" => {
                read_file = Some(args.remove(i + 1));
                args.remove(i);
            }
            "-d" => {
                dump_only = true;
                args.remove(i);
            }
            "-c" => {
                let count = args.remove(i + 1);
                limit = count
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad -c count '{count}'")));
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    let expression = args.join(" ");

    let prog = compile(&expression, 65_535).unwrap_or_else(|e| {
        eprintln!("tcpdump_sim: {e}");
        std::process::exit(1);
    });
    if dump_only {
        // `tcpdump -d`: the compiled program, nothing else.
        println!("{}", asm::disasm(&prog));
        return;
    }

    // Obtain packets: from a savefile, or from a demo capture run.
    let records: Vec<(u64, Vec<u8>, u32)> = match &read_file {
        Some(path) => {
            let data = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("tcpdump_sim: cannot read {path}: {e}");
                std::process::exit(1);
            });
            PcapReader::new(&data)
                .and_then(|r| r.records())
                .unwrap_or_else(|e| {
                    eprintln!("tcpdump_sim: bad pcap: {e}");
                    std::process::exit(1);
                })
                .into_iter()
                .map(|r| (r.ts_ns, r.data, r.orig_len))
                .collect()
        }
        None => {
            // No file: sniff a simulated capture of the MWN-like workload.
            let cycle = CycleConfig::mwn(2_000, 7);
            let gen = Generator::new(
                PktgenConfig {
                    count: cycle.count,
                    size: cycle.size.clone(),
                    ..PktgenConfig::default()
                },
                TxModel::syskonnect(),
                cycle.seed,
            );
            gen.map(|tp| {
                (
                    tp.time.as_nanos(),
                    tp.packet.materialize(96),
                    tp.packet.frame_len,
                )
            })
            .collect()
        }
    };

    let mut matched = 0u64;
    let mut seen = 0u64;
    for (ts_ns, data, orig_len) in &records {
        seen += 1;
        let snapped = Snapped {
            data,
            wire_len: *orig_len,
        };
        let verdict = vm::run(&prog, &snapped).expect("validated program");
        if verdict.accepted() {
            matched += 1;
            if matched as usize <= limit {
                let secs = ts_ns / 1_000_000_000;
                let micros = (ts_ns % 1_000_000_000) / 1_000;
                println!("{secs}.{micros:06} {}", describe(data, *orig_len));
            }
        }
    }
    if matched as usize > limit {
        println!(
            "... ({} more matches suppressed; -c N to raise)",
            matched as usize - limit
        );
    }
    eprintln!("{seen} packets examined, {matched} matched filter \"{expression}\"");
}

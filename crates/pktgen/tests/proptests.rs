//! Property tests for the distribution machinery and the generator.

use pcs_des::Pcg32;
use pcs_pktgen::createdist::read_input;
use pcs_pktgen::{
    DistConfig, Generator, InputKind, PktgenConfig, PktgenControl, SizeSource, TwoStageDist,
    TxModel,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_counts() -> impl Strategy<Value = BTreeMap<u32, u64>> {
    proptest::collection::btree_map(40u32..=1500, 1u64..100_000, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Samples always stay within the representable size range.
    #[test]
    fn samples_in_range(counts in arb_counts(), seed in any::<u64>()) {
        let d = TwoStageDist::from_counts(
            counts.iter().map(|(&s, &c)| (s, c)),
            &DistConfig::default(),
        ).unwrap();
        let mut rng = Pcg32::new(seed, 3);
        for _ in 0..2_000 {
            let s = d.sample(&mut rng);
            prop_assert!((1..=1500).contains(&s), "sample {s}");
        }
    }

    /// Heavy outliers keep (approximately) their probability mass.
    #[test]
    fn outlier_mass_preserved(heavy_frac in 0.2f64..0.8, seed in any::<u64>()) {
        let heavy = (heavy_frac * 100_000.0) as u64;
        let rest = 100_000 - heavy;
        let mut counts = BTreeMap::new();
        counts.insert(1500u32, heavy);
        // Spread the rest thinly (below the outlier bound).
        for s in 100..1100u32 {
            counts.insert(s, rest / 1000);
        }
        let d = TwoStageDist::from_counts(
            counts.iter().map(|(&s, &c)| (s, c)),
            &DistConfig::default(),
        ).unwrap();
        let mut rng = Pcg32::new(seed, 5);
        let n = 30_000u32;
        let hits = (0..n).filter(|_| d.sample(&mut rng) == 1500).count();
        let measured = hits as f64 / n as f64;
        prop_assert!(
            (measured - heavy_frac).abs() < 0.05,
            "mass {heavy_frac} vs measured {measured}"
        );
    }

    /// The procfs entry serialization reproduces identical arrays.
    #[test]
    fn entries_roundtrip(counts in arb_counts()) {
        let d = TwoStageDist::from_counts(
            counts.iter().map(|(&s, &c)| (s, c)),
            &DistConfig::default(),
        ).unwrap();
        let d2 = TwoStageDist::from_entries(
            1000,
            d.binsize(),
            d.max_size(),
            &d.outlier_entries(),
            &d.bin_entries(),
        ).unwrap();
        let mut a = Pcg32::new(1, 1);
        let mut b = Pcg32::new(1, 1);
        for _ in 0..500 {
            prop_assert_eq!(d.sample(&mut a), d2.sample(&mut b));
        }
    }

    /// The full pgset command sequence emitted for any distribution is
    /// accepted by the control interface.
    #[test]
    fn rendered_commands_accepted(counts in arb_counts()) {
        let d = TwoStageDist::from_counts(
            counts.iter().map(|(&s, &c)| (s, c)),
            &DistConfig::default(),
        ).unwrap();
        let mut ctl = PktgenControl::new();
        for cmd in PktgenControl::render_dist_commands(&d, 1000) {
            ctl.pgset(&cmd).unwrap();
        }
        prop_assert!(ctl.pktsize_real());
    }

    /// Generator timestamps are strictly monotonic and the packet count
    /// is exact, for any configuration.
    #[test]
    fn generator_monotonic(count in 1u64..2_000, rate in 50f64..900.0, burst in 1u32..64, seed in any::<u64>()) {
        let cfg = PktgenConfig { count, ..PktgenConfig::default() };
        let mut g = Generator::new(cfg, TxModel::syskonnect(), seed);
        g.set_target_rate(rate, 659.0);
        g.set_burstiness(burst);
        let mut last = pcs_des::SimTime::ZERO;
        let mut n = 0u64;
        for tp in g {
            prop_assert!(tp.time > last, "timestamps must increase");
            last = tp.time;
            n += 1;
        }
        prop_assert_eq!(n, count);
    }

    /// Paced generation achieves (long-run) at most the wire limit and
    /// approximately the requested rate when feasible.
    #[test]
    fn pacing_rate_bounds(rate in 100f64..800.0, seed in any::<u64>()) {
        let cfg = PktgenConfig { count: 20_000, size: SizeSource::Fixed(1514), ..PktgenConfig::default() };
        let mut g = Generator::new(cfg, TxModel::syskonnect(), seed);
        g.set_target_rate(rate, 1514.0);
        let (bytes, last) = g.fold((0u64, pcs_des::SimTime::ZERO), |(bytes, _), tp| {
            (bytes + tp.packet.frame_len as u64, tp.time)
        });
        let achieved = bytes as f64 * 8.0 / last.as_secs_f64() / 1e6;
        prop_assert!(achieved <= 945.0, "over wire limit: {achieved}");
        prop_assert!((achieved - rate).abs() / rate < 0.05, "target {rate} achieved {achieved}");
    }
}

/// `pgset` tokens: every command and flag, numbers at and past the u32
/// and u64 limits, malformed numbers, well- and badly-formed IP and MAC
/// addresses, line breaks (one command per line), stray bytes, and whole
/// `dist`/`outl`/`hist` lines so that some scripts complete a
/// distribution.
#[rustfmt::skip]
const PGSET_VOCAB: &[&str] = &[
    "count", "delay", "pkt_size", "dst", "src_min", "dst_mac", "src_mac", "src_mac_count",
    "udp_src_port", "udp_dst_port", "dist", "outl", "hist", "flag", "PKTSIZE_REAL",
    "DIST_READY", "pgset", "0", "1", "2", "20", "40", "41", "42", "1000", "1500", "1514",
    "1515", "65535", "65536", "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616", "-1", "+1", "0x10", "1e3", "1.5", "10.0.0.1", "255.255.255.255",
    "256.0.0.1", "::1", "00:11:22:33:44:55", "ff:ff:ff:ff:ff:ff", "00:11:22:33:44",
    "gg:00:00:00:00:00", "\"", "'", "=", "#", "\t", "é", "\0", "\n", "\n",
    "\ndist 1000 20 1500 1 1\n", "\ndist 4294967295 20 1500 1 1\n", "\noutl 40 500\n",
    "\noutl 40 4294967295\n", "\nhist 0 500\n", "\nhist 0 4294967295\n",
    "\nflag PKTSIZE_REAL\n",
];

/// `createDist` input fragments: sizes and counts at and past the u32
/// and u64 limits, malformed numbers, field and line separators, pcap
/// magic numbers of both byte orders and resolutions, raw bytes that
/// are not UTF-8, and whole `<size> <count>` lines. The `u64::MAX` count
/// line is listed twice so that 1024 cases reach a total past `u64::MAX`.
#[rustfmt::skip]
const CREATEDIST_VOCAB: &[&[u8]] = &[
    b"0", b"1", b"40", b"1500", b"65535", b"4294967295", b"4294967296", b"18446744073709551616",
    b"-1", b"+7", b"1.5", b"0x28", b"1e9", b" ", b"\t", b",", b";", b":", b"\n", b"\r\n", b"#",
    b"size", b"count", &[0xd4, 0xc3, 0xb2, 0xa1], &[0xa1, 0xb2, 0xc3, 0xd4],
    &[0x4d, 0x3c, 0xb2, 0xa1], &[0, 0, 0, 0], &[0xff; 4], &[0xff], &[0xc3], "é".as_bytes(),
    b"18446744073709551615", b"40 600\n", b"52 1\n", b"1500 400\n", b"1500,400\n", b"576\t12\n",
    b"40 18446744073709551615\n", b"40 18446744073709551615\n",
];

proptest! {
    /// The control interface answers every line of a token soup with
    /// `Ok` or a typed error, never a panic, and one endpoint survives
    /// the whole script.
    #[test]
    fn pgset_never_panics_on_token_soup(ix in proptest::collection::vec(0..PGSET_VOCAB.len(), 0..64)) {
        let script = ix.iter().map(|&i| PGSET_VOCAB[i]).collect::<Vec<_>>().join(" ");
        let mut ctl = PktgenControl::new();
        for line in script.split('\n') {
            let _ = ctl.pgset(line);
        }
    }

    /// `read_input` answers a token soup with a histogram or a typed
    /// error in every input format and with every field separator,
    /// never a panic.
    #[test]
    fn read_input_never_panics_on_token_soup(ix in proptest::collection::vec(0..CREATEDIST_VOCAB.len(), 0..64)) {
        let data: Vec<u8> = ix.iter().flat_map(|&i| CREATEDIST_VOCAB[i].iter().copied()).collect();
        for kind in [InputKind::Sizes, InputKind::Dist, InputKind::Trace] {
            for sep in [' ', ',', '\t', ';'] {
                let _ = read_input(kind, &data, sep);
            }
        }
    }
}

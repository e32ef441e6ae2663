//! The packet generator proper: turns a [`PktgenConfig`] into a timed,
//! reproducible stream of [`SimPacket`]s.
//!
//! The generator models the `gen` machine of the testbed (§3.3): a dual
//! AMD Athlon MP with a Syskonnect SK-98xx fiber NIC. Its achievable rate
//! is limited by two things: the wire (1 Gbit/s plus per-frame overhead)
//! and a per-packet transmit cost covering the kernel/driver path — which
//! is what keeps real pktgen slightly below line speed (938 Mbit/s with
//! 1500-byte frames on the Syskonnect, §4.1.3) and is also why small
//! packets cannot saturate the link.

use crate::procfs::{PktgenConfig, SizeSource};
use pcs_des::{Pcg32, SimDuration, SimTime};
use pcs_wire::{ethernet, SimPacket};

/// Transmit-side limits of the generating machine + NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxModel {
    /// Link rate in bits per second.
    pub link_bps: u64,
    /// Fixed per-packet transmit cost (kernel + driver + DMA setup).
    pub per_packet_ns: u64,
}

impl TxModel {
    /// The Syskonnect SK-98xx on `gen`: reaches ~938 Mbit/s with
    /// 1500-byte frames.
    pub fn syskonnect() -> TxModel {
        TxModel {
            link_bps: 1_000_000_000,
            per_packet_ns: 600,
        }
    }

    /// A Netgear GA-series card: ~930 Mbit/s at 1500 bytes (§4.1.3).
    pub fn netgear() -> TxModel {
        TxModel {
            link_bps: 1_000_000_000,
            per_packet_ns: 711,
        }
    }

    /// The Intel 82544 cards: ~890 Mbit/s at 1500 bytes (§4.1.3).
    pub fn intel() -> TxModel {
        TxModel {
            link_bps: 1_000_000_000,
            per_packet_ns: 1291,
        }
    }

    /// Time the NIC needs to put a frame of `frame_len` bytes on the wire
    /// (including preamble/CRC/IFG overhead).
    pub fn wire_time(&self, frame_len: u32) -> SimDuration {
        let wire_bytes = ethernet::wire_bytes(frame_len as usize) as u64;
        SimDuration::for_bits(wire_bytes * 8, self.link_bps)
    }

    /// Minimum spacing between consecutive frames of the given size: the
    /// wire time plus the per-packet software/DMA cost (not overlapped —
    /// which is what keeps pktgen at 938 rather than 984 Mbit/s with
    /// 1500-byte frames).
    pub fn min_gap(&self, frame_len: u32) -> SimDuration {
        self.wire_time(frame_len) + SimDuration::from_nanos(self.per_packet_ns)
    }

    /// The achievable *frame* data rate in Mbit/s for fixed-size frames
    /// (frame bytes per second × 8, the way the thesis quotes rates).
    pub fn max_rate_mbps(&self, frame_len: u32) -> f64 {
        let gap = self.min_gap(frame_len).as_secs_f64();
        (frame_len as f64 * 8.0) / gap / 1e6
    }
}

/// One generated packet with its transmit timestamp. Its position in the
/// stream, counted from 0, is its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedPacket {
    /// Time the last bit leaves the generator.
    pub time: SimTime,
    /// The packet.
    pub packet: SimPacket,
}

/// The packet generator.
pub struct Generator {
    config: PktgenConfig,
    tx: TxModel,
    rng: Pcg32,
    /// Target gap enforced by rate pacing (None = as fast as possible).
    target_gap: Option<f64>,
    /// Mean packet-train length for bursty pacing (1 = evenly spaced).
    mean_burst: u32,
    /// Packets left in the current back-to-back train.
    burst_left: u32,
    /// The ideal (paced) cumulative schedule in nanoseconds.
    ideal_ns: f64,
    seq: u64,
    now: SimTime,
}

impl Generator {
    /// Create a generator. `seed` fully determines the packet stream
    /// (§3.2 "Reproducibility").
    pub fn new(config: PktgenConfig, tx: TxModel, seed: u64) -> Generator {
        Generator {
            config,
            tx,
            rng: Pcg32::new(seed, 0x9e37),
            target_gap: None,
            mean_burst: 1,
            burst_left: 0,
            ideal_ns: 0.0,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Emit packets in back-to-back trains of (geometrically distributed)
    /// mean length `mean_burst`, idling between trains so the long-run
    /// rate still matches the target. Models the burstiness of real
    /// traffic that the thesis' §2.5 discussion demands of any workload —
    /// "for every imaginable buffer size there will be a long enough
    /// burst … to completely consume the available buffer space".
    pub fn set_burstiness(&mut self, mean_burst: u32) {
        self.mean_burst = mean_burst.max(1);
    }

    /// Pace the generator to approximate `rate_mbps` of frame data
    /// (the thesis sweeps 50–950 Mbit/s). The per-packet gap is derived
    /// from the mean packet size of the distribution.
    pub fn set_target_rate(&mut self, rate_mbps: f64, mean_frame_len: f64) {
        assert!(rate_mbps > 0.0, "rate must be positive");
        // seconds per packet = bits per packet / bits per second
        self.target_gap = Some(mean_frame_len * 8.0 / (rate_mbps * 1e6));
    }

    /// Remove rate pacing (generate at the NIC's maximum).
    pub fn set_full_speed(&mut self) {
        self.target_gap = None;
    }

    /// The generator's configuration.
    pub fn config(&self) -> &PktgenConfig {
        &self.config
    }

    /// Packets still to generate: exactly how many more times
    /// [`Generator::next_packet`] returns a packet.
    pub(crate) fn remaining(&self) -> u64 {
        self.config.count - self.seq
    }

    fn next_size(&mut self) -> u32 {
        match &self.config.size {
            SizeSource::Fixed(n) => *n,
            SizeSource::Distribution(d) => {
                // The distribution speaks IP total lengths; frames carry a
                // 14-byte Ethernet header on top, and at least the
                // 42 bytes of headers.
                let ip_len = d.sample(&mut self.rng);
                (ip_len + ethernet::HEADER_LEN as u32).max(42)
            }
        }
    }

    /// Generate the next packet, or `None` once `count` is reached.
    pub fn next_packet(&mut self) -> Option<TimedPacket> {
        if self.seq >= self.config.count {
            return None;
        }
        let size = self.next_size();
        // Spacing: the NIC's physical minimum, any configured delay, and
        // rate pacing, whichever is largest.
        let mut gap = self.tx.min_gap(size);
        if self.config.delay_ns > 0 {
            let d = SimDuration::from_nanos(self.config.delay_ns);
            if d > gap {
                gap = d;
            }
        }
        if let Some(target) = self.target_gap {
            // Ideal cumulative schedule: one packet every `target`
            // seconds. Packets never launch before their train's ideal
            // slot, but a wire-limited stream is allowed to fall behind
            // and catch up later (token-bucket semantics), so the long-run
            // rate matches the target whenever the wire permits it.
            self.ideal_ns += target * 1e9;
            let start_of_train = if self.mean_burst <= 1 {
                true
            } else if self.burst_left > 0 {
                self.burst_left -= 1;
                false
            } else {
                // Geometric train length with the configured mean.
                let p = 1.0 / self.mean_burst as f64;
                let u = self.rng.gen_f64().max(1e-12);
                let train = (u.ln() / (1.0 - p).max(1e-12).ln()).ceil() as u32;
                self.burst_left = train.clamp(1, 16 * self.mean_burst) - 1;
                true
            };
            let earliest = self.now + gap;
            if start_of_train && self.ideal_ns > earliest.as_nanos() as f64 {
                self.now = SimTime::from_nanos(self.ideal_ns as u64);
            } else {
                self.now = earliest;
            }
        } else {
            self.now += gap;
        }

        let src_mac = self
            .config
            .src_mac
            .offset(self.seq % self.config.src_mac_count.max(1));
        let packet = SimPacket::build_udp(
            self.seq,
            self.now.as_nanos(),
            size,
            src_mac,
            self.config.dst_mac,
            self.config.src_ip,
            self.config.dst_ip,
            self.config.udp_src_port,
            self.config.udp_dst_port,
        );
        self.seq += 1;
        Some(TimedPacket {
            time: self.now,
            packet,
        })
    }
}

impl Iterator for Generator {
    type Item = TimedPacket;

    fn next(&mut self) -> Option<TimedPacket> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DistConfig, TwoStageDist};
    use crate::procfs::PktgenControl;

    fn small_config(count: u64) -> PktgenConfig {
        PktgenConfig {
            count,
            ..PktgenConfig::default()
        }
    }

    #[test]
    fn fixed_size_full_speed_hits_thesis_rates() {
        // §4.1.3: ~938 Mbit/s Syskonnect, ~930 Netgear, ~890 Intel with
        // 1500-byte packets.
        for (tx, lo, hi) in [
            (TxModel::syskonnect(), 933.0, 943.0),
            (TxModel::netgear(), 925.0, 935.0),
            (TxModel::intel(), 885.0, 895.0),
        ] {
            let rate = tx.max_rate_mbps(1500);
            assert!((lo..hi).contains(&rate), "rate {rate} outside [{lo},{hi})");
        }
    }

    #[test]
    fn small_packets_cannot_reach_line_speed() {
        let tx = TxModel::syskonnect();
        let rate = tx.max_rate_mbps(64);
        assert!(
            rate < 600.0,
            "64-byte frames should be per-packet limited, got {rate}"
        );
    }

    #[test]
    fn generates_exactly_count_packets() {
        let mut g = Generator::new(small_config(1000), TxModel::syskonnect(), 1);
        let mut n = 0;
        while g.next_packet().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let g = Generator::new(small_config(2000), TxModel::syskonnect(), 7);
        let mut last = SimTime::ZERO;
        for tp in g {
            assert!(tp.time > last);
            last = tp.time;
        }
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let mk = || {
            let mut c = PktgenControl::new();
            for cmd in PktgenControl::render_dist_commands(
                &TwoStageDist::from_counts(
                    vec![(40u32, 500u64), (1500, 300), (600, 200)],
                    &DistConfig::default(),
                )
                .unwrap(),
                1000,
            ) {
                c.pgset(&cmd).unwrap();
            }
            c.pgset("count 500").unwrap();
            Generator::new(c.config, TxModel::syskonnect(), 99)
        };
        let a: Vec<_> = mk().collect();
        let b: Vec<_> = mk().collect();
        assert_eq!(a, b);
        // Different seed differs.
        let mut c = mk();
        c.rng = Pcg32::new(100, 0x9e37);
        let d: Vec<_> = c.collect();
        assert_ne!(a, d);
    }

    #[test]
    fn rate_pacing_approximates_target() {
        let mut g = Generator::new(small_config(50_000), TxModel::syskonnect(), 3);
        g.set_target_rate(200.0, 1500.0);
        // The drawn packets' frame bytes over the last packet's time.
        let (bytes, last) = g.fold((0u64, SimTime::ZERO), |(bytes, _), tp| {
            (bytes + tp.packet.frame_len as u64, tp.time)
        });
        let rate = bytes as f64 * 8.0 / last.as_secs_f64() / 1e6;
        assert!((rate - 200.0).abs() < 10.0, "achieved {rate} Mbit/s");
    }

    #[test]
    fn timed_packet_stays_small() {
        // Every stream and the stream cache hold one of these per packet.
        assert_eq!(std::mem::size_of::<TimedPacket>(), 80);
    }

    #[test]
    fn source_macs_cycle() {
        let g = Generator::new(small_config(9), TxModel::syskonnect(), 5);
        let macs: Vec<_> = g
            .map(|tp| {
                pcs_wire::EthernetFrame::parse(tp.packet.stored_bytes())
                    .unwrap()
                    .src()
            })
            .collect();
        assert_eq!(macs[0], pcs_wire::MacAddr::ZERO);
        assert_eq!(macs[1], pcs_wire::MacAddr::ZERO.offset(1));
        assert_eq!(macs[2], pcs_wire::MacAddr::ZERO.offset(2));
        assert_eq!(macs[3], pcs_wire::MacAddr::ZERO);
        assert_eq!(macs[8], pcs_wire::MacAddr::ZERO.offset(2));
    }

    #[test]
    fn distribution_sizes_include_ethernet_header() {
        let mut c = PktgenControl::new();
        c.pgset("dist 1000 20 1500 1 1").unwrap();
        c.pgset("outl 1500 900").unwrap();
        c.pgset("hist 100 100").unwrap();
        c.pgset("flag PKTSIZE_REAL").unwrap();
        c.pgset("count 100").unwrap();
        let g = Generator::new(c.config, TxModel::syskonnect(), 11);
        for tp in g {
            // IP length 1500 -> frame 1514; bins around 100 -> ~114-134.
            assert!(tp.packet.frame_len == 1514 || tp.packet.frame_len < 200);
        }
    }

    #[test]
    fn configured_delay_slows_generation() {
        let mut cfg = small_config(1000);
        cfg.delay_ns = 1_000_000; // 1 ms per packet
        let g = Generator::new(cfg, TxModel::syskonnect(), 2);
        let last = g.last().expect("1000 packets").time;
        assert!(last.since(SimTime::ZERO) >= SimDuration::from_millis(999));
    }
}

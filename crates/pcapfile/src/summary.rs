//! Trace summarization: counting packets by size, the way the thesis'
//! `createDist` tool does it with `ipsumdump` / its own fast C reader
//! (§4.2.1). Only IPv4 packets are counted and the *IP total length* is
//! used (matching `createDist`'s callback, Appendix A.1.2, which discards
//! non-IP packets).

use pcs_wire::{EtherType, EthernetFrame, Ipv4Header};
use std::collections::BTreeMap;

/// A histogram of packet sizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
    non_ip: u64,
}

impl SizeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one packet of the given size.
    pub fn add(&mut self, size: u32) {
        *self.counts.entry(size).or_insert(0) += 1;
        self.total += 1;
    }

    /// Count a raw Ethernet frame: parses the headers and counts the IP
    /// total length; non-IP frames are tallied separately and otherwise
    /// ignored.
    pub fn add_frame(&mut self, frame: &[u8]) {
        let parsed = EthernetFrame::parse(frame)
            .ok()
            .filter(|eth| eth.ethertype() == EtherType::Ipv4)
            .and_then(|eth| Ipv4Header::parse(eth.payload()).ok());
        match parsed {
            Some(ip) => self.add(ip.total_len as u32),
            None => self.non_ip += 1,
        }
    }

    /// Total IPv4 packets counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames that were not parseable IPv4 and were skipped.
    pub fn non_ip(&self) -> u64 {
        self.non_ip
    }

    /// Iterate `(size, count)` in ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// The count for one exact size.
    pub fn count(&self, size: u32) -> u64 {
        self.counts.get(&size).copied().unwrap_or(0)
    }

    /// Number of distinct sizes seen.
    pub fn distinct_sizes(&self) -> usize {
        self.counts.len()
    }

    /// Mean packet size (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .counts
            .iter()
            .map(|(&s, &c)| s as u128 * c as u128)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The serialized `dist` format of `createDist`:
    /// one `<size><sep><count>` line per size.
    pub fn to_dist_format(&self, sep: char) -> String {
        let mut out = String::new();
        for (s, c) in self.iter() {
            out.push_str(&format!("{s}{sep}{c}\n"));
        }
        out
    }

    /// Parse the `dist` format back (`<size><sep><count>` lines).
    pub fn from_dist_format(text: &str, sep: char) -> Result<SizeHistogram, String> {
        let mut h = SizeHistogram::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(2, sep);
            let size: u32 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing size", ln + 1))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad size: {e}", ln + 1))?;
            let count: u64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing count", ln + 1))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad count: {e}", ln + 1))?;
            // The total bounds every per-size count, so checking it alone
            // rules out overflow in both.
            h.total = h
                .total
                .checked_add(count)
                .ok_or_else(|| format!("line {}: total count exceeds u64", ln + 1))?;
            *h.counts.entry(size).or_insert(0) += count;
        }
        Ok(h)
    }

    /// Build from a pcap byte buffer, counting every parseable IPv4 record.
    pub fn from_pcap(data: &[u8]) -> Result<SizeHistogram, crate::PcapError> {
        let mut reader = crate::PcapReader::new(data)?;
        let mut h = SizeHistogram::new();
        while let Some(rec) = reader.next_record()? {
            h.add_frame(&rec.data);
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcapWriter;
    use pcs_wire::{MacAddr, SimPacket};
    use std::net::Ipv4Addr;

    fn frame(len: u32) -> Vec<u8> {
        SimPacket::build_udp(
            0,
            0,
            len,
            MacAddr::ZERO,
            MacAddr::BROADCAST,
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            9,
            9,
        )
        .materialize(len)
    }

    #[test]
    fn counts_ip_total_length() {
        let mut h = SizeHistogram::new();
        h.add_frame(&frame(60));
        h.add_frame(&frame(60));
        h.add_frame(&frame(1514));
        assert_eq!(h.total(), 3);
        // IP total length = frame - 14.
        assert_eq!(h.count(46), 2);
        assert_eq!(h.count(1500), 1);
        assert_eq!(h.distinct_sizes(), 2);
    }

    #[test]
    fn skips_non_ip() {
        let mut h = SizeHistogram::new();
        let mut arp = frame(60);
        arp[12] = 0x08;
        arp[13] = 0x06;
        h.add_frame(&arp);
        h.add_frame(&[0u8; 5]); // unparseable
        assert_eq!(h.total(), 0);
        assert_eq!(h.non_ip(), 2);
    }

    #[test]
    fn mean_weights_sizes_by_count() {
        let mut h = SizeHistogram::new();
        for _ in 0..6 {
            h.add(40);
        }
        for _ in 0..3 {
            h.add(1500);
        }
        h.add(576);
        assert!((h.mean() - (6.0 * 40.0 + 3.0 * 1500.0 + 576.0) / 10.0).abs() < 1e-9);
    }

    #[test]
    fn dist_format_roundtrip() {
        let mut h = SizeHistogram::new();
        h.add(40);
        h.add(40);
        h.add(1500);
        let text = h.to_dist_format(' ');
        assert_eq!(text, "40 2\n1500 1\n");
        let back = SizeHistogram::from_dist_format(&text, ' ').unwrap();
        assert_eq!(back, h);
        // Alternate separator.
        let back = SizeHistogram::from_dist_format("40:2\n1500:1", ':').unwrap();
        assert_eq!(back.count(40), 2);
        assert!(SizeHistogram::from_dist_format("garbage", ' ').is_err());
        // Counts summing past u64 are a typed error, not an overflow.
        let e = SizeHistogram::from_dist_format("40 18446744073709551615\n52 1\n", ' ');
        assert!(e.unwrap_err().starts_with("line 2:"));
    }

    #[test]
    fn from_pcap_counts_records() {
        let mut w = PcapWriter::new(Vec::new(), 65535).unwrap();
        for len in [60u32, 60, 576, 1514] {
            let f = frame(len);
            w.write_packet(0, len, &f).unwrap();
        }
        let file = w.finish().unwrap();
        let h = SizeHistogram::from_pcap(&file).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(46), 2);
        assert_eq!(h.count(562), 1);
        assert_eq!(h.count(1500), 1);
    }
}

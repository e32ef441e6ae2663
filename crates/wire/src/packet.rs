//! The packet representation that flows through the simulated testbed.
//!
//! A full Gigabit run moves 10⁶ packets per measurement point; materializing
//! every payload byte would cost gigabytes per sweep. [`SimPacket`] instead
//! stores the *real* bytes of the headers (Ethernet + IPv4 + UDP + the
//! pktgen payload stamp — everything any BPF filter in the evaluation ever
//! inspects) in a fixed inline array, and represents the rest of the payload
//! virtually as zero bytes. The [`PacketBytes`] trait gives the BPF virtual
//! machine a uniform view over simulated packets and real byte buffers
//! (e.g. packets read from pcap savefiles).

use crate::ethernet::{self, EtherType};
use crate::ipv4::{self, Ipv4Header, Protocol};
use crate::mac::MacAddr;
use crate::udp::{self, UdpHeader};
use std::net::Ipv4Addr;

/// Number of leading frame bytes stored verbatim in a [`SimPacket`].
pub const STORED_HEADER_LEN: usize = 64;

/// Magic number marking pktgen-generated payloads (the value used by the
/// real Linux Kernel Packet Generator).
pub const PKTGEN_MAGIC: u32 = 0xbe9b_e955;

/// Byte-level read access for filter evaluation.
///
/// Reads beyond the packet length fail (return `None`), matching BPF
/// semantics where an out-of-bounds load aborts the program with "reject".
pub trait PacketBytes {
    /// Total length of the packet in bytes.
    fn len(&self) -> u32;

    /// True for a zero-length packet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte at `offset`, or `None` past the end.
    fn byte(&self, offset: u32) -> Option<u8>;

    /// Big-endian 16-bit load.
    fn half_word(&self, offset: u32) -> Option<u16> {
        let hi = self.byte(offset)?;
        let lo = self.byte(offset.checked_add(1)?)?;
        Some(u16::from_be_bytes([hi, lo]))
    }

    /// Big-endian 32-bit load.
    fn word(&self, offset: u32) -> Option<u32> {
        let b0 = self.byte(offset)?;
        let b1 = self.byte(offset.checked_add(1)?)?;
        let b2 = self.byte(offset.checked_add(2)?)?;
        let b3 = self.byte(offset.checked_add(3)?)?;
        Some(u32::from_be_bytes([b0, b1, b2, b3]))
    }
}

impl PacketBytes for &[u8] {
    fn len(&self) -> u32 {
        (**self).len() as u32
    }

    fn byte(&self, offset: u32) -> Option<u8> {
        (**self).get(offset as usize).copied()
    }
}

/// A packet inside the simulation: real header bytes, virtual payload.
/// Its identity and send time are its stream position and timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPacket {
    /// Full frame length in bytes (Ethernet header to end of payload,
    /// excluding CRC), as captured.
    pub frame_len: u32,
    /// The first [`STORED_HEADER_LEN`] bytes of the frame (zero padded when
    /// the frame is shorter).
    pub header: [u8; STORED_HEADER_LEN],
    /// Number of valid bytes in `header`.
    pub header_len: u8,
}

impl SimPacket {
    /// Construct a pktgen-style UDP-in-IPv4-in-Ethernet packet of
    /// `frame_len` total bytes. The payload carries the pktgen magic,
    /// sequence number and timestamp, exactly like the real generator.
    ///
    /// # Panics
    /// Panics when `frame_len` cannot hold the three headers (42 bytes).
    #[allow(clippy::too_many_arguments)]
    pub fn build_udp(
        seq: u64,
        gen_ns: u64,
        frame_len: u32,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
    ) -> SimPacket {
        let min = (ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN) as u32;
        assert!(
            frame_len >= min,
            "frame_len {frame_len} cannot hold headers ({min})"
        );
        let mut header = [0u8; STORED_HEADER_LEN];
        let mut at = ethernet::emit_header(&mut header, dst_mac, src_mac, EtherType::Ipv4);

        let ip_total = frame_len as usize - ethernet::HEADER_LEN;
        let ip = Ipv4Header {
            src: src_ip,
            dst: dst_ip,
            protocol: Protocol::Udp,
            total_len: ip_total as u16,
            ttl: 32,
            ident: (seq & 0xffff) as u16,
        };
        at += ip.emit(&mut header[at..]);

        let udp_len = ip_total - ipv4::HEADER_LEN;
        // pktgen stamp: magic + sequence + timestamp. It is part of the UDP
        // payload; the checksum is left zero like the real pktgen does.
        let mut stamp = [0u8; 20];
        stamp[0..4].copy_from_slice(&PKTGEN_MAGIC.to_be_bytes());
        stamp[4..12].copy_from_slice(&seq.to_be_bytes());
        stamp[12..20].copy_from_slice(&gen_ns.to_be_bytes());
        let payload_in_header = (udp_len - udp::HEADER_LEN).min(stamp.len());

        let uh = UdpHeader {
            src_port,
            dst_port,
            length: udp_len as u16,
        };
        // Zero checksum: pktgen does not compute UDP checksums.
        header[at..at + 2].copy_from_slice(&uh.src_port.to_be_bytes());
        header[at + 2..at + 4].copy_from_slice(&uh.dst_port.to_be_bytes());
        header[at + 4..at + 6].copy_from_slice(&uh.length.to_be_bytes());
        header[at + 6..at + 8].fill(0);
        at += udp::HEADER_LEN;

        let stamp_end = (at + payload_in_header).min(STORED_HEADER_LEN);
        let n = stamp_end - at;
        header[at..stamp_end].copy_from_slice(&stamp[..n]);
        at = stamp_end;

        SimPacket {
            frame_len,
            header,
            header_len: at.min(frame_len as usize) as u8,
        }
    }

    /// Parse the IPv4 header, if this is an IPv4 frame.
    pub fn ipv4(&self) -> Option<Ipv4Header> {
        let eth = ethernet::EthernetFrame::parse(self.stored_bytes()).ok()?;
        if eth.ethertype() != EtherType::Ipv4 {
            return None;
        }
        Ipv4Header::parse(eth.payload()).ok()
    }

    /// The stored (real) prefix of the frame.
    pub fn stored_bytes(&self) -> &[u8] {
        &self.header[..self.header_len as usize]
    }

    /// Wire occupancy of this frame in bytes (with preamble, CRC, IFG).
    pub fn wire_bytes(&self) -> u32 {
        ethernet::wire_bytes(self.frame_len as usize) as u32
    }

    /// Copy up to `snaplen` bytes of the packet into a real byte vector
    /// (payload bytes beyond the stored header materialize as zeros).
    /// Used when writing captured packets to savefiles.
    pub fn materialize(&self, snaplen: u32) -> Vec<u8> {
        let n = self.frame_len.min(snaplen) as usize;
        let mut out = vec![0u8; n];
        let stored = self.stored_bytes();
        let k = stored.len().min(n);
        out[..k].copy_from_slice(&stored[..k]);
        out
    }
}

impl PacketBytes for SimPacket {
    fn len(&self) -> u32 {
        self.frame_len
    }

    fn byte(&self, offset: u32) -> Option<u8> {
        if offset >= self.frame_len {
            None
        } else if (offset as usize) < self.header_len as usize {
            Some(self.header[offset as usize])
        } else {
            Some(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: u32) -> SimPacket {
        SimPacket::build_udp(
            7,
            123_456,
            len,
            MacAddr::ZERO,
            MacAddr::BROADCAST,
            Ipv4Addr::new(192, 168, 10, 100),
            Ipv4Addr::new(192, 168, 10, 12),
            9,
            9,
        )
    }

    #[test]
    fn builds_parseable_headers() {
        let p = pkt(1500);
        let eth = ethernet::EthernetFrame::parse(p.stored_bytes()).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        assert_eq!(eth.src(), MacAddr::ZERO);
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.protocol, Protocol::Udp);
        assert_eq!(ip.total_len, 1500 - 14);
        assert_eq!(ip.src, Ipv4Addr::new(192, 168, 10, 100));
        let uh = UdpHeader::parse(&p.stored_bytes()[34..]).unwrap();
        assert_eq!(uh.length, 1500 - 14 - 20);
        assert_eq!(uh.dst_port, 9);
    }

    #[test]
    fn pktgen_stamp_present() {
        let p = pkt(1500);
        let payload_off = 42;
        assert_eq!(p.word(payload_off), Some(PKTGEN_MAGIC));
        // Sequence number at offset 46..54.
        let hi = p.word(payload_off + 4).unwrap() as u64;
        let lo = p.word(payload_off + 8).unwrap() as u64;
        assert_eq!((hi << 32) | lo, 7);
    }

    #[test]
    fn virtual_payload_is_zero_and_bounded() {
        let p = pkt(1500);
        assert_eq!(p.byte(1000), Some(0));
        assert_eq!(p.byte(1499), Some(0));
        assert_eq!(p.byte(1500), None);
        assert_eq!(p.word(1498), None); // crosses the end
        assert_eq!(PacketBytes::len(&p), 1500);
    }

    #[test]
    fn small_packets_truncate_stored_region() {
        let p = pkt(60);
        assert_eq!(p.header_len as usize, 60);
        // Byte 59 falls inside the pktgen timestamp stamp — it is stored
        // verbatim, not virtual padding.
        assert_eq!(p.byte(59), Some(p.header[59]));
        assert_eq!(p.byte(60), None);
    }

    #[test]
    fn minimum_frame_asserts() {
        let r = std::panic::catch_unwind(|| pkt(41));
        assert!(r.is_err());
        let _ = pkt(42);
    }

    #[test]
    fn materialize_respects_snaplen() {
        let p = pkt(1500);
        let m = p.materialize(76);
        assert_eq!(m.len(), 76);
        assert_eq!(&m[..p.header_len as usize], p.stored_bytes());
        let full = p.materialize(10_000);
        assert_eq!(full.len(), 1500);
    }

    #[test]
    fn slice_packetbytes_impl() {
        let data: &[u8] = &[1, 2, 3, 4, 5];
        assert_eq!(PacketBytes::len(&data), 5);
        assert_eq!(data.byte(0), Some(1));
        assert_eq!(data.byte(5), None);
        assert_eq!(data.half_word(1), Some(0x0203));
        assert_eq!(data.word(1), Some(0x0203_0405));
        assert_eq!(data.word(2), None);
    }
}

//! Ethernet MAC addresses.

use core::fmt;
use core::str::FromStr;

/// A 48-bit Ethernet hardware address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used by the thesis' generated traffic as the
    /// base of the cycled source addresses (§6.3.2).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Build from the six octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        MacAddr([a, b, c, d, e, f])
    }

    /// The address obtained by adding `n` to the numeric value of this
    /// address (wrapping). pktgen uses this to cycle source MACs between a
    /// base address and base+count (the thesis cycles 00:...:00 through
    /// 00:...:02).
    pub fn offset(&self, n: u64) -> MacAddr {
        let mut v = 0u64;
        for &b in &self.0 {
            v = (v << 8) | b as u64;
        }
        v = v.wrapping_add(n) & 0xffff_ffff_ffff;
        let mut out = [0u8; 6];
        for i in (0..6).rev() {
            out[i] = (v & 0xff) as u8;
            v >>= 8;
        }
        MacAddr(out)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error produced when parsing a malformed MAC address string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError(pub String);

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {}", self.0)
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in out.iter_mut() {
            let part = parts.next().ok_or_else(|| ParseMacError(s.into()))?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseMacError(s.into()))?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError(s.into()));
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip() {
        let m = MacAddr::new(0x00, 0x0e, 0x0c, 0x01, 0x02, 0x03);
        assert_eq!(m.to_string(), "00:0e:0c:01:02:03");
        assert_eq!("00:0e:0c:01:02:03".parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_errors() {
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("zz:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn offset_cycles() {
        let base = MacAddr::ZERO;
        assert_eq!(base.offset(1), MacAddr::new(0, 0, 0, 0, 0, 1));
        assert_eq!(base.offset(0x100), MacAddr::new(0, 0, 0, 0, 1, 0));
        // Wraps within 48 bits.
        assert_eq!(MacAddr::BROADCAST.offset(1), MacAddr::ZERO);
    }
}

//! The monitoring switch (a Cisco C3500XL in the thesis, §3.3) with its
//! SNMP packet counters and VLAN separation.
//!
//! The generator feeds port Gi0/6; the splitter hangs off a monitor port;
//! the control host reads the interface counters over SNMP before and
//! after each generation run to verify that every generated packet really
//! went out on the fiber (the requirement of §3.2).

use pcs_wire::SimPacket;

/// The data VLAN's input port, Gi0/6, fed by the generator.
const IN_PORT: u16 = 6;
/// Its mirror port, Gi0/8, toward the splitter.
const MIRROR_PORT: u16 = 8;

/// Interface counters, SNMP IF-MIB style.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfCounters {
    /// ifInUcastPkts.
    pub in_pkts: u64,
    /// ifInOctets.
    pub in_octets: u64,
    /// ifOutUcastPkts.
    pub out_pkts: u64,
    /// ifOutOctets.
    pub out_octets: u64,
}

/// The measurement switch: one input port (from `gen`), one mirrored
/// output port (to the splitter), VLAN-isolated from the control traffic.
#[derive(Debug, Clone, Default)]
pub struct MonitorSwitch {
    input: IfCounters,
    mirror: IfCounters,
}

impl MonitorSwitch {
    /// A switch with the thesis' configuration: data in on Gi0/6,
    /// mirrored out on Gi0/8 toward the splitter (VLAN 101).
    pub fn thesis_setup() -> MonitorSwitch {
        MonitorSwitch::default()
    }

    /// Account one frame passing from the generator to the splitter.
    pub fn forward(&mut self, pkt: &SimPacket) {
        let octets = pkt.frame_len as u64;
        self.input.in_pkts += 1;
        self.input.in_octets += octets;
        self.mirror.out_pkts += 1;
        self.mirror.out_octets += octets;
    }

    /// SNMP read of one port's counters (the control host's step 2/4 in
    /// the measurement cycle, Fig. 3.2); a port outside the data VLAN
    /// reads zero.
    pub fn snmp_read(&self, port: u16) -> IfCounters {
        match port {
            IN_PORT => self.input,
            MIRROR_PORT => self.mirror,
            _ => IfCounters::default(),
        }
    }

    /// Difference of two reads: packets seen between them.
    pub fn delta(before: &IfCounters, after: &IfCounters) -> IfCounters {
        IfCounters {
            in_pkts: after.in_pkts - before.in_pkts,
            in_octets: after.in_octets - before.in_octets,
            out_pkts: after.out_pkts - before.out_pkts,
            out_octets: after.out_octets - before.out_octets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_wire::MacAddr;
    use std::net::Ipv4Addr;

    fn pkt(len: u32) -> SimPacket {
        SimPacket::build_udp(
            0,
            0,
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
    fn counters_track_forwarded_frames() {
        let mut s = MonitorSwitch::thesis_setup();
        let before_in = s.snmp_read(6);
        let before_out = s.snmp_read(8);
        for _ in 0..10 {
            s.forward(&pkt(100));
        }
        let din = MonitorSwitch::delta(&before_in, &s.snmp_read(6));
        let dout = MonitorSwitch::delta(&before_out, &s.snmp_read(8));
        assert_eq!(din.in_pkts, 10);
        assert_eq!(din.in_octets, 1000);
        assert_eq!(dout.out_pkts, 10);
        assert_eq!(dout.out_octets, 1000);
    }

    #[test]
    fn unknown_port_reads_zero() {
        let s = MonitorSwitch::thesis_setup();
        assert_eq!(s.snmp_read(99), IfCounters::default());
    }
}

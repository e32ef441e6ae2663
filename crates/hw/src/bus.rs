//! I/O bus models (PCI variants).
//!
//! §2.2.3: "even the PCI bus can be the bottleneck in a fully utilized
//! Gigabit Ethernet environment" — standard PCI's theoretical 133 MB/s is
//! shared between devices and protocol overhead, which is why the testbed
//! machines use PCI-64. The bus model tracks the aggregate byte rate of
//! its devices (NIC DMA plus disk I/O) and reports whether demand exceeds
//! supply.

use serde::{Deserialize, Serialize};

/// PCI flavours of the era.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PciKind {
    /// 32-bit / 33 MHz: 133 MB/s theoretical.
    Pci32,
    /// 64-bit / 66 MHz: 533 MB/s theoretical.
    Pci64,
    /// PCI-X 64-bit / 133 MHz: 1066 MB/s theoretical.
    PciX,
}

/// A PCI bus with an efficiency-derated usable bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PciBus {
    /// Flavour.
    pub kind: PciKind,
    /// Fraction of theoretical bandwidth that is actually usable
    /// (arbitration, burst setup; ~0.7 for PCI of the era).
    pub efficiency: f64,
}

impl PciBus {
    /// Construct with the standard efficiency derating.
    pub fn new(kind: PciKind) -> PciBus {
        PciBus {
            kind,
            efficiency: 0.7,
        }
    }

    /// Theoretical peak in bytes/second.
    pub fn theoretical_bytes_per_sec(&self) -> u64 {
        match self.kind {
            PciKind::Pci32 => 133_000_000,
            PciKind::Pci64 => 533_000_000,
            PciKind::PciX => 1_066_000_000,
        }
    }

    /// Usable bandwidth in bytes/second.
    pub fn usable_bytes_per_sec(&self) -> u64 {
        (self.theoretical_bytes_per_sec() as f64 * self.efficiency) as u64
    }

    /// Given aggregate demand from all attached devices, the fraction of
    /// each device's transfer that actually goes through (1.0 = no
    /// saturation). The NIC model uses this to overflow its FIFO.
    pub fn service_fraction(&self, demand_bytes_per_sec: u64) -> f64 {
        let cap = self.usable_bytes_per_sec();
        if demand_bytes_per_sec <= cap {
            1.0
        } else {
            cap as f64 / demand_bytes_per_sec as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pci32_cannot_sustain_gigabit_with_overheads() {
        // Gigabit line rate is 125 MB/s of frame data; usable PCI32 is
        // ~93 MB/s -> saturation.
        let bus = PciBus::new(PciKind::Pci32);
        assert!(bus.usable_bytes_per_sec() < 125_000_000);
        assert!(bus.service_fraction(125_000_000) < 1.0);
    }

    #[test]
    fn pci64_sustains_gigabit() {
        let bus = PciBus::new(PciKind::Pci64);
        assert!(bus.usable_bytes_per_sec() > 125_000_000);
        assert_eq!(bus.service_fraction(125_000_000), 1.0);
        // Even with a disk writing 50 MB/s alongside.
        assert_eq!(bus.service_fraction(175_000_000), 1.0);
    }

    #[test]
    fn service_fraction_degrades_proportionally() {
        let bus = PciBus::new(PciKind::Pci32);
        let cap = bus.usable_bytes_per_sec();
        let f = bus.service_fraction(cap * 2);
        assert!((f - 0.5).abs() < 0.01);
    }
}

//! CPU models: Intel Xeon (Netburst) vs AMD Opteron (K8).
//!
//! The two architectures the thesis purchased (Fig. 2.4): dual Intel Xeon
//! 3.06 GHz (512 kB L2, shared front-side bus, Hyperthreading-capable) and
//! dual AMD Opteron 244 at 1.8 GHz (1 MB L2, per-CPU memory controllers,
//! HyperTransport links). §2.4 explains why the interconnect difference
//! matters for capturing: every Xeon memory access — including NIC DMA —
//! shares the FSB, while Opterons keep DMA and inter-processor traffic off
//! the memory path.

use serde::{Deserialize, Serialize};

/// Processor microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuArch {
    /// Intel Xeon (Netburst): high clock, long pipeline (expensive
    /// interrupts/syscalls in cycles), shared front-side bus.
    XeonNetburst,
    /// AMD Opteron (K8): lower clock, short pipeline, integrated memory
    /// controller per socket.
    OpteronK8,
}

/// A processor complex: sockets, clock, cache, SMT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Microarchitecture.
    pub arch: CpuArch,
    /// Core clock in Hz.
    pub clock_hz: u64,
    /// L2 cache per socket in bytes.
    pub l2_bytes: u64,
    /// Populated sockets (1 in the "no SMP" experiments, 2 otherwise).
    pub sockets: u32,
    /// Hyperthreading enabled (Xeon only): two virtual CPUs per socket.
    pub hyperthreading: bool,
}

impl CpuSpec {
    /// The thesis' Xeon configuration (3.06 GHz, 512 kB L2).
    pub fn xeon(sockets: u32, hyperthreading: bool) -> CpuSpec {
        CpuSpec {
            arch: CpuArch::XeonNetburst,
            clock_hz: 3_060_000_000,
            l2_bytes: 512 * 1024,
            sockets,
            hyperthreading,
        }
    }

    /// The thesis' Opteron 244 configuration (1.8 GHz, 1 MB L2).
    pub fn opteron(sockets: u32) -> CpuSpec {
        CpuSpec {
            arch: CpuArch::OpteronK8,
            clock_hz: 1_800_000_000,
            l2_bytes: 1024 * 1024,
            sockets,
            hyperthreading: false,
        }
    }

    /// Number of schedulable CPUs the OS sees.
    pub fn logical_cpus(&self) -> u32 {
        if self.hyperthreading {
            self.sockets * 2
        } else {
            self.sockets
        }
    }

    /// Throughput factor of one *virtual* CPU when its Hyperthreading
    /// sibling is also busy. Netburst SMT yields ~1.1× combined throughput,
    /// i.e. each sibling runs at ~0.55× (§6.3.7 finds the net effect on
    /// capturing is a wash).
    pub fn smt_factor(&self) -> f64 {
        if self.hyperthreading {
            0.55
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_thesis_inventory() {
        let x = CpuSpec::xeon(2, false);
        assert_eq!(x.clock_hz, 3_060_000_000);
        assert_eq!(x.l2_bytes, 512 * 1024);
        assert_eq!(x.logical_cpus(), 2);
        let o = CpuSpec::opteron(2);
        assert_eq!(o.l2_bytes, 1024 * 1024);
        assert!(!o.hyperthreading);
    }

    #[test]
    fn hyperthreading_doubles_logical_cpus() {
        assert_eq!(CpuSpec::xeon(2, true).logical_cpus(), 4);
        assert_eq!(CpuSpec::xeon(1, true).logical_cpus(), 2);
        assert_eq!(CpuSpec::xeon(2, false).logical_cpus(), 2);
    }

    #[test]
    fn smt_factor() {
        assert_eq!(CpuSpec::xeon(2, true).smt_factor(), 0.55);
        assert_eq!(CpuSpec::xeon(2, false).smt_factor(), 1.0);
        assert_eq!(CpuSpec::opteron(2).smt_factor(), 1.0);
    }
}

//! # pcs-hw — hardware models of the 2005 capture testbed
//!
//! The physical substrate of the Schneider (2005) reproduction: CPU
//! architectures (Intel Xeon/Netburst vs AMD Opteron/K8), their memory
//! subsystems (shared front-side bus vs per-socket controllers +
//! HyperTransport), PCI bus variants, the Intel 82544EI receive NIC, the
//! 3ware RAID sets, the calibrated OS-path cost tables, and the four
//! machine presets of thesis Fig. 2.4 (swan, moorhen, flamingo, snipe).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cost;
pub mod cpu;
pub mod disk;
pub mod fingerprint;
pub mod machine;
pub mod memory;
pub mod nic;

pub use bus::{PciBus, PciKind};
pub use cost::{os_costs, OsCosts, OsKind};
pub use cpu::{CpuArch, CpuSpec};
pub use disk::{write_benchmark, DiskModel, WriteBenchResult};
pub use machine::MachineSpec;
pub use memory::{MemoryKind, MemorySystem};
pub use nic::{InterruptScheme, NicModel};

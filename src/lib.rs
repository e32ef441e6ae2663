//! # pcapbench — a reproduction of *"Performance evaluation of packet
//! capturing systems for high-speed networks"* (Fabian Schneider, TU
//! München, 2005)
//!
//! The thesis asks a simple question with an intricate answer: **which
//! commodity OS/architecture combination loses the fewest packets when
//! capturing a saturated Gigabit Ethernet link?** It builds a four-machine
//! testbed (dual Intel Xeon and dual AMD Opteron, each under Linux 2.6 and
//! FreeBSD 5.4), extends the Linux kernel packet generator to emit
//! realistic packet-size mixes at line rate, and measures how buffers,
//! filters, concurrent applications, analysis load, disk writing and
//! kernel patches move the capture rate.
//!
//! This crate is the façade over the full reproduction:
//!
//! | crate | contents |
//! |---|---|
//! | [`des`] | deterministic discrete-event kernel (time, events, PRNG) |
//! | [`wire`] | Ethernet/IPv4/UDP wire formats, the simulation packet |
//! | [`bpf`] | classic BPF: VM, validator, disassembler, filter compiler + optimizer |
//! | [`zdeflate`] | DEFLATE/gzip codec (the simulation charges compression from `hw`'s cost table) |
//! | [`pcapfile`] | pcap savefile I/O and trace summarization |
//! | [`pktgen`] | the enhanced packet generator (two-stage size distributions) |
//! | [`hw`] | CPU/memory/PCI/NIC/disk models, the four machine presets |
//! | [`oskernel`] | the simulated capture stacks (BPF device, PF_PACKET, mmap ring) |
//! | [`faultsim`] | deterministic fault injection + the sim-wide invariant oracle |
//! | [`trace`] | deterministic packet-lifecycle tracing, metrics, drop attribution |
//! | [`capture`] | libpcap-style sessions and the measurement application |
//! | [`profiling`] | cpusage + trimusage |
//! | [`testbed`] | splitter, switch, measurement cycle |
//! | [`core`] | run scales, experiment registry (one function per figure) |
//!
//! ## Quickstart
//!
//! ```no_run
//! use pcapbench::core::{figures, ExecConfig, Scale};
//!
//! // Regenerate Figure 6.3(b): all four sniffers, increased buffers.
//! // The sweep's cells run on all host cores; results are bit-identical
//! // to a serial run.
//! let fig = figures::fig6_3_increased_buffers(&Scale::quick(), true, &ExecConfig::parallel());
//! println!("{}", fig.to_table());
//! assert!(fig.final_capture("moorhen").unwrap() > 95.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `experiments` binary for
//! the full evaluation suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcs_bpf as bpf;
pub use pcs_capture as capture;
pub use pcs_core as core;
pub use pcs_des as des;
pub use pcs_faultsim as faultsim;
pub use pcs_hw as hw;
pub use pcs_oskernel as oskernel;
pub use pcs_pcapfile as pcapfile;
pub use pcs_pktgen as pktgen;
pub use pcs_profiling as profiling;
pub use pcs_testbed as testbed;
pub use pcs_trace as trace;
pub use pcs_wire as wire;
pub use pcs_zdeflate as zdeflate;

/// The most commonly used items in one import.
pub mod prelude {
    pub use pcs_capture::{MeasurementApp, Pcap};
    pub use pcs_core::{Experiment, Scale};
    pub use pcs_hw::MachineSpec;
    pub use pcs_oskernel::{AppConfig, BufferConfig, MachineSim, RunReport, SimConfig};
    pub use pcs_pktgen::{
        ChunkedGenerator, Generator, PktgenConfig, PktgenControl, SizeSource, TxModel,
        DEFAULT_CHUNK_PACKETS,
    };
    pub use pcs_testbed::{
        run_point, run_sweep, run_sweep_exec, standard_suts, CycleConfig, ExecConfig, Sut,
    };
}

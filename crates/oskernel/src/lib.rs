//! # pcs-oskernel — simulated operating-system capture stacks
//!
//! The kernel-side substrate of the Schneider (2005) reproduction: a
//! discrete-event model of one capture machine, with
//!
//! * the FreeBSD **BPF device** (filter in interrupt context, STORE/HOLD
//!   double buffer, whole-buffer copyout — §2.1.1);
//! * the Linux **PF_PACKET / LSF** path (per-CPU input queue, softirq
//!   demux, per-socket pointer queues over a shared refcounted packet
//!   pool, per-packet copy on `recvfrom` — §2.1.2), plus the
//!   `PACKET_MMAP` ring variant of the Fig. 6.15 patch;
//! * CPUs with priority work queues, Hyperthreading, receive-livelock
//!   dynamics (§2.2.1) and cpusage-compatible state accounting;
//! * capture applications with the evaluation's per-packet analysis
//!   loads (extra memcpys, zlib compression, header-to-disk writing,
//!   piping to a gzip process);
//! * the disk write-back path and 64 kB FIFOs.
//!
//! Packet injection is zero-copy: [`MachineSim::run_source`], the one
//! way to run a simulation, pulls a chunked [`pcs_pktgen::PacketSource`]
//! into a small window of the chunks it still needs and admits each
//! arrival by its stream position, so the N machine simulations reading
//! one broadcast stream share its bytes instead of cloning every packet,
//! and no packet takes a refcount of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpustate;
pub(crate) mod event;
pub mod fault;
pub mod report;
pub(crate) mod sched;
pub mod sim;
pub mod stack;
pub(crate) mod stages;

pub use config::{AppConfig, BufferConfig, SimConfig};
pub use cpustate::{CpuAccounting, CpuState};
pub use fault::MachineFaults;
pub use report::{AppReport, CpuSample, RunReport};
pub use sim::MachineSim;
pub use stack::{
    BpfDevice, CapturedPacket, DeliverOutcome, DropKind, KernelFilter, LsfSocket, LsfState,
    StackStats,
};

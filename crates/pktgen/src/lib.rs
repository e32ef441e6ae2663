//! # pcs-pktgen — the enhanced Linux Kernel Packet Generator
//!
//! The thesis' central engineering contribution (Chapter 4, Appendix A):
//! a workload generator that emits UDP packets whose sizes follow an
//! empirical distribution, fast enough to saturate Gigabit Ethernet, and
//! fully reproducible from a seed.
//!
//! * [`dist`] — the two-stage (outliers + bins) distribution
//!   representation and the construction math of §4.2;
//! * [`mwn`] — a synthetic stand-in for the proprietary 24 h MWN trace
//!   with the statistical properties the thesis reports;
//! * [`procfs`] — the `pgset` command interface including the new `dist`,
//!   `outl`, `hist` commands and the `DIST_READY`/`PKTSIZE_REAL` flags;
//! * [`generator`] — the paced packet source with the transmit-rate
//!   limits of the testbed's NICs;
//! * [`createdist`] — the `createDist` conversion pipeline between
//!   sizes/dist/trace/procfs representations;
//! * [`source`] — the chunked [`PacketSource`] streaming interface
//!   through which every sniffer reads its cell's stream, one shared
//!   [`Chunk`] at a time;
//! * [`streamcache`] — the process-global, content-addressed
//!   [`StreamCache`] that publishes each generated stream's chunks to
//!   every sniffer of every measurement cell that asks for it while it
//!   is linked, one [`StreamSubscriber`] per sniffer, and keeps a
//!   completed stream only when a second cell has asked for its key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod createdist;
pub mod dist;
pub mod fingerprint;
pub mod generator;
pub mod mwn;
pub mod procfs;
pub mod source;
pub mod streamcache;

pub use createdist::{convert, InputKind, OutputKind};
pub use dist::{DistConfig, DistError, TwoStageDist};
pub use generator::{Generator, TimedPacket, TxModel};
pub use mwn::{mwn_counts, mwn_mean};
pub use procfs::{CmdError, PktgenConfig, PktgenControl, SizeSource};
pub use source::{Chunk, ChunkedGenerator, PacketSource, DEFAULT_CHUNK_PACKETS};
pub use streamcache::{
    chunk_bytes, PublishingSource, StreamCache, StreamKey, StreamPublisher, StreamRole,
    StreamSubscriber, DEFAULT_STREAM_CACHE_BYTES,
};

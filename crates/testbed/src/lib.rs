//! # pcs-testbed — the measurement methodology
//!
//! Chapter 3 of the thesis as a library: the passive [`splitter`] that
//! feeds every sniffer the same packets, the monitoring [`switch`] whose
//! SNMP counters verify the generated packet count, and the measurement
//! [`cycle`] — start capture + profiling, generate, read counters, stop,
//! repeat — with the §6.2.2 result calculation.
//!
//! The cycle executes on the parallel sweep engine ([`sched`]): every
//! (rate × repeat) cell of a sweep is an independent deterministic job,
//! scheduled across a bounded worker pool and merged back in input
//! order. Every cell simulates, and the invariant oracle checks every
//! cell; the [`cache`] module names cells and their streams by
//! fingerprint.
//!
//! Inside a cell, packets *stream*: the generator produces bounded
//! chunks that the [`splitter`] broadcasts to every sniffer's queue
//! while the machine simulations consume concurrently, in the one
//! pipeline shape [`PipelineConfig::default`]. Results are
//! byte-identical at any job count.
//!
//! Across cells, generation itself is shared: streams are
//! content-addressed ([`stream_key`]) in the process-global
//! [`StreamCache`](pcs_pktgen::StreamCache), so N SUT sets measured at
//! the same (workload, rate, repeat) grid generate each packet stream
//! exactly once and subscribe to its chunks thereafter (byte-budgeted
//! and LRU-bounded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cycle;
pub mod sched;
pub mod splitter;
pub mod switch;

pub use cache::{cell_key, stream_key, wide_key, CellKey, CellResult, CellSut, RunCache};
pub use cycle::{
    aggregate_point, cell_label, run_point, run_sweep, run_sweep_exec, standard_suts, CycleConfig,
    PointResult, Sut, SutPoint,
};
pub use sched::{available_parallelism, parallel_ordered, ExecConfig, ExecStats, PipelineConfig};
pub use splitter::{OpticalSplitter, SplitterOutput, SplitterSender};
pub use switch::{IfCounters, MonitorSwitch};

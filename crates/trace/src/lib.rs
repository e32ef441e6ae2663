//! # pcs-trace — deterministic tracing and metrics for the capture sims
//!
//! A zero-cost-when-disabled observability layer for the `pcapbench`
//! reproduction of Schneider 2005. Four pieces:
//!
//! * **Packet-lifecycle events** ([`Stage`], [`TraceEvent`], [`TraceSink`])
//!   — wire arrival, NIC ring enqueue/drop, bus transfer, filter
//!   accept/reject, kernel-buffer enqueue/drop, app delivery, disk write —
//!   recorded into bounded per-sim buffers, timestamped with the *sim
//!   clock*, so identical seeds produce byte-identical traces. The opt-in
//!   `sched` filter additionally records per-CPU scheduling spans
//!   ([`SchedEvent`], [`WorkKind`]) — which work item ran on which CPU at
//!   which sim-ns — rendered as Perfetto `ph:"X"` timelines.
//! * **Metrics** ([`MetricsRegistry`]) — named counters, gauges, and
//!   fixed-bucket quantile digests (wire→app latency, queue depths,
//!   batch sizes), plus exact per-stage [`DropAttribution`] reproducing
//!   the paper's loss-localization tables.
//! * **Export** ([`export`]) — Chrome trace-event JSON (Perfetto-loadable)
//!   and CSV, with a deterministic cross-cell [`TraceCollector`] that
//!   shares its recorded cells instead of copying them.
//! * **JSON reader** ([`json`]) — one RFC 8259 recursive-descent reader
//!   with two instantiations: [`json::validate`] checks every emitted
//!   trace, ledger and profile without allocating, and [`json::Json`]
//!   reads ledgers back. Both read a long document's longest array on
//!   two threads, with the sequential reader's exact result.
//!
//! The disabled path is one enum-discriminant branch per event site
//! ([`TraceSink::Off`]); `--trace off` runs are byte-identical to an
//! uninstrumented build's output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod collect;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod stagetime;

pub use attr::DropAttribution;
pub use collect::{CellTrace, SutTrace, TraceCollector};
pub use event::{SchedEvent, Stage, StageFilter, TraceEvent, WorkKind, APP_NONE, SEQ_NONE};
pub use metrics::MetricsRegistry;
pub use sink::{TraceReport, TraceSink, TraceSpec, DEFAULT_EVENT_CAP};
pub use stagetime::{CpuStageTimes, StageTimes, WORK_KINDS};

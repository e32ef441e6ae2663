//! # pcs-obs — cross-run observability for the capture sims
//!
//! The sweep runner already produces deterministic tables, traces and
//! CSVs; this crate adds the *cross-run* layer on top:
//!
//! * **Run ledger** ([`ledger`]) — one fingerprinted JSON manifest per
//!   sweep: every cell's 128-bit config fingerprint, achieved rate,
//!   exact per-stage [`pcs_trace::DropAttribution`], metrics-registry
//!   dump, exact latency percentiles from the mergeable
//!   [`pcs_des::stats::QuantileDigest`], and (when armed) the per-CPU
//!   per-work-kind stage-time account. Rendering is integer-based or
//!   fixed-precision over the collector's deterministic cell order, so
//!   a ledger is byte-identical at any `--jobs` and whether its streams
//!   were generated or shared. The host-side `profile` block is the
//!   one documented exception (it reads the host clock) and is ignored
//!   by the diff engine.
//! * **JSON reader** ([`json`]) — a minimal recursive-descent RFC 8259
//!   parser (the build has no serde_json), just enough to load ledgers
//!   back.
//! * **Diff engine** ([`diff`]) — matches two ledgers cell by cell and
//!   ranks every numeric observable that moved: which cells drifted,
//!   which attribution bucket or stage time moved, and by how much.
//!   Backs `pcs-experiments obs diff A.json B.json [--fail-on-drift]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod ledger;

pub use diff::{diff_ledgers, CellDiff, DiffReport, Drift};
pub use json::Json;
pub use ledger::{
    render_ledger, render_profile, ExperimentProfile, HostProfile, Ledger, LedgerCell, LedgerMeta,
    LedgerSut, LEDGER_VERSION,
};

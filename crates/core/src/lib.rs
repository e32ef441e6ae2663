//! # pcs-core — the evaluation harness
//!
//! The top layer of the Schneider (2005) reproduction: run-scale presets,
//! experiment result structures, and one regeneration function per thesis
//! figure and table (the [`figures`] registry). The `experiments` CLI and
//! the Criterion benches are thin shells over this crate.
//!
//! ```no_run
//! use pcs_core::{figures, ExecConfig, Scale};
//!
//! // Run a figure's sweep across all host cores (bit-identical to serial).
//! let exec = ExecConfig::parallel();
//! let experiment = figures::fig6_3_increased_buffers(&Scale::quick(), true, &exec);
//! println!("{}", experiment.to_table());
//! println!("cells run: {}", exec.stats.cells_run());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod extensions;
pub mod figures;
pub mod scale;

pub use experiment::{Experiment, Series, SeriesPoint};
pub use figures::{all_experiments, ExperimentFn};
pub use pcs_testbed::{ExecConfig, ExecStats};
pub use scale::Scale;

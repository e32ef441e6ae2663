//! Cross-cell trace collection for a sweep.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::attr::DropAttribution;
use crate::sink::{TraceReport, TraceSpec};
use crate::stagetime::StageTimes;

/// Everything one traced SUT produced inside one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SutTrace {
    /// Human-readable SUT label (e.g. "FreeBSD/tcpdump").
    pub label: String,
    /// The sim's event log and metrics.
    pub report: TraceReport,
    /// Exact per-consumer drop attribution for this SUT's run.
    pub attributions: Vec<DropAttribution>,
    /// Per-CPU/per-work-kind sim-time attribution, present when the run
    /// was executed with stage-time accounting armed.
    pub stage_times: Option<StageTimes>,
}

/// One traced cell: a (config, rate, repeat) point executed against a set
/// of SUTs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// Human-readable cell label (rate, repeat, workload parameters).
    pub label: String,
    /// The cell's 128-bit memoization fingerprint — unique per distinct
    /// (SUT set, workload, rate, repeat).
    pub key: u128,
    /// Achieved frame data rate (Mbit/s) of this cell's stream.
    pub achieved_mbps: f64,
    /// Per-SUT traces, in SUT order.
    pub suts: Vec<SutTrace>,
}

/// Thread-safe collector shared by all sweep workers.
///
/// Cells are keyed by their configuration fingerprint and stored in a
/// `BTreeMap`, so the exported ordering is independent of worker
/// scheduling: identical seeds and configs produce byte-identical exports
/// at any `--jobs`. Re-recording an already-present key is a no-op — a
/// re-simulated cell reproduces the identical trace anyway.
#[derive(Debug, Default)]
pub struct TraceCollector {
    spec: TraceSpec,
    cells: Mutex<BTreeMap<(String, u128), CellTrace>>,
}

impl TraceCollector {
    /// A collector whose sinks use `spec`.
    pub fn new(spec: TraceSpec) -> Self {
        TraceCollector {
            spec,
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    /// The sink configuration cells should be traced with.
    pub fn spec(&self) -> TraceSpec {
        self.spec
    }

    /// Whether a cell with this label/key was already recorded.
    ///
    /// No library path uses it; the repository benchmark's span-traced
    /// composition still calls it.
    pub fn contains(&self, label: &str, key: u128) -> bool {
        self.cells
            .lock()
            .expect("trace collector poisoned")
            .contains_key(&(label.to_owned(), key))
    }

    /// Record one cell's traces; first write wins.
    pub fn record_cell(&self, label: String, key: u128, achieved_mbps: f64, suts: Vec<SutTrace>) {
        let mut cells = self.cells.lock().expect("trace collector poisoned");
        cells.entry((label.clone(), key)).or_insert(CellTrace {
            label,
            key,
            achieved_mbps,
            suts,
        });
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("trace collector poisoned").len()
    }

    /// True when no cell was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All recorded cells in deterministic (label, key) order.
    pub fn cells(&self) -> Vec<CellTrace> {
        self.cells
            .lock()
            .expect("trace collector poisoned")
            .values()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_orders_and_dedups() {
        let c = TraceCollector::new(TraceSpec::default());
        assert!(c.is_empty());
        c.record_cell("b".into(), 2, 0.0, vec![]);
        c.record_cell("a".into(), 1, 0.0, vec![]);
        c.record_cell(
            "b".into(),
            2,
            0.0,
            vec![SutTrace {
                label: "ignored duplicate".into(),
                ..SutTrace::default()
            }],
        );
        assert_eq!(c.len(), 2);
        assert!(c.contains("a", 1));
        assert!(!c.contains("a", 2));
        let cells = c.cells();
        assert_eq!(cells[0].label, "a");
        assert_eq!(cells[1].label, "b");
        // first write won
        assert!(cells[1].suts.is_empty());
    }
}

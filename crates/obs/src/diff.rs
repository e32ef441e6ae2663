//! The ledger diff engine: rank what moved between two runs.
//!
//! Cells are matched by label. A label names only the rate and repeat,
//! so one label can hold many cells; those pair by equal fingerprint
//! first, and the rest in ledger order. Within a matched pair every
//! numeric observable — achieved rate, attribution buckets, counters,
//! gauges, histogram summaries, latency percentiles, stage times — is
//! compared exactly: the sims are deterministic, so *any* difference is
//! real drift, not noise. Drifts are ranked by relative magnitude
//! `|a-b| / max(|a|, |b|, 1)` so a 2% shift in a million-packet bucket
//! outranks an absolute wobble in a tiny one.
//!
//! A changed cell *fingerprint* is reported before any value drift: it
//! means the two runs did not even execute the same configuration
//! (different workload or SUT set), so value deltas for that cell
//! explain a config change, not a regression.
//!
//! The fault plan is not part of a fingerprint: it is a run-wide input
//! recorded once in each ledger's header, so a faulted run's cells pair
//! with the unfaulted run's by fingerprint. When the two headers name
//! different plans the report says so in one line before the cells;
//! that line is context, not drift.
//!
//! The host-side `profile` block is never compared.

use std::collections::BTreeMap;

use crate::ledger::{Ledger, LedgerCell};

/// One numeric observable that differs between the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// `/`-joined path of the observable (e.g.
    /// `suts/FreeBSD "tcpdump"/attribution/app0/kernel_buffer_drops`).
    pub path: String,
    /// Value in ledger A (`None` — the path is absent there).
    pub a: Option<f64>,
    /// Value in ledger B (`None` — the path is absent there).
    pub b: Option<f64>,
    /// Relative magnitude `|a-b| / max(|a|, |b|, 1)`; `1.0` for an
    /// absent side.
    pub rel: f64,
}

/// Everything that differs for one matched (or unmatched) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// Cell label.
    pub label: String,
    /// Which ledger the cell is missing from, if unmatched
    /// (`"A"` / `"B"`).
    pub only_in: Option<&'static str>,
    /// The config fingerprints disagree: the runs executed different
    /// configurations for this cell.
    pub fingerprint_changed: bool,
    /// Value drifts, ranked by [`Drift::rel`] descending (path
    /// ascending on ties).
    pub drifts: Vec<Drift>,
}

impl CellDiff {
    /// Largest relative drift in this cell (fingerprint or missing cell
    /// counts as `1.0`).
    pub fn severity(&self) -> f64 {
        let base = if self.only_in.is_some() || self.fingerprint_changed {
            1.0
        } else {
            0.0
        };
        self.drifts.first().map_or(base, |d| d.rel.max(base))
    }
}

/// The full comparison of two ledgers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Ledger A's fault plan, from its header.
    pub faults_a: Option<String>,
    /// Ledger B's fault plan, from its header.
    pub faults_b: Option<String>,
    /// Cells present in ledger A.
    pub cells_a: usize,
    /// Cells present in ledger B.
    pub cells_b: usize,
    /// Cells compared value-by-value (matched by label).
    pub cells_compared: usize,
    /// Every cell with at least one difference, ranked by severity
    /// descending (label ascending on ties). Clean cells are omitted.
    pub cells: Vec<CellDiff>,
}

impl DiffReport {
    /// `true` when any cell differs in any way. Differing fault plans
    /// alone are not drift.
    pub fn has_drift(&self) -> bool {
        !self.cells.is_empty()
    }

    /// Total number of drifted observables across all cells.
    pub fn drift_count(&self) -> usize {
        self.cells.iter().map(|c| c.drifts.len()).sum()
    }

    /// Render the ranked report, showing at most `per_cell` drifts per
    /// cell.
    pub fn render(&self, per_cell: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "obs diff: {} vs {} cells, {} compared, {} cells drifted ({} observables)",
            self.cells_a,
            self.cells_b,
            self.cells_compared,
            self.cells.len(),
            self.drift_count()
        );
        if self.faults_a != self.faults_b {
            let _ = writeln!(
                out,
                "fault plan differs: A {}, B {} (context, not drift)",
                self.faults_a.as_deref().unwrap_or("off"),
                self.faults_b.as_deref().unwrap_or("off")
            );
        }
        if self.cells.is_empty() {
            out.push_str("no drift: every compared observable is identical\n");
            return out;
        }
        for cell in &self.cells {
            match cell.only_in {
                Some(side) => {
                    let _ = writeln!(out, "cell '{}': only in ledger {side}", cell.label);
                    continue;
                }
                None => {
                    let _ = writeln!(out, "cell '{}':", cell.label);
                }
            }
            if cell.fingerprint_changed {
                out.push_str("  ! fingerprint changed — runs executed different configurations\n");
            }
            for d in cell.drifts.iter().take(per_cell) {
                let fmt = |v: Option<f64>| match v {
                    Some(v) => format!("{v}"),
                    None => "absent".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "  {:>8.3}%  {}  {} -> {}",
                    d.rel * 100.0,
                    d.path,
                    fmt(d.a),
                    fmt(d.b)
                );
            }
            if cell.drifts.len() > per_cell {
                let _ = writeln!(out, "  … and {} more", cell.drifts.len() - per_cell);
            }
        }
        out
    }
}

/// Relative drift magnitude: `|a-b| / max(|a|, |b|, 1)`.
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Flatten one cell into `path -> value` over achieved rate and every
/// SUT observable. A SUT's paths start `suts/{label}/`; a cell can hold
/// two SUTs of one machine (stock vs mmap, HT off vs on), so the k-th
/// SUT of a label, k ≥ 2, is keyed `{label}#k`.
fn cell_values(cell: &LedgerCell) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    out.insert("achieved_mbps".to_owned(), cell.achieved_mbps);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for sut in &cell.suts {
        let k = seen.entry(&sut.label).or_default();
        *k += 1;
        let name = match *k {
            1 => sut.label.clone(),
            k => format!("{}#{k}", sut.label),
        };
        for (path, &v) in &sut.observables {
            out.insert(format!("suts/{name}/{path}"), v);
        }
    }
    out
}

fn diff_cell(a: &LedgerCell, b: &LedgerCell) -> CellDiff {
    let va = cell_values(a);
    let vb = cell_values(b);
    let mut drifts = Vec::new();
    for (path, &x) in &va {
        match vb.get(path) {
            Some(&y) if x == y => {}
            Some(&y) => drifts.push(Drift {
                path: path.clone(),
                a: Some(x),
                b: Some(y),
                rel: rel(x, y),
            }),
            None => drifts.push(Drift {
                path: path.clone(),
                a: Some(x),
                b: None,
                rel: 1.0,
            }),
        }
    }
    for (path, &y) in &vb {
        if !va.contains_key(path) {
            drifts.push(Drift {
                path: path.clone(),
                a: None,
                b: Some(y),
                rel: 1.0,
            });
        }
    }
    drifts.sort_by(|p, q| {
        q.rel
            .partial_cmp(&p.rel)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| p.path.cmp(&q.path))
    });
    CellDiff {
        label: a.label.clone(),
        only_in: None,
        fingerprint_changed: a.fingerprint != b.fingerprint,
        drifts,
    }
}

/// Compare two parsed ledgers cell by cell.
///
/// Within a label, each A cell first pairs with the first unpaired B
/// cell of the same fingerprint; the cells left over pair in ledger
/// order. The collector orders a label's cells by fingerprint, so one
/// cell whose configuration changed moves within its label, and pairing
/// by position alone would misalign every cell after it.
pub fn diff_ledgers(a: &Ledger, b: &Ledger) -> DiffReport {
    type Sides<'l> = (Vec<&'l LedgerCell>, Vec<&'l LedgerCell>);
    let mut by_label: BTreeMap<&str, Sides> = BTreeMap::new();
    for cell in &a.cells {
        by_label.entry(&cell.label).or_default().0.push(cell);
    }
    for cell in &b.cells {
        by_label.entry(&cell.label).or_default().1.push(cell);
    }
    let only = |cell: &LedgerCell, side| CellDiff {
        label: cell.label.clone(),
        only_in: Some(side),
        fingerprint_changed: false,
        drifts: Vec::new(),
    };
    let mut cells = Vec::new();
    let mut compared = 0usize;
    for (xs, ys) in by_label.values() {
        let mut peer = vec![None; xs.len()];
        let mut taken = vec![false; ys.len()];
        for (x, peer) in xs.iter().zip(&mut peer) {
            *peer = (0..ys.len()).find(|&j| !taken[j] && ys[j].fingerprint == x.fingerprint);
            if let Some(j) = *peer {
                taken[j] = true;
            }
        }
        let mut rest = (0..ys.len()).filter(|&j| !taken[j]);
        for (x, peer) in xs.iter().zip(peer) {
            match peer.or_else(|| rest.next()) {
                Some(j) => {
                    compared += 1;
                    let d = diff_cell(x, ys[j]);
                    if d.fingerprint_changed || !d.drifts.is_empty() {
                        cells.push(d);
                    }
                }
                None => cells.push(only(x, "A")),
            }
        }
        cells.extend(rest.map(|j| only(ys[j], "B")));
    }
    cells.sort_by(|p, q| {
        q.severity()
            .partial_cmp(&p.severity())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| p.label.cmp(&q.label))
    });
    DiffReport {
        faults_a: a.faults.clone(),
        faults_b: b.faults.clone(),
        cells_a: a.cells.len(),
        cells_b: b.cells.len(),
        cells_compared: compared,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerSut;
    use std::collections::BTreeMap;

    fn cell(label: &str, fp: &str, kv: &[(&str, f64)]) -> LedgerCell {
        let mut observables = BTreeMap::new();
        for (k, v) in kv {
            observables.insert((*k).to_owned(), *v);
        }
        LedgerCell {
            label: label.to_owned(),
            fingerprint: fp.to_owned(),
            achieved_mbps: 100.0,
            suts: vec![LedgerSut {
                label: "sut".to_owned(),
                observables,
            }],
        }
    }

    fn ledger(cells: Vec<LedgerCell>) -> Ledger {
        Ledger {
            version: 1,
            scale: "quick".into(),
            experiments: vec!["fig6.4a".into()],
            faults: None,
            cells,
        }
    }

    #[test]
    fn identical_ledgers_are_clean() {
        let a = ledger(vec![cell("r=100", "aa", &[("counters/x", 5.0)])]);
        let report = diff_ledgers(&a, &a.clone());
        assert!(!report.has_drift());
        assert_eq!(report.cells_compared, 1);
        let text = report.render(8);
        assert!(text.contains("no drift"), "{text}");
    }

    #[test]
    fn value_drift_is_ranked_by_relative_magnitude() {
        let a = ledger(vec![cell(
            "r=100",
            "aa",
            &[
                ("attribution/app0/kernel_buffer_drops", 1000.0),
                ("counters/irq_fires", 500.0),
            ],
        )]);
        let b = ledger(vec![cell(
            "r=100",
            "aa",
            &[
                ("attribution/app0/kernel_buffer_drops", 4000.0),
                ("counters/irq_fires", 501.0),
            ],
        )]);
        let report = diff_ledgers(&a, &b);
        assert!(report.has_drift());
        assert_eq!(report.drift_count(), 2);
        let drifts = &report.cells[0].drifts;
        assert_eq!(
            drifts[0].path, "suts/sut/attribution/app0/kernel_buffer_drops",
            "largest relative mover ranks first"
        );
        assert!(drifts[0].rel > drifts[1].rel);
        let text = report.render(8);
        assert!(text.contains("kernel_buffer_drops"), "{text}");
    }

    #[test]
    fn fingerprint_change_is_reported_before_values() {
        let a = ledger(vec![cell("r=100", "aa", &[("counters/x", 5.0)])]);
        let b = ledger(vec![cell("r=100", "bb", &[("counters/x", 5.0)])]);
        let report = diff_ledgers(&a, &b);
        assert!(report.has_drift());
        assert!(report.cells[0].fingerprint_changed);
        assert!(report.cells[0].drifts.is_empty());
        assert!(report.render(8).contains("fingerprint changed"));
    }

    #[test]
    fn unmatched_cells_and_absent_paths_are_drift() {
        let a = ledger(vec![
            cell("r=100", "aa", &[("counters/x", 5.0)]),
            cell("r=200", "cc", &[("counters/x", 7.0)]),
        ]);
        let b = ledger(vec![cell("r=100", "aa", &[("counters/y", 5.0)])]);
        let report = diff_ledgers(&a, &b);
        assert!(report.has_drift());
        assert_eq!(report.cells_compared, 1);
        let only: Vec<_> = report
            .cells
            .iter()
            .filter_map(|c| c.only_in.map(|s| (c.label.clone(), s)))
            .collect();
        assert_eq!(only, vec![("r=200".to_owned(), "A")]);
        let matched = report.cells.iter().find(|c| c.only_in.is_none()).unwrap();
        // x only in A, y only in B: two absent-path drifts at rel 1.0.
        assert_eq!(matched.drifts.len(), 2);
        assert!(matched.drifts.iter().all(|d| d.rel == 1.0));
        let text = report.render(8);
        assert!(text.contains("only in ledger A"), "{text}");
        assert!(text.contains("absent"), "{text}");
    }

    #[test]
    fn same_label_cells_pair_by_fingerprint_first() {
        let a = ledger(vec![
            cell("r=full", "aa", &[("counters/x", 1.0)]),
            cell("r=full", "bb", &[("counters/x", 2.0)]),
            cell("r=full", "cc", &[("counters/x", 3.0)]),
        ]);
        // "aa" changed its configuration (and so its results) and sorts
        // after the label's other cells, as the collector would place it.
        let b = ledger(vec![
            cell("r=full", "bb", &[("counters/x", 2.0)]),
            cell("r=full", "cc", &[("counters/x", 3.0)]),
            cell("r=full", "ff", &[("counters/x", 9.0)]),
        ]);
        let report = diff_ledgers(&a, &b);
        assert_eq!(report.cells_compared, 3);
        assert_eq!(report.cells.len(), 1, "{}", report.render(8));
        let moved = &report.cells[0];
        assert!(moved.fingerprint_changed);
        assert_eq!(moved.drifts.len(), 1);
        assert_eq!(
            (moved.drifts[0].a, moved.drifts[0].b),
            (Some(1.0), Some(9.0))
        );
    }

    #[test]
    fn every_sut_of_a_repeated_label_is_compared() {
        let mut a = cell("r=200", "aa", &[("attribution/app0/delivered", 10.0)]);
        a.suts.push(a.suts[0].clone());
        for (sut, path) in [(0, "suts/sut/"), (1, "suts/sut#2/")] {
            let mut b = a.clone();
            b.suts[sut]
                .observables
                .insert("attribution/app0/delivered".to_owned(), 10.0 + 12_345.0);
            let report = diff_ledgers(&ledger(vec![a.clone()]), &ledger(vec![b]));
            assert_eq!(report.drift_count(), 1, "{}", report.render(8));
            let drift = &report.cells[0].drifts[0];
            assert_eq!(drift.path, format!("{path}attribution/app0/delivered"));
            assert_eq!((drift.a, drift.b), (Some(10.0), Some(12_355.0)));
        }
    }

    #[test]
    fn differing_fault_plans_are_context_not_drift() {
        let a = ledger(vec![cell("r=100", "aa", &[("counters/x", 5.0)])]);
        let mut b = a.clone();
        b.faults = Some("hiccup+squeeze:77".to_owned());
        let report = diff_ledgers(&a, &b);
        assert!(!report.has_drift());
        let text = report.render(8);
        assert!(
            text.contains("fault plan differs: A off, B hiccup+squeeze:77"),
            "{text}"
        );
        assert!(text.contains("no drift"), "{text}");
        assert!(!diff_ledgers(&b, &b).render(8).contains("fault plan"));
    }

    #[test]
    fn duplicate_labels_pair_in_order() {
        let a = ledger(vec![
            cell("r=100", "aa", &[("counters/x", 1.0)]),
            cell("r=100", "bb", &[("counters/x", 2.0)]),
        ]);
        let b = ledger(vec![
            cell("r=100", "aa", &[("counters/x", 1.0)]),
            cell("r=100", "bb", &[("counters/x", 2.0)]),
        ]);
        assert!(!diff_ledgers(&a, &b).has_drift());
    }
}

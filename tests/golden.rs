//! Golden-output snapshots for the experiment renderers and the run
//! ledger.
//!
//! The fixtures under `tests/golden/` are checked in; the tests compare
//! `to_table()` / `to_csv()` byte-for-byte against them, pinning the
//! RFC-4180 quoting path, ragged-series rendering, and the header/notes
//! layout. The quick fig6.4a `--ledger` document is pinned the same way:
//! it is host-independent, so it freezes every simulated observable of
//! that sweep. `tests/golden/quick/` holds every CSV that
//! `experiments all --scale quick --csv-dir DIR` writes except the
//! `fig4.1` scatter; CI diffs the whole directory against a release run,
//! and a subset cheap enough for the test profile is asserted here.
//! `tests/golden/quick.ledger.json` is the whole quick suite's ledger
//! (`experiments all --scale quick --ledger PATH`); CI `cmp`s a release
//! run against it.
//! Regenerate after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use pcapbench::core::{
    all_experiments, figures, ExecConfig, Experiment, Scale, Series, SeriesPoint,
};
use pcapbench::trace::{StageFilter, TraceCollector, TraceSpec};
use pcs_obs::{diff_ledgers, render_ledger, Ledger, LedgerCell, LedgerMeta};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its checked-in golden output; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn pt(x: f64, capture: f64, worst: f64, best: f64, cpu: f64) -> SeriesPoint {
    SeriesPoint {
        x,
        capture,
        capture_worst: worst,
        capture_best: best,
        cpu,
    }
}

/// A hand-built experiment exercising every rendering corner at once:
/// quoted labels (comma, double quote), a label long enough to truncate,
/// ragged series lengths, and notes.
fn tricky_experiment() -> Experiment {
    Experiment {
        id: "golden-1".into(),
        thesis_ref: "synthetic fixture, no thesis figure".into(),
        title: "Renderer corner cases".into(),
        xlabel: "Datarate [Mbit/s]".into(),
        ylabel: "capture[%]".into(),
        series: vec![
            Series {
                label: "swan, default buffers".into(),
                points: vec![
                    pt(100.0, 100.0, 99.5, 100.0, 12.0),
                    pt(500.0, 87.25, 80.125, 93.5, 64.0),
                    pt(941.0, 43.75, 40.0, 51.5, 100.0),
                ],
            },
            Series {
                label: "snipe \"tuned\" profile".into(),
                points: vec![
                    pt(100.0, 100.0, 100.0, 100.0, 15.0),
                    // Ragged: this series has one point fewer.
                    pt(500.0, 91.0, 90.0, 92.0, 58.0),
                ],
            },
            Series {
                label: "a deliberately overlong series label that the table truncates".into(),
                points: vec![
                    pt(100.0, 99.0, 98.0, 100.0, 20.0),
                    pt(500.0, 70.5, 65.0, 76.0, 88.0),
                    pt(941.0, 31.0, 28.5, 33.5, 100.0),
                ],
            },
        ],
        notes: vec![
            "quoted, ragged and truncated — all in one figure".into(),
            "second note line".into(),
        ],
    }
}

#[test]
fn table_rendering_matches_golden() {
    assert_matches_golden("tricky.table.txt", &tricky_experiment().to_table());
}

#[test]
fn csv_rendering_matches_golden() {
    let csv = tricky_experiment().to_csv();
    // The quoting invariants the fixture pins, stated directly too.
    assert!(csv.contains("\"swan, default buffers\""));
    assert!(csv.contains("\"snipe \"\"tuned\"\" profile\""));
    assert_matches_golden("tricky.csv", &csv);
}

#[test]
fn empty_experiment_renders_header_only() {
    let mut e = tricky_experiment();
    e.series.clear();
    e.notes.clear();
    let csv = e.to_csv();
    assert_eq!(
        csv,
        "experiment,series,x,capture_pct,worst_pct,best_pct,cpu_pct\n"
    );
    assert_matches_golden("empty.table.txt", &e.to_table());
}

/// The quick fig6.4a sweep's ledger, rendered exactly as
/// `experiments run fig6.4a --scale quick --ledger PATH` writes it.
fn fig64a_quick_ledger() -> &'static str {
    static LEDGER: OnceLock<String> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let collector = Arc::new(TraceCollector::new(TraceSpec {
            filter: StageFilter::none(),
            ..TraceSpec::default()
        }));
        let exec = ExecConfig::with_jobs(2)
            .with_stage_times(true)
            .with_trace(Arc::clone(&collector));
        figures::fig6_4_buffer_sweep(&Scale::quick(), false, &exec);
        let meta = LedgerMeta {
            scale: "quick".into(),
            experiments: vec!["fig6.4a".into()],
            faults: None,
        };
        render_ledger(&meta, &collector.cells(), None)
    })
}

#[test]
fn quick_fig64a_ledger_matches_golden() {
    assert_matches_golden("fig6.4a_quick.ledger.json", fig64a_quick_ledger());
}

/// The quick-suite experiments asserted in the test profile: the
/// cell-free tables plus a dual-CPU rate sweep, a buffer sweep whose 12
/// cells share one generated stream, and the eight-application mix.
const QUICK_GOLDEN_SUBSET: [&str; 7] = [
    "tbl2.4",
    "fig4.2",
    "val-pktgen",
    "fig6.13",
    "fig6.2b",
    "fig6.4b",
    "fig6.9",
];

#[test]
fn quick_suite_csvs_match_golden() {
    let registry = all_experiments();
    let exec = ExecConfig::with_jobs(2);
    for id in QUICK_GOLDEN_SUBSET {
        let (_, _, run) = registry
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .expect("registered experiment");
        let csv = run(&Scale::quick(), &exec).to_csv();
        assert_matches_golden(&format!("quick/{id}.csv"), &csv);
    }
}

#[test]
fn ledger_with_a_batching_profile_block_still_diffs_clean() {
    // Written with `--profile` by an engine that still reported the
    // batching config bit (`batch_sims_on`/`batch_sims_off`/
    // `batch_coalesce_cap`). `obs diff` compares ledgers across commits,
    // so such a ledger must still parse, and the same sweep must show no
    // drift against it: the profile block is never compared.
    let path = golden_path("fig6.4a_quick.batch_profile.ledger.json");
    let old = std::fs::read_to_string(&path).expect("fixture present");
    assert!(old.contains("\"batch_sims_on\":48"));
    assert!(old.contains("\"batch_coalesce_cap\":64"));
    let old = Ledger::parse(&old).expect("an older ledger must still parse");
    let new = Ledger::parse(fig64a_quick_ledger()).expect("ledger parses");
    let report = diff_ledgers(&old, &new);
    assert!(!report.has_drift(), "{}", report.render(8));
    assert_eq!(report.cells_compared, 12);
}

#[test]
fn one_changed_fingerprint_drifts_one_cell_of_the_quick_ledger() {
    // A label names only the rate and repeat: the quick suite holds
    // dozens of `rate=full rep=0` cells, ordered by fingerprint. Give
    // the first a new fingerprint and move it after the label's last
    // cell, where the collector would sort a changed configuration.
    let text = std::fs::read_to_string(golden_path("quick.ledger.json")).expect("golden present");
    let golden = Ledger::parse(&text).expect("the golden parses");
    let label = "rate=full rep=0";
    let same_label = |l: &Ledger| l.cells.iter().filter(|c| c.label == label).count();
    assert!(
        same_label(&golden) > 2,
        "the golden holds many {label} cells"
    );
    let mut edited = golden.clone();
    let first = edited.cells.iter().position(|c| c.label == label).unwrap();
    let mut moved = edited.cells.remove(first);
    moved.fingerprint = "f".repeat(32);
    let end = first + same_label(&edited);
    edited.cells.insert(end, moved);
    let report = diff_ledgers(&golden, &edited);
    assert_eq!(report.cells_compared, golden.cells.len());
    assert_eq!(report.cells.len(), 1, "{}", report.render(2));
    assert!(report.cells[0].fingerprint_changed);
    assert_eq!(report.drift_count(), 0, "{}", report.render(2));
}

#[test]
fn either_of_two_same_machine_suts_drifts_in_the_quick_ledger() {
    // Stock vs mmap (fig6.15a/b), HT off vs on (fig6.16) and single vs
    // split (ext-split) put two SUTs of one machine into one cell.
    let text = std::fs::read_to_string(golden_path("quick.ledger.json")).expect("golden present");
    let golden = Ledger::parse(&text).expect("the golden parses");
    let pair = |c: &LedgerCell| c.suts.len() > 1 && c.suts[0].label == c.suts[1].label;
    let cell = golden
        .cells
        .iter()
        .position(pair)
        .expect("the quick suite holds cells with two SUTs of one machine");
    let machine = golden.cells[cell].suts[0].label.clone();
    let path = "attribution/app0/delivered";
    for (sut, name) in [(0, machine.clone()), (1, format!("{machine}#2"))] {
        let mut edited = golden.clone();
        *edited.cells[cell].suts[sut]
            .observables
            .get_mut(path)
            .expect("a delivered count") += 12_345.0;
        let report = diff_ledgers(&golden, &edited);
        assert_eq!(report.drift_count(), 1, "{}", report.render(2));
        assert_eq!(
            report.cells[0].drifts[0].path,
            format!("suts/{name}/{path}")
        );
    }
}

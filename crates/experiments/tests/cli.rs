//! The CLI's exit-code contract: a path that cannot be created or
//! written exits 1 with one line naming it, never a panic; argument
//! errors and files that are not ledgers exit 2.
//!
//! Every output-path probe runs `experiments run fig4.2 --scale quick`,
//! which simulates no cells, so each spawn takes milliseconds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `experiments run fig4.2 --scale quick` plus `extra` flags.
fn run_fig42(extra: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["run", "fig4.2", "--scale", "quick"])
        .args(extra)
        .output()
        .expect("spawn experiments")
}

/// A fresh, empty directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A regular file where a directory is expected.
fn regular_file(dir: &Path) -> PathBuf {
    let file = dir.join("file");
    std::fs::write(&file, "not a directory").expect("write scratch file");
    file
}

/// The run exited 1, named `path` on stderr and did not panic.
fn assert_cannot_write(out: &Output, path: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let line = format!("experiments: cannot write '{}': ", path.display());
    assert!(stderr.contains(&line), "expected {line:?} in {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn csv_dir_under_a_regular_file_exits_1() {
    let csv_dir = regular_file(&scratch("cli-csv-dir")).join("sub");
    let out = run_fig42(&[Path::new("--csv-dir"), &csv_dir]);
    assert_cannot_write(&out, &csv_dir);
}

#[test]
fn trace_under_a_regular_file_exits_1() {
    let file = regular_file(&scratch("cli-trace"));
    let out = run_fig42(&[Path::new("--trace"), &file.join("t.json")]);
    assert_cannot_write(&out, &file);
}

#[test]
fn ledger_at_a_directory_exits_1() {
    let dir = scratch("cli-ledger");
    let out = run_fig42(&[Path::new("--ledger"), &dir]);
    assert_cannot_write(&out, &dir);
}

#[test]
fn profile_json_at_a_directory_exits_1() {
    let dir = scratch("cli-profile-json");
    let out = run_fig42(&[Path::new("--profile-json"), &dir]);
    assert_cannot_write(&out, &dir);
}

#[test]
fn oracle_flag_is_a_usage_error() {
    let out = run_fig42(&[Path::new("--oracle")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage:"), "{stderr}");
}

/// A repeated experiment id is refused, naming the id, before any cell
/// runs or any output directory is made, with and without `--csv-dir`.
#[test]
fn a_repeated_experiment_id_exits_2_naming_it() {
    let csv_dir = scratch("cli-repeated-id").join("out");
    for extra in [vec![], vec![Path::new("--csv-dir"), &csv_dir]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["run", "fig6.2b", "fig6.2b", "--scale", "quick"])
            .args(&extra)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains("experiment 'fig6.2b' given more than once"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{stderr}");
        assert!(!csv_dir.exists(), "{stderr}");
    }
}

/// `obs diff` refuses a ledger that is valid JSON but carries an
/// infinite leaf or a fractional version marker; diffing it would rank
/// a NaN drift or read version 1.5 as 1.
#[test]
fn obs_diff_refuses_non_finite_numbers_and_a_fractional_version() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig6.4a_quick.ledger.json"
    );
    let text = std::fs::read_to_string(golden).expect("read the golden ledger");
    let dir = scratch("cli-obs-diff");
    for (name, from, to) in [
        ("inf.json", "\"irq_fires\":2230", "\"irq_fires\":1e400"),
        ("frac.json", "{\"pcs_ledger\":1,", "{\"pcs_ledger\":1.5,"),
    ] {
        assert!(text.contains(from), "{from}");
        let edited = dir.join(name);
        std::fs::write(&edited, text.replacen(from, to, 1)).expect("write edited ledger");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["obs", "diff", golden])
            .arg(&edited)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("is not a ledger"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// `obs diff` refuses JSON that only looks like a ledger: a `cells`
/// object, no `cells` at all, and a cell with a `suts` object and no
/// achieved rate. Each used to read as an empty or SUT-less ledger, so
/// the diff exited 0.
#[test]
fn obs_diff_refuses_documents_without_cells_suts_or_rates() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig6.4a_quick.ledger.json"
    );
    let dir = scratch("cli-obs-diff-shape");
    for (name, doc) in [
        (
            "cells-object.json",
            r#"{"pcs_ledger":1,"cells":{"label":"x"}}"#,
        ),
        ("no-cells.json", r#"{"pcs_ledger":1}"#),
        (
            "suts-object.json",
            r#"{"pcs_ledger":1,"cells":[{"label":"x","fingerprint":"aa","suts":{"x":1}}]}"#,
        ),
    ] {
        let probe = dir.join(name);
        std::fs::write(&probe, doc).expect("write probe");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["obs", "diff", golden])
            .arg(&probe)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("is not a ledger"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

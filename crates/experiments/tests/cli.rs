//! The CLI's exit-code contract for output paths: a path that cannot be
//! created or written exits 1 with one line naming it, never a panic;
//! argument errors exit 2.
//!
//! Every probe runs `experiments run fig4.2 --scale quick`, which
//! simulates no cells, so each spawn takes milliseconds.

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

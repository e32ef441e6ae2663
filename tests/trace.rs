//! Determinism and exactness guarantees of the tracing layer: the same
//! seed must export byte-identical Chrome trace JSON and event CSV at any
//! worker count, tracing must not perturb the
//! rendered results, and every traced cell's per-stage drop attribution
//! must partition its generated packets exactly.
//!
//! Like `tests/determinism.rs`, each test uses a packet count no other
//! test in this binary uses (the stream cache is process-global).

use pcapbench::core::{figures, ExecConfig, Scale};
use pcapbench::trace::{export, StageFilter, TraceCollector, TraceSpec};
use std::sync::Arc;

fn traced_exec(jobs: usize) -> (ExecConfig, Arc<TraceCollector>) {
    let collector = Arc::new(TraceCollector::new(TraceSpec::default()));
    let exec = ExecConfig::with_jobs(jobs).with_trace(Arc::clone(&collector));
    (exec, collector)
}

/// A `sched`-filtered exec: the collector records per-CPU scheduling
/// spans (and drops, to keep lifecycle assertions available) instead of
/// the full lifecycle log.
fn sched_exec(jobs: usize, cap: usize) -> (ExecConfig, Arc<TraceCollector>) {
    let spec = TraceSpec {
        filter: StageFilter::parse("sched,drops").expect("valid filter"),
        cap,
    };
    let collector = Arc::new(TraceCollector::new(spec));
    let exec = ExecConfig::with_jobs(jobs).with_trace(Arc::clone(&collector));
    (exec, collector)
}

#[test]
fn trace_exports_are_byte_identical_at_any_jobs() {
    let scale = Scale {
        count: 23_500,
        repeats: 2,
        rates: vec![Some(250.0), None],
    };
    // Reference: serial.
    let (ref_exec, ref_collector) = traced_exec(1);
    let ref_fig = figures::fig6_2_default_buffers(&scale, true, &ref_exec);
    let ref_cells = ref_collector.cells();
    assert!(!ref_cells.is_empty(), "tracing must record cells");
    let ref_json = export::chrome_trace_json(&ref_cells);
    let ref_csv = export::events_csv(&ref_cells);
    export::validate_json(&ref_json).expect("trace JSON must be RFC 8259 valid");

    for jobs in [2, 4] {
        let (exec, collector) = traced_exec(jobs);
        let fig = figures::fig6_2_default_buffers(&scale, true, &exec);
        assert_eq!(
            ref_fig.to_csv(),
            fig.to_csv(),
            "jobs={jobs}: tracing or worker count changed the results"
        );
        assert_eq!(
            ref_json,
            export::chrome_trace_json(&collector.cells()),
            "jobs={jobs}: trace JSON must be byte-identical"
        );
        assert_eq!(
            ref_csv,
            export::events_csv(&collector.cells()),
            "jobs={jobs}: event CSV must be byte-identical"
        );
    }
}

/// The scheduler's dispatch log — every (work item, CPU, time, span)
/// decision, exported as the sched-filtered Chrome JSON — must be
/// byte-identical across worker counts and reruns, like the results
/// themselves.
#[test]
fn sched_trace_is_byte_identical_at_any_jobs() {
    // Packet count unique to this binary.
    let scale = Scale {
        count: 22_500,
        repeats: 1,
        rates: vec![Some(400.0), None],
    };
    let run = |jobs: usize| {
        let (exec, collector) = sched_exec(jobs, 1 << 16);
        let fig = figures::fig6_2_default_buffers(&scale, true, &exec);
        (fig.to_csv(), export::chrome_trace_json(&collector.cells()))
    };
    let (ref_csv, ref_json) = run(1);
    assert!(
        ref_json.contains("\"cat\":\"sched\""),
        "a sched-filtered run must export scheduling spans"
    );
    for jobs in [1, 4] {
        let (csv, json) = run(jobs);
        assert_eq!(
            ref_csv, csv,
            "--jobs {jobs}: sched tracing changed the results"
        );
        assert_eq!(
            ref_json, json,
            "--jobs {jobs}: the scheduler dispatch log must not depend on the worker count"
        );
    }
}

#[test]
fn sched_trace_export_matches_golden() {
    // Pins the Perfetto-loadable rendering of per-CPU scheduling spans:
    // ph:"X" complete events on synthetic cpu rows, named work kinds,
    // and the one-time per-CPU thread metadata. Small on purpose — one
    // cell, bounded sink — so the fixture stays reviewable. Regenerate
    // after an intentional format change with:
    // UPDATE_GOLDEN=1 cargo test --test trace
    let scale = Scale {
        count: 5_500,
        repeats: 1,
        rates: vec![None],
    };
    let (exec, collector) = sched_exec(1, 64);
    figures::fig6_2_default_buffers(&scale, true, &exec);
    let json = export::chrome_trace_json(&collector.cells());
    export::validate_json(&json).expect("sched trace JSON must be RFC 8259 valid");
    for needle in ["\"cat\":\"sched\"", "kernel_batch", "thread_name", "cpu0"] {
        assert!(json.contains(needle), "sched export must contain {needle}");
    }

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("trace_sched.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test trace",
            path.display()
        )
    });
    assert_eq!(
        expected, json,
        "sched trace export drifted from its checked-in golden; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn tracing_does_not_change_rendered_results() {
    let scale = Scale {
        count: 24_500,
        repeats: 1,
        rates: vec![Some(300.0), None],
    };
    let untraced = figures::fig6_6_filter(&scale, true, &ExecConfig::with_jobs(4));
    let (exec, collector) = traced_exec(4);
    let traced = figures::fig6_6_filter(&scale, true, &exec);
    assert_eq!(untraced.to_csv(), traced.to_csv());
    assert_eq!(untraced.to_table(), traced.to_table());
    assert!(!collector.is_empty());
}

#[test]
fn traced_buffer_sweep_attributions_partition_exactly() {
    // The acceptance run: the buffer-size experiment (Fig 6.4) traced at
    // full speed, where small buffers genuinely drop. Every cell's
    // per-stage drop counts must sum exactly to generated − delivered.
    let scale = Scale {
        count: 21_500,
        repeats: 1,
        rates: vec![None],
    };
    let (exec, collector) = traced_exec(4);
    figures::fig6_4_buffer_sweep(&scale, false, &exec);
    assert!(!collector.is_empty());
    let cells = collector.cells();
    let mut saw_drops = false;
    for cell in &cells {
        for sut in &cell.suts {
            assert!(
                !sut.attributions.is_empty(),
                "{}/{}: traced SUT must attribute",
                cell.label,
                sut.label
            );
            for attr in &sut.attributions {
                assert!(
                    attr.balanced(),
                    "{}/{}: {attr:?} must balance",
                    cell.label,
                    sut.label
                );
                assert_eq!(attr.generated, scale.count, "{}", cell.label);
                assert_eq!(
                    attr.generated - attr.delivered,
                    attr.dropped(),
                    "{}/{}: drops must sum to generated − delivered",
                    cell.label,
                    sut.label
                );
                saw_drops |= attr.dropped() > 0;
            }
            assert!(
                !sut.report.events.is_empty(),
                "{}/{}: traced SUT must record events",
                cell.label,
                sut.label
            );
        }
    }
    assert!(
        saw_drops,
        "a full-speed buffer sweep must lose packets somewhere"
    );
    // And the whole collection must export as loadable JSON.
    let json = export::chrome_trace_json(&cells);
    export::validate_json(&json).expect("trace JSON must be valid");
    assert!(json.contains("drop_attribution/app0"));
}

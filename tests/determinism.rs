//! Determinism guarantees of the parallel sweep engine: the same seed
//! must produce byte-identical outputs at any worker count, and the
//! content-addressed stream cache must be invisible in the results.
//!
//! Each test uses a packet count no other test in this binary uses, so
//! the process-global stream cache cannot share streams between
//! concurrently running tests and the generated/shared counters stay
//! exact.

use pcapbench::core::{figures, ExecConfig, Scale};

#[test]
fn csv_is_byte_identical_at_any_job_count() {
    let scale = Scale {
        count: 31_000,
        repeats: 2,
        rates: vec![Some(200.0), Some(700.0), None],
    };
    let serial = figures::fig6_2_default_buffers(&scale, true, &ExecConfig::with_jobs(1));
    for jobs in [2, 8] {
        let exec = ExecConfig::with_jobs(jobs);
        let parallel = figures::fig6_2_default_buffers(&scale, true, &exec);
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "--jobs {jobs} must render the same CSV bytes as --jobs 1"
        );
        assert_eq!(
            serial.to_table(),
            parallel.to_table(),
            "--jobs {jobs} must render the same table bytes as --jobs 1"
        );
    }
}

#[test]
fn cold_and_warm_stream_cache_render_identical_csv() {
    let scale = Scale {
        count: 35_000,
        repeats: 2,
        rates: vec![Some(220.0), None],
    };
    // Cold: no other test uses this packet count, so every cell
    // generates its own stream, and no one else asks for it.
    let cold_exec = ExecConfig::with_jobs(4);
    let cold = figures::fig6_2_default_buffers(&scale, true, &cold_exec);
    assert_eq!(cold_exec.stats.streams_generated(), 4, "rates × repeats");
    assert_eq!(cold_exec.stats.streams_shared(), 0);
    // Warm: every key was asked for before, so every cell regenerates
    // its stream and the cache keeps it.
    let warm_exec = ExecConfig::with_jobs(4);
    let warm = figures::fig6_2_default_buffers(&scale, true, &warm_exec);
    assert_eq!(warm_exec.stats.cells_run(), cold_exec.stats.cells_run());
    assert_eq!(warm_exec.stats.streams_generated(), 4);
    assert_eq!(warm_exec.stats.streams_shared(), 0);
    // Hot: every cell simulates again, but each one subscribes to the
    // stream the warm run kept.
    let hot_exec = ExecConfig::with_jobs(4);
    let hot = figures::fig6_2_default_buffers(&scale, true, &hot_exec);
    assert_eq!(hot_exec.stats.cells_run(), cold_exec.stats.cells_run());
    assert_eq!(hot_exec.stats.streams_generated(), 0);
    assert_eq!(hot_exec.stats.streams_shared(), 4);
    for (run, other) in [("warm", &warm), ("hot", &hot)] {
        assert_eq!(
            cold.to_csv(),
            other.to_csv(),
            "{run}: regenerated and subscribed streams must render the same CSV bytes"
        );
        assert_eq!(cold.to_table(), other.to_table(), "{run}");
    }
}

#[test]
fn repeats_use_distinct_streams_but_stay_deterministic() {
    // With >1 repeats the per-repeat seed derivation must give each
    // repeat its own stream (otherwise the median over repeats is just
    // the single-run value and the thesis' §6.2.2 calculation is moot),
    // and the whole aggregate must still be reproducible.
    let scale_1 = Scale {
        count: 27_000,
        repeats: 1,
        rates: vec![None],
    };
    let scale_5 = Scale {
        count: 27_000,
        repeats: 5,
        rates: vec![None],
    };
    let one = figures::fig6_2_default_buffers(&scale_1, false, &ExecConfig::with_jobs(8));
    let five_a = figures::fig6_2_default_buffers(&scale_5, false, &ExecConfig::with_jobs(8));
    let five_b = figures::fig6_2_default_buffers(&scale_5, false, &ExecConfig::with_jobs(3));
    assert_eq!(
        five_a.to_csv(),
        five_b.to_csv(),
        "repeat medians must not depend on the job count"
    );
    // Not a hard guarantee per-point, but over a whole overloaded sweep
    // the 5-repeat median CSV differing from the single run shows the
    // repeats really sampled different streams.
    assert_ne!(
        one.to_csv(),
        five_a.to_csv(),
        "5 repeats must not collapse to the single-repeat run"
    );
}

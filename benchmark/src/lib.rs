//! # pcs-benchmark — the repository benchmark
//!
//! Four workloads over the whole simulator (`rate-sweep`,
//! `buffer-sweep`, `app-mix`, `traced-sweep`; see [`workload`]), four
//! end-to-end metrics measured on untraced runs, and 38 per-layer
//! host-time metrics measured on a separate span-traced run of the same
//! workload ([`traced`], [`spans`], [`metrics`]).
//!
//! Every measured run is a fresh child process: `RunCache` and
//! `StreamCache` are process-global, so a second run in one process
//! would time cache lookups, and peak RSS only ever rises. The program
//! carries no instrumentation for the benchmark; the traced run rebuilds
//! each cell from the library's public functions with spans around the
//! calls, and its CSV must be byte-identical to the untraced run's.
//!
//! `README.md` beside this crate documents the workloads, the metric
//! tables, the metric → workload predictions and how to run, compare
//! and bless.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod spans;
pub mod traced;
pub mod workload;

/// Quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method); a single value is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` past `i·m/4` (two values).
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}

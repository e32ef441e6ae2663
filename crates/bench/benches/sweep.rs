//! Sweep-engine benchmarks: serial vs parallel cell scheduling and the
//! run-cache hit path.
//!
//! On a multi-core host the `jobs-N` variants should approach N× the
//! serial cell throughput (cells are independent simulations); the
//! `warm-cache` variant shows the memoized upper bound. The
//! single-machine hot path is benched in `hotpath.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcs_hw::MachineSpec;
use pcs_oskernel::SimConfig;
use pcs_pktgen::StreamCache;
use pcs_testbed::{run_sweep_exec, CycleConfig, ExecConfig, RunCache, Sut};

fn sweep_inputs() -> (Vec<Sut>, CycleConfig, Vec<Option<f64>>) {
    let suts = vec![
        Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig::default(),
        },
        Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        },
    ];
    let mut cfg = CycleConfig::mwn(6_000, 4242);
    cfg.repeats = 2;
    let rates = vec![Some(200.0), Some(500.0), Some(800.0), None];
    (suts, cfg, rates)
}

fn bench_sweep(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    let cells = (rates.len() * cfg.repeats as usize) as u64;
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    for jobs in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("cold", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                // "Cold" means full generation work: no cached cell and
                // no published stream survives from the last iteration.
                RunCache::global().clear();
                StreamCache::global().clear();
                let points = run_sweep_exec(&suts, &cfg, &rates, &ExecConfig::with_jobs(jobs));
                assert_eq!(points.len(), rates.len());
                points
            })
        });
    }
    // Warm cache: every cell is a lookup; the floor for repeat baselines.
    g.bench_function("warm-cache", |b| {
        run_sweep_exec(&suts, &cfg, &rates, &ExecConfig::serial());
        b.iter(|| run_sweep_exec(&suts, &cfg, &rates, &ExecConfig::serial()))
    });
    g.finish();
}

criterion_group!(sweep, bench_sweep);
criterion_main!(sweep);

//! Sweep-engine benchmarks: serial vs parallel cell scheduling, the
//! run-cache hit path, the streaming pipeline vs the materialized
//! reference, and the content-addressed stream cache.
//!
//! On a multi-core host the `jobs-N` variants should approach N× the
//! serial cell throughput (cells are independent simulations); the
//! `warm-cache` variant shows the memoized upper bound. The `pipeline`
//! group runs the same cold sweep through the chunked splitter broadcast
//! at several chunk sizes against the materialize-then-fanout baseline —
//! the streamed variants overlap generation with consumption (and bound
//! memory), which is where their advantage on multi-core hosts comes
//! from. The `stream-cache` group runs the same sweep with sharing off,
//! cold (each iteration generates and publishes) and warm (every cell
//! subscribes to already published chunks). The single-machine hot path
//! is benched in `hotpath.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcs_hw::MachineSpec;
use pcs_oskernel::SimConfig;
use pcs_pktgen::StreamCache;
use pcs_testbed::{run_sweep_exec, CycleConfig, ExecConfig, PipelineConfig, RunCache, Sut};

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
                RunCache::global().clear();
                // Stream sharing off: "cold" means full generation work.
                let exec = ExecConfig::with_jobs(jobs)
                    .with_pipeline(PipelineConfig::streaming().with_stream_cache(0));
                let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
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

fn bench_pipeline(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    let cells = (rates.len() * cfg.repeats as usize) as u64;
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    // Stream sharing off throughout: every chunk size must genuinely
    // re-chunk the generator, not subscribe to published chunks.
    let variants = [
        ("materialized", PipelineConfig::materialized()),
        (
            "chunk-256",
            PipelineConfig::with_chunk(256).with_stream_cache(0),
        ),
        (
            "chunk-4096",
            PipelineConfig::with_chunk(4096).with_stream_cache(0),
        ),
        (
            "chunk-16384",
            PipelineConfig::with_chunk(16_384).with_stream_cache(0),
        ),
    ];
    for (name, pipeline) in variants {
        g.bench_with_input(BenchmarkId::new("cold", name), &pipeline, |b, &pipeline| {
            b.iter(|| {
                RunCache::global().clear();
                let exec = ExecConfig::with_jobs(2).with_pipeline(pipeline);
                let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
                assert_eq!(points.len(), rates.len());
                points
            })
        });
    }
    g.finish();
}

fn bench_stream_cache(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    let cells = (rates.len() * cfg.repeats as usize) as u64;
    let mut g = c.benchmark_group("stream-cache");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    let run = |pipeline: PipelineConfig| {
        let exec = ExecConfig::with_jobs(2).with_pipeline(pipeline);
        let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
        assert_eq!(points.len(), rates.len());
        points
    };
    g.bench_function("off", |b| {
        b.iter(|| {
            RunCache::global().clear();
            run(PipelineConfig::streaming().with_stream_cache(0))
        })
    });
    // Cold: every iteration generates and publishes each stream once.
    g.bench_function("cold", |b| {
        b.iter(|| {
            RunCache::global().clear();
            StreamCache::global().clear();
            run(PipelineConfig::streaming())
        })
    });
    // Warm: streams are already published, every cell subscribes; the
    // run cache is still flushed so the cells genuinely recompute.
    g.bench_function("warm", |b| {
        RunCache::global().clear();
        run(PipelineConfig::streaming());
        b.iter(|| {
            RunCache::global().clear();
            run(PipelineConfig::streaming())
        })
    });
    g.finish();
}

criterion_group!(sweep, bench_sweep, bench_pipeline, bench_stream_cache);
criterion_main!(sweep);

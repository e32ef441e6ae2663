//! Hot-path benchmarks backing the CI perf-regression gate
//! (`scripts/check_perf.py` against `BENCH_HOTPATH.json`).
//!
//! The `sched_overhead` group holds the number the gate guards
//! (`full-pipeline`: one `MachineSim::run_source` over the shared
//! 40k-packet workload, replayed from pre-generated chunks) and a
//! machine-speed calibration reference (`event-queue-floor`: the bare
//! pcs-des queue running the same arrival chain with no stage work — it
//! moves only when the host or the event queue itself moves). The
//! `hotpath` group adds the same run with per-stage time attribution
//! armed (`stage-times-on`), the cost every `--ledger` run pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcs_bench::{hotpath_stream, ReplayChunks, HOTPATH_COUNT};
use pcs_des::EventQueue;
use pcs_hw::MachineSpec;
use pcs_oskernel::{MachineSim, SimConfig};

fn bench_sched_overhead(c: &mut Criterion) {
    let (chunks, packets) = hotpath_stream();
    let mut g = c.benchmark_group("sched_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOTPATH_COUNT));
    g.bench_function("full-pipeline", |b| {
        b.iter(|| {
            MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .run_source(ReplayChunks::new(&chunks))
        })
    });
    g.bench_function("event-queue-floor", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            let mut it = packets.iter();
            if let Some(tp) = it.next() {
                queue.schedule(tp.time, 0u64);
            }
            let mut popped = 0u64;
            while let Some((_, seq)) = queue.pop() {
                popped += 1;
                if let Some(tp) = it.next() {
                    queue.schedule(tp.time, seq + 1);
                }
            }
            assert_eq!(popped, HOTPATH_COUNT);
            popped
        })
    });
    g.finish();
}

fn bench_stage_times(c: &mut Criterion) {
    let (chunks, _) = hotpath_stream();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOTPATH_COUNT));
    // Full pipeline with per-stage time attribution armed: a handful of
    // integer adds per dispatch, so this must track `full-pipeline`
    // within the perf gate's tolerance.
    g.bench_function("stage-times-on", |b| {
        b.iter(|| {
            MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .with_stage_times(true)
                .run_source(ReplayChunks::new(&chunks))
        })
    });
    g.finish();
}

criterion_group!(hotpath, bench_sched_overhead, bench_stage_times);
criterion_main!(hotpath);

//! The span-traced run: each cell rebuilt from the library's public
//! functions, in the order `pcs_testbed::cycle` runs them, with a span
//! around every call into a layer.
//!
//! The program itself carries no instrumentation. This composition must
//! stay call-for-call equal to `run_cell_cached` → `run_cell` →
//! `run_cell_streaming` → `distill`; the traced run's CSV is compared
//! byte for byte with the untraced run's to hold it there.

use crate::spans::Recorder;
use crate::workload::{Outcome, Plan, SutSet};
use pcs_des::{BatchProbe, EventQueue, PoolProbe, SimTime};
use pcs_faultsim::Oracle;
use pcs_oskernel::{MachineSim, RunReport};
use pcs_pktgen::{
    Chunk, ChunkedGenerator, Generator, PacketSource, PktgenConfig, PublishingSource, StreamCache,
    StreamRole,
};
use pcs_testbed::{
    aggregate_point, cell_key, cell_label, parallel_ordered, stream_key, wide_key, CellResult,
    CellSut, CycleConfig, MonitorSwitch, OpticalSplitter, PipelineConfig, PointResult, RunCache,
    Sut,
};
use pcs_trace::{SutTrace, TraceCollector, TraceSink, TraceSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters read at the layer boundaries while the traced run executes.
#[derive(Debug, Default)]
pub struct Probes {
    /// Hot-path buffer-pool counters every simulation publishes.
    pub pools: Arc<PoolProbe>,
    /// Macro-batching counters every simulation publishes.
    pub batches: Arc<BatchProbe>,
    /// Stream-cache acquisitions that generated the stream.
    pub streams_generated: AtomicU64,
    /// Stream-cache acquisitions that subscribed to a published stream.
    pub streams_shared: AtomicU64,
    /// Run-cache lookups.
    pub cache_lookups: AtomicU64,
    /// Run-cache lookups answered from the cache.
    pub cache_hits: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A packet source whose every `next_chunk` is a span counting the
/// chunk's packets.
struct Traced<'r, S> {
    rec: &'r Recorder,
    name: &'static str,
    inner: S,
}

impl<S: PacketSource> PacketSource for Traced<'_, S> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let (rec, inner) = (self.rec, &mut self.inner);
        rec.span(self.name, || {
            let chunk = inner.next_chunk();
            rec.note_items(chunk.as_ref().map_or(0, |c| c.len() as u64));
            chunk
        })
    }
}

/// Run `plan` span-traced: the same sets, cells and worker split as
/// [`Plan::run`]. On a workload that traces no cell the trace and ledger
/// epilogue still runs, over zero cells, so the trace/obs metrics read
/// that epilogue's fixed cost rather than a constant 0.
pub fn run(plan: &Plan, rec: &Recorder, probes: &Probes) -> Outcome {
    let collector = TraceCollector::new(Plan::trace_spec());
    let traced_cells = plan.traces().then_some(&collector);
    let (outer, inner) = plan.split_jobs();
    let sets: Vec<&SutSet> = plan.sets.iter().collect();
    let points = rec.span("testbed.sched.dispatch", || {
        let dispatch = rec.current();
        parallel_ordered(sets, outer, |_, set| {
            rec.span_under(dispatch, "testbed.sweep", || {
                sweep(plan, set, inner, traced_cells, rec, probes)
            })
        })
    });
    plan.finish(points, Some(&collector), rec)
}

/// `run_sweep_exec`: every (rate × repeat) cell on the pool, aggregated
/// per rate in input order.
fn sweep(
    plan: &Plan,
    set: &SutSet,
    jobs: usize,
    collector: Option<&TraceCollector>,
    rec: &Recorder,
    probes: &Probes,
) -> Vec<PointResult> {
    let cfg = &plan.cfg;
    let repeats = cfg.repeats as usize;
    let cells: Vec<(usize, u32)> = (0..set.rates.len())
        .flat_map(|ri| (0..cfg.repeats).map(move |rep| (ri, rep)))
        .collect();
    let results: Vec<CellResult> = rec.span("testbed.sched.dispatch", || {
        let dispatch = rec.current();
        parallel_ordered(cells, jobs, |_, (ri, repeat)| {
            rec.span_under(dispatch, "testbed.cell", || {
                cell(
                    &set.suts,
                    cfg,
                    set.rates[ri],
                    repeat,
                    collector,
                    rec,
                    probes,
                )
            })
        })
    });
    let labels: Vec<String> = set.suts.iter().map(|sut| sut.spec.label()).collect();
    rec.span("testbed.aggregate", || {
        set.rates
            .iter()
            .enumerate()
            .map(|(ri, &rate)| {
                let cells = &results[ri * repeats..(ri + 1) * repeats];
                aggregate_point(rate, cfg.count, &labels, cells)
            })
            .collect()
    })
}

/// `run_cell_cached` → `run_cell`: run-cache lookup, the streamed cell,
/// the invariant oracle, distillation and, when traced, the collector.
fn cell(
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    collector: Option<&TraceCollector>,
    rec: &Recorder,
    probes: &Probes,
) -> CellResult {
    let key = cell_key(suts, cfg, rate, repeat);
    let label = cell_label(rate, repeat);
    let trace_missing = collector.is_some_and(|c| !c.contains(&label, wide_key(key)));
    if !trace_missing {
        bump(&probes.cache_lookups);
        if let Some(hit) = rec.span("testbed.cache.get", || RunCache::global().get(&key)) {
            bump(&probes.cache_hits);
            return hit;
        }
    }
    let spec = collector.map(TraceCollector::spec);
    let (achieved, mut reports) = streamed_cell(suts, cfg, rate, repeat, spec, rec, probes);
    rec.span("faultsim.oracle", || {
        let link_mbps = cfg.tx.link_bps as f64 / 1e6;
        let verdict = Oracle::check_rate(&label, achieved, link_mbps).and_then(|()| {
            suts.iter()
                .zip(&reports)
                .try_for_each(|(sut, report)| Oracle::check_report(&label, &sut.spec, report))
        });
        if let Err(violation) = verdict {
            panic!("{violation}");
        }
    });
    let result = rec.span("profiling.distill", || distill(achieved, &reports));
    if let Some(collector) = collector {
        rec.span("trace.collect", || {
            let traces = suts
                .iter()
                .zip(reports.iter_mut())
                .map(|(sut, report)| SutTrace {
                    label: sut.spec.label(),
                    report: report.trace.take().map(|boxed| *boxed).unwrap_or_default(),
                    attributions: report.attributions(),
                    stage_times: report.stage_times.take(),
                })
                .collect();
            collector.record_cell(label, wide_key(key), achieved, traces);
        });
    }
    rec.span("testbed.cache.insert", || {
        RunCache::global().insert(key, result.clone())
    });
    result
}

/// One repeat's paced generator, with the cycle's per-repeat seed.
pub fn generator(cfg: &CycleConfig, rate: Option<f64>, repeat: u32) -> Generator {
    let config = PktgenConfig {
        count: cfg.count,
        size: cfg.size.clone(),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(config, cfg.tx, cfg.seed.wrapping_add(repeat as u64 * 7919));
    match rate {
        Some(r) => g.set_target_rate(r, cfg.mean_frame),
        None => g.set_full_speed(),
    }
    g.set_burstiness(cfg.burst);
    g
}

/// The span name of one SUT's simulation.
fn machine_span(name: &str) -> &'static str {
    match name {
        "swan" => "oskernel.swan",
        "snipe" => "oskernel.snipe",
        "moorhen" => "oskernel.moorhen",
        "flamingo" => "oskernel.flamingo",
        _ => "oskernel.other",
    }
}

/// `run_cell_streaming`: acquire the stream, then generate (or
/// subscribe), account through the switch and broadcast chunk by chunk
/// while one thread per SUT simulates.
fn streamed_cell(
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    trace: Option<TraceSpec>,
    rec: &Recorder,
    probes: &Probes,
) -> (f64, Vec<RunReport>) {
    let pipeline = PipelineConfig::default();
    let mut source: Box<dyn PacketSource + '_> = rec.span("pktgen.streamcache.acquire", || {
        let key = stream_key(cfg, rate, repeat);
        match StreamCache::global().acquire(key, pipeline.stream_cache_bytes) {
            StreamRole::Produce(publisher) => {
                bump(&probes.streams_generated);
                let chunks =
                    ChunkedGenerator::new(generator(cfg, rate, repeat), pipeline.chunk_packets);
                let generate = Traced {
                    rec,
                    name: "pktgen.generate",
                    inner: chunks,
                };
                Box::new(Traced {
                    rec,
                    name: "pktgen.streamcache.publish",
                    inner: PublishingSource::new(generate, publisher),
                }) as Box<dyn PacketSource>
            }
            StreamRole::Subscribe(subscriber) => {
                bump(&probes.streams_shared);
                Box::new(Traced {
                    rec,
                    name: "pktgen.streamcache.subscribe",
                    inner: subscriber,
                })
            }
        }
    });
    let (sender, outputs) = OpticalSplitter::new(suts.len() as u32).channel(pipeline.depth_chunks);
    let mut switch = MonitorSwitch::thesis_setup();
    let before = switch.snmp_read(8);
    let (mut bytes, mut last) = (0u64, None::<SimTime>);
    let stage_times = trace.is_some();
    let cell_span = rec.current();
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = suts
            .iter()
            .zip(outputs)
            .map(|(sut, output)| {
                let (spec, sim) = (sut.spec, sut.sim.clone());
                let sink = trace.map(TraceSink::bounded).unwrap_or_default();
                let pools = Arc::clone(&probes.pools);
                let batches = Arc::clone(&probes.batches);
                scope.spawn(move || {
                    rec.span_under(cell_span, machine_span(spec.name), || {
                        let report = MachineSim::new(spec, sim)
                            .with_trace(sink)
                            .with_pool_probe(pools)
                            .with_batch_probe(batches)
                            .with_stage_times(stage_times)
                            .run_source(Traced {
                                rec,
                                name: "testbed.splitter.pull",
                                inner: output,
                            });
                        rec.note_items(report.offered);
                        report
                    })
                })
            })
            .collect();
        while let Some(chunk) = source.next_chunk() {
            rec.span("testbed.switch", || {
                for tp in chunk.iter() {
                    switch.forward(&tp.packet);
                    bytes += tp.packet.frame_len as u64;
                    last = Some(tp.time);
                }
                rec.note_items(chunk.len() as u64);
            });
            rec.span("testbed.splitter.broadcast", || sender.broadcast(&chunk));
        }
        drop(sender); // end of stream: consumers drain and finish
        rec.span("testbed.cell.join", || {
            handles
                .into_iter()
                .map(|h| h.join().expect("sniffer thread panicked"))
                .collect()
        })
    });
    let after = switch.snmp_read(8);
    assert_eq!(
        MonitorSwitch::delta(&before, &after).out_pkts,
        cfg.count,
        "switch must confirm every generated packet went out"
    );
    let elapsed = last.map(SimTime::as_secs_f64).unwrap_or(0.0);
    let achieved = if elapsed > 0.0 {
        bytes as f64 * 8.0 / elapsed / 1e6
    } else {
        0.0
    };
    (achieved, reports)
}

/// `distill`: per-SUT capture rates plus the trimmed CPU busy share.
fn distill(achieved_mbps: f64, reports: &[RunReport]) -> CellResult {
    CellResult {
        achieved_mbps,
        suts: reports
            .iter()
            .map(|report| {
                let (worst, best) = report.worst_best();
                let cpu_busy = if report.samples.len() >= 3 {
                    pcs_profiling::trimmed_busy_percent(&report.samples, 95.0)
                } else {
                    report.load_cpu_usage() * 100.0
                };
                CellSut {
                    capture: report.mean_capture_rate(),
                    worst,
                    best,
                    cpu_busy,
                }
            })
            .collect(),
    }
}

/// Host-speed calibration over the workload's first stream, outside the
/// timed region: the Fig. 6.5 compile, the BPF VM over every packet and
/// a bare `EventQueue` chain with no stage work.
pub fn calibrate(plan: &Plan, rec: &Recorder) {
    let packets: Vec<_> = generator(&plan.cfg, plan.sets[0].rates[0], 0).collect();
    let prog = rec.span("bpf.compile", || {
        pcs_bpf::programs::fig65_program(65_535).expect("fig 6.5 filter compiles")
    });
    rec.span("bpf.vm", || {
        let accepted = packets
            .iter()
            .filter(|tp| pcs_bpf::vm::run(&prog, &tp.packet).is_ok_and(|v| v.accepted()))
            .count();
        rec.note_items(packets.len() as u64);
        std::hint::black_box(accepted)
    });
    rec.span("des.floor", || {
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
        rec.note_items(std::hint::black_box(popped));
    });
}

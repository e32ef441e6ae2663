//! The measurement cycle (thesis §3.4, Fig. 3.2) and result calculation
//! (§6.2.2).
//!
//! For every data rate the control host: starts the capturing and
//! profiling applications on all four sniffers, reads the switch's SNMP
//! counters, runs the generation, reads the counters again, stops the
//! applications — and repeats the whole cycle several times "to avoid
//! outliers or unwanted influences" (the thesis uses seven repetitions;
//! results aggregate by median).
//!
//! All sniffers observe the *same* packet stream, as behind the thesis'
//! passive optical splitter. A cell has one path through the testbed,
//! one broadcast: it acquires its (workload, rate, repeat) stream from
//! the process-global, content-addressed [`StreamCache`], one thread per
//! SUT runs its machine simulation on its own subscriber of that stream,
//! and the cell's thread drains the stream through the monitoring
//! switch. The first cell to need a stream generates and publishes it,
//! its sniffers reading along as it goes; cells that differ only in
//! their SUT set subscribe to the published chunks while the cache keeps
//! them. As in the thesis, a stream lasts one cycle unless a second cell
//! asks for it (see [`StreamCache::acquire`]), and the next stream is
//! generated into its retired chunks. The pipeline shape is fixed at
//! [`PipelineConfig::default`].

use crate::cache::{cell_key, stream_key, wide_key, CellResult, CellSut};
use crate::sched::{parallel_ordered, ExecConfig, PipelineConfig};
use crate::splitter::OpticalSplitter;
use crate::switch::MonitorSwitch;
use pcs_des::stats::median;
use pcs_des::SimTime;
use pcs_faultsim::{FaultPlan, Oracle};
use pcs_hw::MachineSpec;
use pcs_oskernel::{MachineSim, RunReport, SimConfig};
use pcs_pktgen::{
    ChunkedGenerator, Generator, PacketSource, PktgenConfig, PublishingSource, SizeSource,
    StreamCache, StreamRole, StreamSubscriber, TxModel,
};
use pcs_trace::{SutTrace, TraceSink, TraceSpec};
use std::sync::Arc;
use std::time::Instant;

/// One system under test: hardware plus kernel/application configuration.
#[derive(Clone)]
pub struct Sut {
    /// The machine.
    pub spec: MachineSpec,
    /// Buffering and applications.
    pub sim: SimConfig,
}

/// Sweep-wide settings.
#[derive(Clone)]
pub struct CycleConfig {
    /// Packets per generation run (the thesis uses 10⁶).
    pub count: u64,
    /// Measurement repetitions per point (the thesis uses 7).
    pub repeats: u32,
    /// Packet size source for the generator.
    pub size: SizeSource,
    /// Mean frame length of that source (for rate pacing).
    pub mean_frame: f64,
    /// Mean packet-train length (burstiness).
    pub burst: u32,
    /// Base RNG seed; repeats derive their own.
    pub seed: u64,
    /// Generating NIC model.
    pub tx: TxModel,
}

impl CycleConfig {
    /// The thesis' workload: the MWN packet-size distribution at 10⁶
    /// packets per run. `repeats` is lowered to 3 by default (the runs
    /// are deterministic up to the seed; see DESIGN.md).
    pub fn mwn(count: u64, seed: u64) -> CycleConfig {
        let counts = pcs_pktgen::mwn_counts(1_000_000);
        let dist = pcs_pktgen::TwoStageDist::from_counts(
            counts.iter().map(|(&s, &c)| (s, c)),
            &pcs_pktgen::DistConfig::default(),
        )
        .expect("mwn distribution is non-empty");
        let mean_frame = pcs_pktgen::mwn_mean(&counts) + 14.0;
        CycleConfig {
            count,
            repeats: 3,
            size: SizeSource::Distribution(dist),
            mean_frame,
            burst: 64,
            seed,
            tx: TxModel::syskonnect(),
        }
    }

    /// Fixed-size frames (stock pktgen behaviour).
    pub fn fixed(count: u64, frame_len: u32, seed: u64) -> CycleConfig {
        CycleConfig {
            count,
            repeats: 3,
            size: SizeSource::Fixed(frame_len),
            mean_frame: frame_len as f64,
            burst: 1,
            seed,
            tx: TxModel::syskonnect(),
        }
    }

    /// The generator seed of repeat `repeat`, derived from [`Self::seed`]
    /// so that every repeat draws its own stream.
    pub fn repeat_seed(&self, repeat: u32) -> u64 {
        self.seed.wrapping_add(repeat as u64 * 7919)
    }
}

/// Result for one SUT at one measurement point (medians over repeats).
#[derive(Debug, Clone)]
pub struct SutPoint {
    /// Machine label.
    pub label: String,
    /// Mean capture rate over the SUT's applications (0..1).
    pub capture: f64,
    /// Worst single application's capture rate.
    pub capture_worst: f64,
    /// Best single application's capture rate.
    pub capture_best: f64,
    /// Trimmed average CPU busy percentage (cpusage → trimusage).
    pub cpu_busy: f64,
}

/// Result of one measurement point (one target rate).
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Requested rate in Mbit/s (`None` = full speed / no gap).
    pub target_mbps: Option<f64>,
    /// Median achieved frame data rate in Mbit/s (verified against the
    /// switch counters).
    pub achieved_mbps: f64,
    /// Packets generated per run.
    pub generated: u64,
    /// One entry per SUT, in input order.
    pub suts: Vec<SutPoint>,
}

/// Build one repeat's paced generator.
fn build_generator(cfg: &CycleConfig, rate: Option<f64>, repeat: u32) -> Generator {
    let gen_cfg = PktgenConfig {
        count: cfg.count,
        size: cfg.size.clone(),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(gen_cfg, cfg.tx, cfg.repeat_seed(repeat));
    match rate {
        Some(r) => g.set_target_rate(r, cfg.mean_frame),
        None => g.set_full_speed(),
    }
    g.set_burstiness(cfg.burst);
    g
}

/// Distill the per-SUT reports plus the achieved rate into a cell result.
fn distill(achieved_mbps: f64, reports: &[RunReport]) -> CellResult {
    CellResult {
        achieved_mbps,
        suts: reports
            .iter()
            .map(|report| {
                let (worst, best) = report.worst_best();
                // Short runs may not span two 0.5 s cpusage samples;
                // fall back to the load-window accounting then.
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

/// Human-readable label of one cell — the (rate, repeat) coordinate a
/// trace export names the cell by.
pub fn cell_label(rate: Option<f64>, repeat: u32) -> String {
    match rate {
        Some(r) => format!("rate={r:?} rep={repeat}"),
        None => format!("rate=full rep={repeat}"),
    }
}

/// Run one cell — one repeat of one rate point over all SUTs — and
/// distill the numbers every aggregation needs.
///
/// Every call simulates, and the invariant oracle checks every cell.
/// When `exec.trace` is set, every SUT simulates with an enabled sink
/// and the cell's per-SUT event logs, metrics and drop attributions are
/// recorded in the collector (first write wins; duplicates are
/// identical by determinism). Tracing never changes the distilled
/// numbers.
fn run_cell(
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    exec: &ExecConfig,
) -> CellResult {
    let started = Instant::now();
    let spec = exec.trace.as_ref().map(|collector| collector.spec());
    let (achieved, mut reports) = run_cell_streaming(suts, cfg, rate, repeat, exec, spec);
    // A violation is a simulation bug, never a measurement outcome, so
    // it panics with the cell coordinate.
    let label = cell_label(rate, repeat);
    let link_mbps = cfg.tx.link_bps as f64 / 1e6;
    if let Err(violation) = Oracle::check_rate(&label, achieved, link_mbps) {
        panic!("{violation}");
    }
    for (sut, report) in suts.iter().zip(&reports) {
        if let Err(violation) = Oracle::check_report(&label, &sut.spec, report) {
            panic!("{violation}");
        }
    }
    let result = distill(achieved, &reports);
    if let Some(collector) = &exec.trace {
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
        let key = wide_key(cell_key(suts, cfg, rate, repeat));
        collector.record_cell(label, key, achieved, traces);
    }
    exec.stats.record_run(started.elapsed().as_nanos() as u64);
    result
}

/// The cell's stream, acquired from the content-addressed
/// [`StreamCache`]: the source the cell thread drains through the
/// monitoring switch, and a subscriber that reads the same chunks from
/// chunk 0, to clone for each sniffer.
///
/// The first cell to need a (workload, rate, repeat) stream generates
/// and publishes it. A cell that asks for it while it is linked —
/// typically the same measurement point over a *different* SUT set —
/// subscribes to the published chunks instead of running the generator
/// again. The cache keeps a completed stream only when its key was
/// asked for twice by then (such a second cell asked while it was live,
/// or the key was asked for before) and it fits the byte budget; so a
/// second SUT set that runs after the first regenerates the stream
/// once, and every later set subscribes. Either way every sniffer reads
/// the very chunks the generator made, so results are byte-identical.
fn cell_stream(
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    exec: &ExecConfig,
    pipeline: PipelineConfig,
) -> (Box<dyn PacketSource>, StreamSubscriber) {
    let stats = &exec.stats;
    // An armed cache-squeeze fault zeroes the stream cache's byte budget,
    // so no completed stream is kept: an execution perturbation (every
    // cell regenerates) that must leave results byte-identical.
    let budget = exec
        .faults
        .as_deref()
        .map_or(pipeline.stream_cache_bytes, |plan| {
            plan.clamp_stream_budget(pipeline.stream_cache_bytes)
        });
    match StreamCache::global().acquire(stream_key(cfg, rate, repeat), budget) {
        StreamRole::Produce(publisher) => {
            stats.record_stream_generated();
            let sniffers = publisher.subscribe();
            let generate =
                ChunkedGenerator::new(build_generator(cfg, rate, repeat), pipeline.chunk_packets);
            (
                Box::new(PublishingSource::new(generate, publisher)),
                sniffers,
            )
        }
        StreamRole::Subscribe(subscriber) => {
            stats.record_stream_shared();
            (Box::new(subscriber.clone()), subscriber)
        }
    }
}

/// The cell's one broadcast: one scoped thread per SUT runs its machine
/// simulation on its own subscriber of the cell's stream, while the
/// calling thread drains the stream through the monitoring switch. No
/// thread ever waits on a sniffer; a sniffer that catches up with a
/// generating cell waits for the next published chunk.
fn run_cell_streaming(
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    exec: &ExecConfig,
    trace: Option<TraceSpec>,
) -> (f64, Vec<RunReport>) {
    // With no SUTs there is no splitter; the stream still passes the
    // switch, which is all the achieved rate needs.
    if !suts.is_empty() {
        let splitter = OpticalSplitter::new(suts.len() as u32);
        assert!(
            splitter.signal_ok(),
            "optical budget exceeded: {} dB loss at {} ways",
            splitter.loss_db(),
            splitter.ways()
        );
    }
    let (mut source, sniffers) = cell_stream(cfg, rate, repeat, exec, PipelineConfig::default());

    let mut switch = MonitorSwitch::thesis_setup();
    let before = switch.snmp_read(8);
    // The last packet's send time: the run's length, over which the
    // switch's mirror-port octets give the achieved rate.
    let mut last = SimTime::ZERO;
    let faults = exec.faults.as_deref();
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = suts
            .iter()
            .map(|sut| {
                let input = sniffers.clone();
                let spec = sut.spec;
                let sim = sut.sim.clone();
                let sink = trace.map(TraceSink::bounded).unwrap_or_default();
                let armed = faults.map(FaultPlan::arm_machine);
                let pools = Arc::clone(exec.stats.sim_pools());
                let stage_times = exec.stage_times;
                scope.spawn(move || {
                    MachineSim::new(spec, sim)
                        .with_trace(sink)
                        .with_faults(armed)
                        .with_pool_probe(pools)
                        .with_stage_times(stage_times)
                        .run_source(input)
                })
            })
            .collect();
        let mut chunk_index = 0u64;
        while let Some(chunk) = source.next_chunk() {
            // Splitter hiccup: a host-side stall of the cell's stream
            // reader. In a generating cell, sniffers that catch up wait
            // for the next chunk; results must stay byte-identical.
            if let Some(us) = faults.and_then(|plan| plan.splitter_hiccup_us(chunk_index)) {
                std::thread::sleep(std::time::Duration::from_micros(us));
            }
            chunk_index += 1;
            for tp in chunk.iter() {
                switch.forward(&tp.packet);
            }
            last = chunk.last().map_or(last, |tp| tp.time);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("sniffer thread panicked"))
            .collect()
    });
    let delta = MonitorSwitch::delta(&before, &switch.snmp_read(8));
    assert_eq!(
        delta.out_pkts, cfg.count,
        "switch must confirm every generated packet went out"
    );
    let elapsed = last.as_secs_f64();
    let achieved = if elapsed > 0.0 {
        delta.out_octets as f64 * 8.0 / elapsed / 1e6
    } else {
        0.0
    };
    (achieved, reports)
}

/// High-water mark of the bytes the process-global [`StreamCache`] has
/// held resident, over every cell this process has run.
pub fn peak_stream_bytes() -> u64 {
    StreamCache::global().peak_resident_bytes()
}

/// Aggregate one rate point's cells (one per repeat) into a
/// [`PointResult`] by median, exactly as the thesis' §6.2.2 calculation
/// does over its seven repetitions.
///
/// Public so the result calculation can be property-tested over
/// arbitrary per-repeat inputs; `labels` is one label per SUT, matching
/// the order of `CellResult::suts`.
pub fn aggregate_point(
    rate: Option<f64>,
    generated: u64,
    labels: &[String],
    cells: &[CellResult],
) -> PointResult {
    let achieved_all: Vec<f64> = cells.iter().map(|c| c.achieved_mbps).collect();
    PointResult {
        target_mbps: rate,
        achieved_mbps: median(&achieved_all),
        generated,
        suts: labels
            .iter()
            .enumerate()
            .map(|(s, label)| {
                let series = |f: fn(&CellSut) -> f64| -> Vec<f64> {
                    cells.iter().map(|c| f(&c.suts[s])).collect()
                };
                SutPoint {
                    label: label.clone(),
                    capture: median(&series(|c| c.capture)),
                    capture_worst: median(&series(|c| c.worst)),
                    capture_best: median(&series(|c| c.best)),
                    cpu_busy: median(&series(|c| c.cpu_busy)),
                }
            })
            .collect(),
    }
}

/// Run one measurement point over all SUTs with repeats; aggregate by
/// median.
///
/// ```
/// use pcs_testbed::{run_point, standard_suts, CycleConfig};
/// use pcs_oskernel::SimConfig;
///
/// let suts = standard_suts(SimConfig::default());
/// let mut cfg = CycleConfig::mwn(5_000, 42);
/// cfg.repeats = 1;
/// let point = run_point(&suts, &cfg, Some(200.0));
/// assert_eq!(point.suts.len(), 4);
/// assert!(point.suts.iter().all(|s| s.capture > 0.99));
/// ```
pub fn run_point(suts: &[Sut], cfg: &CycleConfig, rate: Option<f64>) -> PointResult {
    run_sweep(suts, cfg, &[rate])
        .pop()
        .expect("a one-rate sweep has one point")
}

/// Sweep a list of rates (the thesis' 50–950 Mbit/s x-axis); `None`
/// entries mean "no inter-packet gap" (full speed). Serial; see
/// [`run_sweep_exec`] for the parallel engine.
pub fn run_sweep(suts: &[Sut], cfg: &CycleConfig, rates: &[Option<f64>]) -> Vec<PointResult> {
    run_sweep_exec(suts, cfg, rates, &ExecConfig::serial())
}

/// The parallel sweep engine: schedule every (rate × repeat) cell of the
/// sweep as an independent job on a bounded worker pool and assemble the
/// per-rate [`PointResult`]s **in input order**, regardless of which
/// worker finishes when.
///
/// Each cell generates its own packet stream (the per-repeat seed
/// derivation the serial cycle already used) and runs its SUT sims, so
/// the output is bit-identical to [`run_sweep`] for any `exec.jobs`.
/// Every cell simulates; `exec.stats` counts the cells and their wall
/// time.
pub fn run_sweep_exec(
    suts: &[Sut],
    cfg: &CycleConfig,
    rates: &[Option<f64>],
    exec: &ExecConfig,
) -> Vec<PointResult> {
    let repeats = cfg.repeats as usize;
    let cells: Vec<(usize, u32)> = rates
        .iter()
        .enumerate()
        .flat_map(|(ri, _)| (0..cfg.repeats).map(move |rep| (ri, rep)))
        .collect();
    let results: Vec<CellResult> = parallel_ordered(cells, exec.jobs, |_, (ri, repeat)| {
        run_cell(suts, cfg, rates[ri], repeat, exec)
    });
    let labels: Vec<String> = suts.iter().map(|sut| sut.spec.label()).collect();
    rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            aggregate_point(
                rate,
                cfg.count,
                &labels,
                &results[ri * repeats..(ri + 1) * repeats],
            )
        })
        .collect()
}

/// The standard four-sniffer setup with a common simulation config.
pub fn standard_suts(sim: SimConfig) -> Vec<Sut> {
    MachineSpec::all_sniffers()
        .into_iter()
        .map(|spec| Sut {
            spec,
            sim: sim.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_oskernel::BufferConfig;

    fn quick_cfg() -> CycleConfig {
        let mut c = CycleConfig::mwn(8_000, 42);
        c.repeats = 2;
        c
    }

    #[test]
    fn point_runs_all_four_sniffers() {
        let suts = standard_suts(SimConfig::default());
        // Long enough (~1 s of virtual time) for cpusage to get samples.
        let mut cfg = CycleConfig::mwn(30_000, 42);
        cfg.repeats = 2;
        let p = run_point(&suts, &cfg, Some(150.0));
        assert_eq!(p.suts.len(), 4);
        assert!(
            (p.achieved_mbps - 150.0).abs() < 20.0,
            "{}",
            p.achieved_mbps
        );
        for s in &p.suts {
            assert!(
                (s.capture - 1.0).abs() < 1e-9,
                "{} should capture all at 150 Mbit/s: {}",
                s.label,
                s.capture
            );
            assert!(s.cpu_busy > 0.0 && s.cpu_busy <= 100.0);
        }
    }

    #[test]
    fn full_speed_point() {
        let suts = vec![Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        }];
        let p = run_point(&suts, &quick_cfg(), None);
        assert!(p.achieved_mbps > 700.0, "{}", p.achieved_mbps);
        assert!(p.target_mbps.is_none());
    }

    #[test]
    fn sweep_produces_ordered_points() {
        let suts = vec![Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig {
                buffers: BufferConfig::increased(),
                ..SimConfig::default()
            },
        }];
        let pts = run_sweep(&suts, &quick_cfg(), &[Some(100.0), Some(300.0)]);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].achieved_mbps < pts[1].achieved_mbps);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let suts = vec![Sut {
            spec: MachineSpec::snipe(),
            sim: SimConfig::default(),
        }];
        let mut cfg = quick_cfg();
        cfg.repeats = 3;
        let rates = [Some(100.0), Some(400.0), None];
        let serial = run_sweep(&suts, &cfg, &rates);
        for jobs in [2, 8] {
            let exec = ExecConfig::with_jobs(jobs);
            let parallel = run_sweep_exec(&suts, &cfg, &rates, &exec);
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "jobs={jobs} must not change any bit of the results"
            );
            // The serial run computed the same cells; every one of them
            // simulates again.
            assert_eq!(exec.stats.cells_run(), 9, "jobs={jobs}");
        }
    }

    #[test]
    fn cold_and_warm_stream_cache_compute_identical_cells() {
        // Unique packet count: the stream cache is process-global and
        // tests share one process, so this test owns its stream keys.
        let mut cfg = CycleConfig::mwn(8_209, 77);
        cfg.repeats = 1;
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
        // Every call simulates; only the stream is shared.
        let exec = ExecConfig::serial();
        for (i, rate) in [Some(250.0), None].into_iter().enumerate() {
            let i = i as u64;
            // The first run generates a stream nobody else asks for …
            let cold = run_cell(&suts, &cfg, rate, 0, &exec);
            assert_eq!(exec.stats.streams_generated(), 2 * i + 1);
            // … the second regenerates it, asked for before, and keeps it …
            let warm = run_cell(&suts, &cfg, rate, 0, &exec);
            assert_eq!(exec.stats.streams_generated(), 2 * i + 2);
            assert_eq!(exec.stats.streams_shared(), i);
            // … and the third subscribes to the kept chunks.
            let hot = run_cell(&suts, &cfg, rate, 0, &exec);
            assert_eq!(exec.stats.streams_generated(), 2 * i + 2);
            assert_eq!(exec.stats.streams_shared(), i + 1);
            assert_eq!(cold, warm, "rate={rate:?}");
            assert_eq!(cold, hot, "rate={rate:?}");
        }
        assert_eq!(exec.stats.cells_run(), 6);
        assert!(peak_stream_bytes() > 0);
    }

    #[test]
    fn sut_sets_share_one_generated_stream_per_point() {
        // SUT sets swept one after another at the same (rate, repeat)
        // grid: the second regenerates each stream once and the cache
        // keeps it, and every later sweep subscribes. Unique packet
        // count — see above.
        let mut cfg = CycleConfig::mwn(8_101, 4242);
        cfg.repeats = 2;
        let rates = [Some(120.0), Some(360.0)];
        let set_a = vec![Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig::default(),
        }];
        let set_b = vec![
            Sut {
                spec: MachineSpec::moorhen(),
                sim: SimConfig::default(),
            },
            Sut {
                spec: MachineSpec::flamingo(),
                sim: SimConfig::default(),
            },
        ];
        let exec = ExecConfig::with_jobs(2);
        run_sweep_exec(&set_a, &cfg, &rates, &exec);
        assert_eq!(exec.stats.streams_generated(), 4, "rates × repeats");
        assert_eq!(exec.stats.streams_shared(), 0);
        run_sweep_exec(&set_b, &cfg, &rates, &exec);
        assert_eq!(exec.stats.streams_generated(), 8, "each stream once more");
        assert_eq!(exec.stats.streams_shared(), 0);
        run_sweep_exec(&set_a, &cfg, &rates, &exec);
        assert_eq!(
            exec.stats.streams_generated(),
            8,
            "a third sweep must not regenerate any stream"
        );
        assert_eq!(exec.stats.streams_shared(), 4);
        assert!(peak_stream_bytes() > 0);
    }

    #[test]
    fn empty_run_reports_zero_rate() {
        let cfg = CycleConfig::fixed(0, 512, 1);
        let moorhen = Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        };
        for suts in [vec![], vec![moorhen]] {
            let cell = run_cell(&suts, &cfg, Some(100.0), 0, &ExecConfig::serial());
            assert_eq!(cell.achieved_mbps, 0.0);
            assert_eq!(cell.suts.len(), suts.len());
        }
    }

    #[test]
    #[should_panic(expected = "optical budget exceeded")]
    fn nine_sut_cell_exceeds_the_optical_budget() {
        let suts: Vec<Sut> = (0..9)
            .map(|_| Sut {
                spec: MachineSpec::moorhen(),
                sim: SimConfig::default(),
            })
            .collect();
        let cfg = CycleConfig::fixed(0, 512, 1);
        run_cell(&suts, &cfg, Some(100.0), 0, &ExecConfig::serial());
    }

    #[test]
    #[should_panic(expected = "sniffer thread panicked")]
    fn a_panicking_sniffer_fails_the_cell_instead_of_hanging() {
        // Unique packet count: the stream cache is process-global.
        let mut cfg = CycleConfig::mwn(8_629, 13);
        cfg.repeats = 1;
        let suts = vec![
            Sut {
                spec: MachineSpec::swan(),
                sim: SimConfig::default(),
            },
            Sut {
                spec: MachineSpec::moorhen(),
                sim: SimConfig {
                    apps: Vec::new(), // MachineSim refuses a SUT with no application
                    ..SimConfig::default()
                },
            },
        ];
        run_cell(&suts, &cfg, Some(200.0), 0, &ExecConfig::serial());
    }

    #[test]
    fn empty_sut_set_still_reports_the_achieved_rate() {
        // Unique packet count: the stream cache is process-global.
        let mut cfg = CycleConfig::mwn(8_513, 31);
        cfg.repeats = 2;
        let p = run_point(&[], &cfg, Some(100.0));
        assert!(p.suts.is_empty());
        assert_eq!(p.generated, 8_513);
        assert!(
            (p.achieved_mbps - 100.0).abs() < 20.0,
            "{}",
            p.achieved_mbps
        );
        let one = vec![Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        }];
        let measured = run_point(&one, &cfg, Some(100.0));
        assert_eq!(p.achieved_mbps, measured.achieved_mbps);
    }

    #[test]
    fn traced_cells_record_balanced_attributions_without_changing_results() {
        use pcs_trace::TraceCollector;
        // Unique packet count: the stream cache is process-global.
        let mut cfg = CycleConfig::mwn(8_317, 99);
        cfg.repeats = 1;
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
        let collector = Arc::new(TraceCollector::new(TraceSpec::default()));
        let exec = ExecConfig::serial().with_trace(Arc::clone(&collector));
        let traced = run_cell(&suts, &cfg, Some(300.0), 0, &exec);
        assert_eq!(collector.len(), 1);
        let cell = &collector.cells()[0];
        assert_eq!(cell.label, "rate=300.0 rep=0");
        assert_eq!(cell.suts.len(), 2);
        for sut in &cell.suts {
            assert!(!sut.report.events.is_empty(), "{}", sut.label);
            assert!(!sut.attributions.is_empty(), "{}", sut.label);
            for attr in &sut.attributions {
                assert!(attr.balanced(), "{}: {attr:?}", sut.label);
                assert_eq!(attr.generated, cfg.count);
            }
        }
        // The same cell untraced simulates again and must distill
        // identically (the sink only observes).
        let untraced_exec = ExecConfig::serial();
        let untraced = run_cell(&suts, &cfg, Some(300.0), 0, &untraced_exec);
        assert_eq!(format!("{traced:?}"), format!("{untraced:?}"));
        assert_eq!(untraced_exec.stats.cells_run(), 1);
        // A fresh collector simulates the cell once more and records an
        // identical trace.
        let fresh = Arc::new(TraceCollector::new(TraceSpec::default()));
        let retrace_exec = ExecConfig::serial().with_trace(Arc::clone(&fresh));
        let retraced = run_cell(&suts, &cfg, Some(300.0), 0, &retrace_exec);
        assert_eq!(retrace_exec.stats.cells_run(), 1);
        assert_eq!(format!("{traced:?}"), format!("{retraced:?}"));
        assert_eq!(fresh.cells(), collector.cells(), "traces are reproducible");
    }

    #[test]
    fn an_armed_fault_plan_leaves_the_cell_key_alone() {
        use pcs_trace::{StageFilter, TraceCollector};
        // Unique packet count: the stream cache is process-global.
        let mut cfg = CycleConfig::mwn(8_329, 77);
        cfg.repeats = 1;
        let suts = vec![Sut {
            spec: MachineSpec::flamingo(),
            sim: SimConfig::default(),
        }];
        let record = |faults: Option<&str>| {
            let collector = Arc::new(TraceCollector::new(TraceSpec {
                filter: StageFilter::none(),
                ..TraceSpec::default()
            }));
            let mut exec = ExecConfig::serial().with_trace(Arc::clone(&collector));
            if let Some(spec) = faults {
                let plan = FaultPlan::parse(spec).unwrap().unwrap();
                exec = exec.with_faults(Arc::new(plan));
            }
            run_cell(&suts, &cfg, None, 0, &exec);
            collector.cells().remove(0)
        };
        let plain = record(None);
        let stalled = record(Some("ringstall:7"));
        assert_ne!(plain.suts, stalled.suts, "the ring stall must bite");
        assert_eq!(plain.key, wide_key(cell_key(&suts, &cfg, None, 0)));
        assert_eq!(stalled.key, plain.key);
    }

    #[test]
    fn every_sweep_simulates_and_times_its_cells() {
        let mut cfg = CycleConfig::mwn(8_423, 5150);
        cfg.repeats = 2;
        let suts = vec![Sut {
            spec: MachineSpec::flamingo(),
            sim: SimConfig::default(),
        }];
        let exec = ExecConfig::serial();
        let first = run_sweep_exec(&suts, &cfg, &[Some(200.0)], &exec);
        assert_eq!(exec.stats.cells_run(), 2);
        assert!(exec.stats.cell_wall_ns() > 0);
        assert!(exec.stats.cell_wall_ns_max() <= exec.stats.cell_wall_ns());
        // Repeating the sweep simulates both cells again, adds their
        // wall time, and reproduces the results bit for bit.
        let wall = exec.stats.cell_wall_ns();
        let second = run_sweep_exec(&suts, &cfg, &[Some(200.0)], &exec);
        assert_eq!(exec.stats.cells_run(), 4);
        assert!(exec.stats.cell_wall_ns() > wall);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn repeats_are_aggregated() {
        let suts = vec![Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        }];
        let mut cfg = quick_cfg();
        cfg.repeats = 3;
        let p = run_point(&suts, &cfg, Some(200.0));
        assert_eq!(p.generated, 8_000);
        assert!((p.suts[0].capture - 1.0).abs() < 1e-9);
    }
}

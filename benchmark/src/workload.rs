//! The four workloads: their inputs, the untraced run, rendering and the
//! per-row correctness check.
//!
//! Each workload is a list of SUT sets (one thesis figure each) swept
//! over a rate ladder with [`CycleConfig::mwn`] at the benchmark's seed.
//! The figure functions in `pcs-core` derive their seed from the figure
//! id, so the benchmark builds the same SUT sets itself and hands the
//! program only the generated [`CycleConfig`].

use crate::spans::Recorder;
use pcs_capture::MeasurementApp;
use pcs_core::{ExecConfig, Experiment, Series, SeriesPoint};
use pcs_obs::{diff_ledgers, render_ledger, Ledger, LedgerMeta};
use pcs_oskernel::{AppConfig, BufferConfig, SimConfig};
use pcs_testbed::{parallel_ordered, run_sweep_exec, standard_suts, CycleConfig, PointResult, Sut};
use pcs_trace::{export, StageFilter, TraceCollector, TraceSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// Host threads every workload may use (cells × per-cell SUT threads are
/// the program's own).
pub const JOBS: usize = 2;
/// Seed the committed baselines and goldens were recorded at.
pub const SEED: u64 = 2005;
/// Second recorded seed, held back to re-check later claims.
pub const HOLDOUT_SEED: u64 = 1105;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig6.3b`: every cell generates its own stream, none is shared.
    RateSweep,
    /// `fig6.4a` + `fig6.4b` at full speed: almost every stream is shared.
    BufferSweep,
    /// Five SMP application mixes: filter VM, 8 consumers, memcpy, gzip,
    /// disk write-back.
    AppMix,
    /// `fig6.2b` with every stage traced and a run ledger.
    TracedSweep,
}

/// How big a run is: the benchmark's own size or a seconds-long smoke
/// size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// 2k packets, two repeats and two points per sweep axis.
    Smoke,
}

impl Workload {
    /// Every workload, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::RateSweep,
        Workload::BufferSweep,
        Workload::AppMix,
        Workload::TracedSweep,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RateSweep => "rate-sweep",
            Workload::BufferSweep => "buffer-sweep",
            Workload::AppMix => "app-mix",
            Workload::TracedSweep => "traced-sweep",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Where the committed golden CSV for `seed` lives.
    pub fn golden_path(self, seed: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.seed{seed}.csv", self.name()))
    }
}

/// One SUT set swept over a rate ladder.
pub struct SutSet {
    /// Figure id; the experiment id in the CSV.
    pub id: &'static str,
    /// The systems under test.
    pub suts: Vec<Sut>,
    /// Rate ladder (`None` = full speed).
    pub rates: Vec<Option<f64>>,
    /// For buffer-sweep sets: the symmetric buffer size, which becomes
    /// the x value of the set's single full-speed point.
    pub buffer_kb: Option<u64>,
}

/// A workload's generated inputs.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The generator configuration every set shares.
    pub cfg: CycleConfig,
    /// SUT sets, in output order.
    pub sets: Vec<SutSet>,
}

/// What a run of a plan produced.
pub struct Outcome {
    /// Aggregated points, one list per SUT set.
    pub points: Vec<Vec<PointResult>>,
    /// The rendered CSV (every set's experiment, concatenated).
    pub csv: String,
    /// The observability path's summary: on `traced-sweep`, and in the
    /// span-traced run of every workload.
    pub obs: Option<ObsSummary>,
}

/// What the trace/ledger path produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsSummary {
    /// Lifecycle plus scheduling events recorded over every SUT.
    pub events: u64,
    /// Events dropped after a sink's buffer filled.
    pub overflow: u64,
    /// Bytes of the Chrome trace JSON.
    pub json_bytes: u64,
    /// The JSON validated and the ledger round-tripped without drift.
    pub ok: bool,
}

fn suts_with(smp: bool, sim: SimConfig) -> Vec<Sut> {
    standard_suts(sim)
        .into_iter()
        .map(|mut s| {
            if !smp {
                s.spec = s.spec.single_cpu();
            }
            s
        })
        .collect()
}

fn with_app(app: AppConfig) -> SimConfig {
    SimConfig {
        apps: vec![app],
        ..SimConfig::default()
    }
}

/// `start, start+step, …` for `n` points, then full speed.
fn ladder(start: f64, n: usize, step: f64) -> Vec<Option<f64>> {
    let mut rates: Vec<Option<f64>> = (0..n).map(|i| Some(start + i as f64 * step)).collect();
    rates.push(None);
    rates
}

/// Keep the first and last entry (the smoke size's two points).
fn ends<T: Clone>(v: Vec<T>) -> Vec<T> {
    match (v.first(), v.last()) {
        (Some(a), Some(b)) if v.len() > 2 => vec![a.clone(), b.clone()],
        _ => v,
    }
}

impl Plan {
    /// Build a workload's inputs from `seed`. This is the benchmark's
    /// set-up: the MWN size distribution, every SUT set and, for
    /// `app-mix`, the Fig. 6.5 BPF compile.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        let (count, repeats) = match (workload, size) {
            (_, Size::Smoke) => (2_000, 2),
            (Workload::RateSweep, Size::Bench) => (300_000, 3),
            (Workload::BufferSweep, Size::Bench) => (300_000, 2),
            (Workload::AppMix, Size::Bench) => (300_000, 1),
            (Workload::TracedSweep, Size::Bench) => (20_000, 1),
        };
        let mut cfg = CycleConfig::mwn(count, seed);
        cfg.repeats = repeats;
        let trim = |v: Vec<Option<f64>>| if size == Size::Smoke { ends(v) } else { v };
        let standard = trim(ladder(100.0, 9, 100.0));
        let quick = trim(ladder(200.0, 4, 250.0));
        let set = |id, suts, rates: &Vec<Option<f64>>| SutSet {
            id,
            suts,
            rates: rates.clone(),
            buffer_kb: None,
        };
        let sets = match workload {
            Workload::RateSweep => vec![set(
                "fig6.3b",
                suts_with(true, SimConfig::default()),
                &standard,
            )],
            Workload::BufferSweep => {
                let sizes_kb: Vec<u64> = (0..12).map(|i| 128u64 << i).collect();
                let sizes_kb = if size == Size::Smoke {
                    ends(sizes_kb)
                } else {
                    sizes_kb
                };
                let mut sets = Vec::new();
                for (id, smp) in [("fig6.4a", false), ("fig6.4b", true)] {
                    for &kb in &sizes_kb {
                        let sim = SimConfig {
                            buffers: BufferConfig::symmetric(kb * 1024),
                            ..SimConfig::default()
                        };
                        sets.push(SutSet {
                            id,
                            suts: suts_with(smp, sim),
                            rates: vec![None],
                            buffer_kb: Some(kb),
                        });
                    }
                }
                sets
            }
            Workload::AppMix => {
                let prog =
                    pcs_bpf::programs::fig65_program(65_535).expect("fig 6.5 filter compiles");
                let filter = AppConfig {
                    filter: Some(prog),
                    ..AppConfig::plain()
                };
                let eight = SimConfig {
                    apps: vec![AppConfig::plain(); 8],
                    ..SimConfig::default()
                };
                let smp_app = |app| suts_with(true, with_app(app));
                let memcpy = MeasurementApp::new().extra_copies(50).build();
                let gzip = MeasurementApp::new().compress(3).build();
                let headers = MeasurementApp::new().write_headers(76).build();
                vec![
                    set("fig6.6b", smp_app(filter), &quick),
                    set("fig6.9", suts_with(true, eight), &quick),
                    set("fig6.10b", smp_app(memcpy), &quick),
                    set("fig6.11b", smp_app(gzip), &quick),
                    set("fig6.14b", smp_app(headers), &quick),
                ]
            }
            Workload::TracedSweep => {
                let sim = SimConfig {
                    buffers: BufferConfig::default_buffers(),
                    ..SimConfig::default()
                };
                vec![set("fig6.2b", suts_with(true, sim), &quick)]
            }
        };
        Plan {
            workload,
            cfg,
            sets,
        }
    }

    /// Whether the workload runs the trace/ledger path.
    pub fn traces(&self) -> bool {
        self.workload == Workload::TracedSweep
    }

    /// The trace spec `traced-sweep` collects with: every stage.
    pub fn trace_spec() -> TraceSpec {
        TraceSpec {
            filter: StageFilter::all(),
            ..TraceSpec::default()
        }
    }

    /// Worker split across SUT sets, as the CLI splits `--jobs` across
    /// experiments: `outer` sets in flight, `inner` cell workers each.
    pub fn split_jobs(&self) -> (usize, usize) {
        let outer = JOBS.min(self.sets.len().max(1));
        (outer, (JOBS / outer).max(1))
    }

    /// Cells the plan simulates: every row once per repeat.
    pub fn cells(&self) -> u64 {
        self.rows() * self.cfg.repeats as u64
    }

    /// Simulated SUT-packets: Σ over cells of offered packets × SUTs.
    pub fn sim_packets(&self) -> u64 {
        self.sets
            .iter()
            .map(|s| s.rates.len() as u64 * s.suts.len() as u64)
            .sum::<u64>()
            * self.cfg.repeats as u64
            * self.cfg.count
    }

    /// Result rows: one per rate point × SUT set.
    pub fn rows(&self) -> u64 {
        self.sets.iter().map(|s| s.rates.len() as u64).sum()
    }

    /// Run the workload the way a user of the library does: one
    /// `run_sweep_exec` per SUT set, sets spread over the pool like the
    /// CLI spreads experiments.
    pub fn run(&self) -> Outcome {
        let collector = self
            .traces()
            .then(|| Arc::new(TraceCollector::new(Plan::trace_spec())));
        let (outer, inner) = self.split_jobs();
        let sets: Vec<&SutSet> = self.sets.iter().collect();
        let points = parallel_ordered(sets, outer, |_, set| {
            let mut exec = ExecConfig::with_jobs(inner);
            if let Some(collector) = &collector {
                exec = exec
                    .with_trace(Arc::clone(collector))
                    .with_stage_times(true);
            }
            run_sweep_exec(&set.suts, &self.cfg, &set.rates, &exec)
        });
        self.finish(points, collector.as_deref(), &Recorder::off())
    }

    /// Render the points and, given a collector, run the export and
    /// ledger path over its cells.
    pub fn finish(
        &self,
        points: Vec<Vec<PointResult>>,
        collector: Option<&TraceCollector>,
        rec: &Recorder,
    ) -> Outcome {
        let csv = rec.span("core.render", || {
            self.render(&points)
                .iter()
                .map(Experiment::to_csv)
                .collect::<String>()
        });
        let meta = LedgerMeta {
            scale: "benchmark".into(),
            experiments: self.sets.iter().map(|s| s.id.to_owned()).collect(),
            faults: None,
        };
        let obs = collector.map(|c| observe(c, &meta, rec));
        Outcome { points, csv, obs }
    }

    /// One experiment per figure, as the figure functions build them.
    pub fn render(&self, points: &[Vec<PointResult>]) -> Vec<Experiment> {
        let mut out: Vec<Experiment> = Vec::new();
        for (set, pts) in self.sets.iter().zip(points) {
            let Some(kb) = set.buffer_kb else {
                out.push(Experiment::from_sweep(set.id, "", "", pts));
                continue;
            };
            // Buffer sweeps: one series per SUT over the buffer sizes,
            // each set contributing its full-speed point.
            if out.last().is_none_or(|e| e.id != set.id) {
                out.push(Experiment::from_sweep(set.id, "", "", &[]));
            }
            let e = out.last_mut().expect("pushed above");
            for (s, sp) in pts[0].suts.iter().enumerate() {
                if e.series.len() == s {
                    e.series.push(Series {
                        label: sp.label.clone(),
                        points: Vec::new(),
                    });
                }
                e.series[s].points.push(SeriesPoint {
                    x: kb as f64,
                    capture: sp.capture * 100.0,
                    capture_worst: sp.capture_worst * 100.0,
                    capture_best: sp.capture_best * 100.0,
                    cpu: sp.cpu_busy,
                });
            }
        }
        out
    }

    /// Rows that fail the check, of [`Plan::rows`]: a row must be
    /// byte-identical to `golden` when one is given, and within the
    /// model's invariants always.
    pub fn check(&self, outcome: &Outcome, golden: Option<&str>) -> u64 {
        let link_mbps = self.cfg.tx.link_bps as f64 / 1e6;
        let ours = csv_rows(&outcome.csv);
        let theirs = golden.map(csv_rows);
        let obs_ok = outcome
            .obs
            .is_none_or(|o| o.ok && (o.events > 0) == self.traces());
        let mut seen = 0;
        let mut failed = 0;
        for (i, point) in outcome.points.iter().flatten().enumerate() {
            let golden_ok = theirs
                .as_ref()
                .is_none_or(|theirs| ours.get(i).is_some() && ours.get(i) == theirs.get(i));
            if !(obs_ok && golden_ok && point_holds(point, link_mbps)) {
                failed += 1;
            }
            seen += 1;
        }
        // Rows the run never produced count as failed.
        let rows = self.rows();
        (failed + rows.saturating_sub(seen)).min(rows)
    }
}

/// The invariants every row holds at any seed, up to float rounding
/// (a fully busy CPU can read 100.00000000000001 %).
fn point_holds(p: &PointResult, link_mbps: f64) -> bool {
    const EPS: f64 = 1e-9;
    let within = |v: f64, max: f64| (-EPS..=max + EPS).contains(&v);
    within(p.achieved_mbps, link_mbps)
        && p.suts.iter().all(|s| {
            within(s.capture_worst, 1.0)
                && within(s.capture_best, 1.0)
                && s.capture_worst <= s.capture + EPS
                && s.capture <= s.capture_best + EPS
                && within(s.cpu_busy, 100.0)
        })
}

/// Group CSV lines into rows: a row is one point index of one experiment,
/// holding that point's line from every series, in file order.
pub fn csv_rows(csv: &str) -> Vec<(String, Vec<String>)> {
    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    let mut seen: Vec<(String, usize)> = Vec::new();
    for line in csv.lines().filter(|l| !l.starts_with("experiment,")) {
        let mut fields = line.splitn(3, ',');
        let experiment = fields.next().unwrap_or_default();
        let series = format!("{experiment},{}", fields.next().unwrap_or_default());
        let point = match seen.iter_mut().find(|(s, _)| *s == series) {
            Some((_, n)) => {
                *n += 1;
                *n - 1
            }
            None => {
                seen.push((series, 1));
                0
            }
        };
        let key = format!("{experiment}#{point}");
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lines)) => lines.push(line.to_owned()),
            None => rows.push((key, vec![line.to_owned()])),
        }
    }
    rows
}

/// The `--trace`/`--ledger` epilogue: export every collected cell to
/// Chrome JSON and events CSV, render the ledger, parse it back and diff
/// it against itself.
fn observe(collector: &TraceCollector, meta: &LedgerMeta, rec: &Recorder) -> ObsSummary {
    let cells = rec.span("trace.collect", || collector.cells());
    let json = rec.span("trace.export_json", || {
        let json = export::chrome_trace_json(&cells);
        export::validate_json(&json).map(|()| json)
    });
    let csv = rec.span("trace.export_csv", || export::events_csv(&cells));
    let ledger = rec.span("obs.ledger_render", || {
        let ledger = render_ledger(meta, &cells, None);
        export::validate_json(&ledger).map(|()| ledger)
    });
    let parsed = ledger
        .as_deref()
        .map_err(Clone::clone)
        .and_then(|text| rec.span("obs.ledger_parse", || Ledger::parse(text)));
    let no_drift = parsed
        .as_ref()
        .map(|l| rec.span("obs.diff", || !diff_ledgers(l, l).has_drift()));
    let suts = cells.iter().flat_map(|c| &c.suts);
    ObsSummary {
        events: suts
            .clone()
            .map(|s| (s.report.events.len() + s.report.sched.len()) as u64)
            .sum(),
        overflow: suts.map(|s| s.report.truncated).sum(),
        json_bytes: json.as_ref().map_or(0, |j| j.len() as u64),
        ok: json.is_ok() && !csv.is_empty() && no_drift == Ok(true),
    }
}

//! Engine golden: the committed reference every `MachineSim` change must
//! reproduce byte for byte.
//!
//! Each line of `tests/golden/engine_reports.txt` is one case — machine ×
//! fault hook × trace mode × offered rate — followed by 128-bit
//! fingerprints of four outputs of that run: the `RunReport` debug
//! rendering with its trace taken out, the Chrome trace JSON export, the
//! events CSV export and the `--ledger` rendering of the cell. The three
//! exports cover the trace's events and metrics, so the golden pins what
//! the program writes, not the trace types' internal layout. The axes
//! cover every machine shape (SMP, single CPU, Hyperthreading, both OS
//! stacks), the fault hooks that reach into the per-packet path (ring
//! stall, preemption split, kernel-buffer shrink window), every trace
//! surface (lifecycle events, drop-only filtering, per-dispatch
//! scheduler spans) and both an underloaded and an overloaded stream.
//!
//! On a mismatch the failure message prints the whole actual file, so an
//! intentional change is reviewed as a diff of that file.

use pcs_des::Fingerprint;
use pcs_hw::MachineSpec;
use pcs_oskernel::{AppConfig, MachineFaults, MachineSim, RunReport, SimConfig};
use pcs_pktgen::{
    ChunkedGenerator, Generator, PktgenConfig, SizeSource, TxModel, DEFAULT_CHUNK_PACKETS,
};
use pcs_trace::{CellTrace, StageFilter, SutTrace, TraceSink, TraceSpec};

const GOLDEN: &str = include_str!("golden/engine_reports.txt");

/// Packets per case: enough for an overloaded run to fill and drop.
const COUNT: u64 = 3_000;
/// Offered rates in Mbit/s: every machine keeps up with the first; the
/// second overloads the slower stacks.
const RATES: [f64; 2] = [200.0, 900.0];

fn machines() -> [(&'static str, MachineSpec); 7] {
    [
        ("swan", MachineSpec::swan()),
        ("snipe", MachineSpec::snipe()),
        ("moorhen", MachineSpec::moorhen()),
        ("flamingo", MachineSpec::flamingo()),
        ("swan-1cpu", MachineSpec::swan().single_cpu()),
        ("moorhen-1cpu", MachineSpec::moorhen().single_cpu()),
        ("snipe-ht", MachineSpec::snipe().with_hyperthreading()),
    ]
}

/// RX ring pinned to one slot: every arrival beyond the first overflows.
struct RingStall;
impl MachineFaults for RingStall {
    fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
        1
    }
}

/// Every dispatch held 2 µs by a foreign task (a work-item split).
struct Preempt;
impl MachineFaults for Preempt {
    fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
        2_000
    }
}

/// Kernel buffers cut to a quarter between 1 ms and 3 ms of sim time.
struct Kshrink;
impl MachineFaults for Kshrink {
    fn buffer_permille(&mut self, now_ns: u64) -> u32 {
        if (1_000_000..3_000_000).contains(&now_ns) {
            250
        } else {
            1000
        }
    }
}

const FAULTS: [&str; 4] = ["none", "ringstall", "preempt", "kshrink"];

fn hooks(fault: &str) -> Option<Box<dyn MachineFaults>> {
    match fault {
        "ringstall" => Some(Box::new(RingStall)),
        "preempt" => Some(Box::new(Preempt)),
        "kshrink" => Some(Box::new(Kshrink)),
        _ => None,
    }
}

const TRACES: [&str; 4] = ["untraced", "all", "drops", "sched+all"];

fn trace_spec(mode: &str) -> Option<TraceSpec> {
    let filter = match mode {
        "all" => StageFilter::all(),
        "drops" => StageFilter::drops(),
        "sched+all" => {
            let mut f = StageFilter::all();
            f.insert_sched();
            f
        }
        _ => return None,
    };
    Some(TraceSpec {
        filter,
        ..TraceSpec::default()
    })
}

fn generator(rate: f64) -> Generator {
    let cfg = PktgenConfig {
        count: COUNT,
        size: SizeSource::Fixed(659),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(cfg, TxModel::syskonnect(), 2005);
    g.set_target_rate(rate, 659.0);
    g.set_burstiness(16);
    g
}

/// One case's simulator: two capture applications, with the trace sink
/// and stage-time attribution armed together, as `--ledger` arms them.
fn machine(spec: MachineSpec, fault: &str, trace: &str) -> MachineSim {
    let cfg = SimConfig {
        apps: vec![AppConfig::plain(); 2],
        ..SimConfig::default()
    };
    let spec_trace = trace_spec(trace);
    let mut sim = MachineSim::new(spec, cfg)
        .with_faults(hooks(fault))
        .with_stage_times(spec_trace.is_some());
    if let Some(spec_trace) = spec_trace {
        sim = sim.with_trace(TraceSink::bounded(spec_trace));
    }
    sim
}

fn hash(text: &str) -> String {
    let mut fp = Fingerprint::new();
    fp.str(text);
    let (a, b) = fp.finish();
    format!("{a:016x}{b:016x}")
}

/// The case's golden line: its label and the four output fingerprints.
fn line(label: &str, report: &RunReport) -> String {
    let cell = CellTrace {
        label: label.to_owned(),
        key: 1,
        achieved_mbps: 0.0,
        suts: vec![SutTrace {
            label: report.machine.clone(),
            report: report.trace.as_deref().cloned().unwrap_or_default(),
            attributions: report.attributions(),
            stage_times: report.stage_times.clone(),
        }],
    };
    let cells = std::slice::from_ref(&cell);
    let meta = pcs_obs::LedgerMeta {
        scale: "engine-golden".to_owned(),
        experiments: vec![label.to_owned()],
        faults: None,
    };
    format!(
        "{label} report={} json={} csv={} ledger={}\n",
        hash(&format!(
            "{:?}",
            RunReport {
                trace: None,
                ..report.clone()
            }
        )),
        hash(&pcs_trace::export::chrome_trace_json(cells)),
        hash(&pcs_trace::export::events_csv(cells)),
        hash(&pcs_obs::render_ledger(&meta, cells, None)),
    )
}

#[test]
fn engine_reports_match_golden() {
    let mut actual = String::from("# case report json csv ledger (128-bit fingerprints)\n");
    for (name, spec) in machines() {
        for fault in FAULTS {
            for trace in TRACES {
                for rate in RATES {
                    let label = format!("{name}/{fault}/{trace}/{rate}");
                    let report = machine(spec, fault, trace).run_source(ChunkedGenerator::new(
                        generator(rate),
                        DEFAULT_CHUNK_PACKETS,
                    ));
                    actual.push_str(&line(&label, &report));
                }
            }
        }
    }
    assert!(
        actual == GOLDEN,
        "engine outputs drifted from tests/golden/engine_reports.txt; \
         the actual file is:\n----- actual -----\n{actual}----- end -----"
    );
}

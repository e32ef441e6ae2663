//! The run ledger: a deterministic, fingerprinted JSON manifest of one
//! sweep invocation.
//!
//! One ledger records every cell the sweep executed: the cell's 128-bit
//! configuration fingerprint (SUT set + workload + rate + repeat), its
//! achieved rate, and per SUT the exact [`DropAttribution`], the
//! metrics registry's counters, gauges and per-digest count/min/max/mean,
//! latency percentiles from its `_latency_ns` digests, and — when
//! stage-time attribution was armed — the per-CPU per-work-kind time
//! account. The armed fault plan is recorded once, in the header; no
//! fingerprint includes it.
//!
//! Every cell's simulations are deterministic, and everything
//! simulation-derived renders integer-based or at fixed precision, in
//! the collector's deterministic (label, key) cell order, so two
//! invocations of the same configuration produce byte-identical
//! ledgers at any `--jobs` setting — `cmp A.json B.json` is a valid
//! determinism check. The one exception is the optional host-side
//! `profile` block (`--profile`), which reads the host clock and varies
//! run to run; the diff engine never looks at it, and the parser skips
//! it, so ledgers that carry retired profile fields still load.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use pcs_trace::export::escape_json;
use pcs_trace::json::Json;
use pcs_trace::{CellTrace, DropAttribution, WorkKind};

/// Schema version stamped into (and checked out of) every ledger.
pub const LEDGER_VERSION: u64 = 1;

/// Run-wide context stamped into the ledger header.
#[derive(Debug, Clone, Default)]
pub struct LedgerMeta {
    /// Scale name (`quick` / `standard` / `full`).
    pub scale: String,
    /// Experiment ids, in registry order.
    pub experiments: Vec<String>,
    /// The armed fault plan's canonical `SPEC:SEED` rendering, if any.
    pub faults: Option<String>,
}

/// Host-side execution profile of one experiment (CLI `--profile`).
///
/// Wall-clock numbers: they describe how fast the host executed the
/// sweep, never what the simulation measured, and vary run to run.
#[derive(Debug, Clone, Default)]
pub struct ExperimentProfile {
    /// Experiment id.
    pub id: String,
    /// Wall-clock seconds for the whole experiment.
    pub wall_s: f64,
    /// Cells simulated.
    pub cells_run: u64,
    /// Packet streams generated (stream-cache misses).
    pub streams_generated: u64,
    /// Packet streams shared by subscription (stream-cache hits).
    pub streams_shared: u64,
    /// Total wall nanoseconds spent simulating cells.
    pub cell_wall_ns: u64,
    /// Slowest single cell, wall nanoseconds.
    pub cell_wall_ns_max: u64,
    /// Hot-path buffer-pool gets across the experiment's sims.
    pub pool_gets: u64,
    /// Pool misses (fresh allocations).
    pub pool_misses: u64,
    /// Buffers recycled back into pools.
    pub pool_recycled: u64,
    /// Largest pool miss count of any single simulation
    /// ([`pcs_des::PoolProbe::high_water`]): the biggest buffer
    /// footprint one sim needed.
    pub pool_high_water: u64,
}

/// The `--profile` roll-up over every experiment in the invocation.
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    /// High-water mark of resident cached stream bytes over the whole
    /// invocation: the experiments share one stream cache.
    pub peak_stream_bytes: u64,
    /// One entry per experiment, registry order.
    pub experiments: Vec<ExperimentProfile>,
}

/// Render the host profile as a standalone JSON object (`--profile-json`
/// writes exactly this; the ledger embeds it under `"profile"`).
pub fn render_profile(profile: &HostProfile) -> String {
    let mut out = String::with_capacity(256 * profile.experiments.len().max(1));
    render_profile_into(profile, &mut out);
    out.push('\n');
    out
}

fn render_profile_into(profile: &HostProfile, out: &mut String) {
    let _ = write!(
        out,
        "{{\"host_side\":true,\"peak_stream_bytes\":{},\"experiments\":[",
        profile.peak_stream_bytes
    );
    for (i, e) in profile.experiments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"id\":\"");
        escape_json(&e.id, out);
        let _ = write!(out, "\",\"wall_s\":");
        f64_field(e.wall_s, 3, out);
        for (k, v) in [
            ("cells_run", e.cells_run),
            ("streams_generated", e.streams_generated),
            ("streams_shared", e.streams_shared),
            ("cell_wall_ns", e.cell_wall_ns),
            ("cell_wall_ns_max", e.cell_wall_ns_max),
            ("pool_gets", e.pool_gets),
            ("pool_misses", e.pool_misses),
            ("pool_recycled", e.pool_recycled),
            ("pool_high_water", e.pool_high_water),
        ] {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Fixed-precision float field; non-finite values become `null` (JSON
/// has no NaN/inf literals).
fn f64_field(v: f64, digits: usize, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v:.digits$}");
    } else {
        out.push_str("null");
    }
}

/// Render one sweep's collected cells (owned, or a collector's shared
/// ones), plus run context and an optional host profile, as the ledger
/// JSON document.
pub fn render_ledger<C: Borrow<CellTrace>>(
    meta: &LedgerMeta,
    cells: &[C],
    profile: Option<&HostProfile>,
) -> String {
    let mut out = String::with_capacity(4096 + cells.len() * 2048);
    let _ = write!(out, "{{\"pcs_ledger\":{LEDGER_VERSION},\"scale\":\"");
    escape_json(&meta.scale, &mut out);
    out.push_str("\",\"experiments\":[");
    for (i, id) in meta.experiments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(id, &mut out);
        out.push('"');
    }
    out.push_str("],\"faults\":");
    match &meta.faults {
        Some(plan) => {
            out.push('"');
            escape_json(plan, &mut out);
            out.push('"');
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"cells\":[");
    for (i, cell) in cells.iter().map(Borrow::borrow).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n {\"label\":\"");
        escape_json(&cell.label, &mut out);
        let _ = write!(out, "\",\"fingerprint\":\"{:032x}\"", cell.key);
        out.push_str(",\"achieved_mbps\":");
        f64_field(cell.achieved_mbps, 6, &mut out);
        out.push_str(",\"suts\":[");
        for (s, sut) in cell.suts.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            render_sut(sut, &mut out);
        }
        out.push_str("]}");
    }
    out.push_str("],\"profile\":");
    match profile {
        Some(p) => render_profile_into(p, &mut out),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

fn render_sut(sut: &pcs_trace::SutTrace, out: &mut String) {
    out.push_str("{\"label\":\"");
    escape_json(&sut.label, out);
    out.push_str("\",\"attribution\":[");
    for (app, attr) in sut.attributions.iter().enumerate() {
        if app > 0 {
            out.push(',');
        }
        out.push('{');
        for (i, (col, v)) in DropAttribution::COLUMNS
            .iter()
            .zip(attr.values())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{col}\":{v}");
        }
        out.push('}');
    }
    out.push_str("],\"counters\":{");
    for (i, (name, v)) in sut.report.metrics.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, out);
        let _ = write!(out, "\":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in sut.report.metrics.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, out);
        out.push_str("\":");
        f64_field(v, 6, out);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in sut.report.metrics.digests().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, out);
        let _ = write!(
            out,
            "\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":",
            h.count(),
            h.min(),
            h.max()
        );
        f64_field(h.mean(), 3, out);
        out.push('}');
    }
    out.push_str("},\"latency\":{");
    for (i, (name, d)) in sut.report.metrics.latencies().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let [p50, p90, p99, p999] = d.percentiles();
        out.push('"');
        escape_json(name, out);
        let _ = write!(
            out,
            "\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"p999\":{p999}}}",
            d.count(),
            d.sum(),
            d.min(),
            d.max()
        );
    }
    out.push_str("},\"stage_times\":");
    match &sut.stage_times {
        None => out.push_str("null"),
        Some(st) => {
            out.push_str("{\"cpus\":[");
            for (cpu, acct) in st.cpus.iter().enumerate() {
                if cpu > 0 {
                    out.push(',');
                }
                out.push_str("{\"busy\":{");
                for (k, kind) in WorkKind::ALL.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", kind.name(), acct.busy_ns[k]);
                }
                out.push_str("},\"stretch\":{");
                for (k, kind) in WorkKind::ALL.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", kind.name(), acct.stretch_ns[k]);
                }
                let _ = write!(out, "}},\"idle\":{}}}", acct.idle_ns);
            }
            out.push_str("]}");
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------

/// One SUT's observables, loaded back from a ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSut {
    /// SUT label.
    pub label: String,
    /// Every numeric leaf under the SUT, keyed by its `/`-joined path
    /// (e.g. `attribution/app0/kernel_buffer_drops`,
    /// `latency/wire_to_app_latency_ns/p99`,
    /// `stage_times/cpu0/busy/kernel_batch`).
    pub observables: BTreeMap<String, f64>,
}

/// One cell, loaded back from a ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerCell {
    /// Cell label (`rate=… rep=…`).
    pub label: String,
    /// The 32-hex-digit configuration fingerprint.
    pub fingerprint: String,
    /// Achieved frame data rate (Mbit/s).
    pub achieved_mbps: f64,
    /// Per-SUT observables, in recorded order.
    pub suts: Vec<LedgerSut>,
}

/// A parsed ledger — the diff engine's input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Schema version (`pcs_ledger`).
    pub version: u64,
    /// Scale name from the header.
    pub scale: String,
    /// Experiment ids from the header.
    pub experiments: Vec<String>,
    /// Fault-plan rendering from the header, if one was armed.
    pub faults: Option<String>,
    /// Every recorded cell, in ledger order.
    pub cells: Vec<LedgerCell>,
}

impl Ledger {
    /// Parse a ledger document, checking the schema marker. The marker
    /// must be exactly the integer [`LEDGER_VERSION`], and every number
    /// the diff reads must be finite (`1e400` is valid JSON, but reads as
    /// infinity). `cells` and each cell's `suts` must be arrays, each
    /// cell must carry a numeric `achieved_mbps`, and each SUT a string
    /// `label`: the diff names a SUT's observables by its label, and the
    /// k-th SUT of a label within a cell (k ≥ 2) by `label#k`.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let version = doc
            .get("pcs_ledger")
            .and_then(Json::as_f64)
            .ok_or("missing pcs_ledger version marker")?;
        if version != LEDGER_VERSION as f64 {
            return Err(format!(
                "ledger version {version} unsupported (expected {LEDGER_VERSION})"
            ));
        }
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        let experiments = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .map(|ids| {
                ids.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default();
        let faults = doc.get("faults").and_then(Json::as_str).map(str::to_owned);
        let mut cells = Vec::new();
        for cell in doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells array")?
        {
            let label = cell
                .get("label")
                .and_then(Json::as_str)
                .ok_or("cell without a label")?
                .to_owned();
            let fingerprint = cell
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell '{label}' without a fingerprint"))?
                .to_owned();
            let achieved_mbps = cell
                .get("achieved_mbps")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell '{label}' without a numeric achieved_mbps"))?;
            if !achieved_mbps.is_finite() {
                return Err(format!("cell '{label}': achieved_mbps is not finite"));
            }
            let mut suts = Vec::new();
            for sut in cell
                .get("suts")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("cell '{label}' without a suts array"))?
            {
                let sut_label = sut
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("cell '{label}': SUT without a label"))?
                    .to_owned();
                let mut observables = BTreeMap::new();
                flatten("", sut, &mut observables);
                observables.remove("label");
                if let Some((path, _)) = observables.iter().find(|(_, v)| !v.is_finite()) {
                    return Err(format!(
                        "cell '{label}', SUT '{sut_label}': {path} is not finite"
                    ));
                }
                suts.push(LedgerSut {
                    label: sut_label,
                    observables,
                });
            }
            cells.push(LedgerCell {
                label,
                fingerprint,
                achieved_mbps,
                suts,
            });
        }
        Ok(Ledger {
            version: LEDGER_VERSION,
            scale,
            experiments,
            faults,
            cells,
        })
    }
}

/// Collect every numeric leaf under `v` into `out`, keyed by the
/// `/`-joined path. Arrays index as `appN` under `attribution` and
/// `cpuN` under `cpus` (matching the rendered schema); other arrays by
/// bare index.
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_owned(), *n);
        }
        Json::Obj(members) => {
            for (k, child) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                // `cpus` is structural: splice the array straight under
                // the stage_times prefix as cpuN.
                if k == "cpus" {
                    if let Json::Arr(items) = child {
                        for (i, item) in items.iter().enumerate() {
                            flatten(&format!("{prefix}/cpu{i}"), item, out);
                        }
                        continue;
                    }
                }
                flatten(&path, child, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let tag = if prefix.ends_with("attribution") {
                    format!("{prefix}/app{i}")
                } else {
                    format!("{prefix}/{i}")
                };
                flatten(&tag, item, out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_trace::json::validate;
    use pcs_trace::{MetricsRegistry, StageTimes, SutTrace, TraceReport};

    fn sample_cells() -> Vec<CellTrace> {
        let mut metrics = MetricsRegistry::new();
        metrics.inc("irq_fires", 7);
        metrics.set_gauge("final_depth", 1.25);
        metrics.set_gauge("bad", f64::NAN);
        metrics.observe("batch", 4);
        let d = metrics.digest_entry("wire_to_app_latency_ns");
        for v in [100u64, 200, 300, 400] {
            d.record(v);
        }
        let mut st = StageTimes::new(2);
        st.add_busy(0, WorkKind::KernelBatch, 1000);
        st.add_stretch(0, WorkKind::KernelBatch, 100);
        st.add_idle(1, 500);
        vec![CellTrace {
            label: "rate=100.0 rep=0".into(),
            key: 0xfeed_f00d,
            achieved_mbps: 99.5,
            suts: vec![SutTrace {
                label: "FreeBSD \"tcpdump\"".into(),
                report: TraceReport {
                    metrics,
                    ..TraceReport::default()
                },
                attributions: vec![DropAttribution {
                    generated: 10,
                    kernel_buffer_drops: 2,
                    delivered: 8,
                    ..DropAttribution::default()
                }],
                stage_times: Some(st),
            }],
        }]
    }

    fn meta() -> LedgerMeta {
        LedgerMeta {
            scale: "quick".into(),
            experiments: vec!["fig6.4a".into()],
            faults: None,
        }
    }

    #[test]
    fn ledger_renders_valid_deterministic_json() {
        let cells = sample_cells();
        let a = render_ledger(&meta(), &cells, None);
        let b = render_ledger(&meta(), &cells, None);
        assert_eq!(a, b, "rendering must be deterministic");
        validate(&a).expect("ledger must be well-formed JSON");
        assert!(a.contains("\"pcs_ledger\":1"));
        assert!(a.contains("\"fingerprint\":\"000000000000000000000000feedf00d\""));
        assert!(a.contains("\"kernel_buffer_drops\":2"));
        assert!(a.contains("\"p99\":400"));
        assert!(a.contains("\"kernel_batch\":1000"));
        assert!(a.contains("\"gauges\":{\"bad\":null,\"final_depth\":1.250000"));
        assert!(a.contains("\"profile\":null"));
        // Escaped SUT label survived.
        assert!(a.contains("FreeBSD \\\"tcpdump\\\""));
    }

    #[test]
    fn ledger_round_trips_through_the_parser() {
        let text = render_ledger(&meta(), &sample_cells(), None);
        let ledger = Ledger::parse(&text).expect("parse back");
        assert_eq!(ledger.version, LEDGER_VERSION);
        assert_eq!(ledger.scale, "quick");
        assert_eq!(ledger.experiments, vec!["fig6.4a".to_string()]);
        assert_eq!(ledger.faults, None);
        assert_eq!(ledger.cells.len(), 1);
        let cell = &ledger.cells[0];
        assert_eq!(cell.label, "rate=100.0 rep=0");
        assert_eq!(cell.achieved_mbps, 99.5);
        let sut = &cell.suts[0];
        assert_eq!(sut.label, "FreeBSD \"tcpdump\"");
        let get = |k: &str| sut.observables.get(k).copied();
        assert_eq!(get("attribution/app0/kernel_buffer_drops"), Some(2.0));
        assert_eq!(get("counters/irq_fires"), Some(7.0));
        assert_eq!(get("latency/wire_to_app_latency_ns/p99"), Some(400.0));
        assert_eq!(get("stage_times/cpu0/busy/kernel_batch"), Some(1000.0));
        assert_eq!(get("stage_times/cpu0/stretch/kernel_batch"), Some(100.0));
        assert_eq!(get("stage_times/cpu1/idle"), Some(500.0));
        // NaN gauge rendered null: absent from observables, not poison.
        assert_eq!(get("gauges/bad"), None);
        assert_eq!(get("gauges/final_depth"), Some(1.25));
    }

    #[test]
    fn profile_block_renders_and_validates() {
        let profile = HostProfile {
            peak_stream_bytes: 4096,
            experiments: vec![ExperimentProfile {
                id: "fig6.4a".into(),
                wall_s: 1.5,
                cells_run: 10,
                pool_gets: 123,
                ..ExperimentProfile::default()
            }],
        };
        let standalone = render_profile(&profile);
        validate(&standalone).expect("profile JSON must be well-formed");
        assert!(standalone.starts_with("{\"host_side\":true,\"peak_stream_bytes\":4096,"));
        assert_eq!(standalone.matches("peak_stream_bytes").count(), 1);
        assert!(standalone.contains("\"wall_s\":1.500"));
        assert!(standalone.contains("\"pool_gets\":123"));
        let embedded = render_ledger(&meta(), &sample_cells(), Some(&profile));
        validate(&embedded).expect("ledger with profile must be well-formed");
        assert!(embedded.contains("\"profile\":{\"host_side\":true"));
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(Ledger::parse("{}").is_err());
        assert!(Ledger::parse("[1,2]").is_err());
        assert!(Ledger::parse("{\"pcs_ledger\":99,\"cells\":[]}").is_err());
        assert!(Ledger::parse("not json").is_err());
    }

    /// `sample_cells`' ledger with its first `from` replaced by `to`.
    fn edited_ledger(from: &str, to: &str) -> String {
        let text = render_ledger(&meta(), &sample_cells(), None);
        assert!(text.contains(from), "{from}");
        text.replacen(from, to, 1)
    }

    #[test]
    fn parse_refuses_infinite_leaves() {
        for inf in ["1e400", "-1e400"] {
            let text = edited_ledger("\"irq_fires\":7", &format!("\"irq_fires\":{inf}"));
            assert_eq!(
                Ledger::parse(&text),
                Err(
                    "cell 'rate=100.0 rep=0', SUT 'FreeBSD \"tcpdump\"': counters/irq_fires \
                     is not finite"
                        .to_string()
                )
            );
            let text = edited_ledger(
                "\"achieved_mbps\":99.500000",
                &format!("\"achieved_mbps\":{inf}"),
            );
            assert_eq!(
                Ledger::parse(&text),
                Err("cell 'rate=100.0 rep=0': achieved_mbps is not finite".to_string())
            );
        }
    }

    #[test]
    fn parse_refuses_a_missing_or_non_array_cells_member() {
        for doc in [
            "{\"pcs_ledger\":1}",
            "{\"pcs_ledger\":1,\"cells\":{\"label\":\"x\"}}",
        ] {
            assert_eq!(Ledger::parse(doc), Err("missing cells array".to_string()));
        }
    }

    #[test]
    fn parse_refuses_a_missing_or_non_array_suts_member() {
        let refusal = Err("cell 'rate=100.0 rep=0' without a suts array".to_string());
        let text = edited_ledger(",\"suts\":[", ",\"no_suts\":[");
        assert_eq!(Ledger::parse(&text), refusal);
        let doc = "{\"pcs_ledger\":1,\"cells\":[{\"label\":\"rate=100.0 rep=0\",\
                   \"fingerprint\":\"aa\",\"achieved_mbps\":1,\"suts\":{\"x\":1}}]}";
        assert_eq!(Ledger::parse(doc), refusal);
    }

    #[test]
    fn parse_refuses_a_missing_or_non_numeric_achieved_rate() {
        let refusal = Err("cell 'rate=100.0 rep=0' without a numeric achieved_mbps".to_string());
        for to in ["\"achieved_rate\":99.5", "\"achieved_mbps\":\"99.5\""] {
            let text = edited_ledger("\"achieved_mbps\":99.500000", to);
            assert_eq!(Ledger::parse(&text), refusal);
        }
    }

    #[test]
    fn parse_refuses_a_sut_without_a_string_label() {
        let refusal = Err("cell 'rate=100.0 rep=0': SUT without a label".to_string());
        for to in ["{\"name\":", "{\"label\":7,\"name\":"] {
            let text = edited_ledger("{\"label\":\"FreeBSD", &format!("{to}\"FreeBSD"));
            assert_eq!(Ledger::parse(&text), refusal);
        }
    }

    #[test]
    fn parse_refuses_a_fractional_version() {
        let text = edited_ledger("\"pcs_ledger\":1,", "\"pcs_ledger\":1.5,");
        assert_eq!(
            Ledger::parse(&text),
            Err("ledger version 1.5 unsupported (expected 1)".to_string())
        );
        let text = edited_ledger("\"pcs_ledger\":1,", "\"pcs_ledger\":1.0,");
        assert_eq!(Ledger::parse(&text).map(|l| l.version), Ok(LEDGER_VERSION));
    }
}

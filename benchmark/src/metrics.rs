//! The benchmark's metric names and units, and the per-layer numbers
//! derived from a traced run's spans and probes.

use crate::spans::{coverage, layers, Layer, Span};
use crate::traced::Probes;
use crate::workload::{ObsSummary, Plan, JOBS};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// End-to-end metrics, measured on untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_pkts_per_s", "SUT-pkts/s"),
    ("cpu_ns_per_sim_pkt", "ns"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, measured on span-traced runs: (name, unit).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("pktgen.gen_ns_per_pkt", "ns"),
    ("pktgen.streams_generated", "count"),
    ("pktgen.streamcache.share_ratio", "ratio"),
    ("pktgen.streamcache.acquire_us", "us"),
    ("pktgen.streamcache.peak_resident_mib", "MiB"),
    ("testbed.switch.ns_per_pkt", "ns"),
    ("testbed.splitter.broadcast_wait_frac", "fraction"),
    ("testbed.splitter.pull_wait_frac", "fraction"),
    ("testbed.sched.pool_util", "fraction"),
    ("testbed.sched.cell_p50_ms", "ms"),
    ("testbed.sched.cell_max_ms", "ms"),
    ("testbed.cache.hit_ratio", "ratio"),
    ("oskernel.ns_per_pkt", "ns"),
    ("oskernel.swan.ns_per_pkt", "ns"),
    ("oskernel.snipe.ns_per_pkt", "ns"),
    ("oskernel.moorhen.ns_per_pkt", "ns"),
    ("oskernel.flamingo.ns_per_pkt", "ns"),
    ("oskernel.pool_miss_ratio", "ratio"),
    ("oskernel.batch_coalesce_ratio", "ratio"),
    ("oskernel.alpha_memo_hit_ratio", "ratio"),
    ("oskernel.size_memo_hit_ratio", "ratio"),
    ("bpf.compile_us", "us"),
    ("bpf.vm_ns_per_pkt", "ns"),
    ("profiling.trimusage_us_per_cell", "us"),
    ("faultsim.oracle_us_per_cell", "us"),
    ("core.render_ms", "ms"),
    ("trace.events", "count"),
    ("trace.overflow", "count"),
    ("trace.collect_ms", "ms"),
    ("trace.export_json_ms", "ms"),
    ("trace.export_json_mib", "MiB"),
    ("trace.export_csv_ms", "ms"),
    ("obs.ledger_render_ms", "ms"),
    ("obs.ledger_parse_ms", "ms"),
    ("obs.diff_ms", "ms"),
    ("des.floor_ns_per_event", "ns"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.span_coverage_frac", "fraction"),
];

/// The per-layer metric the parent computes from both kinds of run;
/// every other per-layer metric comes from the traced child.
pub const TRACE_OVERHEAD: &str = "bench.trace_overhead_frac";

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Every per-layer metric but [`TRACE_OVERHEAD`].
pub fn per_layer(
    plan: &Plan,
    spans: &[Span],
    probes: &Probes,
    obs: Option<ObsSummary>,
    timed_ns: u64,
    peak_resident_bytes: u64,
) -> BTreeMap<&'static str, f64> {
    let l = layers(spans);
    let get = |name: &str| l.get(name).copied().unwrap_or_default();
    let self_per_item = |layer: Layer| ratio(layer.self_ns, layer.items);
    let total_per_count = |layer: Layer| ratio(layer.total_ns, layer.count);
    // Every machine simulation: the `oskernel.<machine>` spans.
    let sims = l
        .iter()
        .filter(|(name, _)| name.starts_with("oskernel."))
        .fold(Layer::default(), |acc, (_, s)| Layer {
            self_ns: acc.self_ns + s.self_ns,
            total_ns: acc.total_ns + s.total_ns,
            items: acc.items + s.items,
            ..acc
        });
    let mut cells: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "testbed.cell")
        .map(Span::dur_ns)
        .collect();
    cells.sort_unstable();
    let ms_of = |ns: Option<&u64>| ns.map_or(0.0, |&ns| ns as f64 / 1e6);
    let n_cells = plan.cells();
    let generated = probes.streams_generated.load(Ordering::Relaxed);
    let shared = probes.streams_shared.load(Ordering::Relaxed);
    let (p, b) = (&probes.pools, &probes.batches);
    let obs = obs.unwrap_or_default();
    let ms = |name: &str| get(name).total_ns as f64 / 1e6;
    BTreeMap::from([
        (
            "pktgen.gen_ns_per_pkt",
            self_per_item(get("pktgen.generate")),
        ),
        ("pktgen.streams_generated", generated as f64),
        (
            "pktgen.streamcache.share_ratio",
            ratio(shared, generated + shared),
        ),
        (
            "pktgen.streamcache.acquire_us",
            total_per_count(get("pktgen.streamcache.acquire")) / 1e3,
        ),
        (
            "pktgen.streamcache.peak_resident_mib",
            peak_resident_bytes as f64 / MIB,
        ),
        (
            "testbed.switch.ns_per_pkt",
            self_per_item(get("testbed.switch")),
        ),
        (
            "testbed.splitter.broadcast_wait_frac",
            ratio(
                get("testbed.splitter.broadcast").total_ns,
                get("testbed.cell").total_ns,
            ),
        ),
        (
            "testbed.splitter.pull_wait_frac",
            ratio(get("testbed.splitter.pull").total_ns, sims.total_ns),
        ),
        (
            "testbed.sched.pool_util",
            ratio(get("testbed.cell").total_ns, timed_ns * JOBS as u64),
        ),
        (
            "testbed.sched.cell_p50_ms",
            ms_of(cells.get(cells.len() / 2)),
        ),
        ("testbed.sched.cell_max_ms", ms_of(cells.last())),
        (
            "testbed.cache.hit_ratio",
            ratio(
                probes.cache_hits.load(Ordering::Relaxed),
                probes.cache_lookups.load(Ordering::Relaxed),
            ),
        ),
        ("oskernel.ns_per_pkt", self_per_item(sims)),
        (
            "oskernel.swan.ns_per_pkt",
            self_per_item(get("oskernel.swan")),
        ),
        (
            "oskernel.snipe.ns_per_pkt",
            self_per_item(get("oskernel.snipe")),
        ),
        (
            "oskernel.moorhen.ns_per_pkt",
            self_per_item(get("oskernel.moorhen")),
        ),
        (
            "oskernel.flamingo.ns_per_pkt",
            self_per_item(get("oskernel.flamingo")),
        ),
        ("oskernel.pool_miss_ratio", ratio(p.misses(), p.gets())),
        (
            "oskernel.batch_coalesce_ratio",
            ratio(b.coalesced(), sims.items),
        ),
        (
            "oskernel.alpha_memo_hit_ratio",
            ratio(b.alpha_hits(), b.alpha_hits() + b.alpha_misses()),
        ),
        (
            "oskernel.size_memo_hit_ratio",
            ratio(b.size_hits(), b.size_hits() + b.size_misses()),
        ),
        ("bpf.compile_us", total_per_count(get("bpf.compile")) / 1e3),
        (
            "bpf.vm_ns_per_pkt",
            ratio(get("bpf.vm").total_ns, get("bpf.vm").items),
        ),
        (
            "profiling.trimusage_us_per_cell",
            ratio(get("profiling.distill").total_ns, n_cells) / 1e3,
        ),
        (
            "faultsim.oracle_us_per_cell",
            ratio(get("faultsim.oracle").total_ns, n_cells) / 1e3,
        ),
        ("core.render_ms", ms("core.render")),
        ("trace.events", obs.events as f64),
        ("trace.overflow", obs.overflow as f64),
        ("trace.collect_ms", ms("trace.collect")),
        ("trace.export_json_ms", ms("trace.export_json")),
        ("trace.export_json_mib", obs.json_bytes as f64 / MIB),
        ("trace.export_csv_ms", ms("trace.export_csv")),
        ("obs.ledger_render_ms", ms("obs.ledger_render")),
        ("obs.ledger_parse_ms", ms("obs.ledger_parse")),
        ("obs.diff_ms", ms("obs.diff")),
        (
            "des.floor_ns_per_event",
            ratio(get("des.floor").total_ns, get("des.floor").items),
        ),
        ("bench.span_coverage_frac", coverage(spans)),
    ])
}

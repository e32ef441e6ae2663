//! Smoke test of the benchmark at a seconds-long size: the span-traced
//! composition reproduces the untraced run byte for byte on every
//! workload, its spans nest, and the metrics it emits are exactly the
//! ones `BENCHMARK.json` declares.

use pcs_benchmark::metrics::{per_layer, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use pcs_benchmark::spans::{check_nesting, chrome_json, self_times, Recorder};
use pcs_benchmark::traced::{self, Probes};
use pcs_benchmark::workload::{Plan, Size, Workload, SEED};
use pcs_obs::Json;
use pcs_pktgen::StreamCache;
use pcs_testbed::RunCache;
use std::collections::BTreeSet;

/// Both caches are process-global: empty them so the next run computes
/// every cell and generates every stream itself.
fn cold_caches() {
    RunCache::global().clear();
    StreamCache::global().clear();
}

// One test function: the caches are shared by every test in the binary.
#[test]
fn traced_composition_matches_untraced_run_on_every_workload() {
    for w in Workload::ALL {
        let plan = Plan::new(w, SEED, Size::Smoke);
        cold_caches();
        let untraced = plan.run();
        assert_eq!(plan.check(&untraced, None), 0, "{}", w.name());
        assert_eq!(untraced.obs.is_some(), w == Workload::TracedSweep);

        cold_caches();
        let rec = Recorder::new();
        let probes = Probes::default();
        let spanned = rec.span("bench.timed", || traced::run(&plan, &rec, &probes));
        assert_eq!(
            spanned.csv,
            untraced.csv,
            "{}: traced CSV differs",
            w.name()
        );
        assert_eq!(plan.check(&spanned, None), 0, "{}", w.name());
        assert!(spanned.obs.is_some_and(|o| o.ok));

        traced::calibrate(&plan, &rec);
        let spans = rec.spans();
        check_nesting(&spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        for (s, own) in spans.iter().zip(self_times(&spans)) {
            assert!(own <= s.dur_ns(), "{}: {} self time", w.name(), s.name);
        }
        pcs_trace::export::validate_json(&chrome_json(&spans)).unwrap();
        let values = per_layer(&plan, &spans, &probes, spanned.obs, 1, 1);
        let emitted: BTreeSet<&str> = values.keys().copied().chain([TRACE_OVERHEAD]).collect();
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, declared, "{}", w.name());
        assert!(values.values().all(|v| v.is_finite()));
        // One stream per distinct (rate, repeat); every other SUT set
        // subscribes to it.
        let mut rates: Vec<String> = plan
            .sets
            .iter()
            .flat_map(|s| s.rates.iter().map(|r| format!("{r:?}")))
            .collect();
        rates.sort();
        rates.dedup();
        let streams = rates.len() as f64 * f64::from(plan.cfg.repeats);
        assert_eq!(values["pktgen.streams_generated"], streams, "{}", w.name());
    }
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let valid = |n: &str| {
        !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid(name), "{name}");
    }
}

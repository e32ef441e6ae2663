//! `experiments` — regenerate every table and figure of the thesis'
//! evaluation.
//!
//! ```text
//! experiments list
//! experiments run <id>... [--scale quick|standard|full] [--jobs N]
//!                         [--csv-dir DIR] [--trace PATH[:FILTER]]
//!                         [--profile] [--faults SPEC[:SEED]]
//! experiments all [--scale ...] [--jobs N] [--csv-dir DIR]
//!                 [--trace PATH[:FILTER]] [--profile]
//!                 [--faults SPEC[:SEED]]
//! ```
//!
//! Output is a text table per experiment (capture rate and CPU usage per
//! system under test, like the thesis' plots read as numbers), plus
//! optional CSV files for plotting.
//!
//! `--jobs N` bounds the worker pool (default: all host cores). Whole
//! experiments run concurrently, and each experiment's sweep cells are
//! further spread over the remaining workers. Inside each cell the
//! generator streams 4096-packet chunks that every sniffer's simulation
//! reads in place, one thread per sniffer; a cell holds its whole stream
//! while it runs. Identical packet streams — the same
//! (workload, rate, repeat) measured over different SUT sets — are
//! generated once and shared through a content-addressed cache, which
//! keeps completed streams resident up to a 1 GiB budget. The
//! simulation is deterministic, so any job count
//! produces byte-identical tables and CSV files; the summary reports
//! per-experiment wall-clock plus how many sweep cells were simulated,
//! how many packet streams were generated vs shared, and the peak
//! resident stream bytes. Every cell is simulated, and the sim-wide
//! invariant oracle (packet conservation, buffer bounds, monotonic
//! clocks, rate sanity) checks every cell; a violation aborts the run.
//!
//! `--trace PATH[:FILTER]` records every simulated packet's lifecycle —
//! wire arrival, NIC ring, bus transfer, filter verdict, kernel buffer,
//! application delivery, disk write — into Chrome trace-event JSON at
//! `PATH` (loadable in Perfetto / `chrome://tracing`) plus a flat CSV
//! sibling, and prints a per-stage drop-attribution table whose rows sum
//! *exactly* to generated − delivered for every SUT. `FILTER` selects
//! stages (e.g. `drops`, `wire,app`; see EXPERIMENTS.md). Tracing is an
//! observation layer: tables and CSVs stay byte-identical, and `--trace
//! off` (or omitting the flag) runs the branch-cheap untraced path.
//! `--profile` prints host-side execution profiling per experiment:
//! total/max cell wall time, worker-pool utilization and the sims'
//! buffer pools. These read the host clock, so their numbers (unlike
//! everything else) vary run to run.
//!
//! `--ledger PATH` writes the run ledger: one deterministic JSON
//! manifest recording every cell's 128-bit config fingerprint, achieved
//! rate, exact drop attribution, metrics dump, exact latency
//! percentiles, and the per-CPU per-work-kind stage-time account. The
//! ledger is byte-identical at any `--jobs` setting (the `--profile`
//! block is the documented host-side exception), so `cmp` on two
//! ledgers is a determinism check and `experiments obs diff A.json
//! B.json [--fail-on-drift]` ranks exactly what moved between two runs.
//! `--profile-json PATH` writes the host-side `--profile` numbers as
//! standalone JSON.
//!
//! `--faults SPEC[:SEED]` arms a deterministic fault plan — seeded
//! windows of NIC-ring stalls, bus-contention bursts, IRQ jitter,
//! kernel-buffer shrinks, application pauses, splitter hiccups and
//! stream-cache squeezes (`SPEC` is fault names joined with `+`, or
//! `chaos` for all of them; see EXPERIMENTS.md). The same `SPEC:SEED`
//! produces byte-identical tables and CSVs at any `--jobs` setting.
//!
//! Argument errors exit 2 with the usage text or a one-line message. An
//! output path that cannot be written exits 1 with
//! `experiments: cannot write '<path>': <error>`.

use pcs_core::{all_experiments, ExecConfig, Scale};
use pcs_faultsim::FaultPlan;
use pcs_obs::{
    diff_ledgers, render_ledger, render_profile, ExperimentProfile, HostProfile, Ledger, LedgerMeta,
};
use pcs_testbed::{available_parallelism, parallel_ordered, peak_stream_bytes};
use pcs_trace::json::validate;
use pcs_trace::{export, DropAttribution, StageFilter, TraceCollector, TraceSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Parse `--trace`'s `PATH[:FILTER]` argument (`off` disables tracing).
///
/// The suffix after the last `:` is taken as a stage filter only when it
/// parses as one; anything else falls back to treating the whole argument
/// as the path, so paths that merely contain a colon (`C:\t.json`,
/// `out:1/x.json`) still work.
fn parse_trace_arg(arg: &str) -> Option<(String, StageFilter)> {
    if arg == "off" {
        return None;
    }
    if let Some((path, filter)) = arg.rsplit_once(':') {
        if !path.is_empty() {
            if let Ok(filter) = StageFilter::parse(filter) {
                return Some((path.to_string(), filter));
            }
        }
    }
    Some((arg.to_string(), StageFilter::all()))
}

/// Parse one of the positive integer flags (`--jobs`, `--top`), with one
/// error-message shape for both.
fn parse_knob(flag: &str, arg: &str) -> Result<usize, String> {
    arg.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} wants a positive integer, got '{arg}'"))
}

/// Report a bad argument and exit with the CLI-error status.
fn bail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Unwrap the result of creating or writing the output `path`. On
/// failure, print `experiments: cannot write '<path>': <error>` and exit
/// 1 (argument errors exit 2).
fn output<T>(path: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("experiments: cannot write '{path}': {e}");
        std::process::exit(1)
    })
}

/// Percentage helper for the summaries: `part` out of `whole`.
fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  experiments list\n  experiments run <id>... [--scale quick|standard|full] [--jobs N] [--csv-dir DIR] [--trace PATH[:FILTER]] [--ledger PATH] [--profile] [--profile-json PATH] [--faults SPEC[:SEED]]\n  experiments all [--scale quick|standard|full] [--jobs N] [--csv-dir DIR] [--trace PATH[:FILTER]] [--ledger PATH] [--profile] [--profile-json PATH] [--faults SPEC[:SEED]]\n  experiments obs diff <A.json> <B.json> [--fail-on-drift] [--top N]\n\nScales: quick (40k packets, 5 rates), standard (300k, 10), full (1M, 19 — the thesis' ladder).\n--jobs N: worker-pool size (default: all host cores); tables and CSVs are\n                byte-identical at any N.\n--trace PATH[:FILTER]: write packet-lifecycle traces as Chrome trace-event JSON to PATH\n                (Perfetto-loadable) plus a CSV sibling, and print per-stage drop\n                attribution. FILTER picks stages: all, drops, wire, nic, bus, filter,\n                kernel, app, disk, sched (per-CPU scheduler dispatch timelines) or exact\n                stage names, comma-separated. 'off' disables.\n--ledger PATH: write the run ledger — a deterministic JSON manifest of every cell's\n                config fingerprint, achieved rate, drop attribution, metrics, exact\n                latency percentiles and per-CPU stage-time account. Byte-identical at\n                any --jobs; feed two ledgers to `experiments obs diff` to rank\n                what changed between runs.\n--profile: print host-side execution profiling (cell wall times, pool utilization,\n                sim buffer pools) to stderr (and embed it in the ledger, the\n                one host-side block there).\n--profile-json PATH: write the host-side profile as standalone JSON.\n--faults SPEC[:SEED]: arm a deterministic fault plan. SPEC is fault names joined\n                with '+' (ringstall busburst irqjitter kshrink apppause preempt\n                hiccup squeeze), or 'chaos' for all, or 'off' (default). Same SPEC:SEED =>\n                byte-identical output at any --jobs.\nEvery cell is checked against the sim-wide invariant oracle (packet conservation,\n                buffer bounds, clock monotonicity, rate sanity); any violation aborts\n                the run. An output path that cannot be written exits 1.\nobs diff A B: load two ledgers, match cells by label (equal fingerprints first), and\n                rank every numeric observable that moved (fingerprint changes\n                reported first; differing fault plans are printed as context).\n                --fail-on-drift exits 1 on any difference; --top N caps the\n                drifts printed per cell (default 8)."
    );
    std::process::exit(2);
}

/// `experiments obs diff A.json B.json [--fail-on-drift] [--top N]`.
fn obs_main(args: &[String]) {
    if args.first().map(String::as_str) != Some("diff") || args.len() < 3 {
        usage();
    }
    let (a_path, b_path) = (&args[1], &args[2]);
    let mut fail_on_drift = false;
    let mut top = 8usize;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--fail-on-drift" => fail_on_drift = true,
            "--top" => {
                i += 1;
                let n = args.get(i).unwrap_or_else(|| usage());
                top = parse_knob("--top", n).unwrap_or_else(|msg| bail(msg));
            }
            _ => usage(),
        }
        i += 1;
    }
    let load = |path: &String| -> Ledger {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| bail(format!("cannot read ledger '{path}': {e}")));
        Ledger::parse(&text).unwrap_or_else(|e| bail(format!("'{path}' is not a ledger: {e}")))
    };
    let report = diff_ledgers(&load(a_path), &load(b_path));
    print!("{}", report.render(top));
    if fail_on_drift && report.has_drift() {
        eprintln!("obs diff: drift detected between '{a_path}' and '{b_path}' (--fail-on-drift)");
        std::process::exit(1);
    }
}

/// First pair of output paths that would overwrite each other, if any.
///
/// `--trace`, `--ledger`, `--profile-json` and the per-experiment CSVs
/// are all written at the end of the run; two flags aimed at one path
/// would silently clobber hours of sweep output, so the run refuses to
/// start instead.
fn find_collision(outputs: &[(String, String)]) -> Option<(String, String, String)> {
    for (i, (fa, pa)) in outputs.iter().enumerate() {
        for (fb, pb) in &outputs[i + 1..] {
            if std::path::Path::new(pa) == std::path::Path::new(pb) {
                return Some((fa.clone(), fb.clone(), pa.clone()));
            }
        }
    }
    None
}

/// Where `--trace PATH` puts its flat-CSV sibling: `PATH` with a `.csv`
/// extension, or `PATH.events.csv` when that would collide with `PATH`
/// itself.
fn trace_csv_sibling(path: &str) -> String {
    let p = std::path::Path::new(path).with_extension("csv");
    let p = p.to_string_lossy().into_owned();
    if p == *path {
        format!("{path}.events.csv")
    } else {
        p
    }
}

/// Fail fast when an output file's directory does not exist (the file is
/// written only after the whole sweep — hours at `--scale full`).
fn require_parent_dir(flag: &str, path: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            bail(format!(
                "{flag}: directory '{}' does not exist (create it first)",
                parent.display()
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "list" => {
            println!("{:<12} DESCRIPTION", "ID");
            for (id, desc, _) in all_experiments() {
                println!("{id:<12} {desc}");
            }
        }
        "obs" => obs_main(&args[1..]),
        "run" | "all" => {
            let mut ids: Vec<String> = Vec::new();
            let mut scale = Scale::standard();
            let mut scale_name = "standard".to_string();
            let mut csv_dir: Option<String> = None;
            let mut jobs = available_parallelism();
            let mut trace: Option<(String, StageFilter)> = None;
            let mut ledger: Option<String> = None;
            let mut profile = false;
            let mut profile_json: Option<String> = None;
            let mut faults: Option<FaultPlan> = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--scale" => {
                        i += 1;
                        let name = args.get(i).unwrap_or_else(|| usage());
                        scale = Scale::by_name(name).unwrap_or_else(|| {
                            eprintln!("unknown scale '{name}'");
                            std::process::exit(2);
                        });
                        scale_name = name.clone();
                    }
                    "--jobs" => {
                        i += 1;
                        let n = args.get(i).unwrap_or_else(|| usage());
                        jobs = parse_knob("--jobs", n).unwrap_or_else(|msg| bail(msg));
                    }
                    "--faults" => {
                        i += 1;
                        let n = args.get(i).unwrap_or_else(|| usage());
                        faults = FaultPlan::parse(n).unwrap_or_else(|msg| bail(msg));
                    }
                    "--csv-dir" => {
                        i += 1;
                        csv_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    "--trace" => {
                        i += 1;
                        let n = args.get(i).unwrap_or_else(|| usage());
                        trace = parse_trace_arg(n);
                    }
                    "--ledger" => {
                        i += 1;
                        ledger = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    "--profile" => profile = true,
                    "--profile-json" => {
                        i += 1;
                        profile_json = Some(args.get(i).unwrap_or_else(|| usage()).clone());
                    }
                    other if other.starts_with("--") => usage(),
                    other => ids.push(other.to_string()),
                }
                i += 1;
            }
            let registry = all_experiments();
            let selected: Vec<_> = if args[0] == "all" {
                registry
            } else {
                if ids.is_empty() {
                    usage();
                }
                let mut sel = Vec::new();
                for (n, id) in ids.iter().enumerate() {
                    if ids[..n].contains(id) {
                        bail(format!("experiment '{id}' given more than once"));
                    }
                    match registry.iter().find(|(rid, _, _)| rid == id) {
                        Some(e) => sel.push(*e),
                        None => {
                            eprintln!("unknown experiment '{id}' (try `experiments list`)");
                            std::process::exit(2);
                        }
                    }
                }
                sel
            };
            if let Some(dir) = &csv_dir {
                output(dir, std::fs::create_dir_all(dir));
            }
            // Fail fast: the trace JSON (and its CSV sibling, which lands
            // in the same directory) is written after the whole sweep, so
            // make sure its directory exists before any work starts.
            if let Some((path, _)) = &trace {
                if let Some(parent) = std::path::Path::new(path).parent() {
                    if !parent.as_os_str().is_empty() {
                        output(&parent.to_string_lossy(), std::fs::create_dir_all(parent));
                    }
                }
            }
            // Same for the ledger and profile JSON — but these directories
            // must already exist (a typo'd --ledger path should not grow a
            // directory tree, it should stop the run before any work).
            if let Some(path) = &ledger {
                require_parent_dir("--ledger", path);
            }
            if let Some(path) = &profile_json {
                require_parent_dir("--profile-json", path);
            }
            // Refuse output paths that would overwrite each other: the
            // trace JSON + its CSV sibling, the ledger, the profile JSON
            // and every per-experiment CSV land after the sweep finishes.
            let mut outputs: Vec<(String, String)> = Vec::new();
            if let Some((path, _)) = &trace {
                outputs.push(("--trace".into(), path.clone()));
                outputs.push(("--trace (csv sibling)".into(), trace_csv_sibling(path)));
            }
            if let Some(path) = &ledger {
                outputs.push(("--ledger".into(), path.clone()));
            }
            if let Some(path) = &profile_json {
                outputs.push(("--profile-json".into(), path.clone()));
            }
            if let Some(dir) = &csv_dir {
                for (id, _, _) in &selected {
                    outputs.push((
                        format!("--csv-dir ({id})"),
                        format!("{dir}/{}.csv", id.replace('/', "_")),
                    ));
                }
            }
            if let Some((fa, fb, path)) = find_collision(&outputs) {
                bail(format!(
                    "output collision: {fa} and {fb} both write to '{path}'"
                ));
            }
            // Two-level pool: up to `outer` experiments in flight, each
            // sweeping its cells over `inner` workers, ≈ jobs total.
            let outer = jobs.min(selected.len().max(1));
            let inner = (jobs / outer).max(1);
            eprintln!(
                "== {} experiment(s), --jobs {jobs} ({outer} concurrent × {inner} cell workers)",
                selected.len()
            );
            let faults = faults.map(Arc::new);
            if let Some(plan) = &faults {
                eprintln!("== faults armed: {plan}");
            }
            // `--trace` and `--ledger` share the collector. A ledger
            // without a trace uses the empty stage filter: no events are
            // buffered, but metrics, latency digests, attributions and
            // stage times still accumulate per cell.
            let collector = if trace.is_some() || ledger.is_some() {
                let filter = trace
                    .as_ref()
                    .map(|(_, filter)| *filter)
                    .unwrap_or_else(StageFilter::none);
                Some(Arc::new(TraceCollector::new(TraceSpec {
                    filter,
                    ..TraceSpec::default()
                })))
            } else {
                None
            };
            let stage_times = ledger.is_some();
            let t_all = Instant::now();
            let results = parallel_ordered(selected, outer, |_, (id, desc, run)| {
                let mut exec = ExecConfig::with_jobs(inner).with_stage_times(stage_times);
                if let Some(plan) = &faults {
                    exec = exec.with_faults(Arc::clone(plan));
                }
                if let Some(collector) = &collector {
                    exec = exec.with_trace(Arc::clone(collector));
                }
                let t0 = Instant::now();
                let e = run(&scale, &exec);
                let wall = t0.elapsed().as_secs_f64();
                eprintln!(
                    "== {id} finished in {wall:.1}s ({} cells run; {} streams generated, {} shared)",
                    exec.stats.cells_run(),
                    exec.stats.streams_generated(),
                    exec.stats.streams_shared()
                );
                (id, desc, e, wall, exec)
            });
            // Tables and CSVs are emitted in registry order regardless of
            // completion order, so the output is byte-stable at any -j.
            let mut total_run = 0u64;
            let mut total_generated = 0u64;
            let mut total_shared = 0u64;
            for (id, _desc, e, _wall, exec) in &results {
                total_run += exec.stats.cells_run();
                total_generated += exec.stats.streams_generated();
                total_shared += exec.stats.streams_shared();
                println!("{}", e.to_table());
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/{}.csv", id.replace('/', "_"));
                    output(&path, std::fs::write(&path, e.to_csv()));
                    eprintln!("== wrote {path}");
                }
            }
            eprintln!("== summary ({:.1}s wall):", t_all.elapsed().as_secs_f64());
            for (id, desc, _e, wall, exec) in &results {
                eprintln!(
                    "==   {id:<12} {wall:>7.1}s  {:>5} cells run  {:>4} streams gen  {:>4} shared  ({desc})",
                    exec.stats.cells_run(),
                    exec.stats.streams_generated(),
                    exec.stats.streams_shared(),
                );
            }
            eprintln!(
                "== total: {total_run} cells run; {total_generated} streams generated, {total_shared} shared ({:.1}% share rate), {:.1} MiB peak resident",
                percent(total_shared, total_generated + total_shared),
                peak_stream_bytes() as f64 / (1024.0 * 1024.0)
            );
            if profile {
                eprintln!("== profile (host-side; varies run to run):");
                for (id, _desc, _e, wall, exec) in &results {
                    let s = &exec.stats;
                    let busy = s.cell_wall_ns() as f64 / 1e9;
                    let util = percent(s.cell_wall_ns(), (wall * 1e9) as u64 * inner as u64);
                    eprintln!(
                        "==   {id:<12} sim {busy:>7.2}s over {inner} worker(s) ({util:.1}% pool util)  slowest cell {:.2}s",
                        s.cell_wall_ns_max() as f64 / 1e9
                    );
                    let p = s.sim_pools();
                    eprintln!(
                        "==   {id:<12} sim buffer pools: {} gets, {} misses ({:.4}% — sim high-water {}), {} recycled",
                        p.gets(),
                        p.misses(),
                        percent(p.misses(), p.gets()),
                        p.high_water(),
                        p.recycled()
                    );
                }
            }
            if let Some((path, _)) = &trace {
                let collector = collector.as_ref().expect("trace implies a collector");
                let cells = collector.cells();
                let json = export::chrome_trace_json(&cells);
                validate(&json).expect("generated trace JSON must be valid");
                output(path, std::fs::write(path, &json));
                // Freed before the CSV renders: each is hundreds of MiB
                // on an all-stage trace.
                drop(json);
                eprintln!(
                    "== wrote {path} ({} traced cells; load in Perfetto)",
                    cells.len()
                );
                let csv_path = trace_csv_sibling(path);
                output(
                    &csv_path,
                    std::fs::write(&csv_path, export::events_csv(&cells)),
                );
                eprintln!("== wrote {csv_path}");
                // Per-SUT drop attribution, totalled over every traced
                // cell. Each row partitions its generated packets
                // exactly: generated = delivered + the seven loss
                // buckets (summed over the SUT's applications).
                let mut by_sut: BTreeMap<String, DropAttribution> = BTreeMap::new();
                for cell in &cells {
                    for sut in &cell.suts {
                        let entry = by_sut.entry(sut.label.clone()).or_default();
                        for attr in &sut.attributions {
                            entry.absorb(attr);
                        }
                    }
                }
                eprintln!("== drop attribution (all traced cells, per SUT):");
                eprint!("==   {:<24}", "sut");
                for col in DropAttribution::COLUMNS {
                    eprint!(" {col:>w$}", w = col.len().max(10));
                }
                eprintln!();
                for (label, attr) in &by_sut {
                    assert!(attr.balanced(), "{label}: attribution must balance");
                    eprint!("==   {label:<24}");
                    for (col, v) in DropAttribution::COLUMNS.iter().zip(attr.values()) {
                        eprint!(" {v:>w$}", w = col.len().max(10));
                    }
                    eprintln!();
                }
            }
            // Host-side profile roll-up, shared by the ledger's profile
            // block and --profile-json. Wall-clock numbers: never part of
            // the deterministic surface.
            let host_profile = (profile || profile_json.is_some()).then(|| HostProfile {
                peak_stream_bytes: peak_stream_bytes(),
                experiments: results
                    .iter()
                    .map(|(id, _desc, _e, wall, exec)| {
                        let s = &exec.stats;
                        let p = s.sim_pools();
                        ExperimentProfile {
                            id: (*id).to_string(),
                            wall_s: *wall,
                            cells_run: s.cells_run(),
                            streams_generated: s.streams_generated(),
                            streams_shared: s.streams_shared(),
                            cell_wall_ns: s.cell_wall_ns(),
                            cell_wall_ns_max: s.cell_wall_ns_max(),
                            pool_gets: p.gets(),
                            pool_misses: p.misses(),
                            pool_recycled: p.recycled(),
                            pool_high_water: p.high_water(),
                        }
                    })
                    .collect(),
            });
            if let Some(path) = &ledger {
                let collector = collector.as_ref().expect("ledger implies a collector");
                let cells = collector.cells();
                let meta = LedgerMeta {
                    scale: scale_name.clone(),
                    experiments: results.iter().map(|(id, ..)| (*id).to_string()).collect(),
                    faults: faults.as_ref().map(|plan| plan.to_string()),
                };
                // The profile block is embedded only under --profile: a
                // bare --ledger stays fully deterministic (cmp-able).
                let embedded = if profile { host_profile.as_ref() } else { None };
                let json = render_ledger(&meta, &cells, embedded);
                validate(&json).expect("generated ledger JSON must be valid");
                output(path, std::fs::write(path, &json));
                eprintln!(
                    "== wrote {path} ({} cells; compare runs with `experiments obs diff`)",
                    cells.len()
                );
            }
            if let Some(path) = &profile_json {
                let p = host_profile
                    .as_ref()
                    .expect("profile-json implies profiling");
                let json = render_profile(p);
                validate(&json).expect("generated profile JSON must be valid");
                output(path, std::fs::write(path, &json));
                eprintln!("== wrote {path} (host-side profile; varies run to run)");
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_argument_parses() {
        assert_eq!(parse_trace_arg("off"), None);
        assert_eq!(
            parse_trace_arg("out.json"),
            Some(("out.json".into(), StageFilter::all()))
        );
        assert_eq!(
            parse_trace_arg("out.json:drops"),
            Some(("out.json".into(), StageFilter::drops()))
        );
        let (path, filter) = parse_trace_arg("t.json:wire,app").unwrap();
        assert_eq!(path, "t.json");
        assert_ne!(filter, StageFilter::all());
        // A colon suffix that isn't a stage filter is part of the path.
        assert_eq!(
            parse_trace_arg("C:\\t.json"),
            Some(("C:\\t.json".into(), StageFilter::all()))
        );
        assert_eq!(
            parse_trace_arg("out:1/x.json"),
            Some(("out:1/x.json".into(), StageFilter::all()))
        );
    }

    #[test]
    fn trace_csv_sibling_never_collides_with_the_trace() {
        assert_eq!(trace_csv_sibling("t.json"), "t.csv");
        assert_eq!(trace_csv_sibling("out/t.json"), "out/t.csv");
        // Already-.csv trace paths get a distinct sibling.
        assert_eq!(trace_csv_sibling("t.csv"), "t.csv.events.csv");
        assert_eq!(trace_csv_sibling("noext"), "noext.csv");
    }

    #[test]
    fn output_collisions_are_detected() {
        let outputs = vec![
            ("--trace".to_string(), "out/a.json".to_string()),
            ("--trace (csv sibling)".to_string(), "out/a.csv".to_string()),
            ("--ledger".to_string(), "out/b.json".to_string()),
        ];
        assert_eq!(find_collision(&outputs), None);
        let mut clash = outputs.clone();
        clash.push(("--profile-json".to_string(), "out/b.json".to_string()));
        assert_eq!(
            find_collision(&clash),
            Some((
                "--ledger".to_string(),
                "--profile-json".to_string(),
                "out/b.json".to_string()
            ))
        );
        // Path comparison, not string comparison: a redundant ./ still
        // collides.
        let mut dotted = outputs.clone();
        dotted.push(("--ledger 2".to_string(), "out/./b.json".to_string()));
        assert!(find_collision(&dotted).is_some());
    }

    #[test]
    fn percent_is_safe_on_zero() {
        assert_eq!(percent(1, 0), 0.0);
        assert_eq!(percent(1, 4), 25.0);
    }

    #[test]
    fn knob_errors_share_one_shape() {
        assert_eq!(
            parse_knob("--top", "x").unwrap_err(),
            "--top wants a positive integer, got 'x'"
        );
        assert_eq!(
            parse_knob("--jobs", "0").unwrap_err(),
            "--jobs wants a positive integer, got '0'"
        );
        assert_eq!(
            parse_knob("--jobs", "-3").unwrap_err(),
            "--jobs wants a positive integer, got '-3'"
        );
        assert_eq!(parse_knob("--top", "4"), Ok(4));
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            // The three parsers take attacker-ish strings straight from
            // argv: no byte soup may panic them. The vendored proptest
            // has no String strategy, so fuzz bytes and lossily decode.
            #[test]
            fn trace_arg_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let arg = String::from_utf8_lossy(&bytes).into_owned();
                let _ = parse_trace_arg(&arg);
            }

            #[test]
            fn knob_arg_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let arg = String::from_utf8_lossy(&bytes).into_owned();
                let _ = parse_knob("--jobs", &arg);
            }

            #[test]
            fn faults_arg_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let arg = String::from_utf8_lossy(&bytes).into_owned();
                let _ = FaultPlan::parse(&arg);
            }

            // Valid inputs round-trip exactly.
            #[test]
            fn knob_round_trips(n in 1usize..1_000_000) {
                prop_assert_eq!(parse_knob("--jobs", &n.to_string()), Ok(n));
            }

            #[test]
            fn trace_arg_plain_paths_round_trip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
                // Colon- and 'off'-free paths must come back verbatim with
                // the identity filter.
                let path: String = bytes
                    .iter()
                    .map(|b| char::from(b'a' + (b % 26)))
                    .collect();
                prop_assume!(path != "off");
                prop_assert_eq!(
                    parse_trace_arg(&path),
                    Some((path.clone(), StageFilter::all()))
                );
                // And a known-good stage suffix is split off.
                let (p, f) = parse_trace_arg(&format!("{path}:drops")).unwrap();
                prop_assert_eq!(p, path);
                prop_assert_eq!(f, StageFilter::drops());
            }
        }
    }
}

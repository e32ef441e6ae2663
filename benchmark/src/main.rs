//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark run [--runs N] [--seed N] [--seconds S] [--out PATH]
//! benchmark compare A.json B.json
//! benchmark --bless
//! ```
//!
//! The first form is one measured run of one workload: fresh child
//! processes (untraced, plus span-traced ones under `--trace 1`) for `S`
//! seconds, medians over them, and as the last stdout line one JSON
//! object with `correct`, `attempted`, `failed` and the end-to-end
//! (`--trace 0`) or per-layer (`--trace 1`) metrics. `run` interleaves
//! every workload round-robin and writes a set file; `compare` judges
//! two set files against the bounds in `BENCHMARK.json`; `--bless`
//! rewrites the goldens (intentional model changes only). See README.md.

use pcs_benchmark::metrics::{per_layer, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use pcs_benchmark::quartiles;
use pcs_benchmark::spans::{check_nesting, chrome_json, layers, table, Recorder};
use pcs_benchmark::traced::{self, Probes};
use pcs_benchmark::workload::{csv_rows, Plan, Size, Workload, HOLDOUT_SEED, SEED};
use pcs_obs::Json;
use pcs_pktgen::StreamCache;
use pcs_trace::export::{escape_json, validate_json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-up-only children spawned per round of measured children, so
/// `setup_s` is a median over many short samples spread across the run.
const SETUP_PROBES: usize = 8;

/// A child still running after this long is killed and its rows fail. A
/// healthy one takes seconds; two at the limit still end a measured run
/// within three minutes.
const CHILD_LIMIT: Duration = Duration::from_secs(75);

fn bail(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    bail(
        "usage:\n  benchmark --workload W --seed N --seconds S --trace 0|1\n  benchmark run [--runs N] [--seed N] [--seconds S] [--out PATH]\n  benchmark compare A.json B.json\n  benchmark --bless\nworkloads: rate-sweep buffer-sweep app-mix traced-sweep",
    )
}

/// The value after `flag`, parsed; `default` when the flag is absent.
fn arg<T: FromStr>(args: &[String], flag: &str, default: Option<T>) -> T {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| bail(&format!("{flag} needs a valid value"))),
        None => default.unwrap_or_else(|| usage()),
    }
}

fn workload_arg(args: &[String]) -> Workload {
    let name: String = arg(args, "--workload", None);
    Workload::by_name(&name).unwrap_or_else(|| bail(&format!("unknown workload '{name}'")))
}

/// A JSON number: finite values as measured, anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    escape_json(s, &mut out);
    out.push('"');
    out
}

/// `{"k":v,...}` from rendered values.
fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

// ---------------------------------------------------------------------
// The child: one fresh process per measured run.
// ---------------------------------------------------------------------

/// CPU time (user + system, every thread) this process has used since
/// it was forked, in seconds: `CLOCK_PROCESS_CPUTIME_ID`, which has
/// nanosecond resolution where `/proc/self/stat` counts 10 ms ticks.
fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id
    // is a valid Linux clock; `clock_gettime` writes only through `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Seconds of wall time the hypervisor has so far run other guests on
/// this machine's vCPUs, averaged over the vCPUs: the `steal` column of
/// `/proc/stat`'s `cpu` line (USER_HZ ticks summed over every vCPU),
/// divided by the vCPU count. Always 0 on bare metal.
fn stolen_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal: u64 = stat
        .lines()
        .next()
        .and_then(|total| total.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse().ok())
        .unwrap_or(0);
    let vcpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    steal as f64 / 100.0 / vcpus.max(1) as f64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn child(args: &[String]) {
    let workload = workload_arg(args);
    let seed: u64 = arg(args, "--seed", None);
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let traced = has("--traced");
    let plan = Plan::new(workload, seed, Size::Bench);
    println!("ready {}", cpu_seconds());
    std::io::stdout().flush().expect("stdout is writable");
    if has("--setup-only") {
        return;
    }
    let rec = if traced {
        Recorder::new()
    } else {
        Recorder::off()
    };
    let probes = Probes::default();
    let (cpu0, stolen0) = (cpu_seconds(), stolen_seconds());
    let t0 = Instant::now();
    let outcome = if traced {
        rec.span("bench.timed", || traced::run(&plan, &rec, &probes))
    } else {
        plan.run()
    };
    let wall = t0.elapsed();
    let (cpu, stolen) = (cpu_seconds() - cpu0, stolen_seconds() - stolen0);
    let path = workload.golden_path(seed);
    let bless = has("--bless");
    // Every recorded seed has a committed golden; other seeds have none.
    let golden = ([SEED, HOLDOUT_SEED].contains(&seed) && !bless).then(|| {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| bail(&format!("golden {}: {e}", path.display())))
    });
    let failed = plan.check(&outcome, golden.as_deref());
    if bless {
        if failed > 0 {
            bail(&format!(
                "{failed} rows break the invariants; golden not written"
            ));
        }
        std::fs::write(&path, &outcome.csv).expect("golden directory is writable");
        eprintln!("benchmark: wrote {}", path.display());
    }
    let mut layer_values = BTreeMap::new();
    if traced {
        traced::calibrate(&plan, &rec);
        let spans = rec.spans();
        check_nesting(&spans).unwrap_or_else(|e| bail(&format!("span tree: {e}")));
        layer_values = per_layer(
            &plan,
            &spans,
            &probes,
            outcome.obs,
            wall.as_nanos() as u64,
            StreamCache::global().peak_resident_bytes(),
        );
        let json = chrome_json(&spans);
        validate_json(&json).unwrap_or_else(|e| bail(&format!("span JSON: {e}")));
        let dir = manifest_dir().join("out");
        let path = dir.join(format!("spans.{}.seed{seed}.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json))
            .unwrap_or_else(|e| bail(&format!("write {}: {e}", path.display())));
        eprintln!(
            "benchmark: {} seed {seed}: {} spans -> {}\n{}",
            workload.name(),
            spans.len(),
            path.display(),
            table(&layers(&spans), plan.sim_packets())
        );
    }
    let fields = [
        ("wall_s", num(wall.as_secs_f64())),
        ("stolen_s", num(stolen)),
        ("cpu_s", num(cpu)),
        ("sim_pkts", num(plan.sim_packets() as f64)),
        ("failed", failed.to_string()),
        ("peak_rss_mib", num(peak_rss_mib())),
        ("csv", string(&outcome.csv)),
        (
            "layers",
            object(layer_values.iter().map(|(k, v)| (*k, num(*v)))),
        ),
    ];
    println!("{}", object(fields));
}

// ---------------------------------------------------------------------
// The parent: spawn children, take medians.
// ---------------------------------------------------------------------

/// What one child reported.
#[derive(Default)]
struct ChildRun {
    setup_s: f64,
    /// Wall time of the timed region less the time the hypervisor ran
    /// other guests on the vCPUs: co-tenants' load on a shared host would
    /// otherwise swamp any change of the program's own.
    run_s: f64,
    cpu_s: f64,
    sim_pkts: f64,
    failed: u64,
    peak_rss_mib: f64,
    csv: String,
    layers: BTreeMap<String, f64>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    SetupOnly,
    Untraced,
    Traced,
    Bless,
}

/// Run one child to completion. `setup_s` is the CPU time the child
/// reports on its `ready` line: exec plus building the workload's inputs.
/// Its wall time would mostly measure the hypervisor: on a shared 2-vCPU
/// VM the run medians of a 2 ms set-up's wall time ranged 2.7–7.7 ms.
fn spawn(workload: Workload, seed: u64, mode: Mode) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    cmd.arg(match mode {
        Mode::SetupOnly => "--setup-only",
        Mode::Untraced => "--untraced",
        Mode::Traced => "--traced",
        Mode::Bless => "--bless",
    });
    let mut proc = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    // Read on a thread so a hung child can be killed at the limit.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines().map_while(Result::ok);
        let ready = lines.next();
        let _ = tx.send((ready, lines.last()));
    });
    let output = rx.recv_timeout(CHILD_LIMIT);
    if output.is_err() {
        let _ = proc.kill();
    }
    let status = proc.wait().map_err(|e| format!("wait: {e}"))?;
    reader.join().expect("reader thread does not panic");
    let (ready, last) =
        output.map_err(|_| format!("{} child killed after {CHILD_LIMIT:?}", workload.name()))?;
    let setup_s = ready
        .as_deref()
        .and_then(|l| l.strip_prefix("ready "))
        .and_then(|cpu| cpu.parse().ok());
    let (true, Some(setup_s)) = (status.success(), setup_s) else {
        return Err(format!("{} child exited with {status}", workload.name()));
    };
    if mode == Mode::SetupOnly {
        return Ok(ChildRun {
            setup_s,
            ..ChildRun::default()
        });
    }
    let json = Json::parse(&last.unwrap_or_default()).map_err(|e| format!("child output: {e}"))?;
    let f = |k: &str| {
        json.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("child output lacks {k}"))
    };
    Ok(ChildRun {
        setup_s,
        run_s: f("wall_s")? - f("stolen_s")?,
        cpu_s: f("cpu_s")?,
        sim_pkts: f("sim_pkts")?,
        failed: f("failed")? as u64,
        peak_rss_mib: f("peak_rss_mib")?,
        csv: json
            .get("csv")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        layers: json
            .get("layers")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    })
}

/// One measured run of one workload.
struct Measurement {
    attempted: u64,
    failed: u64,
    /// Children that completed, of each kind.
    untraced: usize,
    traced: usize,
    /// Median end-to-end values, in [`END_TO_END`] order.
    end_to_end: Vec<f64>,
    /// Median per-layer values (traced runs only).
    per_layer: BTreeMap<String, f64>,
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quartiles(&values.into_iter().collect::<Vec<_>>()).1
}

/// Rows of `csv` that differ from `reference`'s.
fn rows_differing(csv: &str, reference: &str) -> u64 {
    let (a, b) = (csv_rows(csv), csv_rows(reference));
    (0..a.len().max(b.len()))
        .filter(|&i| a.get(i) != b.get(i))
        .count() as u64
}

/// Spawn fresh children of `workload` for about `seconds` (at least one
/// round): untraced ones, and with `traced` span-traced ones in
/// alternation. Every child's CSV must equal the first untraced one's.
fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Measurement {
    let rows = Plan::new(workload, seed, Size::Bench).rows();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let modes: &[Mode] = if traced {
        &[Mode::Untraced, Mode::Traced]
    } else {
        &[Mode::Untraced]
    };
    let (mut plain, mut spanned, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0u32);
    loop {
        let round = Instant::now();
        for _ in 0..SETUP_PROBES {
            match spawn(workload, seed, Mode::SetupOnly) {
                Ok(run) => setups.push(run.setup_s),
                Err(e) => eprintln!("benchmark: {e}"),
            }
        }
        for &mode in modes {
            attempted += rows;
            match spawn(workload, seed, mode) {
                Ok(run) if mode == Mode::Traced => spanned.push(run),
                Ok(run) => plain.push(run),
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    failed += rows;
                }
            }
        }
        rounds += 1;
        let per_round = round.elapsed().max(start.elapsed() / rounds);
        if start.elapsed() + per_round > budget {
            break;
        }
    }
    let reference = plain.first().map(|r| r.csv.clone()).unwrap_or_default();
    for run in plain.iter().chain(&spanned) {
        failed += run
            .failed
            .max(rows_differing(&run.csv, &reference))
            .min(rows);
    }
    setups.extend(plain.iter().chain(&spanned).map(|r| r.setup_s));
    let end_to_end = vec![
        median(plain.iter().map(|r| r.sim_pkts / r.run_s)),
        median(plain.iter().map(|r| r.cpu_s * 1e9 / r.sim_pkts)),
        median(plain.iter().map(|r| r.peak_rss_mib)),
        median(setups),
    ];
    let mut per_layer: BTreeMap<String, f64> = BTreeMap::new();
    if !spanned.is_empty() {
        for (name, _) in PER_LAYER {
            let values = spanned.iter().filter_map(|r| r.layers.get(name).copied());
            per_layer.insert(name.to_owned(), median(values));
        }
        let overhead =
            median(spanned.iter().map(|r| r.run_s)) / median(plain.iter().map(|r| r.run_s)) - 1.0;
        per_layer.insert(TRACE_OVERHEAD.to_owned(), overhead);
    }
    Measurement {
        attempted,
        failed: failed.min(attempted),
        untraced: plain.len(),
        traced: spanned.len(),
        end_to_end,
        per_layer,
    }
}

/// One measured run of one workload; the last stdout line is its JSON.
fn measured_run(args: &[String]) {
    let workload = workload_arg(args);
    let seed: u64 = arg(args, "--seed", None);
    let seconds: f64 = arg(args, "--seconds", None);
    let traced = match arg::<u8>(args, "--trace", Some(0)) {
        0 => false,
        1 => true,
        _ => bail("--trace wants 0 or 1"),
    };
    let m = measure(workload, seed, seconds, traced);
    let complete = m.untraced > 0 && (!traced || m.traced > 0);
    let metrics: Vec<(&str, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.per_layer.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&m.end_to_end)
            .map(|(&(name, unit), &v)| (name, unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        eprintln!("{name:<40} {value:>16.6} {unit}");
    }
    let body = object(
        metrics
            .iter()
            .map(|(name, unit, v)| (*name, object([("value", num(*v)), ("unit", string(unit))]))),
    );
    println!(
        "{}",
        object([
            ("correct", (complete && m.failed == 0).to_string()),
            ("attempted", m.attempted.to_string()),
            ("failed", m.failed.to_string()),
            ("metrics", body),
        ])
    );
    if !complete {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Sets, comparison, goldens.
// ---------------------------------------------------------------------

/// `benchmark run`: `--runs` rounds over every workload round-robin,
/// each a measured run of `--seconds` (default: `BENCHMARK.json`'s
/// `run_seconds`), then one traced run per workload; writes a set file.
fn run_set(args: &[String]) {
    let runs: usize = arg(args, "--runs", Some(5));
    let seed: u64 = arg(args, "--seed", Some(SEED));
    let run_seconds = spec().get("run_seconds").and_then(Json::as_f64);
    let seconds: f64 = arg(args, "--seconds", run_seconds);
    let default_out = manifest_dir()
        .join("out")
        .join(format!("set.seed{seed}.json"));
    let out: String = arg(args, "--out", Some(default_out.display().to_string()));
    if let Some(dir) = PathBuf::from(&out).parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| bail(&format!("create {}: {e}", dir.display())));
    }
    let mut samples: BTreeMap<&str, Vec<Measurement>> = BTreeMap::new();
    for round in 0..runs {
        for w in Workload::ALL {
            eprintln!("benchmark: run {}/{runs} {}", round + 1, w.name());
            samples
                .entry(w.name())
                .or_default()
                .push(measure(w, seed, seconds, false));
        }
    }
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        eprintln!("benchmark: traced run {}", w.name());
        let traced = measure(w, seed, seconds, true);
        let ms = &samples[w.name()];
        let attempted: u64 = ms.iter().map(|m| m.attempted).sum::<u64>() + traced.attempted;
        let failed: u64 = ms.iter().map(|m| m.failed).sum::<u64>() + traced.failed;
        let e2e = END_TO_END.iter().enumerate().map(|(i, (name, unit))| {
            let values: Vec<f64> = ms.iter().map(|m| m.end_to_end[i]).collect();
            let (q1, med, q3) = quartiles(&values);
            let list: Vec<String> = values.iter().map(|v| num(*v)).collect();
            let stats = [
                ("unit", string(unit)),
                ("median", num(med)),
                ("q1", num(q1)),
                ("q3", num(q3)),
                ("n", values.len().to_string()),
                ("values", format!("[{}]", list.join(","))),
            ];
            (*name, object(stats))
        });
        let layer = PER_LAYER.iter().map(|(name, unit)| {
            let v = traced.per_layer.get(*name).copied().unwrap_or(0.0);
            (*name, object([("unit", string(unit)), ("value", num(v))]))
        });
        let fields = [
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("end_to_end", object(e2e)),
            ("per_layer", object(layer)),
        ];
        workloads.push((w.name(), object(fields)));
    }
    let set = object([
        ("seed", seed.to_string()),
        ("runs", runs.to_string()),
        ("seconds", num(seconds)),
        ("jobs", pcs_benchmark::workload::JOBS.to_string()),
        ("workloads", object(workloads)),
    ]);
    std::fs::write(&out, set + "\n").unwrap_or_else(|e| bail(&format!("write {out}: {e}")));
    eprintln!("benchmark: wrote {out}");
}

fn load_json(path: &Path) -> Json {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| bail(&format!("read {shown}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| bail(&format!("{shown}: {e}")))
}

/// The repository's `BENCHMARK.json`: bounds and the run length.
fn spec() -> Json {
    load_json(&manifest_dir().join("../BENCHMARK.json"))
}

/// A workload × metric verdict against `bound` (a share of A's median).
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if !a.is_empty() && !b.is_empty() && b.iter().all(|&bv| a.iter().all(|&av| better(bv, av))) {
        return "ok";
    }
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let spread = ((a3 - a1) / am).abs().max(((b3 - b1) / bm).abs());
    let worse = if lower_is_better { bm - am } else { am - bm } / am;
    // NaN (a side without values) cannot be resolved either.
    if spread.is_nan() || spread > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// `benchmark compare A B`: one row per workload, each end-to-end
/// metric's median and q1–q3 on both sides and a verdict. Exits 1 on a
/// regression or a higher failed-row share.
fn compare(args: &[String]) {
    let [a_path, b_path] = args else { usage() };
    let bounds: Vec<(String, bool, f64)> = spec()
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (a, b) = (load_json(a_path.as_ref()), load_json(b_path.as_ref()));
    let mut bad = false;
    for w in Workload::ALL {
        let side = |set: &Json| {
            set.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            continue;
        };
        let share = |s: &Json| {
            let f = |k| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            f("failed") / f("attempted").max(1.0)
        };
        let mut row = format!("{:<13}", w.name());
        for (name, lower, bound) in &bounds {
            let values = |s: &Json| -> Vec<f64> {
                s.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("values"))
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (va, vb) = (values(&wa), values(&wb));
            let v = verdict(&va, &vb, *lower, *bound);
            bad |= v == "regressed";
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            row += &format!(
                " | {name} {am:.4e} [{a1:.3e}–{a3:.3e}] -> {bm:.4e} [{b1:.3e}–{b3:.3e}] {v}"
            );
        }
        let (fa, fb) = (share(&wa), share(&wb));
        bad |= fb > fa;
        println!("{row} | failed_frac {fa} -> {fb}");
    }
    if bad {
        std::process::exit(1);
    }
}

/// `benchmark --bless`: rewrite every golden at both recorded seeds, each
/// from a fresh child. For intentional model changes only.
fn bless() {
    for seed in [SEED, HOLDOUT_SEED] {
        for w in Workload::ALL {
            spawn(w, seed, Mode::Bless).unwrap_or_else(|e| bail(&e));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => run_set(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--bless") => bless(),
        Some(_) => measured_run(&args),
        None => usage(),
    }
}

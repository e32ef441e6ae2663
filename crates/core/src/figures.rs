//! One function per thesis figure/table: the regeneration code.
//!
//! Each function builds the SUT set and workload the figure used, runs
//! the measurement cycle at the requested [`Scale`] on the parallel
//! sweep engine (its [`ExecConfig`] decides how many cells run
//! concurrently; results are bit-identical at any job count), and
//! returns an [`Experiment`]. The registry ([`all_experiments`]) is what
//! the `experiments` CLI and the benchmark harness enumerate.

use crate::experiment::{Experiment, Series, SeriesPoint};
use crate::scale::Scale;
use pcs_capture::MeasurementApp;
use pcs_hw::{write_benchmark, MachineSpec, OsKind};
use pcs_oskernel::{AppConfig, BufferConfig, SimConfig};
use pcs_pktgen::{mwn_counts, mwn_mean, TxModel};
use pcs_testbed::{run_sweep_exec, standard_suts, CycleConfig, ExecConfig, Sut};

/// Derive a deterministic seed from an experiment id (FNV-1a).
pub(crate) fn seed_of(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cycle_for(scale: &Scale, id: &str) -> CycleConfig {
    let mut c = CycleConfig::mwn(scale.count, seed_of(id));
    c.repeats = scale.repeats;
    c
}

fn mode_suffix(smp: bool) -> &'static str {
    if smp {
        "SMP"
    } else {
        "no SMP"
    }
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

/// The signature every registry entry shares.
pub type ExperimentFn = fn(&Scale, &ExecConfig) -> Experiment;

fn sweep_experiment(
    id: &str,
    thesis_ref: &str,
    title: &str,
    scale: &Scale,
    exec: &ExecConfig,
    suts: Vec<Sut>,
) -> Experiment {
    let cycle = cycle_for(scale, id);
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    Experiment::from_sweep(id, thesis_ref, title, &points)
}

// ---------------------------------------------------------------------
// Chapter 4: workload
// ---------------------------------------------------------------------

/// Fig. 4.1: the packet-size scatter of the (synthetic) 24 h trace.
pub fn fig4_1(_scale: &Scale, _exec: &ExecConfig) -> Experiment {
    let counts = mwn_counts(1_000_000_000);
    let total: u64 = counts.values().sum();
    let series = vec![Series {
        label: "number of packets per size (24h trace)".into(),
        points: counts
            .iter()
            .map(|(&s, &c)| SeriesPoint {
                x: s as f64,
                capture: c as f64,
                capture_worst: c as f64,
                capture_best: c as f64,
                cpu: 0.0,
            })
            .collect(),
    }];
    let mean = mwn_mean(&counts);
    Experiment {
        id: "fig4.1".into(),
        thesis_ref: "Figure 4.1: scatterplot of the example distribution".into(),
        title: "Packet sizes of the 24h MWN trace (synthetic reconstruction)".into(),
        xlabel: "size[bytes]".into(),
        ylabel: "packets".into(),
        series,
        notes: vec![
            format!("total packets: {total}"),
            format!("mean packet size: {mean:.1} bytes (thesis: ~645)"),
            "peaks at 40, 52 and 1500 bytes as in the thesis".into(),
        ],
    }
}

/// Fig. 4.2: the top-20 histogram with cumulative percentages.
pub fn fig4_2(_scale: &Scale, _exec: &ExecConfig) -> Experiment {
    let counts = mwn_counts(1_000_000_000);
    let total: u64 = counts.values().sum();
    let mut by_count: Vec<(u32, u64)> = counts.iter().map(|(&s, &c)| (s, c)).collect();
    by_count.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mut cumulative = 0.0;
    let mut points = Vec::new();
    for (rank, &(size, c)) in by_count.iter().take(20).enumerate() {
        let pct = c as f64 * 100.0 / total as f64;
        cumulative += pct;
        points.push(SeriesPoint {
            x: size as f64,
            capture: pct,
            capture_worst: pct,
            capture_best: pct,
            cpu: cumulative,
        });
        let _ = rank;
    }
    let top3: f64 = points.iter().take(3).map(|p| p.capture).sum();
    let top20 = cumulative;
    Experiment {
        id: "fig4.2".into(),
        thesis_ref: "Figure 4.2: histogram of the percentages (cumulative in cpu column)".into(),
        title: "Top-20 packet sizes by share".into(),
        xlabel: "size[bytes]".into(),
        ylabel: "share[%]".into(),
        series: vec![Series {
            label: "relative frequency (cumulative in cpu col)".into(),
            points,
        }],
        notes: vec![
            format!("top-3 share: {top3:.1}% (thesis: >55%)"),
            format!("top-20 share: {top20:.1}% (thesis: >75%)"),
        ],
    }
}

/// §4.3.1: the enhanced pktgen's achievable rates per NIC and per frame
/// size, plus the distribution fidelity check.
pub fn val_pktgen(scale: &Scale, _exec: &ExecConfig) -> Experiment {
    let mut series = Vec::new();
    for (label, tx) in [
        ("Syskonnect SK-98xx", TxModel::syskonnect()),
        ("Netgear GA", TxModel::netgear()),
        ("Intel 82544", TxModel::intel()),
    ] {
        let points = [64u32, 128, 256, 512, 1024, 1500]
            .iter()
            .map(|&len| SeriesPoint {
                x: len as f64,
                capture: tx.max_rate_mbps(len),
                capture_worst: tx.max_rate_mbps(len),
                capture_best: tx.max_rate_mbps(len),
                cpu: 0.0,
            })
            .collect();
        series.push(Series {
            label: label.into(),
            points,
        });
    }
    // Distribution fidelity: generate packets and compare shares.
    let counts = mwn_counts(1_000_000);
    let dist = pcs_pktgen::TwoStageDist::from_counts(
        counts.iter().map(|(&s, &c)| (s, c)),
        &pcs_pktgen::DistConfig::default(),
    )
    .expect("non-empty");
    let mut rng = pcs_des::Pcg32::new(seed_of("val-pktgen"), 1);
    let n = scale.count.max(100_000);
    let mut c40 = 0u64;
    let mut c1500 = 0u64;
    for _ in 0..n {
        match dist.sample(&mut rng) {
            40 => c40 += 1,
            1500 => c1500 += 1,
            _ => {}
        }
    }
    let total: u64 = counts.values().sum();
    let in40 = counts[&40] as f64 / total as f64 * 100.0;
    let in1500 = counts[&1500] as f64 / total as f64 * 100.0;
    Experiment {
        id: "val-pktgen".into(),
        thesis_ref: "§4.1.3/§4.3.1: achievable generation rates and distribution fidelity".into(),
        title: "Enhanced pktgen validation".into(),
        xlabel: "frame[bytes]".into(),
        ylabel: "rate[Mbit/s]".into(),
        series,
        notes: vec![
            "thesis: ~938 (Syskonnect), ~930 (Netgear), ~890 (Intel) Mbit/s at 1500 bytes".into(),
            format!(
                "generated share of 40-byte packets: {:.2}% (input {in40:.2}%)",
                c40 as f64 / n as f64 * 100.0
            ),
            format!(
                "generated share of 1500-byte packets: {:.2}% (input {in1500:.2}%)",
                c1500 as f64 / n as f64 * 100.0
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Chapter 6: the evaluation
// ---------------------------------------------------------------------

/// Fig. 6.2 (referenced baseline): default OS buffers.
pub fn fig6_2_default_buffers(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig {
        buffers: BufferConfig::default_buffers(),
        ..SimConfig::default()
    };
    let id = if smp { "fig6.2b" } else { "fig6.2a" };
    sweep_experiment(
        id,
        "Figure 6.2 (baseline): default buffer sizes",
        &format!("Default buffers, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    )
}

/// Fig. 6.3: the increased buffers (10 MB double / 128 MB).
pub fn fig6_3_increased_buffers(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig::default();
    let id = if smp { "fig6.3b" } else { "fig6.3a" };
    sweep_experiment(
        id,
        "Figure 6.3: increased buffers (10 MB double / 128 MB)",
        &format!("Increased buffers, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    )
}

/// Fig. 6.4, experiments (33)/(20): capture at top speed vs buffer size.
pub fn fig6_4_buffer_sweep(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let id = if smp { "fig6.4b" } else { "fig6.4a" };
    let cycle = cycle_for(scale, id);
    let sizes_kb: Vec<u64> = (0..12).map(|i| 128u64 << i).collect(); // 128 kB .. 256 MB
    let mut all_series: Vec<Series> = Vec::new();
    for (i, &kb) in sizes_kb.iter().enumerate() {
        let sim = SimConfig {
            buffers: BufferConfig::symmetric(kb * 1024),
            ..SimConfig::default()
        };
        let points = run_sweep_exec(&suts_with(smp, sim), &cycle, &[None], exec);
        let p = &points[0];
        for (s, sp) in p.suts.iter().enumerate() {
            if i == 0 {
                all_series.push(Series {
                    label: sp.label.clone(),
                    points: Vec::new(),
                });
            }
            all_series[s].points.push(SeriesPoint {
                x: kb as f64,
                capture: sp.capture * 100.0,
                capture_worst: sp.capture_worst * 100.0,
                capture_best: sp.capture_best * 100.0,
                cpu: sp.cpu_busy,
            });
        }
    }
    Experiment {
        id: id.into(),
        thesis_ref: format!(
            "Figure 6.4, experiment ({}): increasing buffers at the highest data rate",
            if smp { "20" } else { "33" }
        ),
        title: format!("Buffer-size sweep at full speed, {}", mode_suffix(smp)),
        xlabel: "buffer[kByte]".into(),
        ylabel: "capture[%]".into(),
        series: all_series,
        notes: vec![
            "FreeBSD gets half the size per double-buffer half (equal effective capacity)".into(),
        ],
    }
}

/// Fig. 6.6, experiments (34)/(21): the 50-instruction BPF filter.
pub fn fig6_6_filter(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let prog = pcs_bpf::programs::fig65_program(65_535).expect("fig 6.5 filter compiles");
    let sim = SimConfig {
        apps: vec![AppConfig {
            filter: Some(prog.clone()),
            ..AppConfig::plain()
        }],
        ..SimConfig::default()
    };
    let id = if smp { "fig6.6b" } else { "fig6.6a" };
    let mut e = sweep_experiment(
        id,
        &format!(
            "Figure 6.6, experiment ({}): filter with 50 BPF instructions",
            if smp { "21" } else { "34" }
        ),
        &format!("50-instruction filter, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    );
    e.notes.push(format!(
        "compiled Fig. 6.5 expression: {} instructions (thesis: 50)",
        prog.len()
    ));
    e
}

/// Fig. 6.7/6.8/6.9, experiments (22)/(23)/(24): 2, 4 or 8 concurrent
/// capture applications (SMP).
pub fn fig6_789_multiapp(scale: &Scale, napps: usize, exec: &ExecConfig) -> Experiment {
    let (fig, exp) = match napps {
        2 => ("fig6.7", "22"),
        4 => ("fig6.8", "23"),
        _ => ("fig6.9", "24"),
    };
    let sim = SimConfig {
        apps: vec![AppConfig::plain(); napps],
        ..SimConfig::default()
    };
    sweep_experiment(
        fig,
        &format!(
            "Figure {}, experiment ({exp}): {napps} capturing applications",
            &fig[3..]
        ),
        &format!("{napps} apps, SMP (worst/avg/best per app in CSV)"),
        scale,
        exec,
        suts_with(true, sim),
    )
}

/// Fig. 6.10 / B.2, experiments (35)/(27): N additional packet copies.
pub fn fig6_10_memcpy(scale: &Scale, copies: u32, smp: bool, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig {
        apps: vec![MeasurementApp::new().extra_copies(copies).build()],
        ..SimConfig::default()
    };
    let id = match (copies, smp) {
        (50, false) => "fig6.10a".to_string(),
        (50, true) => "fig6.10b".to_string(),
        (n, s) => format!("figB.2-memcpy{n}{}", if s { "b" } else { "a" }),
    };
    sweep_experiment(
        &id,
        &format!(
            "Figure {}: {copies} additional memcpys per packet",
            if copies == 50 { "6.10" } else { "B.2" }
        ),
        &format!("memcpy-{copies}, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    )
}

/// Fig. 6.11 / B.3, experiments (40)/(39): per-packet zlib compression.
pub fn fig6_11_gzip(scale: &Scale, level: u8, smp: bool, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig {
        apps: vec![MeasurementApp::new().compress(level).build()],
        ..SimConfig::default()
    };
    let id = match (level, smp) {
        (3, false) => "fig6.11a".to_string(),
        (3, true) => "fig6.11b".to_string(),
        (l, s) => format!("figB.3-gzip{l}{}", if s { "b" } else { "a" }),
    };
    sweep_experiment(
        &id,
        &format!(
            "Figure {}: zlib compression level {level} per packet",
            if level == 3 { "6.11" } else { "B.3" }
        ),
        &format!("gzwrite-{level}, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    )
}

/// Fig. 6.12, experiment (48): piping whole packets to a gzip process.
pub fn fig6_12_pipe(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig {
        apps: vec![MeasurementApp::new().pipe_to_gzip(3).build()],
        ..SimConfig::default()
    };
    sweep_experiment(
        "fig6.12",
        "Figure 6.12, experiment (48): tcpdump piping whole packets to gzip",
        "pipe to gzip -3, SMP, 1 app + gzip process",
        scale,
        exec,
        suts_with(true, sim),
    )
}

/// Fig. 6.13, experiment (00): bonnie++-style maximum write speed.
pub fn fig6_13_bonnie(_scale: &Scale, _exec: &ExecConfig) -> Experiment {
    let mut series = Vec::new();
    for (i, m) in MachineSpec::all_sniffers().iter().enumerate() {
        let r = write_benchmark(&m.disk, 2 << 30);
        series.push(Series {
            label: m.label(),
            points: vec![SeriesPoint {
                x: i as f64,
                capture: r.bytes_per_sec / 1e6,
                capture_worst: r.bytes_per_sec / 1e6,
                capture_best: r.bytes_per_sec / 1e6,
                cpu: r.cpu_utilisation * 100.0,
            }],
        });
    }
    Experiment {
        id: "fig6.13".into(),
        thesis_ref: "Figure 6.13, experiment (00): bonnie++ maximum writing speed".into(),
        title: "Sequential write speed and CPU usage per machine".into(),
        xlabel: "machine#".into(),
        ylabel: "write[MB/s]".into(),
        series,
        notes: vec![
            "line speed would need 125 MB/s (the thesis' black line) — no machine reaches it"
                .into(),
            "76-byte headers need 13.56 MB/s (the blue line) — all machines manage that".into(),
        ],
    }
}

/// Fig. 6.14, experiments (46)/(45): writing 76-byte headers to disk.
pub fn fig6_14_headers(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let sim = SimConfig {
        apps: vec![MeasurementApp::new().write_headers(76).build()],
        ..SimConfig::default()
    };
    let id = if smp { "fig6.14b" } else { "fig6.14a" };
    sweep_experiment(
        id,
        &format!(
            "Figure 6.14, experiment ({}): write first 76 bytes of every packet to disk",
            if smp { "45" } else { "46" }
        ),
        &format!("headers to disk, {}, 1 app", mode_suffix(smp)),
        scale,
        exec,
        suts_with(smp, sim),
    )
}

/// Fig. 6.15, experiments (18)/(19): the mmap'ed libpcap on Linux.
pub fn fig6_15_mmap(scale: &Scale, smp: bool, exec: &ExecConfig) -> Experiment {
    let id = if smp { "fig6.15b" } else { "fig6.15a" };
    let cycle = cycle_for(scale, id);
    let mut suts = Vec::new();
    for spec in [MachineSpec::swan(), MachineSpec::snipe()] {
        let spec = if smp { spec } else { spec.single_cpu() };
        suts.push(Sut {
            spec,
            sim: SimConfig::default(),
        });
        suts.push(Sut {
            spec,
            sim: SimConfig {
                apps: vec![MeasurementApp::new().mmap().build()],
                ..SimConfig::default()
            },
        });
    }
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    let mut e = Experiment::from_sweep(
        id,
        &format!(
            "Figure 6.15, experiment ({}): mmap'ed libpcap under Linux",
            if smp { "19" } else { "18" }
        ),
        &format!("PACKET_MMAP patch vs stock, {}", mode_suffix(smp)),
        &points,
    );
    // Disambiguate the duplicate labels (stock vs mmap).
    for (i, s) in e.series.iter_mut().enumerate() {
        if i % 2 == 1 {
            s.label = format!("{} mmap", s.label);
        }
    }
    e
}

/// Fig. 6.16, experiment (42): Hyperthreading on the Intel machines.
pub fn fig6_16_ht(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let cycle = cycle_for(scale, "fig6.16");
    let mut suts = Vec::new();
    for spec in [MachineSpec::snipe(), MachineSpec::flamingo()] {
        suts.push(Sut {
            spec,
            sim: SimConfig::default(),
        });
        suts.push(Sut {
            spec: spec.with_hyperthreading(),
            sim: SimConfig::default(),
        });
    }
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    let mut e = Experiment::from_sweep(
        "fig6.16",
        "Figure 6.16, experiment (42): Hyperthreading on the Xeons",
        "HT on/off, SMP, 1 app",
        &points,
    );
    for (i, s) in e.series.iter_mut().enumerate() {
        if i % 2 == 1 {
            s.label = format!("{} HT", s.label);
        }
    }
    e
}

/// Fig. B.1: FreeBSD 5.2.1 vs 5.4.
pub fn figb_1_freebsd_versions(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let cycle = cycle_for(scale, "figB.1");
    let mut suts = Vec::new();
    for spec in [MachineSpec::moorhen(), MachineSpec::flamingo()] {
        suts.push(Sut {
            spec,
            sim: SimConfig::default(),
        });
        suts.push(Sut {
            spec: spec.with_os(OsKind::FreeBsd521),
            sim: SimConfig::default(),
        });
    }
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    Experiment::from_sweep(
        "figB.1",
        "Figure B.1: FreeBSD 5.2.1 vs 5.4",
        "OS version comparison, SMP, 1 app",
        &points,
    )
}

/// Fig. 2.4: the machine inventory table.
pub fn tbl2_4_machines(_scale: &Scale, _exec: &ExecConfig) -> Experiment {
    let series = MachineSpec::all_sniffers()
        .iter()
        .enumerate()
        .map(|(i, m)| Series {
            label: format!(
                "{} | {:?} {:.2} GHz ({} kB L2) | {:?}",
                m.name,
                m.cpu.arch,
                m.cpu.clock_hz as f64 / 1e9,
                m.cpu.l2_bytes / 1024,
                m.os
            ),
            points: vec![SeriesPoint {
                x: i as f64,
                capture: m.cpu.logical_cpus() as f64,
                capture_worst: 0.0,
                capture_best: 0.0,
                cpu: 0.0,
            }],
        })
        .collect();
    Experiment {
        id: "tbl2.4".into(),
        thesis_ref: "Figure 2.4: the diversity of the sniffers".into(),
        title: "Machine inventory".into(),
        xlabel: "machine#".into(),
        ylabel: "cpus".into(),
        series,
        notes: vec!["all: 2 GB RAM, Intel 82544EI fiber GbE, 3ware 7000 RAID".into()],
    }
}

/// The registry: every regenerable experiment by id.
///
/// Every entry takes the [`Scale`] plus the [`ExecConfig`] that decides
/// how many sweep cells run concurrently (and accumulates the cell and
/// stream counters the CLI reports).
pub fn all_experiments() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    fn f62a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_2_default_buffers(s, false, e)
    }
    fn f62b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_2_default_buffers(s, true, e)
    }
    fn f63a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_3_increased_buffers(s, false, e)
    }
    fn f63b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_3_increased_buffers(s, true, e)
    }
    fn f64a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_4_buffer_sweep(s, false, e)
    }
    fn f64b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_4_buffer_sweep(s, true, e)
    }
    fn f66a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_6_filter(s, false, e)
    }
    fn f66b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_6_filter(s, true, e)
    }
    fn f67(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_789_multiapp(s, 2, e)
    }
    fn f68(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_789_multiapp(s, 4, e)
    }
    fn f69(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_789_multiapp(s, 8, e)
    }
    fn f610a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_10_memcpy(s, 50, false, e)
    }
    fn f610b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_10_memcpy(s, 50, true, e)
    }
    fn fb2(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_10_memcpy(s, 25, true, e)
    }
    fn f611a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_11_gzip(s, 3, false, e)
    }
    fn f611b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_11_gzip(s, 3, true, e)
    }
    fn fb3(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_11_gzip(s, 9, true, e)
    }
    fn f614a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_14_headers(s, false, e)
    }
    fn f614b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_14_headers(s, true, e)
    }
    fn f615a(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_15_mmap(s, false, e)
    }
    fn f615b(s: &Scale, e: &ExecConfig) -> Experiment {
        fig6_15_mmap(s, true, e)
    }
    vec![
        ("tbl2.4", "machine inventory (Fig 2.4)", tbl2_4_machines),
        ("fig4.1", "packet-size scatter (Fig 4.1)", fig4_1),
        ("fig4.2", "top-20 histogram (Fig 4.2)", fig4_2),
        ("val-pktgen", "pktgen validation (§4.3.1)", val_pktgen),
        ("fig6.2a", "default buffers, single CPU (Fig 6.2)", f62a),
        ("fig6.2b", "default buffers, dual CPU (Fig 6.2)", f62b),
        ("fig6.3a", "increased buffers, single CPU (Fig 6.3a)", f63a),
        ("fig6.3b", "increased buffers, dual CPU (Fig 6.3b)", f63b),
        ("fig6.4a", "buffer sweep, single CPU (Fig 6.4a/(33))", f64a),
        ("fig6.4b", "buffer sweep, dual CPU (Fig 6.4b/(20))", f64b),
        (
            "fig6.6a",
            "50-insn filter, single CPU (Fig 6.6a/(34))",
            f66a,
        ),
        ("fig6.6b", "50-insn filter, dual CPU (Fig 6.6b/(21))", f66b),
        ("fig6.7", "2 capture apps (Fig 6.7/(22))", f67),
        ("fig6.8", "4 capture apps (Fig 6.8/(23))", f68),
        ("fig6.9", "8 capture apps (Fig 6.9/(24))", f69),
        ("fig6.10a", "memcpy-50, single CPU (Fig 6.10a/(35))", f610a),
        ("fig6.10b", "memcpy-50, dual CPU (Fig 6.10b/(27))", f610b),
        ("figB.2", "memcpy-25, dual CPU (Fig B.2)", fb2),
        (
            "fig6.11a",
            "gzip level 3, single CPU (Fig 6.11a/(40))",
            f611a,
        ),
        ("fig6.11b", "gzip level 3, dual CPU (Fig 6.11b/(39))", f611b),
        ("figB.3", "gzip level 9, dual CPU (Fig B.3)", fb3),
        (
            "fig6.12",
            "pipe to gzip, dual CPU (Fig 6.12/(48))",
            fig6_12_pipe,
        ),
        (
            "fig6.13",
            "bonnie++ write speeds (Fig 6.13/(00))",
            fig6_13_bonnie,
        ),
        (
            "fig6.14a",
            "headers to disk, single CPU (Fig 6.14a/(46))",
            f614a,
        ),
        (
            "fig6.14b",
            "headers to disk, dual CPU (Fig 6.14b/(45))",
            f614b,
        ),
        (
            "fig6.15a",
            "mmap libpcap, single CPU (Fig 6.15a/(18))",
            f615a,
        ),
        ("fig6.15b", "mmap libpcap, dual CPU (Fig 6.15b/(19))", f615b),
        ("fig6.16", "Hyperthreading (Fig 6.16/(42))", fig6_16_ht),
        (
            "figB.1",
            "FreeBSD 5.2.1 vs 5.4 (Fig B.1)",
            figb_1_freebsd_versions,
        ),
        (
            "ext-10gige",
            "future work: 10 Gigabit Ethernet (§7.2)",
            crate::extensions::ext_10gige,
        ),
        (
            "ext-split",
            "future work: distributed analysis (§7.2)",
            crate::extensions::ext_split_analysis,
        ),
        (
            "ext-burst",
            "ablation: arrival burstiness vs default buffers",
            crate::extensions::ext_burst_ablation,
        ),
        (
            "ext-polling",
            "livelock mitigation: moderation and polling (§2.2.1)",
            crate::extensions::ext_polling,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let all = all_experiments();
        assert!(all.len() >= 29, "registry should cover every figure");
        let mut ids: Vec<&str> = all.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate experiment ids");
    }

    #[test]
    fn static_experiments_run_instantly() {
        let s = Scale::quick();
        let x = ExecConfig::serial();
        let inv = tbl2_4_machines(&s, &x);
        assert_eq!(inv.series.len(), 4);
        let f41 = fig4_1(&s, &x);
        assert!(f41.series[0].points.len() > 1000);
        let f42 = fig4_2(&s, &x);
        assert_eq!(f42.series[0].points.len(), 20);
        // The thesis' statistical properties hold.
        let top20 = f42.series[0].points.last().unwrap().cpu;
        assert!(top20 > 75.0, "top-20 cumulative {top20}");
        let bonnie = fig6_13_bonnie(&s, &x);
        assert_eq!(bonnie.series.len(), 4);
        for se in &bonnie.series {
            assert!(se.points[0].capture < 125.0, "no machine reaches line rate");
        }
    }

    #[test]
    fn pktgen_validation_hits_thesis_rates() {
        let e = val_pktgen(&Scale::quick(), &ExecConfig::serial());
        let sysk = e
            .series
            .iter()
            .find(|s| s.label.contains("Syskonnect"))
            .unwrap();
        let at_1500 = sysk.points.last().unwrap().capture;
        assert!((933.0..943.0).contains(&at_1500), "{at_1500}");
    }

    #[test]
    fn seeds_differ_by_id() {
        assert_ne!(seed_of("fig6.3a"), seed_of("fig6.3b"));
    }
}

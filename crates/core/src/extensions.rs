//! Extension experiments beyond the thesis' evaluation: its §7.2 future
//! work, plus ablations of this reproduction's own modelling choices.

use crate::experiment::{Experiment, Series, SeriesPoint};
use crate::figures::seed_of;
use crate::scale::Scale;
use pcs_capture::MeasurementApp;
use pcs_hw::{MachineSpec, PciBus, PciKind};
use pcs_oskernel::SimConfig;
use pcs_pktgen::TxModel;
use pcs_testbed::{run_sweep_exec, CycleConfig, ExecConfig, Sut};

/// §7.2: "The most commonly interest would be the evaluation of
/// 10 Gigabit Ethernet … The difficulty is the further increased maximum
/// packet and data rate, requiring faster busses and disks."
///
/// The sweep drives the 2005 testbed machines at 10 GigE rates, each in
/// two variants: their stock PCI-64 bus and an upgraded PCI-X bus. The
/// shapes confirm the thesis' prediction: the bus alone caps PCI-64 at a
/// fraction of the link, and even with PCI-X every system is
/// interrupt/CPU-bound far below line rate.
pub fn ext_10gige(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let mut cycle = CycleConfig::mwn(scale.count, seed_of("ext-10gige"));
    cycle.repeats = scale.repeats;
    // A 10 GigE generator NIC: same per-packet cost, ten times the wire.
    cycle.tx = TxModel {
        link_bps: 10_000_000_000,
        per_packet_ns: 600,
    };
    let mut suts = Vec::new();
    for base in [MachineSpec::moorhen(), MachineSpec::swan()] {
        suts.push(Sut {
            spec: base,
            sim: SimConfig::default(),
        });
        let mut upgraded = base;
        upgraded.pci = PciBus::new(PciKind::PciX);
        upgraded.name = if base.name == "moorhen" {
            "moorhen+pcix"
        } else {
            "swan+pcix"
        };
        suts.push(Sut {
            spec: upgraded,
            sim: SimConfig::default(),
        });
    }
    // Sweep up to 10 Gbit/s.
    let rates: Vec<Option<f64>> = vec![
        Some(500.0),
        Some(1_000.0),
        Some(2_000.0),
        Some(4_000.0),
        Some(8_000.0),
        None,
    ];
    let points = run_sweep_exec(&suts, &cycle, &rates, exec);
    let mut e = Experiment::from_sweep(
        "ext-10gige",
        "§7.2 future work: capturing on 10 Gigabit Ethernet",
        "10 GigE sweep, stock PCI-64 vs upgraded PCI-X, dual CPU",
        &points,
    );
    e.notes.push(
        "thesis prediction: 10 GigE needs faster buses and distributed analysis — \
         PCI-64 saturates at ~3.4 Gbit/s of frame data; even PCI-X machines are \
         CPU-bound far below line rate"
            .into(),
    );
    e
}

/// §7.2: "Distributing the analysis of the data might be a chance of
/// conquering the bandwidth … by using multiple threads on one machine."
///
/// Two capture applications with complementary size filters (`less 700` /
/// `greater 701`) split the stream, against one application taking
/// everything — with a heavy per-packet analysis load where splitting can
/// actually pay (both halves run on different CPUs).
pub fn ext_split_analysis(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let mut cycle = CycleConfig::mwn(scale.count, seed_of("ext-split"));
    cycle.repeats = scale.repeats;
    let load = |app: MeasurementApp| app.compress(3);

    let single = SimConfig {
        apps: vec![load(MeasurementApp::new()).build()],
        ..SimConfig::default()
    };
    let split = SimConfig {
        apps: vec![
            load(MeasurementApp::new())
                .filter("less 700")
                .expect("filter compiles")
                .build(),
            load(MeasurementApp::new())
                .filter("greater 701")
                .expect("filter compiles")
                .build(),
        ],
        ..SimConfig::default()
    };
    let mut suts = Vec::new();
    for base in [MachineSpec::moorhen(), MachineSpec::swan()] {
        suts.push(Sut {
            spec: base,
            sim: single.clone(),
        });
        suts.push(Sut {
            spec: base,
            sim: split.clone(),
        });
    }
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    // For the split variant the interesting number is the *combined*
    // coverage: each app owns a disjoint half, so coverage = sum of the
    // per-app accepted fractions ≈ mean × 2.
    let mut series: Vec<Series> = Vec::new();
    if let Some(first) = points.first() {
        for s in 0..first.suts.len() {
            let is_split = s % 2 == 1;
            let label = format!(
                "{}{}",
                first.suts[s].label,
                if is_split { " split×2" } else { "" }
            );
            series.push(Series {
                label,
                points: points
                    .iter()
                    .map(|p| {
                        let factor = if is_split { 2.0 } else { 1.0 };
                        SeriesPoint {
                            x: p.achieved_mbps,
                            capture: (p.suts[s].capture * factor * 100.0).min(100.0),
                            capture_worst: p.suts[s].capture_worst * 100.0,
                            capture_best: p.suts[s].capture_best * 100.0,
                            cpu: p.suts[s].cpu_busy,
                        }
                    })
                    .collect(),
            });
        }
    }
    Experiment {
        id: "ext-split".into(),
        thesis_ref: "§7.2 future work: distributing the analysis across processors".into(),
        title: "One loaded capture app vs two apps with complementary size filters".into(),
        xlabel: "Datarate [Mbit/s]".into(),
        ylabel: "coverage[%]".into(),
        series,
        notes: vec![
            "split series shows combined coverage of both halves; the per-app filters \
             are `less 700` / `greater 701`"
                .into(),
        ],
    }
}

/// Ablation of this reproduction's burstiness model: the thesis' §2.5
/// argument says self-similar traffic defeats any finite buffer; with
/// perfectly paced arrivals (`burst = 1`) the default 110 kB Linux buffer
/// looks far healthier than it did in the lab.
pub fn ext_burst_ablation(scale: &Scale, exec: &ExecConfig) -> Experiment {
    let mut series = Vec::new();
    for burst in [1u32, 16, 64, 256] {
        let mut cycle = CycleConfig::mwn(scale.count, seed_of("ext-burst"));
        cycle.repeats = scale.repeats;
        cycle.burst = burst;
        let suts = vec![Sut {
            spec: MachineSpec::swan().single_cpu(),
            sim: SimConfig {
                buffers: pcs_oskernel::BufferConfig::default_buffers(),
                ..SimConfig::default()
            },
        }];
        let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
        series.push(Series {
            label: format!("swan, default buffers, mean burst {burst}"),
            points: points
                .iter()
                .map(|p| SeriesPoint {
                    x: p.achieved_mbps,
                    capture: p.suts[0].capture * 100.0,
                    capture_worst: p.suts[0].capture_worst * 100.0,
                    capture_best: p.suts[0].capture_best * 100.0,
                    cpu: p.suts[0].cpu_busy,
                })
                .collect(),
        });
    }
    Experiment {
        id: "ext-burst".into(),
        thesis_ref: "ablation: arrival burstiness vs the default Linux buffer (§2.5, §6.3.1)"
            .into(),
        title: "Packet-train length vs capture rate at default buffers".into(),
        xlabel: "Datarate [Mbit/s]".into(),
        ylabel: "capture[%]".into(),
        series,
        notes: vec![
            "longer trains overflow the 110 kB rmem earlier — the mechanism behind \
             the thesis' 'for every imaginable buffer size there will be a long \
             enough burst' argument"
                .into(),
        ],
    }
}

/// §2.2.1: Mogul & Ramakrishnan's receive-livelock remedies — device
/// polling and interrupt moderation — applied to the thesis' weakest
/// system (flamingo, single CPU), where per-packet interrupts hurt most.
pub fn ext_polling(scale: &Scale, exec: &ExecConfig) -> Experiment {
    use pcs_hw::NicModel;
    let mut cycle = CycleConfig::mwn(scale.count, seed_of("ext-polling"));
    cycle.repeats = scale.repeats;
    let mut suts = Vec::new();
    for (suffix, nic) in [
        ("", NicModel::intel_82544()),
        ("+itr", NicModel::intel_82544_moderated(100)),
        ("+poll", NicModel::intel_82544_polling(150)),
    ] {
        let mut spec = MachineSpec::flamingo().single_cpu();
        spec.nic = nic;
        spec.name = match suffix {
            "+itr" => "flamingo+itr",
            "+poll" => "flamingo+poll",
            _ => "flamingo",
        };
        suts.push(Sut {
            spec,
            sim: SimConfig::default(),
        });
    }
    let points = run_sweep_exec(&suts, &cycle, &scale.rates, exec);
    let mut e = Experiment::from_sweep(
        "ext-polling",
        "§2.2.1: receive-livelock mitigation (interrupt moderation / device polling)",
        "flamingo single-CPU: per-packet interrupts vs ITR vs polling",
        &points,
    );
    e.notes.push(
        "polling bounds the interrupt entry overhead at any packet rate; the          timestamping caveat the thesis raises (§2.2.1) applies"
            .into(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            count: 20_000,
            repeats: 1,
            rates: vec![Some(300.0), None],
        }
    }

    #[test]
    fn ten_gige_is_bus_and_cpu_bound() {
        let e = ext_10gige(&tiny(), &ExecConfig::serial());
        assert_eq!(e.series.len(), 4);
        // At the top rate nobody comes close to line rate.
        for s in &e.series {
            let last = s.points.last().unwrap();
            assert!(last.x > 3_000.0, "sweep must reach multi-gig rates");
            assert!(
                last.capture < 60.0,
                "{} should collapse at 10G: {}",
                s.label,
                last.capture
            );
        }
        // The PCI-X variant must not be worse than stock.
        let stock = e.series[0].points.last().unwrap().capture;
        let pcix = e.series[1].points.last().unwrap().capture;
        assert!(pcix + 1.0 >= stock, "PCI-X ({pcix}) vs PCI-64 ({stock})");
    }

    #[test]
    fn split_analysis_runs_and_halves_are_disjoint() {
        let e = ext_split_analysis(&tiny(), &ExecConfig::parallel());
        assert_eq!(e.series.len(), 4);
        for s in &e.series {
            for p in &s.points {
                assert!(p.capture <= 100.0 + 1e-9);
            }
        }
    }

    #[test]
    fn polling_beats_per_packet_interrupts_under_overload() {
        let s = Scale {
            count: 80_000,
            repeats: 1,
            rates: vec![None],
        };
        let e = ext_polling(&s, &ExecConfig::serial());
        let stock = e.series[0].points.last().unwrap().capture;
        let poll = e.series[2].points.last().unwrap().capture;
        assert!(
            poll >= stock,
            "polling ({poll}) must not lose to per-packet interrupts ({stock})"
        );
    }

    #[test]
    fn burstier_arrivals_hurt_default_buffers() {
        let s = Scale {
            count: 60_000,
            repeats: 1,
            rates: vec![Some(500.0)],
        };
        let e = ext_burst_ablation(&s, &ExecConfig::serial());
        let smooth = e.series[0].points[0].capture; // burst 1
        let bursty = e.series[3].points[0].capture; // burst 256
        assert!(
            smooth > bursty,
            "paced ({smooth}) must beat bursty ({bursty}) on tiny buffers"
        );
    }
}

//! End-to-end reproduction checks: the qualitative targets of DESIGN.md §6
//! — the orderings, knees and factors the thesis reports — asserted over
//! reduced-scale runs of the actual experiment code.

use pcapbench::core::{figures, ExecConfig, Experiment, Scale};
use std::sync::OnceLock;

/// A reduced scale that still outlasts buffer capacity where it matters.
fn scale() -> Scale {
    Scale {
        count: 250_000,
        repeats: 1,
        rates: vec![Some(300.0), Some(600.0), None],
    }
}

/// All figures run on the parallel sweep engine; results are identical to
/// serial, so the assertions below are job-count independent.
fn exec() -> ExecConfig {
    ExecConfig::parallel()
}

/// Fig 6.3 (increased buffers) at [`scale`]: the baseline several tests
/// compare against, computed once per CPU mode and shared.
fn increased_buffers(smp: bool) -> &'static Experiment {
    static SMP: OnceLock<Experiment> = OnceLock::new();
    static NO_SMP: OnceLock<Experiment> = OnceLock::new();
    let baseline = if smp { &SMP } else { &NO_SMP };
    baseline.get_or_init(|| figures::fig6_3_increased_buffers(&scale(), smp, &exec()))
}

#[test]
fn headline_moorhen_wins_flamingo_loses() {
    // §7.1: "moorhen, the FreeBSD 5.4/AMD Opteron combination, is
    // performing best ... flamingo ... is often losing more packets than
    // the other systems."
    let e = increased_buffers(true);
    let moorhen = e.final_capture("moorhen").unwrap();
    let flamingo = e.final_capture("flamingo").unwrap();
    assert!(moorhen > 99.0, "moorhen dual loses ~nothing: {moorhen}");
    assert!(
        flamingo < moorhen - 5.0,
        "flamingo ({flamingo}) must trail moorhen ({moorhen})"
    );
    for name in ["swan", "snipe"] {
        let c = e.final_capture(name).unwrap();
        assert!(
            c >= flamingo,
            "{name} ({c}) should not fall below flamingo ({flamingo}) dual-CPU"
        );
    }
}

#[test]
fn single_cpu_ordering_and_knees() {
    let e = increased_buffers(false);
    // moorhen stays close to lossless even single-CPU.
    assert!(e.final_capture("moorhen").unwrap() > 90.0);
    // The Linux systems capture everything at 300 but lose at the top.
    for name in ["swan", "snipe"] {
        let s = e.series.iter().find(|s| s.label.contains(name)).unwrap();
        assert!(s.points[0].capture > 99.0, "{name} fine at 300");
        assert!(
            s.points.last().unwrap().capture < 95.0,
            "{name} must drop at full speed: {}",
            s.points.last().unwrap().capture
        );
    }
    // flamingo collapses hardest.
    let f = e.final_capture("flamingo").unwrap();
    let worst_linux = e
        .final_capture("swan")
        .unwrap()
        .min(e.final_capture("snipe").unwrap());
    assert!(f < worst_linux, "flamingo ({f}) worst single-CPU");
}

#[test]
fn default_buffers_hurt_linux() {
    // §6.3.1/§7.1: increased buffers raise the Linux drop knee.
    let s = scale();
    let def = figures::fig6_2_default_buffers(&s, false, &exec());
    let inc = increased_buffers(false);
    for name in ["swan", "snipe"] {
        let d = def.series.iter().find(|x| x.label.contains(name)).unwrap();
        let i = inc.series.iter().find(|x| x.label.contains(name)).unwrap();
        // At 600 Mbit/s the small default rmem already drops bursts that
        // 128 MB absorbs.
        assert!(
            d.points[1].capture < i.points[1].capture,
            "{name} at 600: default {} !< increased {}",
            d.points[1].capture,
            i.points[1].capture
        );
    }
}

#[test]
fn buffer_sweep_shows_freebsd_cache_dip_and_capacity_effect() {
    // Fig 6.4(a): single-CPU FreeBSD deteriorates once the double buffer
    // exceeds the cache, and huge buffers buy flamingo capture by
    // capacity alone.
    let s = Scale {
        count: 150_000,
        repeats: 1,
        rates: vec![None],
    };
    let e = figures::fig6_4_buffer_sweep(&s, false, &exec());
    let moorhen = e
        .series
        .iter()
        .find(|x| x.label.contains("moorhen"))
        .unwrap();
    let at = |kb: f64| {
        moorhen
            .points
            .iter()
            .find(|p| p.x == kb)
            .map(|p| p.capture)
            .unwrap()
    };
    assert!(
        at(512.0) > at(8192.0),
        "cached 512kB ({}) must beat uncached 8MB ({})",
        at(512.0),
        at(8192.0)
    );
    let flamingo = e
        .series
        .iter()
        .find(|x| x.label.contains("flamingo"))
        .unwrap();
    let first = flamingo.points.first().unwrap().capture;
    let last = flamingo.points.last().unwrap().capture;
    assert!(
        last > first + 20.0,
        "the 256MB buffer must lift flamingo by capacity: {first} -> {last}"
    );
}

#[test]
fn filters_are_cheap_for_freebsd_costlier_for_linux() {
    // Fig 6.6: "using BPF filters is cheap"; Linux drops a few more
    // packets at the highest rates.
    let s = scale();
    let plain = increased_buffers(true);
    let filt = figures::fig6_6_filter(&s, true, &exec());
    let m_plain = plain.final_capture("moorhen").unwrap();
    let m_filt = filt.final_capture("moorhen").unwrap();
    assert!(
        (m_plain - m_filt).abs() < 3.0,
        "FreeBSD filter cost ~negligible: {m_plain} vs {m_filt}"
    );
    let l_plain = plain.final_capture("swan").unwrap();
    let l_filt = filt.final_capture("swan").unwrap();
    assert!(
        l_filt <= l_plain + 0.5,
        "Linux must not improve with a filter: {l_plain} -> {l_filt}"
    );
}

#[test]
fn eight_apps_collapse_linux_but_not_freebsd() {
    // Fig 6.9 / §7.1: under many applications Linux' capture rate drops
    // toward zero while FreeBSD still delivers relevant fractions,
    // shared evenly.
    let s = Scale {
        count: 600_000,
        repeats: 1,
        rates: vec![None],
    };
    let e = figures::fig6_789_multiapp(&s, 8, &exec());
    let lin = e.final_capture("swan").unwrap();
    let bsd = e.final_capture("moorhen").unwrap();
    assert!(
        lin < bsd - 15.0,
        "8-app Linux ({lin}) must fall well below FreeBSD ({bsd})"
    );
    let m = e
        .series
        .iter()
        .find(|x| x.label.contains("moorhen"))
        .unwrap();
    let p = m.points.last().unwrap();
    assert!(
        p.capture_best - p.capture_worst < 20.0,
        "FreeBSD shares evenly: worst {} best {}",
        p.capture_worst,
        p.capture_best
    );
}

#[test]
fn memcpy_load_favours_opterons() {
    // Fig 6.10(b): "in dual processor mode both FreeBSD systems are a
    // notch above the Linux systems"; Opterons lead on memory bandwidth.
    let s = Scale {
        count: 500_000,
        repeats: 1,
        rates: vec![None],
    };
    let e = figures::fig6_10_memcpy(&s, 50, true, &exec());
    let moorhen = e.final_capture("moorhen").unwrap();
    let flamingo = e.final_capture("flamingo").unwrap();
    let swan = e.final_capture("swan").unwrap();
    let snipe = e.final_capture("snipe").unwrap();
    assert!(
        moorhen >= flamingo,
        "AMD ({moorhen}) >= Xeon ({flamingo}) under copy load"
    );
    assert!(
        swan >= snipe,
        "AMD ({swan}) >= Xeon ({snipe}) under copy load"
    );
    assert!(
        moorhen >= swan,
        "FreeBSD ({moorhen}) >= Linux ({swan}) under copy load"
    );
}

#[test]
fn compression_favours_the_higher_clocked_xeons() {
    // Fig 6.11(b): "each of the Intel systems performs better than the
    // corresponding AMD system" — a novelty among the measurements.
    let s = Scale {
        count: 120_000,
        repeats: 1,
        rates: vec![Some(500.0)],
    };
    let e = figures::fig6_11_gzip(&s, 3, true, &exec());
    let moorhen = e.final_capture("moorhen").unwrap();
    let flamingo = e.final_capture("flamingo").unwrap();
    let swan = e.final_capture("swan").unwrap();
    let snipe = e.final_capture("snipe").unwrap();
    assert!(
        flamingo >= moorhen,
        "Intel ({flamingo}) >= AMD ({moorhen}) under compression"
    );
    assert!(
        snipe >= swan,
        "Intel ({snipe}) >= AMD ({swan}) under compression"
    );
    // Fig B.3: level 9 overloads everything (longer run: the buffer can
    // only mask a fixed packet count).
    let s9 = Scale {
        count: 500_000,
        repeats: 1,
        rates: vec![Some(500.0)],
    };
    let e9 = figures::fig6_11_gzip(&s9, 9, true, &exec());
    for name in ["swan", "snipe", "moorhen", "flamingo"] {
        let c = e9.final_capture(name).unwrap();
        assert!(c < 40.0, "{name} must be overloaded at level 9: {c}");
    }
}

#[test]
fn header_writing_is_cheap() {
    // Fig 6.14(b): FreeBSD unchanged, Linux loses about 10%.
    let s = scale();
    let plain = increased_buffers(true);
    let disk = figures::fig6_14_headers(&s, true, &exec());
    let m_delta = plain.final_capture("moorhen").unwrap() - disk.final_capture("moorhen").unwrap();
    assert!(
        m_delta.abs() < 5.0,
        "FreeBSD header writing ~free: delta {m_delta}"
    );
    let l_delta = plain.final_capture("swan").unwrap() - disk.final_capture("swan").unwrap();
    assert!(
        (-1.0..25.0).contains(&l_delta),
        "Linux pays a moderate price: delta {l_delta}"
    );
}

#[test]
fn mmap_patch_rescues_linux() {
    // Fig 6.15: the mmap'ed libpcap outperforms the unpatched stack;
    // remaining drops only at the top on snipe.
    let s = Scale {
        count: 250_000,
        repeats: 1,
        rates: vec![None],
    };
    let e = figures::fig6_15_mmap(&s, false, &exec());
    for name in ["swan", "snipe"] {
        let stock = e
            .series
            .iter()
            .find(|x| x.label.contains(name) && !x.label.contains("mmap"))
            .unwrap()
            .points
            .last()
            .unwrap()
            .capture;
        let mmap = e
            .series
            .iter()
            .find(|x| x.label.contains(name) && x.label.contains("mmap"))
            .unwrap()
            .points
            .last()
            .unwrap()
            .capture;
        assert!(
            mmap > stock + 10.0,
            "{name}: mmap ({mmap}) must clearly beat stock ({stock})"
        );
    }
}

#[test]
fn hyperthreading_changes_little() {
    // Fig 6.16: "neither a noticeable amelioration nor deterioration".
    let s = Scale {
        count: 100_000,
        repeats: 1,
        rates: vec![Some(700.0), None],
    };
    let e = figures::fig6_16_ht(&s, &exec());
    for name in ["snipe", "flamingo"] {
        let plain = e
            .series
            .iter()
            .find(|x| x.label.contains(name) && !x.label.ends_with("HT"))
            .unwrap()
            .points
            .last()
            .unwrap()
            .capture;
        let ht = e
            .series
            .iter()
            .find(|x| x.label.contains(name) && x.label.ends_with("HT"))
            .unwrap()
            .points
            .last()
            .unwrap()
            .capture;
        assert!(
            (plain - ht).abs() < 12.0,
            "{name}: HT must be roughly neutral: {plain} vs {ht}"
        );
    }
}

#[test]
fn newer_freebsd_is_better() {
    // Fig B.1: the step from 5.2.1 to 5.4 is "quite benefitting".
    let s = Scale {
        count: 100_000,
        repeats: 1,
        rates: vec![None],
    };
    let e = figures::figb_1_freebsd_versions(&s, &exec());
    // Series come in (5.4, 5.2.1) pairs per machine.
    let new = e
        .series
        .iter()
        .find(|x| x.label.contains("flamingo") && !x.label.contains("5.2.1"))
        .unwrap()
        .points
        .last()
        .unwrap()
        .capture;
    let old = e
        .series
        .iter()
        .find(|x| x.label.contains("flamingo") && x.label.contains("5.2.1"))
        .unwrap()
        .points
        .last()
        .unwrap()
        .capture;
    assert!(new >= old, "5.4 ({new}) must not lose to 5.2.1 ({old})");
}

#[test]
fn pipe_to_gzip_converges_systems() {
    // Fig 6.12: "all systems are very close to each other".
    let s = Scale {
        count: 400_000,
        repeats: 1,
        rates: vec![Some(600.0)],
    };
    let e = figures::fig6_12_pipe(&s, &exec());
    let caps: Vec<f64> = ["swan", "snipe", "moorhen", "flamingo"]
        .iter()
        .map(|n| e.final_capture(n).unwrap())
        .collect();
    let spread = caps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - caps.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 35.0, "pipe setup converges systems: {caps:?}");
}

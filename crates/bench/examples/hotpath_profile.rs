//! Quick component-time attribution for the hot path (dev tool).

use pcs_bench::{hotpath_stream, ReplayChunks};
use pcs_hw::MachineSpec;
use pcs_oskernel::{MachineSim, SimConfig};
use std::time::Instant;

fn time<R>(label: &str, mut f: impl FnMut() -> R) -> f64 {
    // One warm-up, then best-of-3.
    f();
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    println!("{label:<40} {best:>10.3} ms");
    best
}

fn main() {
    let (chunks, packets) = hotpath_stream();

    // PROFILE_LOOPS=N: just run the swan sim N times (for a profiler).
    if let Ok(n) = std::env::var("PROFILE_LOOPS") {
        let n: u32 = n.parse().unwrap();
        let mut sum = 0u64;
        for _ in 0..n {
            sum += MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .run_source(ReplayChunks::new(&chunks))
                .offered;
        }
        println!("{sum}");
        return;
    }

    time("full sim (swan)", || {
        MachineSim::new(MachineSpec::swan(), SimConfig::default())
            .run_source(ReplayChunks::new(&chunks))
            .offered
    });
    time("full sim (moorhen/freebsd)", || {
        MachineSim::new(MachineSpec::moorhen(), SimConfig::default())
            .run_source(ReplayChunks::new(&chunks))
            .offered
    });
    time("exp() per packet (ema model)", || {
        let mut ema = 0.0f64;
        for tp in &packets {
            let dt = (tp.time.as_nanos() as f64).max(1.0);
            let alpha = (-dt / 2e6).exp();
            ema = ema * alpha + tp.packet.frame_len as f64 * (1.0 - alpha);
        }
        ema
    });

    // Shape of the run: batches, app chunks.
    let r = MachineSim::new(MachineSpec::swan(), SimConfig::default())
        .with_trace(pcs_trace::TraceSink::bounded(
            pcs_trace::TraceSpec::default(),
        ))
        .run_source(ReplayChunks::new(&chunks));
    let t = r.trace.as_ref().unwrap();
    println!("received: {}", r.apps[0].received);
    println!("irq_fires: {}", t.metrics.counter("irq_fires"));
    if let Some(h) = t.metrics.histogram("irq_batch_packets") {
        println!("irq batches: count={} mean={:.1}", h.count(), h.mean());
    }
    println!("elapsed sim time: {} ms", r.elapsed.as_nanos() / 1_000_000);
}

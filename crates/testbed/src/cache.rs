//! Cell identity: distilled cell results and the fingerprints that name
//! cells and their packet streams.
//!
//! A *cell* is the smallest independent unit of the evaluation grid: one
//! (SUT set, workload, rate, repeat) combination. The whole simulation is
//! deterministic — per-component seeded PCG streams, no host-time
//! dependence — so a cell's distilled numbers are a pure function of its
//! configuration, and every cell is simulated afresh, as the thesis'
//! measurement cycle runs every (rate, repeat) afresh.
//!
//! The cell fingerprint is a 128-bit FNV-1a digest of the full cell
//! configuration (machine spec, kernel/app sim config, generator config,
//! rate, repeat), written field by field through
//! [`pcs_des::Fingerprintable`] — every identity-relevant field reaches
//! the digest with an unambiguous encoding, and incidental changes (a
//! `Debug` format tweak, a new execution-only setting) cannot silently
//! change or collide fingerprints. Trace exports and the run ledger name
//! cells by it. The worker count is deliberately *not* part of it: it
//! never changes a cell's results, only how they are computed.

use crate::cycle::{CycleConfig, Sut};
use pcs_des::{Fingerprint, Fingerprintable};
use pcs_faultsim::FaultPlan;
use pcs_pktgen::StreamKey;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Distilled result of one SUT in one cell (one repeat at one rate).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSut {
    /// Mean capture rate over the SUT's applications (0..1).
    pub capture: f64,
    /// Worst single application's capture rate.
    pub worst: f64,
    /// Best single application's capture rate.
    pub best: f64,
    /// Trimmed CPU busy percentage.
    pub cpu_busy: f64,
}

/// Distilled result of one measurement cell: the achieved rate plus one
/// entry per SUT, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Achieved frame data rate in Mbit/s for this repeat's stream.
    pub achieved_mbps: f64,
    /// Per-SUT numbers, in input order.
    pub suts: Vec<CellSut>,
}

/// 128-bit cell fingerprint: two independent FNV-1a streams over the
/// explicit field-by-field encoding.
pub type CellKey = (u64, u64);

/// A [`CellKey`] as one 128-bit value — the form trace exports use to
/// identify cells.
pub fn wide_key(key: CellKey) -> u128 {
    ((key.0 as u128) << 64) | key.1 as u128
}

impl Fingerprintable for Sut {
    fn fingerprint(&self, fp: &mut Fingerprint) {
        self.spec.fingerprint(fp);
        self.sim.fingerprint(fp);
    }
}

/// Fingerprint a cell configuration into a [`CellKey`].
///
/// `repeat` participates because the generator derives a distinct seed
/// per repeat; `cfg.repeats` deliberately does not — the number of
/// repeats changes which cells exist, not what any one cell computes.
/// The worker count and whether the cell's stream was generated or
/// shared never participate: neither changes what the cell computes.
pub fn cell_key(suts: &[Sut], cfg: &CycleConfig, rate: Option<f64>, repeat: u32) -> CellKey {
    cell_key_faulted(suts, cfg, rate, repeat, None)
}

/// [`cell_key`] with the armed fault plan folded in. An armed plan
/// deterministically changes a cell's results, so it must change the
/// fingerprint; `None` writes nothing extra, keeping unfaulted keys
/// byte-identical to what they were before fault injection existed.
pub fn cell_key_faulted(
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
    faults: Option<&FaultPlan>,
) -> CellKey {
    let mut fp = Fingerprint::new();
    fp.seq(suts);
    fp.u64(cfg.count);
    cfg.size.fingerprint(&mut fp);
    fp.f64(cfg.mean_frame);
    fp.u32(cfg.burst);
    fp.u64(cfg.seed);
    cfg.tx.fingerprint(&mut fp);
    fp.option(&rate);
    fp.u32(repeat);
    if let Some(plan) = faults {
        plan.fingerprint(&mut fp);
    }
    fp.finish()
}

/// Fingerprint everything that determines a cell's *packet stream* —
/// generator config, pacing rate, the per-repeat derived seed — into a
/// [`StreamKey`] for the content-addressed
/// [`StreamCache`](pcs_pktgen::StreamCache).
///
/// Unlike [`cell_key`] the SUT set does not participate: N cells that
/// differ only in their sniffers consume the *same* stream, which is
/// exactly the sharing the cache exists for. The seed enters in its
/// *derived* per-repeat form, so two (seed, repeat) pairs that drive the
/// generator identically address the same stream. Chunk size is
/// excluded: subscribers take the producer's chunk boundaries, and
/// results are chunk-size invariant.
pub fn stream_key(cfg: &CycleConfig, rate: Option<f64>, repeat: u32) -> StreamKey {
    let mut fp = Fingerprint::new();
    fp.u64(cfg.count);
    cfg.size.fingerprint(&mut fp);
    fp.f64(cfg.mean_frame);
    fp.u32(cfg.burst);
    fp.u64(cfg.seed.wrapping_add(repeat as u64 * 7919));
    cfg.tx.fingerprint(&mut fp);
    fp.option(&rate);
    fp.finish()
}

/// A process-wide memo table of computed cells.
///
/// No library path uses it: every cell simulates. It remains for the
/// repository benchmark's span-traced composition, which still names it.
#[derive(Default)]
pub struct RunCache {
    map: Mutex<HashMap<CellKey, CellResult>>,
}

impl RunCache {
    /// A fresh, empty cache.
    pub fn new() -> RunCache {
        RunCache::default()
    }

    /// The process-global instance.
    pub fn global() -> &'static RunCache {
        static GLOBAL: OnceLock<RunCache> = OnceLock::new();
        GLOBAL.get_or_init(RunCache::new)
    }

    /// Look up a cell.
    pub fn get(&self, key: &CellKey) -> Option<CellResult> {
        self.map
            .lock()
            .expect("run cache poisoned")
            .get(key)
            .cloned()
    }

    /// Store a cell (last write wins; identical by determinism).
    pub fn insert(&self, key: CellKey, value: CellResult) {
        self.map
            .lock()
            .expect("run cache poisoned")
            .insert(key, value);
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.map.lock().expect("run cache poisoned").len()
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached cell (a "cold" cache for determinism tests and
    /// benchmarks).
    pub fn clear(&self) {
        self.map.lock().expect("run cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_hw::MachineSpec;
    use pcs_oskernel::SimConfig;

    fn suts() -> Vec<Sut> {
        vec![Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig::default(),
        }]
    }

    #[test]
    fn keys_separate_rate_repeat_and_seed() {
        let cfg = CycleConfig::fixed(1_000, 512, 42);
        let base = cell_key(&suts(), &cfg, Some(100.0), 0);
        assert_eq!(base, cell_key(&suts(), &cfg, Some(100.0), 0));
        assert_ne!(base, cell_key(&suts(), &cfg, Some(200.0), 0));
        assert_ne!(base, cell_key(&suts(), &cfg, None, 0));
        assert_ne!(base, cell_key(&suts(), &cfg, Some(100.0), 1));
        let mut reseeded = CycleConfig::fixed(1_000, 512, 43);
        reseeded.repeats = cfg.repeats;
        assert_ne!(base, cell_key(&suts(), &reseeded, Some(100.0), 0));
    }

    #[test]
    fn keys_cover_the_sut_configuration() {
        let cfg = CycleConfig::fixed(1_000, 512, 42);
        let base = cell_key(&suts(), &cfg, Some(100.0), 0);
        let mut buffers = suts();
        buffers[0].sim.buffers = pcs_oskernel::BufferConfig::default_buffers();
        assert_ne!(base, cell_key(&buffers, &cfg, Some(100.0), 0));
        let mut machine = suts();
        machine[0].spec = MachineSpec::moorhen();
        assert_ne!(base, cell_key(&machine, &cfg, Some(100.0), 0));
        let two = vec![suts()[0].clone(), suts()[0].clone()];
        assert_ne!(base, cell_key(&two, &cfg, Some(100.0), 0));
    }

    #[test]
    fn stream_keys_ignore_suts_and_share_derived_seeds() {
        let cfg = CycleConfig::fixed(1_000, 512, 42);
        let base = stream_key(&cfg, Some(100.0), 0);
        assert_eq!(base, stream_key(&cfg, Some(100.0), 0));
        assert_ne!(base, stream_key(&cfg, Some(200.0), 0));
        assert_ne!(base, stream_key(&cfg, None, 0));
        assert_ne!(base, stream_key(&cfg, Some(100.0), 1));
        let mut resized = CycleConfig::fixed(1_000, 256, 42);
        resized.mean_frame = cfg.mean_frame;
        assert_ne!(base, stream_key(&resized, Some(100.0), 0));
        // The per-repeat seed enters in derived form: two (seed, repeat)
        // pairs that drive the generator identically share a stream.
        let shifted = CycleConfig::fixed(1_000, 512, 42 + 7919);
        assert_eq!(
            stream_key(&cfg, Some(100.0), 1),
            stream_key(&shifted, Some(100.0), 0)
        );
    }

    #[test]
    fn fault_plans_change_the_fingerprint() {
        let cfg = CycleConfig::fixed(1_000, 512, 42);
        let base = cell_key(&suts(), &cfg, Some(100.0), 0);
        let none = cell_key_faulted(&suts(), &cfg, Some(100.0), 0, None);
        assert_eq!(base, none, "no plan armed must not change the key");
        let plan = FaultPlan::parse("ringstall:7").unwrap().unwrap();
        let armed = cell_key_faulted(&suts(), &cfg, Some(100.0), 0, Some(&plan));
        assert_ne!(base, armed);
        let reseeded = FaultPlan::parse("ringstall:8").unwrap().unwrap();
        assert_ne!(
            armed,
            cell_key_faulted(&suts(), &cfg, Some(100.0), 0, Some(&reseeded))
        );
    }

    #[test]
    fn repeats_count_does_not_change_cell_identity() {
        let mut a = CycleConfig::fixed(1_000, 512, 42);
        let mut b = CycleConfig::fixed(1_000, 512, 42);
        a.repeats = 3;
        b.repeats = 7;
        assert_eq!(
            cell_key(&suts(), &a, Some(100.0), 0),
            cell_key(&suts(), &b, Some(100.0), 0)
        );
    }

    #[test]
    fn cache_round_trip_and_clear() {
        let cache = RunCache::new();
        assert!(cache.is_empty());
        let key = (1, 2);
        assert!(cache.get(&key).is_none());
        let value = CellResult {
            achieved_mbps: 123.0,
            suts: vec![CellSut {
                capture: 1.0,
                worst: 0.9,
                best: 1.0,
                cpu_busy: 50.0,
            }],
        };
        cache.insert(key, value.clone());
        assert_eq!(cache.get(&key), Some(value));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}

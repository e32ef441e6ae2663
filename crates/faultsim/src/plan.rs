//! Fault plans: which faults are armed, under which seed.

use crate::armed::ArmedMachineFaults;
use pcs_des::SplitMix64;
use pcs_oskernel::MachineFaults;

/// Seed used when a `--faults` spec names no `:SEED` suffix.
const DEFAULT_SEED: u64 = 0xFA01_5EED;

/// Stream-cache budget an armed [`FaultKind::CacheSqueeze`] clamps to:
/// small enough to force eviction churn on any real sweep, large enough
/// to hold one in-flight stream.
const SQUEEZE_BUDGET: u64 = 1 << 20;

/// One kind of injectable fault.
///
/// The first six are **machine-side**: they perturb the simulated
/// hardware/kernel on the sim clock and deterministically change
/// results. The last two are **host-side**: they stress the execution
/// machinery (the cell's stream reader, the stream cache) and must
/// leave results byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// NIC RX descriptor ring shrinks to a sliver (driver stops
    /// replenishing descriptors) — drops move into the NIC-ring bucket.
    RingStall,
    /// Foreign DMA traffic contends for the PCI bus — drops move into
    /// the NIC bus bucket.
    BusBurst,
    /// Interrupt delivery is held off for the window — the ring drains
    /// in bursts, stressing ring bounds and IRQ batching.
    IrqJitter,
    /// Kernel capture buffers shrink to a sliver for the window — drops
    /// move into the kernel-buffer bucket.
    KernelShrink,
    /// The application stops reading for the window — backlog moves
    /// into the app-residue / kernel buckets.
    AppPause,
    /// A foreign task preempts the capture workers at dispatch — the
    /// host scheduler charges extra occupancy before each work item.
    Preempt,
    /// Host-side: the cell's stream reader stalls briefly before some
    /// chunks; in a generating cell, sniffers that catch up wait.
    SplitterHiccup,
    /// Host-side: the stream cache runs under a starvation budget.
    CacheSqueeze,
}

impl FaultKind {
    /// Every kind, in canonical (sorted) order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::RingStall,
        FaultKind::BusBurst,
        FaultKind::IrqJitter,
        FaultKind::KernelShrink,
        FaultKind::AppPause,
        FaultKind::Preempt,
        FaultKind::SplitterHiccup,
        FaultKind::CacheSqueeze,
    ];

    /// The spec-grammar name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::RingStall => "ringstall",
            FaultKind::BusBurst => "busburst",
            FaultKind::IrqJitter => "irqjitter",
            FaultKind::KernelShrink => "kshrink",
            FaultKind::AppPause => "apppause",
            FaultKind::Preempt => "preempt",
            FaultKind::SplitterHiccup => "hiccup",
            FaultKind::CacheSqueeze => "squeeze",
        }
    }

    /// Stable discriminant that seeds each kind's fault windows.
    pub fn tag(self) -> u8 {
        match self {
            FaultKind::RingStall => 1,
            FaultKind::BusBurst => 2,
            FaultKind::IrqJitter => 3,
            FaultKind::KernelShrink => 4,
            FaultKind::AppPause => 5,
            FaultKind::SplitterHiccup => 6,
            FaultKind::CacheSqueeze => 7,
            FaultKind::Preempt => 8,
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// A parsed, seeded fault schedule.
///
/// Parsed from `SPEC[:SEED]` where `SPEC` is `off`, `chaos`, or fault
/// names joined with `+` (`ringstall+kshrink`). The kind set is
/// canonicalised (sorted, deduplicated), so `a+b` and `b+a` are the
/// same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    kinds: Vec<FaultKind>,
    seed: u64,
}

impl FaultPlan {
    /// Parse a `--faults` argument. `"off"` (any seed suffix ignored)
    /// yields `Ok(None)` — no plan armed.
    pub fn parse(arg: &str) -> Result<Option<FaultPlan>, String> {
        let bad = || {
            format!(
                "--faults wants off, chaos or fault names joined with '+' \
                 (ringstall busburst irqjitter kshrink apppause preempt hiccup squeeze), \
                 optionally ':SEED', got '{arg}'"
            )
        };
        let (spec, seed) = match arg.rsplit_once(':') {
            Some((spec, seed_str)) => {
                let seed = seed_str.parse::<u64>().map_err(|_| bad())?;
                (spec, seed)
            }
            None => (arg, DEFAULT_SEED),
        };
        if spec == "off" {
            return Ok(None);
        }
        let mut kinds: Vec<FaultKind> = Vec::new();
        for name in spec.split('+') {
            if name == "chaos" {
                kinds.extend(FaultKind::ALL);
            } else {
                kinds.push(FaultKind::from_name(name).ok_or_else(bad)?);
            }
        }
        kinds.sort();
        kinds.dedup();
        Ok(Some(FaultPlan { kinds, seed }))
    }

    /// Build a plan directly (tests, programmatic use).
    pub fn new(kinds: &[FaultKind], seed: u64) -> FaultPlan {
        let mut kinds = kinds.to_vec();
        kinds.sort();
        kinds.dedup();
        FaultPlan { kinds, seed }
    }

    /// The canonical spec string this plan re-parses from.
    pub fn spec(&self) -> String {
        let names: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        format!("{}:{}", names.join("+"), self.seed)
    }

    /// Whether `kind` is armed.
    pub fn has(&self, kind: FaultKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Build the machine-side hook implementation for one simulated
    /// machine. Each machine gets its own (identical) instance; all
    /// answers are closed-form in (plan, sim clock), so sharing state
    /// across machines is unnecessary and would hurt determinism.
    pub fn arm_machine(&self) -> Box<dyn MachineFaults> {
        Box::new(ArmedMachineFaults::new(self))
    }

    /// Host-side hook: if the cell's stream reader should stall before
    /// passing chunk `chunk_index` through the switch, for how many
    /// microseconds. Purely a scheduling perturbation — results must not
    /// change.
    pub fn splitter_hiccup_us(&self, chunk_index: u64) -> Option<u64> {
        if !self.has(FaultKind::SplitterHiccup) {
            return None;
        }
        let phase = SplitMix64::new(self.seed ^ 0x5911_77e2).next_u64() % 16;
        if chunk_index % 16 == phase {
            Some(200)
        } else {
            None
        }
    }

    /// Host-side hook: the stream-cache byte budget to run under. An
    /// armed squeeze clamps it to a starvation-sized allowance to force
    /// eviction churn.
    pub fn clamp_stream_budget(&self, budget: u64) -> u64 {
        if self.has(FaultKind::CacheSqueeze) {
            budget.min(SQUEEZE_BUDGET)
        } else {
            budget
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_parses_to_none() {
        assert_eq!(FaultPlan::parse("off").unwrap(), None);
    }

    #[test]
    fn spec_round_trips_canonically() {
        let p = FaultPlan::parse("kshrink+ringstall:9").unwrap().unwrap();
        assert_eq!(p.spec(), "ringstall+kshrink:9");
        let again = FaultPlan::parse(&p.spec()).unwrap().unwrap();
        assert_eq!(p, again);
    }

    #[test]
    fn order_and_duplicates_do_not_matter() {
        let a = FaultPlan::parse("ringstall+kshrink:5").unwrap().unwrap();
        let b = FaultPlan::parse("kshrink+ringstall+kshrink:5")
            .unwrap()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_arms_everything() {
        let p = FaultPlan::parse("chaos:1").unwrap().unwrap();
        for k in FaultKind::ALL {
            assert!(p.has(k), "chaos should arm {}", k.name());
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "",
            "nope",
            "ringstall+",
            "ringstall:x",
            ":",
            "off+ringstall",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn default_seed_applies_without_suffix() {
        let p = FaultPlan::parse("ringstall").unwrap().unwrap();
        assert_eq!(p.seed(), DEFAULT_SEED);
    }

    #[test]
    fn squeeze_clamps_the_stream_budget() {
        let p = FaultPlan::parse("squeeze:3").unwrap().unwrap();
        assert_eq!(p.clamp_stream_budget(64 << 20), SQUEEZE_BUDGET);
        assert_eq!(p.clamp_stream_budget(512), 512);
        let q = FaultPlan::parse("ringstall:3").unwrap().unwrap();
        assert_eq!(q.clamp_stream_budget(64 << 20), 64 << 20);
    }

    #[test]
    fn hiccup_hits_one_chunk_in_sixteen() {
        let p = FaultPlan::parse("hiccup:4").unwrap().unwrap();
        let hits: Vec<u64> = (0..64)
            .filter(|&i| p.splitter_hiccup_us(i).is_some())
            .collect();
        assert_eq!(hits.len(), 4);
        assert_eq!(hits[1] - hits[0], 16);
        let q = FaultPlan::parse("ringstall:4").unwrap().unwrap();
        assert!((0..64).all(|i| q.splitter_hiccup_us(i).is_none()));
    }
}

//! The two-stage packet-size-distribution representation of thesis §4.2.
//!
//! High packet rates forbid per-packet hash lookups, so the enhanced Linux
//! Kernel Packet Generator represents a size distribution as two plain
//! arrays of `precision` (ρ) cells each:
//!
//! * the **outliers array** — sizes whose probability is at least the
//!   outlier bound `p_Ωbound` get `round(p_i·ρ)` cells holding the exact
//!   size; remaining cells hold −1 ("miss");
//! * the **bins array** — the non-outlier probability mass, folded into
//!   bins of `binsize` (σ) consecutive sizes; each bin gets cells
//!   proportional to its summed probability, holding the bin's base size.
//!
//! Sampling (thesis Fig. 4.3): draw a random cell from the outliers array;
//! on a miss, draw a cell from the bins array and add uniform jitter in
//! `[0, σ)`. This module implements the construction math of §4.2.3
//! (Eqs. 4.1–4.10) and the sampling procedure.

use pcs_des::Pcg32;
use std::collections::BTreeMap;

/// Construction parameters (names and defaults from thesis §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// ρ — cells per array. Default 1000.
    pub precision: u32,
    /// σ_bin — sizes per second-stage bin. Default 20.
    pub binsize: u32,
    /// N_ps — largest size the distribution considers. Default 1500.
    pub max_size: u32,
    /// p_Ωbound — minimum fraction for a size to become a first-stage
    /// outlier. Default 2‰.
    pub outlier_bound: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            precision: 1000,
            binsize: 20,
            max_size: 1500,
            outlier_bound: 0.002,
        }
    }
}

/// The largest precision ρ either constructor accepts: a million cells
/// per array, a thousand times the thesis' default. A larger value is a
/// malformed input, not a distribution, and `u32::MAX` would ask for
/// 16 GiB of outlier cells.
pub const MAX_PRECISION: u32 = 1_000_000;

/// Errors from building a distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// No packets counted.
    Empty,
    /// A parameter is zero or inconsistent.
    BadConfig(&'static str),
}

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistError::Empty => write!(f, "empty size distribution"),
            DistError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for DistError {}

/// The compiled two-stage representation.
///
/// ```
/// use pcs_pktgen::{TwoStageDist, DistConfig};
/// use pcs_des::Pcg32;
///
/// // 60% 40-byte ACKs, 40% full-size packets.
/// let dist = TwoStageDist::from_counts(
///     [(40u32, 600u64), (1500, 400)],
///     &DistConfig::default(),
/// ).unwrap();
/// let mut rng = Pcg32::new(42, 0);
/// let size = dist.sample(&mut rng);
/// assert!(size == 40 || size == 1500);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoStageDist {
    /// ρ cells: packet size, or `None` for "fall through to stage two".
    outliers: Vec<Option<u16>>,
    /// ρ cells: bin base size.
    bins: Vec<u16>,
    /// σ_bin.
    binsize: u32,
    /// N_ps.
    max_size: u32,
}

impl TwoStageDist {
    /// Build from `(size, count)` pairs per Eqs. 4.1–4.10.
    pub fn from_counts<I>(counts: I, cfg: &DistConfig) -> Result<TwoStageDist, DistError>
    where
        I: IntoIterator<Item = (u32, u64)>,
    {
        if cfg.precision == 0 {
            return Err(DistError::BadConfig("precision must be positive"));
        }
        if cfg.precision > MAX_PRECISION {
            return Err(DistError::BadConfig("precision exceeds MAX_PRECISION"));
        }
        if cfg.binsize == 0 {
            return Err(DistError::BadConfig("binsize must be positive"));
        }
        if cfg.max_size == 0 || cfg.max_size > u16::MAX as u32 {
            return Err(DistError::BadConfig("max_size out of range"));
        }

        // Eq. 4.1: fractions p_i = c_i / c_all (sizes beyond N_ps are
        // clamped into the last bin position, matching the kernel module's
        // bounded arrays).
        let mut c: BTreeMap<u32, u64> = BTreeMap::new();
        for (size, count) in counts {
            let s = size.clamp(1, cfg.max_size);
            *c.entry(s).or_insert(0) += count;
        }
        let call: u64 = c.values().sum();
        if call == 0 {
            return Err(DistError::Empty);
        }

        // Eq. 4.2: the outlier set Ω.
        let rho = cfg.precision as usize;
        let mut outlier_cells: Vec<(u16, usize)> = Vec::new();
        let mut used = 0usize;
        for (&size, &count) in &c {
            let p = count as f64 / call as f64;
            if p >= cfg.outlier_bound {
                let cells = (p * rho as f64).round() as usize;
                if cells > 0 {
                    outlier_cells.push((size as u16, cells));
                    used += cells;
                }
            }
        }
        // Rounding can slightly overshoot ρ; trim from the smallest
        // still-populated outliers (least distortion).
        while used > rho {
            let smallest = outlier_cells
                .iter_mut()
                .filter(|(_, cells)| *cells > 0)
                .min_by_key(|(_, cells)| *cells)
                .expect("used > 0 implies a populated entry");
            smallest.1 -= 1;
            used -= 1;
        }
        outlier_cells.retain(|&(_, cells)| cells > 0);

        let mut outliers = Vec::with_capacity(rho);
        for &(size, cells) in &outlier_cells {
            outliers.extend(std::iter::repeat_n(Some(size), cells));
        }
        outliers.resize(rho, None);

        // Eqs. 4.3–4.5: bin the non-outlier mass.
        let outlier_sizes: std::collections::BTreeSet<u32> =
            outlier_cells.iter().map(|&(size, _)| size as u32).collect();
        let nbin = cfg.max_size.div_ceil(cfg.binsize) as usize;
        let mut b = vec![0u64; nbin];
        let mut b_total = 0u64;
        for (&size, &count) in &c {
            if outlier_sizes.contains(&size) {
                continue;
            }
            let j = ((size - 1) / cfg.binsize) as usize;
            b[j] += count;
            b_total += count;
        }

        // Bins array: cells_j ∝ b_j / b_total (Eq. 4.10 analogue). When
        // every packet is an outlier, stage two is never consulted; fill
        // with the most common outlier size so a (rounding-induced) miss
        // still produces a sensible size.
        let mut bins = Vec::with_capacity(rho);
        if b_total == 0 {
            let fallback = outlier_cells
                .iter()
                .max_by_key(|&&(_, cells)| cells)
                .map(|&(size, _)| size)
                .expect("call > 0 implies at least one outlier");
            bins.resize(rho, fallback);
        } else {
            let mut acc = 0f64;
            let mut filled = 0usize;
            for (j, &bj) in b.iter().enumerate() {
                if bj == 0 {
                    continue;
                }
                acc += bj as f64 / b_total as f64 * rho as f64;
                let want = (acc.round() as usize).min(rho);
                let base = (j as u32 * cfg.binsize + 1).min(cfg.max_size) as u16;
                while filled < want {
                    bins.push(base);
                    filled += 1;
                }
            }
            // Guarantee full coverage despite floating-point rounding.
            let last = *bins.last().expect("b_total > 0 fills at least one");
            bins.resize(rho, last);
        }

        Ok(TwoStageDist {
            outliers,
            bins,
            binsize: cfg.binsize,
            max_size: cfg.max_size,
        })
    }

    /// Draw one packet size (thesis Fig. 4.3 / `mod_cur_pktsize()`).
    pub fn sample(&self, rng: &mut Pcg32) -> u32 {
        let rho = self.outliers.len() as u32;
        let idx = rng.gen_below(rho) as usize;
        if let Some(size) = self.outliers[idx] {
            return size as u32;
        }
        let idx = rng.gen_below(rho) as usize;
        let base = self.bins[idx] as u32;
        let jitter = rng.gen_below(self.binsize);
        (base + jitter).min(self.max_size)
    }

    /// The fraction of stage-one cells that resolve directly (outlier
    /// mass as represented).
    pub fn outlier_fraction(&self) -> f64 {
        let hits = self.outliers.iter().filter(|c| c.is_some()).count();
        hits as f64 / self.outliers.len() as f64
    }

    /// σ_bin.
    pub fn binsize(&self) -> u32 {
        self.binsize
    }

    /// N_ps.
    pub fn max_size(&self) -> u32 {
        self.max_size
    }

    /// Iterate `(size, cells)` runs of the outliers array, merged — the
    /// `outl` lines of the procfs format.
    pub fn outlier_entries(&self) -> Vec<(u32, u32)> {
        let mut map: BTreeMap<u16, u32> = BTreeMap::new();
        for cell in self.outliers.iter().flatten() {
            *map.entry(*cell).or_insert(0) += 1;
        }
        map.into_iter().map(|(s, c)| (s as u32, c)).collect()
    }

    /// Iterate `(base size, cells)` runs of the bins array — the `hist`
    /// lines of the procfs format.
    pub fn bin_entries(&self) -> Vec<(u32, u32)> {
        let mut map: BTreeMap<u16, u32> = BTreeMap::new();
        for &cell in &self.bins {
            *map.entry(cell).or_insert(0) += 1;
        }
        map.into_iter().map(|(s, c)| (s as u32, c)).collect()
    }

    /// Rebuild from procfs-style entries (`outl` and `hist` lines plus the
    /// `dist` parameters). Used by the kernel-module model.
    pub fn from_entries(
        precision: u32,
        binsize: u32,
        max_size: u32,
        outl: &[(u32, u32)],
        hist: &[(u32, u32)],
    ) -> Result<TwoStageDist, DistError> {
        if precision == 0 || binsize == 0 {
            return Err(DistError::BadConfig("precision/binsize must be positive"));
        }
        if precision > MAX_PRECISION {
            return Err(DistError::BadConfig("precision exceeds MAX_PRECISION"));
        }
        if max_size == 0 || max_size > u16::MAX as u32 {
            return Err(DistError::BadConfig("max_size out of range"));
        }
        let rho = precision as usize;
        let mut outliers = Vec::with_capacity(rho);
        for &(size, cells) in outl {
            if size > max_size {
                return Err(DistError::BadConfig("outlier size exceeds max_size"));
            }
            if outliers.len() + cells as usize > rho {
                return Err(DistError::BadConfig("outlier cells exceed precision"));
            }
            outliers.extend(std::iter::repeat_n(Some(size as u16), cells as usize));
        }
        outliers.resize(rho, None);

        let mut bins = Vec::with_capacity(rho);
        for &(size, cells) in hist {
            if size > max_size {
                return Err(DistError::BadConfig("bin base exceeds max_size"));
            }
            if bins.len() + cells as usize > rho {
                return Err(DistError::BadConfig("bin cells exceed precision"));
            }
            bins.extend(std::iter::repeat_n(size as u16, cells as usize));
        }
        if bins.is_empty() {
            return Err(DistError::BadConfig("no bin entries"));
        }
        let last = *bins.last().expect("non-empty");
        bins.resize(rho, last);

        Ok(TwoStageDist {
            outliers,
            bins,
            binsize,
            max_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_counts() -> Vec<(u32, u64)> {
        // 50% at 40, 25% at 1500, 25% spread across 100..120 (each mid
        // size carries 1.25% -- below the 2% outlier bound used in tests).
        let mut v = vec![(40u32, 50_000u64), (1500, 25_000)];
        for s in 100..120 {
            v.push((s, 1_250));
        }
        v
    }

    fn test_cfg() -> DistConfig {
        DistConfig {
            outlier_bound: 0.02,
            ..DistConfig::default()
        }
    }

    #[test]
    fn outliers_get_first_stage_cells() {
        let d = TwoStageDist::from_counts(simple_counts(), &test_cfg()).unwrap();
        let outl = d.outlier_entries();
        // 40 and 1500 must be outliers with ~500 and ~250 cells.
        let cells_40 = outl.iter().find(|&&(s, _)| s == 40).unwrap().1;
        let cells_1500 = outl.iter().find(|&&(s, _)| s == 1500).unwrap().1;
        assert!((495..=505).contains(&cells_40), "{cells_40}");
        assert!((245..=255).contains(&cells_1500), "{cells_1500}");
        assert!((d.outlier_fraction() - 0.75).abs() < 0.02);
    }

    #[test]
    fn sampling_matches_input_distribution() {
        let d = TwoStageDist::from_counts(simple_counts(), &test_cfg()).unwrap();
        let mut rng = Pcg32::new(42, 1);
        let n = 200_000;
        let mut count_40 = 0u64;
        let mut count_1500 = 0u64;
        let mut count_mid = 0u64;
        for _ in 0..n {
            match d.sample(&mut rng) {
                40 => count_40 += 1,
                1500 => count_1500 += 1,
                // Stage two quantizes to bins of 20 and re-jitters, so
                // the mid mass lands anywhere in its bins' span.
                s if (81..=120).contains(&s) => count_mid += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        let f40 = count_40 as f64 / n as f64;
        let f1500 = count_1500 as f64 / n as f64;
        let fmid = count_mid as f64 / n as f64;
        assert!((f40 - 0.5).abs() < 0.02, "f40={f40}");
        assert!((f1500 - 0.25).abs() < 0.02, "f1500={f1500}");
        assert!((fmid - 0.25).abs() < 0.02, "fmid={fmid}");
    }

    #[test]
    fn bins_receive_jitter_within_binsize() {
        // All mass below the outlier bound: everything goes to stage two.
        let counts: Vec<(u32, u64)> = (200..1400).map(|s| (s, 1)).collect();
        let cfg = DistConfig {
            outlier_bound: 0.01,
            ..DistConfig::default()
        };
        let d = TwoStageDist::from_counts(counts, &cfg).unwrap();
        assert_eq!(d.outlier_fraction(), 0.0);
        let mut rng = Pcg32::new(7, 7);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((181..=1419).contains(&s), "sample {s} outside bin range");
        }
    }

    #[test]
    fn single_size_degenerates_gracefully() {
        let d = TwoStageDist::from_counts([(1500u32, 10u64)], &DistConfig::default()).unwrap();
        let mut rng = Pcg32::new(1, 2);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1500);
        }
    }

    #[test]
    fn empty_and_bad_config_rejected() {
        let empty: Vec<(u32, u64)> = vec![];
        assert_eq!(
            TwoStageDist::from_counts(empty, &DistConfig::default()),
            Err(DistError::Empty)
        );
        let cfg = DistConfig {
            precision: 0,
            ..DistConfig::default()
        };
        assert!(TwoStageDist::from_counts([(40u32, 1u64)], &cfg).is_err());
        let cfg = DistConfig {
            precision: MAX_PRECISION + 1,
            ..DistConfig::default()
        };
        assert!(TwoStageDist::from_counts([(40u32, 1u64)], &cfg).is_err());
    }

    #[test]
    fn sizes_beyond_max_clamp() {
        let cfg = DistConfig::default();
        let d = TwoStageDist::from_counts([(9000u32, 100u64)], &cfg).unwrap();
        let mut rng = Pcg32::new(3, 3);
        for _ in 0..100 {
            assert!(d.sample(&mut rng) <= 1500);
        }
    }

    #[test]
    fn entries_roundtrip() {
        let d = TwoStageDist::from_counts(simple_counts(), &test_cfg()).unwrap();
        let outl = d.outlier_entries();
        let hist = d.bin_entries();
        let d2 = TwoStageDist::from_entries(1000, 20, 1500, &outl, &hist).unwrap();
        // Same representation ⇒ same samples under the same seed.
        let mut r1 = Pcg32::new(9, 9);
        let mut r2 = Pcg32::new(9, 9);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut r1), d2.sample(&mut r2));
        }
    }

    #[test]
    fn from_entries_validates() {
        assert!(TwoStageDist::from_entries(10, 20, 1500, &[(40, 11)], &[(100, 1)]).is_err());
        assert!(TwoStageDist::from_entries(10, 20, 1500, &[(2000, 1)], &[(100, 1)]).is_err());
        assert!(TwoStageDist::from_entries(10, 20, 1500, &[(40, 1)], &[]).is_err());
        assert!(TwoStageDist::from_entries(0, 20, 1500, &[], &[(100, 1)]).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let d = TwoStageDist::from_counts(simple_counts(), &test_cfg()).unwrap();
        let mut a = Pcg32::new(1234, 5);
        let mut b = Pcg32::new(1234, 5);
        let sa: Vec<u32> = (0..100).map(|_| d.sample(&mut a)).collect();
        let sb: Vec<u32> = (0..100).map(|_| d.sample(&mut b)).collect();
        assert_eq!(sa, sb);
    }
}

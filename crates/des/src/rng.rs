//! Deterministic pseudo-random number generation.
//!
//! The measurement methodology demands *reproducible* packet sequences
//! (§3.2): rerunning a measurement with the same seed must produce the exact
//! same stream of packet sizes and event outcomes. We therefore use our own
//! small, well-understood generators instead of thread-local OS entropy:
//!
//! * [`SplitMix64`] — used to derive independent seeds for per-component
//!   streams from a single run seed;
//! * [`Pcg32`] — PCG-XSH-RR 64/32, the workhorse generator used by every
//!   simulation component.
//!
//! The kernel's `net_random()` used by the original pktgen enhancement plays
//! the same role in the paper (Appendix A.2.3).

/// SplitMix64: a tiny splittable generator used for seed derivation.
///
/// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new seed-derivation stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32: small, fast, statistically strong, and fully
/// deterministic across platforms.
///
/// Reference: O'Neill, "PCG: A Family of Simple Fast Space-Efficient
/// Statistically Good Algorithms for Random Number Generation" (2014).
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULTIPLIER: u64 = 6364136223846793005;

    /// Create a generator from a seed and a stream id. Distinct stream ids
    /// yield statistically independent sequences even for equal seeds.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derive a child generator; children with different `tag`s are
    /// independent. Useful to hand each simulation component its own stream.
    pub fn derive(&self, tag: u64) -> Pcg32 {
        let mut sm = SplitMix64::new(self.state ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = sm.next_u64();
        let stream = sm.next_u64();
        Pcg32::new(seed, stream)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULTIPLIER).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform integer in `[0, bound)` using Lemire-style rejection to avoid
    /// modulo bias. `bound` must be non-zero.
    pub fn gen_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "gen_below bound must be positive");
        // Rejection sampling: threshold is 2^32 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_reference_behaviour_is_stable() {
        // Lock in the sequence: these values act as a cross-version
        // reproducibility guarantee for every experiment in the repo.
        let mut rng = Pcg32::new(42, 54);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        let mut rng2 = Pcg32::new(42, 54);
        let again: Vec<u32> = (0..4).map(|_| rng2.next_u32()).collect();
        assert_eq!(first, again);
        // Different stream differs.
        let mut rng3 = Pcg32::new(42, 55);
        assert_ne!(first[0], rng3.next_u32());
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_below_bounds() {
        let mut rng = Pcg32::new(1, 1);
        for bound in [1u32, 2, 3, 10, 1000, u32::MAX] {
            for _ in 0..100 {
                assert!(rng.gen_below(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::new(3, 14);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn mean_of_uniform_is_centered() {
        let mut rng = Pcg32::new(2026, 7);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn derive_produces_independent_streams() {
        let base = Pcg32::new(5, 5);
        let mut a = base.derive(1);
        let mut b = base.derive(2);
        let mut a2 = base.derive(1);
        assert_eq!(a.next_u64(), a2.next_u64());
        // Streams should differ in at least the first few outputs.
        let avals: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let bvals: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(avals, bvals);
    }
}

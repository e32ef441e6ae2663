//! Property tests for the DES kernel: ordering, determinism, statistics.

use pcs_des::stats::median;
use pcs_des::{EventQueue, Pcg32, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events pop in time order, FIFO within equal timestamps — i.e. the
    /// queue is a stable sort by time.
    #[test]
    fn queue_is_stable_time_sort(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i)); // stable == tie-break by push order
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_nanos(), i));
        }
        prop_assert_eq!(got, expect);
    }

    /// Interleaved scheduling keeps causality: every popped timestamp is
    /// monotone non-decreasing.
    #[test]
    fn pops_monotone_under_interleaving(ops in proptest::collection::vec((0u64..500, any::<bool>()), 1..200)) {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for (delay, pop) in ops {
            let at = q.now() + SimDuration::from_nanos(delay);
            q.schedule(at, ());
            if pop {
                if let Some((t, _)) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// PRNG streams are reproducible and bounded draws respect bounds.
    #[test]
    fn rng_determinism(seed in any::<u64>(), stream in any::<u64>(), bound in 1u32..=u32::MAX) {
        let mut a = Pcg32::new(seed, stream);
        let mut b = Pcg32::new(seed, stream);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..50 {
            prop_assert!(a.gen_below(bound) < bound);
        }
    }

    /// The median is an order statistic: bounded by the input's min and
    /// max.
    #[test]
    fn median_is_bounded_by_min_and_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let m = median(&xs);
        prop_assert!(m >= min && m <= max);
    }

    /// Duration arithmetic: for_bits never undershoots the exact value.
    #[test]
    fn for_bits_rounds_up(bits in 1u64..1_000_000, rate in 1u64..10_000_000_000) {
        let d = SimDuration::for_bits(bits, rate);
        let exact = bits as f64 * 1e9 / rate as f64;
        prop_assert!(d.as_nanos() as f64 >= exact - 1e-6);
        prop_assert!((d.as_nanos() as f64) < exact + 1.0);
    }
}

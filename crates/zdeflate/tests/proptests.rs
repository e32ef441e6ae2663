//! Property tests: compression must be lossless at every level, for any
//! input, and the decoders must survive arbitrary bytes.

use pcs_zdeflate::{deflate, gunzip, inflate, GzWriter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// deflate ∘ inflate = id, all levels, arbitrary bytes.
    #[test]
    fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096), level in 0u8..=9) {
        let c = deflate(&data, level);
        prop_assert_eq!(inflate(&c).expect("inflate"), data);
    }

    /// Highly repetitive data (the LZ77 hot path) round-trips and shrinks.
    #[test]
    fn repetitive_roundtrip(byte in any::<u8>(), n in 1usize..20_000, level in 1u8..=9) {
        let data = vec![byte; n];
        let c = deflate(&data, level);
        prop_assert_eq!(inflate(&c).expect("inflate"), data.clone());
        if n > 256 {
            prop_assert!(c.len() < data.len(), "{n} bytes grew to {}", c.len());
        }
    }

    /// Structured data with mixed match lengths round-trips.
    #[test]
    fn patterned_roundtrip(seed in any::<u64>(), level in 1u8..=9) {
        // Pseudo-text: repeated words with varying separators.
        let words = ["packet", "capture", "gigabit", "filter", "buffer"];
        let mut s = String::new();
        let mut x = seed | 1;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.push_str(words[(x >> 33) as usize % words.len()]);
            if x & 7 == 0 { s.push('\n'); } else { s.push(' '); }
        }
        let data = s.into_bytes();
        let c = deflate(&data, level);
        prop_assert_eq!(inflate(&c).expect("inflate"), data);
    }

    /// gzip framing round-trips with incremental writes.
    #[test]
    fn gz_roundtrip(chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 0..8), level in 0u8..=9) {
        let mut w = GzWriter::new(level);
        let mut expect = Vec::new();
        for c in &chunks {
            w.write(c);
            expect.extend_from_slice(c);
        }
        prop_assert_eq!(gunzip(&w.finish()).expect("gunzip"), expect);
    }

    /// crc32 is order-insensitive to chunking.
    #[test]
    fn crc32_chunking(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        use pcs_zdeflate::crc32::{crc32, Crc32};
        let split = split.min(data.len());
        let mut s = Crc32::new();
        s.update(&data[..split]);
        s.update(&data[split..]);
        prop_assert_eq!(s.finish(), crc32(&data));
    }
}

// Compressed data is outside input: the default config, so
// `PROPTEST_CASES` can raise the case count.
proptest! {
    /// The decoder never panics on arbitrary (usually invalid) input.
    #[test]
    fn inflate_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = inflate(&data);
        let _ = gunzip(&data);
    }
}

//! Property tests: the savefile writer and reader are exact inverses,
//! and the reader survives arbitrary bytes.

use pcs_pcapfile::{PcapReader, PcapWriter, SizeHistogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_read_roundtrip(
        snaplen in 32u32..4096,
        records in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..512)),
            0..40
        ),
    ) {
        let mut w = PcapWriter::new(Vec::new(), snaplen).unwrap();
        for (ts_us, data) in &records {
            let ts_ns = *ts_us as u64 * 1000;
            w.write_packet(ts_ns, data.len() as u32, data).unwrap();
        }
        prop_assert_eq!(w.packet_count(), records.len() as u64);
        let file = w.finish().unwrap();

        let r = PcapReader::new(&file).unwrap();
        prop_assert_eq!(r.snaplen(), snaplen);
        let recs = r.records().unwrap();
        prop_assert_eq!(recs.len(), records.len());
        for (rec, (ts_us, data)) in recs.iter().zip(&records) {
            prop_assert_eq!(rec.ts_ns, *ts_us as u64 * 1000);
            prop_assert_eq!(rec.orig_len as usize, data.len());
            let expect = &data[..data.len().min(snaplen as usize)];
            prop_assert_eq!(&rec.data[..], expect);
        }
    }

    /// Truncating a valid file anywhere inside a record is detected.
    #[test]
    fn truncation_detected(cut in 25usize..120) {
        let mut w = PcapWriter::new(Vec::new(), 1514).unwrap();
        w.write_packet(1_000, 100, &[7u8; 100]).unwrap();
        let file = w.finish().unwrap();
        let cut = cut.min(file.len() - 1);
        let r = PcapReader::new(&file[..cut]);
        // An Err means the header itself was truncated — also a detection.
        if let Ok(reader) = r {
            prop_assert!(reader.records().is_err());
        }
    }

    /// Histogram totals equal the sum of inserted counts and the dist
    /// format round-trips.
    #[test]
    fn histogram_roundtrip(sizes in proptest::collection::vec(40u32..1500, 1..200)) {
        let mut h = SizeHistogram::new();
        for &s in &sizes {
            h.add(s);
        }
        prop_assert_eq!(h.total(), sizes.len() as u64);
        let text = h.to_dist_format(' ');
        let back = SizeHistogram::from_dist_format(&text, ' ').unwrap();
        prop_assert_eq!(back, h);
    }
}

// Savefiles are outside input: the default config, so `PROPTEST_CASES`
// can raise the case count.
proptest! {
    /// The reader never panics on arbitrary bytes.
    #[test]
    fn reader_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(r) = PcapReader::new(&data) {
            let _ = r.records();
        }
    }
}

//! [`Fingerprintable`] implementations for the generator-side
//! configuration types, used by the testbed's run cache to key cells
//! field by field instead of through `Debug` renderings.

use crate::dist::TwoStageDist;
use crate::generator::TxModel;
use crate::procfs::SizeSource;
use pcs_des::{Fingerprint, Fingerprintable};

impl Fingerprintable for TxModel {
    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.u64(self.link_bps);
        fp.u64(self.per_packet_ns);
    }
}

impl Fingerprintable for TwoStageDist {
    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.f64(self.outlier_fraction());
        fp.u32(self.binsize());
        fp.u32(self.max_size());
        fp.seq(&self.outlier_entries());
        fp.seq(&self.bin_entries());
    }
}

impl Fingerprintable for SizeSource {
    fn fingerprint(&self, fp: &mut Fingerprint) {
        match self {
            SizeSource::Fixed(size) => {
                fp.tag(0);
                fp.u32(*size);
            }
            SizeSource::Distribution(dist) => {
                fp.tag(1);
                dist.fingerprint(fp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwn::mwn_counts;
    use crate::DistConfig;

    fn key<T: Fingerprintable>(v: &T) -> (u64, u64) {
        let mut fp = Fingerprint::new();
        v.fingerprint(&mut fp);
        fp.finish()
    }

    #[test]
    fn size_sources_do_not_alias() {
        let counts = mwn_counts(1_000_000);
        let dist =
            TwoStageDist::from_counts(counts.iter().map(|(&s, &c)| (s, c)), &DistConfig::default())
                .unwrap();
        let fixed = SizeSource::Fixed(64);
        let from_dist = SizeSource::Distribution(dist.clone());
        assert_ne!(key(&fixed), key(&from_dist));
        assert_eq!(key(&from_dist), key(&SizeSource::Distribution(dist)));
    }

    #[test]
    fn tx_models_are_distinct() {
        assert_ne!(key(&TxModel::syskonnect()), key(&TxModel::netgear()));
        assert_ne!(key(&TxModel::syskonnect()), key(&TxModel::intel()));
    }
}

//! Named counters, gauges, and log-bucketed histograms for one machine sim.

use std::collections::BTreeMap;

use pcs_des::stats::{LogHistogram, QuantileDigest};

/// Per-sim metrics registry.
///
/// Keys are `BTreeMap`s so iteration order — and therefore every rendered
/// export — is deterministic. Lookups on the hot path are by `&str` and
/// only allocate the first time a name is seen.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
    digests: BTreeMap<String, QuantileDigest>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named counter.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Record one observation into the named log-bucketed histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogHistogram::new();
                h.record(value);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Mutable access to the named histogram, creating it (empty) the
    /// first time the name is seen. Lets hot-path callers hoist the map
    /// lookup out of a per-packet loop: the recorded values and counts
    /// are identical to calling [`MetricsRegistry::observe`] per value.
    pub fn histogram_entry(&mut self, name: &str) -> &mut LogHistogram {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_owned(), LogHistogram::new());
        }
        self.histograms.get_mut(name).expect("just inserted")
    }

    /// Mutable access to the named quantile digest, creating it (empty)
    /// the first time the name is seen. Digests are the fixed-bucket,
    /// per-SUT latency summaries the run ledger renders
    /// (p50/p90/p99/p99.9); like [`MetricsRegistry::histogram_entry`],
    /// hot-path callers hoist the map lookup out of per-packet loops.
    pub fn digest_entry(&mut self, name: &str) -> &mut QuantileDigest {
        if !self.digests.contains_key(name) {
            self.digests.insert(name.to_owned(), QuantileDigest::new());
        }
        self.digests.get_mut(name).expect("just inserted")
    }

    /// Counter value, 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// The named quantile digest, if it was ever created.
    pub fn digest(&self, name: &str) -> Option<&QuantileDigest> {
        self.digests.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All quantile digests in name order.
    pub fn digests(&self) -> impl Iterator<Item = (&str, &QuantileDigest)> {
        self.digests.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.digests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_basics() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc("packets", 3);
        m.inc("packets", 2);
        m.set_gauge("depth", 1.5);
        m.set_gauge("depth", 2.5);
        m.observe("latency_ns", 100);
        m.observe("latency_ns", 900);
        assert_eq!(m.counter("packets"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("depth"), Some(2.5));
        assert_eq!(m.histogram("latency_ns").unwrap().count(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_digests_record() {
        let mut a = MetricsRegistry::new();
        a.digest_entry("other").record(1);
        a.digest_entry("lat").record(100);
        a.digest_entry("lat").record(900);
        assert_eq!(a.digest("lat").unwrap().count(), 2);
        assert!(a.digest("missing").is_none());
        assert!(!a.is_empty());
        let names: Vec<&str> = a.digests().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["lat", "other"]);
    }
}

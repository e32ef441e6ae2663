//! Named counters, gauges, and fixed-bucket quantile digests for one
//! machine sim.

use std::collections::BTreeMap;

use pcs_des::stats::QuantileDigest;

/// Per-sim metrics registry.
///
/// Keys are `BTreeMap`s so iteration order — and therefore every rendered
/// export — is deterministic. Lookups on the hot path are by `&str` and
/// only allocate the first time a name is seen. Each recorded name has
/// one [`QuantileDigest`]: the exports render its count/min/max/mean,
/// and the run ledger also renders the percentiles of the
/// [`latencies`](MetricsRegistry::latencies).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
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

    /// Record one observation into the named digest.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.digest_entry(name).record(value);
    }

    /// Mutable access to the named digest, creating it (empty) the first
    /// time the name is seen. Lets hot-path callers hoist the map lookup
    /// out of a per-packet loop: the recorded values are identical to
    /// calling [`MetricsRegistry::observe`] per value.
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

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All digests in name order.
    pub fn digests(&self) -> impl Iterator<Item = (&str, &QuantileDigest)> {
        self.digests.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The digests whose name ends in `_latency_ns`, in name order: the
    /// ones the run ledger summarizes as latency percentiles.
    pub fn latencies(&self) -> impl Iterator<Item = (&str, &QuantileDigest)> {
        self.digests()
            .filter(|(name, _)| name.ends_with("_latency_ns"))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.digests.is_empty()
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
        let (name, digest) = m.digests().next().unwrap();
        assert_eq!((name, digest.count()), ("latency_ns", 2));
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_digests_record() {
        let mut a = MetricsRegistry::new();
        a.digest_entry("wire_to_app_latency_ns").record(100);
        a.observe("other", 1);
        a.observe("wire_to_app_latency_ns", 900);
        assert!(!a.is_empty());
        let counts: Vec<(&str, u64)> = a.digests().map(|(n, d)| (n, d.count())).collect();
        assert_eq!(counts, vec![("other", 1), ("wire_to_app_latency_ns", 2)]);
        let latencies: Vec<&str> = a.latencies().map(|(n, _)| n).collect();
        assert_eq!(latencies, vec!["wire_to_app_latency_ns"]);
    }
}

//! Run-scale presets: how many packets, repeats and rate points an
//! experiment uses.
//!
//! The thesis generates 10⁶ packets per run, repeats every point seven
//! times, and sweeps 50–950 Mbit/s. Simulated runs are deterministic, so
//! fewer repeats suffice; the presets trade fidelity against wall-clock
//! time on the host.

/// Scale parameters for an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Packets per generation run.
    pub count: u64,
    /// Repeats per measurement point.
    pub repeats: u32,
    /// Rate ladder in Mbit/s; `None` = no inter-packet gap (full speed).
    pub rates: Vec<Option<f64>>,
}

impl Scale {
    /// Smoke-test scale: small runs, a coarse ladder.
    pub fn quick() -> Scale {
        Scale {
            count: 40_000,
            repeats: 1,
            rates: ladder(200.0, 4, 250.0),
        }
    }

    /// Default scale: enough packets that buffer capacity does not mask
    /// steady-state behaviour, on a 100 Mbit/s ladder.
    pub fn standard() -> Scale {
        Scale {
            count: 300_000,
            repeats: 2,
            rates: ladder(100.0, 9, 100.0),
        }
    }

    /// Paper scale: 10⁶ packets, the thesis' 50-step ladder.
    pub fn full() -> Scale {
        Scale {
            count: 1_000_000,
            repeats: 3,
            rates: ladder(50.0, 18, 50.0),
        }
    }

    /// Parse a scale name.
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::quick()),
            "standard" => Some(Scale::standard()),
            "full" => Some(Scale::full()),
            _ => None,
        }
    }
}

/// `start, start+step, …` for `n` points, then the full-speed point.
fn ladder(start: f64, n: usize, step: f64) -> Vec<Option<f64>> {
    let mut v: Vec<Option<f64>> = (0..n).map(|i| Some(start + i as f64 * step)).collect();
    v.push(None);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(Scale::by_name("quick"), Some(Scale::quick()));
        assert_eq!(Scale::by_name("standard"), Some(Scale::standard()));
        assert_eq!(Scale::by_name("full"), Some(Scale::full()));
        assert_eq!(Scale::by_name("bogus"), None);
    }

    #[test]
    fn ladders_end_with_full_speed() {
        for s in [Scale::quick(), Scale::standard(), Scale::full()] {
            assert_eq!(*s.rates.last().unwrap(), None);
            assert!(s.rates.len() >= 3);
        }
        assert_eq!(Scale::full().rates.len(), 19);
        assert_eq!(Scale::full().rates[0], Some(50.0));
        assert_eq!(Scale::full().rates[17], Some(900.0));
    }
}

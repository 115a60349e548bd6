//! Reuse telemetry for the seasonality search, the STL decomposition and
//! the short-term filter verdicts.
//!
//! Nothing is cached here. Within one series' round the three consumers of
//! a seasonality/STL answer share a stack-local
//! [`crate::seasonality::SeasonalArtifacts`]; across rounds a filter
//! verdict rides the streaming engine's Level-A replay of its candidate
//! ([`crate::scan_state::CachedScan`]). [`CacheStats`] counts both.

/// How often a seasonality/STL answer or a filter verdict was reused
/// instead of recomputed, cumulative over a pipeline's scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Answers served from the series' artifacts, plus filter verdicts
    /// replayed with a Level-A outcome.
    pub hits: u64,
    /// Seasonality searches and STL decompositions actually run.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered without computing (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another tally into this one.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[cfg(test)]
mod tests {
    use crate::seasonality::SeasonalArtifacts;
    use fbd_stats::acf;
    use fbd_stats::stl::{decompose, StlConfig};

    fn sine(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 / period as f64 * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn second_identical_call_hits_and_matches() {
        let mut artifacts = SeasonalArtifacts::default();
        let data = sine(240, 24);
        let first = artifacts.seasonality(&data, 30, 0.4).unwrap();
        let second = artifacts.seasonality(&data, 30, 0.4).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, acf::find_seasonality(&data, 2, 30, 0.4).unwrap());
        let stats = artifacts.reuse;
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn changed_data_or_params_invalidate() {
        let data = sine(240, 24);
        let mut artifacts = SeasonalArtifacts::default();
        artifacts.seasonality(&data, 30, 0.4).unwrap();
        // Any differing parameter is a different answer: each runs once.
        artifacts.seasonality(&data, 30, 0.5).unwrap();
        artifacts.seasonality(&data, 20, 0.5).unwrap();
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (0, 3));
        // Every one of them is still held — none displaced another.
        artifacts.seasonality(&data, 30, 0.4).unwrap();
        artifacts.seasonality(&data, 20, 0.5).unwrap();
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (2, 3));
    }

    #[test]
    fn series_slots_are_independent() {
        // A value belongs to one series' window: another series — even with
        // the same bytes — or a changed window gets its own and computes.
        let data = sine(240, 24);
        let (mut a, mut b) = (SeasonalArtifacts::default(), SeasonalArtifacts::default());
        a.decomposition(&data, 24).unwrap();
        b.decomposition(&data, 24).unwrap();
        assert_eq!((a.reuse.misses, b.reuse.misses), (1, 1));
        let mut longer = data.clone();
        longer.push(0.0);
        let mut fresh = SeasonalArtifacts::default();
        fresh.seasonality(&longer, 30, 0.4).unwrap();
        assert_eq!((fresh.reuse.hits, fresh.reuse.misses), (0, 1));
    }

    #[test]
    fn trend_matches_uncached_paths() {
        let mut artifacts = SeasonalArtifacts::default();
        let data = sine(240, 24);
        let direct = decompose(&data, StlConfig::for_period(24)).unwrap();
        assert_eq!(*artifacts.decomposition(&data, 24).unwrap(), direct);
        // Re-request: served, identical bits.
        let again = artifacts.decomposition(&data, 24).unwrap();
        for (c, d) in again.trend.iter().zip(&direct.trend) {
            assert_eq!(c.to_bits(), d.to_bits());
        }
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (1, 1));
    }
}

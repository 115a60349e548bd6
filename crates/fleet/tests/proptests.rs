//! Property-based tests for the fleet simulator.

use fbd_fleet::lln::{averaged_fleet_series, shift_signal_to_noise, Population};
use fbd_fleet::seasonality::SeasonalProfile;
use fbd_fleet::server::{Fleet, ServerGeneration};
use fbd_fleet::spec::{Event, SeriesSpec};
use fbd_fleet::transient::{TransientIssue, TransientKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spec_generation_is_deterministic(
        len in 2usize..200,
        base in -100.0f64..100.0,
        noise in 0.0f64..5.0,
        seed in 0u64..1_000,
    ) {
        let spec = SeriesSpec::flat(len, base, noise);
        prop_assert_eq!(spec.generate(seed).unwrap(), spec.generate(seed).unwrap());
    }

    #[test]
    fn step_mean_shift_matches_delta(
        delta in -10.0f64..10.0,
        at_frac in 0.2f64..0.8,
    ) {
        let len = 2_000;
        let at = (len as f64 * at_frac) as usize;
        let spec = SeriesSpec::flat(len, 5.0, 0.05).with_event(Event::Step { at, delta });
        let v = spec.generate(9).unwrap();
        let before: f64 = v[..at].iter().sum::<f64>() / at as f64;
        let after: f64 = v[at..].iter().sum::<f64>() / (len - at) as f64;
        prop_assert!((after - before - delta).abs() < 0.05);
    }

    #[test]
    fn transient_series_recovers(
        duration in 5usize..100,
        delta in -5.0f64..5.0,
    ) {
        let len = 600;
        let at = 200;
        let spec = SeriesSpec::flat(len, 1.0, 0.0).with_event(Event::Transient {
            at,
            duration,
            delta,
        });
        prop_assert_eq!(spec.mean_at(at + duration).to_bits(), 1.0_f64.to_bits());
        prop_assert_eq!(spec.mean_at(at.saturating_sub(1)).to_bits(), 1.0_f64.to_bits());
        prop_assert!((spec.mean_at(at) - (1.0 + delta)).abs() < 1e-12);
    }

    #[test]
    fn fleet_sizes_exact(n in 1usize..500, frac in 0.0f64..1.0) {
        let gens = vec![
            ServerGeneration { cpu_multiplier: 1.0, noise_std: 0.1, regression_multiplier: 1.0 },
            ServerGeneration { cpu_multiplier: 2.0, noise_std: 0.1, regression_multiplier: 1.0 },
        ];
        let f = Fleet::new(n, gens, &[frac, 1.0 - frac]).unwrap();
        prop_assert_eq!(f.len(), n);
        // Ids are dense 0..n.
        let ids: Vec<u32> = f.servers().iter().map(|s| s.id).collect();
        prop_assert_eq!(ids, (0..n as u32).collect::<Vec<u32>>());
    }

    #[test]
    fn seasonal_factor_non_negative_and_periodic(
        amp in 0.0f64..0.5,
        phase in 0u64..86_400,
        t in 0u64..1_000_000,
    ) {
        let p = SeasonalProfile {
            diurnal_amplitude: amp,
            weekly_amplitude: 0.0,
            phase,
        };
        let f = p.factor(t);
        prop_assert!(f >= 0.0);
        prop_assert!((f - p.factor(t + 86_400)).abs() < 1e-9);
    }

    #[test]
    fn transient_factors_bounded(
        severity in 0.0f64..1.0,
        start in 0u64..1_000,
        duration in 1u64..1_000,
        t in 0u64..3_000,
    ) {
        for kind in TransientKind::ALL {
            let i = TransientIssue { kind, start, duration, severity };
            let c = i.cpu_factor(t);
            let th = i.throughput_factor(t);
            prop_assert!((0.0..=2.0).contains(&c), "cpu factor {c}");
            prop_assert!((0.0..=2.0).contains(&th));
            prop_assert!(i.error_rate_delta(t) >= 0.0);
            if !i.active_at(t) {
                prop_assert_eq!(c.to_bits(), 1.0_f64.to_bits());
                prop_assert_eq!(th.to_bits(), 1.0_f64.to_bits());
            }
        }
    }

    #[test]
    fn analytic_average_mean_is_exact(
        mean in 0.1f64..0.9,
        m in 1_000u64..1_000_000,
    ) {
        let pops = [Population { fraction: 1.0, mean, variance: 0.01, regression: 0.0 }];
        let series = averaged_fleet_series(&pops, m, 400, 200, 3, 0).unwrap();
        let got: f64 = series.iter().sum::<f64>() / series.len() as f64;
        prop_assert!((got - mean).abs() < 0.01, "mean {got} vs {mean}");
        // No regression injected: SNR near zero.
        let snr = shift_signal_to_noise(&series, 200).unwrap();
        prop_assert!(snr.abs() < 1.0);
    }
}

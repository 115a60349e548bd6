//! Property-based tests for the statistical substrate.

use fbd_stats::prefix::PrefixStats;
use fbd_stats::streaming::RollingStats;
use fbd_stats::{
    acf, changepoint, cusum, descriptive, distributions, em, fourier, hypothesis, online,
    regression, sax, smoothing, stl, text, trend, Finite,
};
use proptest::prelude::*;

fn finite_series(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6f64, min_len..max_len)
}

proptest! {
    #[test]
    fn mean_within_min_max(data in finite_series(1, 200)) {
        let m = descriptive::mean(&data).unwrap();
        let lo = descriptive::min(&data).unwrap();
        let hi = descriptive::max(&data).unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn variance_non_negative(data in finite_series(2, 200)) {
        prop_assert!(descriptive::variance(&data).unwrap() >= 0.0);
        prop_assert!(descriptive::population_variance(&data).unwrap() >= 0.0);
    }

    #[test]
    fn percentiles_monotone(data in finite_series(1, 100)) {
        let p10 = descriptive::percentile(&data, 10.0).unwrap();
        let p50 = descriptive::percentile(&data, 50.0).unwrap();
        let p90 = descriptive::percentile(&data, 90.0).unwrap();
        prop_assert!(p10 <= p50 + 1e-9);
        prop_assert!(p50 <= p90 + 1e-9);
    }

    #[test]
    fn median_equals_p50(data in finite_series(1, 100)) {
        let med = descriptive::median(&data).unwrap();
        let p50 = descriptive::percentile(&data, 50.0).unwrap();
        prop_assert!((med - p50).abs() < 1e-9);
    }

    #[test]
    fn mad_invariant_under_shift(data in finite_series(3, 100), shift in -1e3f64..1e3) {
        let m1 = descriptive::mad(&data).unwrap();
        let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
        let m2 = descriptive::mad(&shifted).unwrap();
        prop_assert!((m1 - m2).abs() < 1e-6 * (1.0 + m1.abs()));
    }

    #[test]
    fn cusum_series_ends_near_zero(data in finite_series(2, 200)) {
        let s = cusum::cusum_series(&data).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!(s.last().unwrap().abs() < 1e-6 * scale * data.len() as f64);
    }

    #[test]
    fn change_point_in_bounds(data in finite_series(4, 200)) {
        let r = cusum::detect_change_point(&data).unwrap();
        prop_assert!(r.index < data.len() - 1);
    }

    #[test]
    fn injected_step_is_found(
        n1 in 20usize..60,
        n2 in 20usize..60,
        base in -100.0f64..100.0,
        step in 1.0f64..50.0,
    ) {
        let mut data = vec![base; n1];
        data.extend(vec![base + step; n2]);
        let r = cusum::detect_change_point(&data).unwrap();
        prop_assert_eq!(r.index, n1 - 1);
        prop_assert!((r.mean_shift - step).abs() < 1e-9);
    }

    #[test]
    fn optimal_split_cost_never_exceeds_unsplit(data in finite_series(4, 150)) {
        let r = changepoint::optimal_single_split(&data).unwrap();
        prop_assert!(r.cost <= r.unsplit_cost + 1e-6);
        prop_assert!((0.0..=1.0).contains(&r.gain()));
    }

    #[test]
    fn theil_sen_shift_invariance(data in finite_series(3, 60), shift in -1e3f64..1e3) {
        let f1 = trend::theil_sen(&data).unwrap();
        let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
        let f2 = trend::theil_sen(&shifted).unwrap();
        prop_assert!((f1.slope - f2.slope).abs() < 1e-6 * (1.0 + f1.slope.abs()));
    }

    #[test]
    fn mann_kendall_antisymmetry(data in finite_series(4, 60)) {
        let up = trend::mann_kendall(&data, 0.05).unwrap();
        let negated: Vec<f64> = data.iter().map(|v| -v).collect();
        let down = trend::mann_kendall(&negated, 0.05).unwrap();
        prop_assert_eq!(up.s, -down.s);
    }

    #[test]
    fn sax_symbols_in_range(data in finite_series(1, 100), buckets in 1usize..30) {
        let cfg = sax::SaxConfig { buckets, validity_fraction: 0.03 };
        let s = sax::encode(&data, cfg).unwrap();
        prop_assert!(s.symbols.iter().all(|&x| (x as usize) < buckets));
        prop_assert_eq!(s.histogram.iter().sum::<usize>(), data.len());
    }

    #[test]
    fn sax_reencode_own_data_matches(data in finite_series(2, 100)) {
        let cfg = sax::SaxConfig { buckets: 10, validity_fraction: 0.0 };
        let s = sax::encode(&data, cfg).unwrap();
        let re = s.encode_with_same_buckets(&data).unwrap();
        prop_assert_eq!(&s.symbols, &re.symbols);
    }

    #[test]
    fn pearson_bounds(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Ok(r) = regression::pearson(&a, &b) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn linear_fit_residual_orthogonality(data in finite_series(3, 80)) {
        if let Ok(fit) = regression::linear_fit(&data) {
            // Residuals sum to ~0 for OLS with intercept.
            let resid_sum: f64 = data
                .iter()
                .enumerate()
                .map(|(i, &y)| y - fit.predict(i as f64))
                .sum();
            let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
            prop_assert!(resid_sum.abs() < 1e-6 * scale * data.len() as f64);
        }
    }

    #[test]
    fn stl_reconstruction(data in finite_series(48, 150)) {
        let cfg = stl::StlConfig::for_period(12);
        let d = stl::decompose(&data, cfg).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, &value) in data.iter().enumerate() {
            let sum = d.seasonal[i] + d.trend[i] + d.residual[i];
            prop_assert!((sum - value).abs() < 1e-6 * scale);
        }
    }

    #[test]
    fn moving_average_bounded_by_extremes(data in finite_series(5, 100)) {
        let out = smoothing::centered_moving_average(&data, 5).unwrap();
        let lo = descriptive::min(&data).unwrap();
        let hi = descriptive::max(&data).unwrap();
        prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
    }

    #[test]
    fn spectrum_non_negative(data in finite_series(4, 128)) {
        let mags = fourier::magnitude_spectrum(&data).unwrap();
        prop_assert!(mags.iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn fft_spectrum_matches_naive_dft(data in finite_series(4, 200)) {
        // The O(n log n) FFT path (radix-2 or Bluestein) must reproduce the
        // O(n²) direct DFT bin for bin.
        let fast = fourier::magnitude_spectrum(&data).unwrap();
        let naive = fourier::magnitude_spectrum_naive(&data).unwrap();
        prop_assert_eq!(fast.len(), naive.len());
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (f, n) in fast.iter().zip(&naive) {
            prop_assert!((f - n).abs() < 1e-9 * scale, "fft {f} vs dft {n}");
        }
    }

    #[test]
    fn prefix_single_ll_matches_naive(data in finite_series(2, 200)) {
        let ps = PrefixStats::new(&data);
        let fast = ps.single_mean_log_likelihood();
        let naive = em::single_mean_log_likelihood_naive(&data).unwrap();
        prop_assert!(
            (fast - naive).abs() < 1e-9 * (1.0 + naive.abs()),
            "fast {fast} vs naive {naive}"
        );
    }

    #[test]
    fn prefix_two_mean_ll_matches_naive(data in finite_series(4, 200), cp_seed in 0usize..1000) {
        let cp = 1 + cp_seed % (data.len() - 2);
        let ps = PrefixStats::new(&data);
        let fast = ps.two_mean_log_likelihood(cp);
        let naive = em::two_mean_log_likelihood_naive(&data, cp).unwrap();
        prop_assert!(
            (fast - naive).abs() < 1e-9 * (1.0 + naive.abs()),
            "fast {fast} vs naive {naive} at cp {cp}"
        );
    }

    #[test]
    fn prefix_cusum_matches_series(data in finite_series(2, 200)) {
        // The centered prefix sums ARE the CUSUM series.
        let ps = PrefixStats::new(&data);
        let series = cusum::cusum_series(&data).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, s) in series.iter().enumerate() {
            prop_assert!((ps.cusum_at(i + 1) - s).abs() < 1e-9 * scale * data.len() as f64);
        }
    }

    #[test]
    fn cosine_similarity_symmetric(a in "[a-z]{1,20}", b in "[a-z]{1,20}") {
        let model = text::TfIdf::fit(&[a.as_str(), b.as_str()], &[2, 3]);
        let s1 = model.similarity(&a, &b);
        let s2 = model.similarity(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-9);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&s1));
    }

    #[test]
    fn normal_cdf_monotone(z1 in -5.0f64..5.0, z2 in -5.0f64..5.0) {
        let (lo, hi) = if z1 < z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(distributions::normal_cdf(lo) <= distributions::normal_cdf(hi) + 1e-12);
    }

    #[test]
    fn t_critical_decreases_with_alpha(dof in 2.0f64..200.0) {
        let t01 = distributions::student_t_critical(0.01, dof);
        let t05 = distributions::student_t_critical(0.05, dof);
        prop_assert!(t01 > t05);
    }

    #[test]
    fn mann_kendall_fast_bit_identical_to_naive(data in finite_series(4, 160)) {
        // The O(n log n) inversion-counting Mann-Kendall is an exact integer
        // algorithm: S, variance, z, and p must match the O(n²) pairwise
        // definition bit for bit.
        let fast = trend::mann_kendall(&data, 0.05).unwrap();
        let naive = trend::mann_kendall_naive(&data, 0.05).unwrap();
        prop_assert_eq!(fast.s, naive.s);
        prop_assert_eq!(fast.z.to_bits(), naive.z.to_bits());
        prop_assert_eq!(fast.p_value.to_bits(), naive.p_value.to_bits());
        prop_assert_eq!(fast.direction, naive.direction);
    }

    #[test]
    fn mann_kendall_fast_handles_ties_exactly(
        raw in prop::collection::vec(-20i64..20, 4..120),
        significance in 0.01f64..0.2,
    ) {
        // Integer-valued series maximize ties, stressing the tie-run
        // correction shared by both implementations.
        let data: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        let fast = trend::mann_kendall(&data, significance).unwrap();
        let naive = trend::mann_kendall_naive(&data, significance).unwrap();
        prop_assert_eq!(fast.s, naive.s);
        prop_assert_eq!(fast.z.to_bits(), naive.z.to_bits());
        prop_assert_eq!(fast.p_value.to_bits(), naive.p_value.to_bits());
    }

    #[test]
    fn theil_sen_selection_bit_identical_to_sort(data in finite_series(2, 80)) {
        // Median-by-selection over pairwise slopes must reproduce the
        // sort-based median exactly (total_cmp ties are bit-equal values),
        // through the full fit and the slope-only entry alike.
        let fast = trend::theil_sen(&data).unwrap();
        let naive = trend::theil_sen_naive(&data).unwrap();
        prop_assert_eq!(fast.slope.to_bits(), naive.slope.to_bits());
        prop_assert_eq!(fast.intercept.to_bits(), naive.intercept.to_bits());
        let slope = trend::theil_sen_slope(Finite::new(&data).unwrap()).unwrap();
        prop_assert_eq!(slope.to_bits(), naive.slope.to_bits());
    }

    #[test]
    fn theil_sen_bit_identical_at_window_sizes_and_ties(
        size in 0usize..6,
        levels in 1i64..40,
        seed in 0u64..1_000,
    ) {
        // The sizes the went-away stage and the benchmark reach (plus the
        // minimum), over integer-valued series: `levels == 1` is all-equal,
        // small `levels` leaves most pairwise slopes exactly tied.
        let n = [2usize, 3, 4, 223, 300, 901][size];
        let data: Vec<f64> = (0..n as u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z >> 33) as i64 % levels) as f64
            })
            .collect();
        let naive = trend::theil_sen_naive(&data).unwrap();
        let fast = trend::theil_sen(&data).unwrap();
        prop_assert_eq!(fast.slope.to_bits(), naive.slope.to_bits());
        prop_assert_eq!(fast.intercept.to_bits(), naive.intercept.to_bits());
        let slope = trend::theil_sen_slope(Finite::new(&data).unwrap()).unwrap();
        prop_assert_eq!(slope.to_bits(), naive.slope.to_bits());
    }

    #[test]
    fn validated_entries_equal_the_checked_ones(data in finite_series(4, 120), p in 0.0f64..100.0) {
        // A `Finite` proof only skips the sweep: same bits, every kernel.
        let f = Finite::new(&data).unwrap();
        prop_assert_eq!(descriptive::mean_finite(f).unwrap().to_bits(), descriptive::mean(&data).unwrap().to_bits());
        prop_assert_eq!(descriptive::median_finite(f).unwrap().to_bits(), descriptive::median_naive(&data).unwrap().to_bits());
        prop_assert_eq!(descriptive::mad_finite(f).unwrap().to_bits(), descriptive::mad(&data).unwrap().to_bits());
        prop_assert_eq!(
            descriptive::percentile_finite(f, p).unwrap().to_bits(),
            descriptive::percentile_naive(&data, p).unwrap().to_bits()
        );
        prop_assert_eq!(trend::mann_kendall_finite(f, 0.05).unwrap(), trend::mann_kendall_naive(&data, 0.05).unwrap());
        // Sub-ranges keep the proof.
        let tail = f.slice(data.len() / 2..);
        prop_assert_eq!(descriptive::mean_finite(tail).unwrap().to_bits(), descriptive::mean(&data[data.len() / 2..]).unwrap().to_bits());
    }

    #[test]
    fn acf_fft_matches_naive_all_lags(data in finite_series(16, 220)) {
        // Wiener–Khinchin all-lags ACF against the direct O(n·k) definition.
        let max_lag = data.len() - 2;
        let fast = acf::acf_fft(&data, max_lag).unwrap();
        let naive = acf::acf_naive(&data, max_lag).unwrap();
        prop_assert_eq!(fast.len(), naive.len());
        for (lag, (f, n)) in fast.iter().zip(&naive).enumerate() {
            // Autocorrelations are normalized, so the tolerance is absolute.
            prop_assert!((f - n).abs() < 1e-7, "lag {} fft {f} vs naive {n}", lag + 1);
        }
    }

    #[test]
    fn loess_fft_matches_naive_uniform(data in finite_series(32, 220), fraction in 0.15f64..0.5) {
        let ones = vec![1.0; data.len()];
        let fast = stl::loess_smooth_fft(&data, fraction, &ones).unwrap();
        let naive = stl::loess_smooth_naive(&data, fraction, &ones).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, (f, n)) in fast.iter().zip(&naive).enumerate() {
            prop_assert!((f - n).abs() < 1e-9 * scale, "i={i} fft {f} vs naive {n}");
        }
    }

    #[test]
    fn loess_fft_matches_naive_robustness(
        data in finite_series(32, 160),
        weight_seed in 1usize..13,
        fraction in 0.15f64..0.5,
    ) {
        // Bounded-below weights keep the local fits away from the singular
        // guard, where fast and naive could legitimately branch-diverge.
        let weights: Vec<f64> = (0..data.len())
            .map(|i| 0.25 + 0.75 * ((i * weight_seed) % 7) as f64 / 7.0)
            .collect();
        let fast = stl::loess_smooth_fft(&data, fraction, &weights).unwrap();
        let naive = stl::loess_smooth_naive(&data, fraction, &weights).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, (f, n)) in fast.iter().zip(&naive).enumerate() {
            prop_assert!((f - n).abs() < 1e-9 * scale, "i={i} fft {f} vs naive {n}");
        }
    }

    #[test]
    fn loess_dispatch_close_to_naive(data in finite_series(16, 300), fraction in 0.15f64..0.5) {
        // Whatever path the cost model picks, the public entry point stays
        // within float tolerance of the reference implementation.
        let ones = vec![1.0; data.len()];
        let dispatched = stl::loess_smooth(&data, fraction, &ones).unwrap();
        let naive = stl::loess_smooth_naive(&data, fraction, &ones).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for (i, (d, n)) in dispatched.iter().zip(&naive).enumerate() {
            prop_assert!((d - n).abs() < 1e-9 * scale, "i={i} dispatch {d} vs naive {n}");
        }
    }

    #[test]
    fn loess_folded_matches_naive_in_the_detector_regime(
        n in 2usize..=1200,
        window_pick in 0usize..1_000_000,
        regime in 0usize..6,
        kind in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The uniform-weight entry points (fraction and explicit window)
        // against the per-point reference, at the sizes the detectors use
        // and at every window shape: n ≤ 1200 keeps the dispatch off the
        // FFT, so this is the folded kernels alone.
        let noise = |i: usize| {
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let data: Vec<f64> = (0..n)
            .map(|i| match kind {
                0 => 1e3 * noise(i),
                1 => 1.0 + noise(0),
                2 => 1e9 + noise(i),
                _ => 1e-9 * noise(i),
            })
            .collect();
        let any_window = 3 + window_pick % (n.max(3) - 2);
        let window = match regime {
            0 | 1 => any_window,
            2 => n,
            // No interior point, or a single one.
            3 => n.saturating_sub(1 + window_pick % 2),
            4 => any_window & !1,
            _ => any_window | 1,
        }
        .max(3)
        .min(n);
        // `ceil(fraction·n)` lands on `window` from half a sample below.
        let fraction = (window as f64 - 0.5) / n as f64;
        let ones = vec![1.0; n];
        let naive = stl::loess_smooth_naive(&data, fraction, &ones).unwrap();
        let by_fraction = stl::loess_smooth_uniform(&data, fraction).unwrap();
        let by_window = stl::loess_smooth_windowed(&data, window, &ones).unwrap();
        let explicit_ones = stl::loess_smooth(&data, fraction, &ones).unwrap();
        let scale = data.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for i in 0..n {
            prop_assert!(
                (by_fraction[i] - naive[i]).abs() <= 1e-9 * scale,
                "n={n} window={window} kind={kind} i={i}: folded {} vs naive {}", by_fraction[i], naive[i]
            );
            prop_assert_eq!(by_fraction[i].to_bits(), by_window[i].to_bits());
            prop_assert_eq!(by_fraction[i].to_bits(), explicit_ones[i].to_bits());
        }
    }

    #[test]
    fn lrt_bound_dominates_exact_over_arbitrary_histories(
        values in prop::collection::vec(-1e3f64..1e3, 40..220),
        step in (0usize..1000, -50.0f64..50.0),
        nan_sel in 0usize..2000,
        evict in 0usize..30,
    ) {
        // The online short-term refuter may only ever overestimate the cold
        // LRT statistic: over arbitrary histories — appends, front
        // evictions, NaN injection, a step anywhere — a bound below the
        // exact maximum would let Level C suppress a detection the cold
        // path makes.
        let mut values = values;
        let (at, delta) = step;
        let at = at % values.len();
        for v in values[at..].iter_mut() {
            *v += delta;
        }
        // Half the cases inject a single NaN somewhere in the history.
        if nan_sel < 1000 {
            let i = nan_sel % values.len();
            values[i] = f64::NAN;
        }
        let mut stats = RollingStats::new(0);
        for &v in &values {
            stats.append(v);
        }
        let evict = evict.min(values.len() - 12);
        stats.evict_front(evict);
        let a = evict as u64;
        let b = values.len() as u64;
        let window = &values[evict..];
        let n = window.len() as u64;
        // Split range spanning the window's middle third, as an analysis
        // region would.
        let t_lo = a + n / 3 + 1;
        let t_hi = a + 2 * n / 3;
        if let Some(bound) = online::max_lrt_upper_bound(&stats, a, b, t_lo, t_hi, 1e-9) {
            // A bound implies the range was fully finite and retained.
            prop_assert!(window.iter().all(|v| v.is_finite()));
            let ps = PrefixStats::new(window);
            let exact = hypothesis::max_lrt_statistic_in_range(
                &ps,
                (t_lo - a - 1) as usize,
                (t_hi - a - 1) as usize,
            )
            .unwrap_or(0.0);
            prop_assert!(bound >= exact, "bound {bound} < exact {exact}");
        } else {
            // Refusal must be justified: a NaN in the window (or none
            // injected at all means the geometry was degenerate, which this
            // generator never produces).
            prop_assert!(window.iter().any(|v| !v.is_finite()));
        }
    }

    #[test]
    fn sliding_bounds_contain_every_cold_window_mean(
        values in prop::collection::vec(-1e3f64..1e3, 30..200),
        evict in 0usize..20,
        geom in (0usize..1000, 1usize..60, 0usize..20, 1usize..40),
    ) {
        // The online pre-filter replica must bracket every width-`edge`
        // sliding mean the cold pre-filter enumerates; a mean escaping the
        // bracket could flip the long-term refuter's verdict.
        let mut stats = RollingStats::new(0);
        for &v in &values {
            stats.append(v);
        }
        let evict = evict.min(values.len() - 10);
        stats.evict_front(evict);
        let a = evict as u64;
        let b = values.len() as u64;
        let window = &values[evict..];
        let n = window.len();
        let (lo_seed, span, d, edge) = geom;
        let lo = lo_seed % n;
        let hi = (lo + 1 + span).min(n);
        let (omin, omax) = online::sliding_mean_bounds(
            &stats,
            a,
            b,
            a + lo as u64,
            a + hi as u64,
            d as u64,
            edge as u64,
        );
        prop_assert!(omin.is_finite() && omax.is_finite());
        prop_assert!(omin <= omax);
        if edge <= n {
            let ps = PrefixStats::new(window);
            // Cold enumeration, mirrored from the long-term pre-filter.
            let lo_d = lo.saturating_sub(d);
            let hi_d = (hi + d).min(n);
            let first = lo_d.saturating_sub(edge - 1);
            let last = hi_d.min(n - edge + 1);
            let scale = values.iter().map(|v| v.abs()).fold(1.0, f64::max);
            let tol = 1e-9 * scale;
            for s in first..last {
                let m = ps.segment_mean(s, s + edge);
                prop_assert!(
                    m >= omin - tol && m <= omax + tol,
                    "window [{s}, {}) mean {m} escapes [{omin}, {omax}]",
                    s + edge
                );
            }
        }
    }

    #[test]
    fn rolling_stats_bit_identical_to_cold_rebuild(
        ops in prop::collection::vec((0u8..12, -1e6f64..1e6, 1usize..40), 1..200),
        query in (0u64..400, 1u64..400),
    ) {
        // Incremental append/extend/evict maintenance must be
        // indistinguishable — to the bit — from rebuilding over the
        // retained samples with the same pivot, whether the rebuild appends
        // them one by one or extends by all of them at once. The streaming
        // scan engine's round-over-round determinism rests on exactly this
        // property.
        use fbd_stats::streaming::RollingStats;
        let mut inc = RollingStats::new(0);
        let mut shadow: Vec<f64> = Vec::new();
        let mut evicted = 0usize;
        for &(sel, value, k) in &ops {
            match sel {
                // Mostly appends, with occasional non-finite samples mixed
                // in: they occupy indices but stay out of the sums.
                0..=6 => {
                    inc.append(value);
                    shadow.push(value);
                }
                7 => {
                    inc.append(f64::NAN);
                    shadow.push(f64::NAN);
                }
                8 => {
                    inc.append(f64::INFINITY);
                    shadow.push(f64::INFINITY);
                }
                // Runs of up to 117 samples, so one `extend` can complete
                // two blocks; every other run carries NaNs.
                9 | 10 => {
                    let run: Vec<f64> = (0..3 * k)
                        .map(|j| if sel == 10 && j % 7 == 0 { f64::NAN } else { value + j as f64 })
                        .collect();
                    inc.extend(run.iter().copied());
                    shadow.extend(run);
                }
                _ => {
                    let k = k.min(shadow.len() - evicted.min(shadow.len()));
                    inc.evict_front(k);
                    evicted += k;
                }
            }
        }
        let retained = &shadow[evicted..];
        let cold = RollingStats::rebuild(retained, evicted as u64, inc.pivot());
        let mut appended = RollingStats::rebuild(&[], evicted as u64, inc.pivot());
        for &v in retained {
            appended.append(v);
        }
        prop_assert_eq!(inc.first_index(), cold.first_index());
        prop_assert_eq!(inc.len(), cold.len());
        let (qa, qlen) = query;
        // Probe several ranges: the random one, the full retained range,
        // and block-straddling edges.
        let end = inc.end_index();
        let ranges = [
            (qa, qa + qlen),
            (inc.first_index(), end),
            (inc.first_index() + (inc.len() as u64) / 3, end.saturating_sub(1).max(1)),
        ];
        for (a, b) in ranges {
            let bits = |s: &RollingStats| {
                let m = s.segment_moments(a, b);
                (m.finite, m.sum.to_bits(), m.sum_sq.to_bits(), m.max_dev.to_bits())
            };
            prop_assert_eq!(bits(&appended), bits(&cold), "append vs extend on [{}, {})", a, b);
            prop_assert_eq!(inc.finite_count(a, b), cold.finite_count(a, b));
            prop_assert_eq!(
                inc.centered_sum(a, b).to_bits(),
                cold.centered_sum(a, b).to_bits(),
                "centered_sum diverged on [{}, {})", a, b
            );
            prop_assert_eq!(
                inc.centered_sum_sq(a, b).to_bits(),
                cold.centered_sum_sq(a, b).to_bits(),
                "centered_sum_sq diverged on [{}, {})", a, b
            );
            let im = inc.mean(a, b).map(f64::to_bits);
            let cm = cold.mean(a, b).map(f64::to_bits);
            prop_assert_eq!(im, cm, "mean diverged on [{}, {})", a, b);
        }
    }

    #[test]
    fn rolling_stats_adopted_by_move_equals_extend_and_appends(
        raw in prop::collection::vec((0u8..10, -1e6f64..1e6), 0..400),
        start in 0u64..200,
        slack in 0usize..3,
        evict in 0usize..100,
        tail in prop::collection::vec(-1e6f64..1e6, 0..80),
    ) {
        // A Reset hands the engine a value buffer to adopt; taking it over
        // must be indistinguishable — to the bit, and in the capacity it
        // retains — from extending or appending the same samples, at once
        // and after later evictions and appends wrap the ring.
        use fbd_stats::streaming::{retained_capacity, RollingStats};
        let values: Vec<f64> = raw
            .iter()
            .map(|&(sel, v)| match sel {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect();
        // Exact fit, already the retained capacity, or oversized.
        let mut buffer = Vec::with_capacity(match slack {
            0 => values.len(),
            1 => retained_capacity(values.len()),
            _ => 4 * values.len() + 7,
        });
        buffer.extend_from_slice(&values);
        let mut adopted = RollingStats::adopt(start, buffer);
        let mut extended = RollingStats::new(start);
        extended.extend(values.iter().copied());
        let mut appended = RollingStats::new(start);
        for &v in &values {
            appended.append(v);
        }
        prop_assert_eq!(adopted.resident_bytes(), extended.resident_bytes());
        if values.len() >= 4 {
            // One-by-one growth reaches the same power of two.
            prop_assert_eq!(adopted.resident_bytes(), appended.resident_bytes());
        }
        for round in 0..2 {
            let end = adopted.end_index();
            let first = adopted.first_index();
            prop_assert_eq!(adopted.pivot().map(f64::to_bits), extended.pivot().map(f64::to_bits));
            prop_assert_eq!(adopted.pivot().map(f64::to_bits), appended.pivot().map(f64::to_bits));
            prop_assert_eq!((first, end), (extended.first_index(), extended.end_index()));
            prop_assert_eq!((first, end), (appended.first_index(), appended.end_index()));
            for (a, b) in [(first, end), (first + 1, end.saturating_sub(1)), (start + 63, start + 130), (0, u64::MAX)] {
                let bits = |s: &RollingStats| {
                    let m = s.segment_moments(a, b);
                    let (front, back) = s.slices(a, b);
                    let window: Vec<u64> = front.iter().chain(back).map(|v| v.to_bits()).collect();
                    (m.finite, m.sum.to_bits(), m.sum_sq.to_bits(), m.max_dev.to_bits(), window)
                };
                prop_assert_eq!(bits(&adopted), bits(&extended), "round {} [{}, {})", round, a, b);
                prop_assert_eq!(bits(&adopted), bits(&appended), "round {} [{}, {})", round, a, b);
                // The two-slice view is the indexed view.
                let want: Vec<u64> = (a.max(first)..b.min(end))
                    .map(|i| adopted.get(i).unwrap().to_bits())
                    .collect();
                prop_assert_eq!(bits(&adopted).4, want);
            }
            for s in [&mut adopted, &mut extended, &mut appended] {
                s.evict_front(evict);
                for &v in &tail {
                    s.append(v);
                }
            }
        }
    }
}

//! Discrete Fourier features for clustering (§5.5.1).
//!
//! SOMDedup represents each regression with "typical time-series metrics like
//! Fourier frequencies, variance, change points". This module computes the
//! DFT magnitude spectrum and compact spectral features (dominant
//! frequencies, spectral energy) for use as clustering inputs.
//!
//! The spectrum is computed with an O(n log n) FFT: an iterative radix-2
//! transform when the length is a power of two, and Bluestein's chirp-z
//! algorithm otherwise (which zero-pads to the next power of two internally
//! while still producing the *exact* length-n DFT, so bin frequencies are
//! identical to the direct O(n²) transform it replaced).

use crate::error::{ensure_finite, ensure_len};
use crate::memo;
use crate::scratch::ScratchVec;
use crate::Result;
use std::cell::RefCell;
use std::f64::consts::{PI, TAU};
use std::rc::Rc;

/// Magnitudes of the first `n/2` DFT coefficients (excluding DC).
///
/// O(n log n) via FFT; numerically pinned to [`magnitude_spectrum_naive`]
/// by property tests.
pub fn magnitude_spectrum(data: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let mut centered = ScratchVec::with_capacity(n);
    centered.extend(data.iter().map(|x| x - mean));
    let (re, im) = dft_real(&centered);
    Ok((1..=n / 2)
        .map(|k| (re[k] * re[k] + im[k] * im[k]).sqrt() / n as f64)
        .collect())
}

/// Reference spectrum via the direct O(n²) DFT.
///
/// Ground truth for the property tests pinning the FFT fast path; not used
/// on the scan hot path.
pub fn magnitude_spectrum_naive(data: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let half = n / 2;
    let mut mags = Vec::with_capacity(half);
    for k in 1..=half {
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &x) in data.iter().enumerate() {
            let angle = -TAU * k as f64 * t as f64 / n as f64;
            let centered = x - mean;
            re += centered * angle.cos();
            im += centered * angle.sin();
        }
        mags.push((re * re + im * im).sqrt() / n as f64);
    }
    Ok(mags)
}

/// Full length-n DFT of a real signal: `X_k = Σ_t x_t e^(−2πi·kt/n)`.
///
/// Dispatches to the radix-2 FFT for power-of-two lengths and to
/// Bluestein's algorithm otherwise.
fn dft_real(data: &[f64]) -> (ScratchVec, ScratchVec) {
    let n = data.len();
    if n.is_power_of_two() {
        let mut re = ScratchVec::copied(data);
        let mut im = ScratchVec::zeroed(n);
        fft_pow2(&mut re, &mut im, false);
        (re, im)
    } else {
        bluestein(data)
    }
}

/// In-place iterative radix-2 Cooley-Tukey FFT. `re.len()` must be a power
/// of two and equal to `im.len()`. When `invert` is set, computes the
/// inverse transform including the 1/n normalization.
///
/// Crate-internal: the ACF (Wiener–Khinchin) and Loess sliding-regression
/// fast paths reuse this transform directly.
pub(crate) fn fft_pow2(re: &mut [f64], im: &mut [f64], invert: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two() && im.len() == n);
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // One trig table per size and direction serves every stage: the
    // stage-`len` twiddle e^(sign·iτk/len) is entry k·(n/len).
    let twiddle = plan(PlanKey::Twiddles { n, inverse: invert });
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        // Twiddle k of this stage is pair k·(n/len) of the table.
        let stage_twiddles = twiddle.chunks_exact(n / len * 2);
        for (block_re, block_im) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (a_re, b_re) = block_re.split_at_mut(half);
            let (a_im, b_im) = block_im.split_at_mut(half);
            let pairs = a_re
                .iter_mut()
                .zip(a_im.iter_mut())
                .zip(b_re.iter_mut().zip(b_im.iter_mut()));
            for (((ar, ai), (br, bi)), w) in pairs.zip(stage_twiddles.clone()) {
                let (wr, wi) = (w[0], w[1]);
                let vr = *br * wr - *bi * wi;
                let vi = *br * wi + *bi * wr;
                *br = *ar - vr;
                *bi = *ai - vi;
                *ar += vr;
                *ai += vi;
            }
        }
        len <<= 1;
    }
    if invert {
        let inv = 1.0 / n as f64;
        for v in re.iter_mut() {
            *v *= inv;
        }
        for v in im.iter_mut() {
            *v *= inv;
        }
    }
}

/// Bluestein's chirp-z transform: the exact length-n DFT for arbitrary n,
/// expressed as a circular convolution evaluated with power-of-two FFTs.
fn bluestein(data: &[f64]) -> (ScratchVec, ScratchVec) {
    let n = data.len();
    let m = (2 * n - 1).next_power_of_two();
    let plan = plan(PlanKey::Chirp { n });
    let (chirp, b) = plan.split_at(2 * n);
    let (br, bi) = b.split_at(m);
    // a_j = x_j·w_j, zero-padded to m.
    let mut ar = ScratchVec::zeroed(m);
    let mut ai = ScratchVec::zeroed(m);
    for (j, &x) in data.iter().enumerate() {
        ar[j] = x * chirp[2 * j];
        ai[j] = x * chirp[2 * j + 1];
    }
    fft_pow2(&mut ar, &mut ai, false);
    for j in 0..m {
        let r = ar[j] * br[j] - ai[j] * bi[j];
        let i = ar[j] * bi[j] + ai[j] * br[j];
        ar[j] = r;
        ai[j] = i;
    }
    fft_pow2(&mut ar, &mut ai, true);
    // X_k = w_k · (a ⊛ b)_k.
    let mut re = ScratchVec::zeroed(n);
    let mut im = ScratchVec::zeroed(n);
    for k in 0..n {
        re[k] = ar[k] * chirp[2 * k] - ai[k] * chirp[2 * k + 1];
        im[k] = ar[k] * chirp[2 * k + 1] + ai[k] * chirp[2 * k];
    }
    (re, im)
}

/// What a transform plan holds: the data a transform of one size needs
/// that depends on the size alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanKey {
    /// The `n/2` interleaved `(cos, sin)` twiddles of a power-of-two FFT
    /// of size `n`, forward or inverse.
    Twiddles { n: usize, inverse: bool },
    /// Bluestein's chirp for a non-power-of-two `n` (`n` interleaved
    /// `(cos, sin)` pairs), then the length-`m` FFT of its mirrored
    /// conjugate: `m` real parts, then `m` imaginary parts.
    Chirp { n: usize },
}

/// Plans a thread keeps. A scan's spectra and smoothers use a handful of
/// sizes: each window length's chirp, plus the forward and inverse twiddles
/// of its padded size and of the smoothers' FFT sizes.
const PLAN_TABLE_PLANS: usize = 32;

/// `f64`s a thread's plan table may hold (1 MiB). A chirp plan is `2n + 2m`
/// values (`m` the padded power of two) and a twiddle plan `n`, so chirps
/// up to n = 2¹⁴ and twiddles up to n = 2¹⁷ can be kept; a larger plan is
/// built per call.
const PLAN_TABLE_F64S: usize = 1 << 17;

thread_local! {
    /// The thread's transform plans.
    static PLAN_TABLE: RefCell<memo::Table<PlanKey>> =
        const { RefCell::new(memo::Table::new(PLAN_TABLE_PLANS, PLAN_TABLE_F64S)) };
}

/// The plan for `key` from the thread's plan table, built on a miss (a
/// chirp's build runs an FFT, which looks up its own twiddles).
fn plan(key: PlanKey) -> Rc<[f64]> {
    memo::get_or_build(&PLAN_TABLE, key, || match key {
        PlanKey::Twiddles { n, inverse } => build_twiddles(n, inverse),
        PlanKey::Chirp { n } => build_chirp(n),
    })
}

/// Interleaved `(cos, sin)` of `sign·τk/n` for `k < n/2`, each computed
/// directly (not by recurrence) so round-off stays at machine epsilon.
/// Every FFT stage indexes this one table: both index computations round
/// the same real angle to the same float (power-of-two scaling), so the
/// transform is bit-identical to per-stage tables.
fn build_twiddles(n: usize, inverse: bool) -> Rc<[f64]> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let step = sign * TAU / n as f64;
    let mut twiddle = Vec::with_capacity(n);
    for k in 0..n / 2 {
        let a = step * k as f64;
        twiddle.push(a.cos());
        twiddle.push(a.sin());
    }
    twiddle.into()
}

/// Bluestein's size-`n` plan: the chirp `w_j = e^(−iπ·j²/n)`, then the
/// FFT of `b_j = conj(w_j)` mirrored so index `m−j` stands in for `−j`.
fn build_chirp(n: usize) -> Rc<[f64]> {
    let m = (2 * n - 1).next_power_of_two();
    let mut plan = vec![0.0; 2 * n + 2 * m];
    let (chirp, b) = plan.split_at_mut(2 * n);
    // The exponent is reduced mod 2n before the float conversion so the
    // angle never grows with j².
    for j in 0..n {
        let e = (j * j) % (2 * n);
        let a = -PI * e as f64 / n as f64;
        chirp[2 * j] = a.cos();
        chirp[2 * j + 1] = a.sin();
    }
    let (br, bi) = b.split_at_mut(m);
    br[0] = chirp[0];
    bi[0] = -chirp[1];
    for j in 1..n {
        br[j] = chirp[2 * j];
        bi[j] = -chirp[2 * j + 1];
        br[m - j] = br[j];
        bi[m - j] = bi[j];
    }
    fft_pow2(br, bi, false);
    plan.into()
}

/// Sliding dot products ("valid" cross-correlations) of `signal` against a
/// set of kernels that all share one length `w`, with `0 < w <=
/// signal.len()`.
///
/// For each kernel `ker` the output vector holds, at every alignment
/// `j ∈ 0..=n−w`, the dot product `Σ_k ker[k] · signal[j + k]`. The signal
/// spectrum is computed once and shared across kernels, so the total cost is
/// `(kernels + 2)` power-of-two FFTs of length `m = n.next_power_of_two()`.
/// Zero-padding to `m ≥ n` is sufficient because only convolution outputs at
/// positions `t ≥ w − 1` are read, which never wrap circularly.
///
/// Kernels whose length differs from the first kernel's, or an empty kernel
/// set, yield empty outputs rather than panicking.
pub(crate) fn sliding_dots(signal: &[f64], kernels: &[&[f64]]) -> Vec<Vec<f64>> {
    let n = signal.len();
    let w = kernels.first().map_or(0, |k| k.len());
    if w == 0 || w > n {
        return kernels.iter().map(|_| Vec::new()).collect();
    }
    let m = n.next_power_of_two();
    let mut sig_re = ScratchVec::zeroed(m);
    sig_re[..n].copy_from_slice(signal);
    let mut sig_im = ScratchVec::zeroed(m);
    fft_pow2(&mut sig_re, &mut sig_im, false);
    kernels
        .iter()
        .map(|ker| {
            if ker.len() != w {
                return Vec::new();
            }
            // Reverse the kernel so linear convolution at t = j + w − 1
            // equals the sliding dot product at alignment j.
            let mut kr = ScratchVec::zeroed(m);
            let mut ki = ScratchVec::zeroed(m);
            for (j, &v) in ker.iter().enumerate() {
                kr[w - 1 - j] = v;
            }
            fft_pow2(&mut kr, &mut ki, false);
            for idx in 0..m {
                let r = kr[idx] * sig_re[idx] - ki[idx] * sig_im[idx];
                let i = kr[idx] * sig_im[idx] + ki[idx] * sig_re[idx];
                kr[idx] = r;
                ki[idx] = i;
            }
            fft_pow2(&mut kr, &mut ki, true);
            (0..=n - w).map(|j| kr[j + w - 1]).collect()
        })
        .collect()
}

/// Compact spectral features for clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralFeatures {
    /// Indices (1-based DFT bin) of the `top_k` strongest frequencies.
    pub dominant_bins: Vec<usize>,
    /// Their magnitudes, same order.
    pub dominant_magnitudes: Vec<f64>,
    /// Total spectral energy (sum of squared magnitudes).
    pub energy: f64,
    /// Fraction of energy in the lowest quartile of frequencies — high for
    /// trend/step series, low for fast oscillation.
    pub low_frequency_fraction: f64,
}

/// Extracts [`SpectralFeatures`] with the `top_k` dominant bins.
pub fn spectral_features(data: &[f64], top_k: usize) -> Result<SpectralFeatures> {
    let mags = magnitude_spectrum(data)?;
    let energy: f64 = mags.iter().map(|m| m * m).sum();
    let quarter = (mags.len() / 4).max(1);
    let low_energy: f64 = mags[..quarter].iter().map(|m| m * m).sum();
    let mut indexed: Vec<(usize, f64)> =
        mags.iter().enumerate().map(|(i, &m)| (i + 1, m)).collect();
    // Strongest first; equal magnitudes in bin order, as a stable sort
    // leaves them. Only the `top_k` strongest are sorted.
    let order = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if top_k < indexed.len() {
        indexed.select_nth_unstable_by(top_k, order);
        indexed.truncate(top_k);
    }
    indexed.sort_unstable_by(order);
    let top = indexed.into_iter();
    let (dominant_bins, dominant_magnitudes) = top.fold(
        (Vec::new(), Vec::new()),
        |(mut bins, mut mags), (bin, mag)| {
            bins.push(bin);
            mags.push(mag);
            (bins, mags)
        },
    );
    Ok(SpectralFeatures {
        dominant_bins,
        dominant_magnitudes,
        energy,
        low_frequency_fraction: if energy > 0.0 {
            low_energy / energy
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_sine_has_single_peak() {
        // 8 full cycles over 128 samples -> bin 8 dominates.
        let data: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 8.0 / 128.0 * std::f64::consts::TAU).sin())
            .collect();
        let f = spectral_features(&data, 1).unwrap();
        assert_eq!(f.dominant_bins[0], 8);
    }

    #[test]
    fn constant_series_zero_energy() {
        let data = vec![3.0; 64];
        let f = spectral_features(&data, 3).unwrap();
        assert!(f.energy < 1e-20);
    }

    #[test]
    fn step_concentrates_low_frequency() {
        let mut data = vec![0.0; 64];
        data.extend(vec![1.0; 64]);
        let f = spectral_features(&data, 4).unwrap();
        assert!(
            f.low_frequency_fraction > 0.8,
            "lf = {}",
            f.low_frequency_fraction
        );
        assert_eq!(f.dominant_bins[0], 1);
    }

    #[test]
    fn fast_oscillation_is_high_frequency() {
        let data: Vec<f64> = (0..128)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let f = spectral_features(&data, 1).unwrap();
        assert!(f.low_frequency_fraction < 0.1);
        assert_eq!(f.dominant_bins[0], 64);
    }

    #[test]
    fn parseval_energy_relation() {
        // Spectrum energy tracks time-domain variance for a sine.
        let data: Vec<f64> = (0..256)
            .map(|i| 2.0 * (i as f64 * 4.0 / 256.0 * std::f64::consts::TAU).sin())
            .collect();
        let f = spectral_features(&data, 1).unwrap();
        // A sine of amplitude A has its DFT magnitude A/2 in one bin (for
        // our 1/n normalization).
        assert!((f.dominant_magnitudes[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn spectrum_length_is_half() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(magnitude_spectrum(&data).unwrap().len(), 50);
    }

    fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z >> 33) % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft_power_of_two() {
        let data = pseudo_series(128, 17);
        let fast = magnitude_spectrum(&data).unwrap();
        let slow = magnitude_spectrum_naive(&data).unwrap();
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9, "fast {f} vs slow {s}");
        }
    }

    #[test]
    fn plan_table_is_bounded_and_cannot_change_a_spectrum() {
        let probes: Vec<usize> = vec![
            2, 3, 4, 7, 64, 97, 100, 128, 225, 257, 450, 900, 1024, 1031, 1200,
        ];
        let spectra = |sizes: &[usize]| -> Vec<Vec<u64>> {
            sizes
                .iter()
                .map(|&n| {
                    let spectrum = magnitude_spectrum(&pseudo_series(n, n as u64 + 3)).unwrap();
                    spectrum.iter().map(|m| m.to_bits()).collect()
                })
                .collect()
        };
        let sizes = probes.clone();
        let fresh = std::thread::spawn(move || spectra(&sizes)).join().unwrap();
        let held = || PLAN_TABLE.with(|t| t.borrow().held());
        // Cycle this thread's table through every size, primes and powers
        // of two among them, checking the bound after each transform.
        for n in 2..=1200 {
            magnitude_spectrum(&pseudo_series(n, 11)).unwrap();
            let (plans, f64s) = held();
            assert!(
                plans <= PLAN_TABLE_PLANS && f64s <= PLAN_TABLE_F64S,
                "n={n}: {plans} plans, {f64s} f64s"
            );
        }
        assert_eq!(spectra(&probes), fresh);
        // Twice in a row: the second of each is served from the table.
        for &n in &probes {
            let data = pseudo_series(n, 5);
            let first = magnitude_spectrum(&data).unwrap();
            let second = magnitude_spectrum(&data).unwrap();
            assert_eq!(first, second);
            assert!(held().1 <= PLAN_TABLE_F64S);
        }
    }

    #[test]
    fn fft_matches_naive_dft_arbitrary_lengths() {
        for &n in &[2usize, 3, 5, 7, 31, 100, 225, 900] {
            let data = pseudo_series(n, n as u64);
            let fast = magnitude_spectrum(&data).unwrap();
            let slow = magnitude_spectrum_naive(&data).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (k, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!((f - s).abs() < 1e-9, "n={n} bin {k}: fast {f} vs slow {s}");
            }
        }
    }
}

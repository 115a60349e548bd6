//! Seasonal-Trend decomposition using Loess (STL) (§5.2.3, §5.3).
//!
//! The seasonality detector and long-term path both decompose a time series
//! into `seasonal + trend + residual`. This is a from-scratch STL in the
//! spirit of Cleveland et al. (1990): an inner loop alternates cycle-subseries
//! smoothing (seasonal component) with Loess smoothing of the deseasonalized
//! series (trend component), and an optional outer loop downweights outliers
//! by robustness weights derived from the residuals.

use crate::descriptive;
use crate::error::{ensure_finite, ensure_len};
use crate::scratch::ScratchVec;
use crate::{Result, StatsError};
use std::cell::RefCell;
use std::rc::Rc;

/// A completed STL decomposition; all three components have the input length
/// and satisfy `data[i] = seasonal[i] + trend[i] + residual[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct StlDecomposition {
    /// The periodic component.
    pub seasonal: Vec<f64>,
    /// The low-frequency component.
    pub trend: Vec<f64>,
    /// What remains: `data - seasonal - trend`.
    pub residual: Vec<f64>,
}

impl StlDecomposition {
    /// The deseasonalized series, `trend + residual`.
    pub fn deseasonalized(&self) -> Vec<f64> {
        self.trend
            .iter()
            .zip(&self.residual)
            .map(|(t, r)| t + r)
            .collect()
    }
}

/// STL parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StlConfig {
    /// Seasonal period in samples (e.g. 24 for hourly data with a daily
    /// cycle). Must be at least 2.
    pub period: usize,
    /// Inner-loop iterations (2 suffices with robustness off).
    pub inner_iterations: usize,
    /// Outer robustness iterations (0 disables robustness weighting).
    pub outer_iterations: usize,
    /// Loess bandwidth for the trend as a fraction of the series length,
    /// in `(0, 1]`. Larger values give a smoother trend. Ignored when
    /// `trend_window` is set.
    pub trend_fraction: f64,
    /// Absolute trend Loess window in samples, overriding `trend_fraction`.
    /// The STL paper sizes the trend smoother from the *period* (`n_t` the
    /// smallest odd integer ≥ 1.5·`n_p`), not from the series length: a
    /// fraction-of-length window grows with `n` and both over-smooths and
    /// over-pays on long windows.
    pub trend_window: Option<usize>,
}

impl StlConfig {
    /// A reasonable default for a given period: the STL paper's non-robust
    /// recommendation — two inner iterations, no robustness passes
    /// (n_i = 2, n_o = 0), which converges for well-behaved loss — and the
    /// paper's trend bandwidth, the smallest odd window ≥ 1.5·`period`.
    /// Callers facing heavy outliers opt into robustness by raising
    /// `outer_iterations` explicitly; each pass re-runs the inner loop.
    pub fn for_period(period: usize) -> Self {
        StlConfig {
            period,
            inner_iterations: 2,
            outer_iterations: 0,
            trend_fraction: 0.25,
            trend_window: Some((3 * period).div_ceil(2) | 1),
        }
    }
}

/// Decomposes `data` into seasonal, trend, and residual components.
///
/// Requires at least two full periods of data.
///
/// # Examples
///
/// ```
/// use fbd_stats::stl::{decompose, StlConfig};
/// // A sine seasonal pattern on a slow upward trend.
/// let data: Vec<f64> = (0..96)
///     .map(|i| (i as f64 / 24.0 * std::f64::consts::TAU).sin() + 0.01 * i as f64)
///     .collect();
/// let d = decompose(&data, StlConfig::for_period(24)).unwrap();
/// // The components reconstruct the series exactly.
/// for i in 0..data.len() {
///     let sum = d.seasonal[i] + d.trend[i] + d.residual[i];
///     assert!((sum - data[i]).abs() < 1e-9);
/// }
/// ```
pub fn decompose(data: &[f64], config: StlConfig) -> Result<StlDecomposition> {
    decompose_with(data, config, loess_dispatch)
}

/// A Loess core: `(series, window, weights)` to the smoothed series, `None`
/// meaning all weights 1.0.
type LoessCore = fn(&[f64], usize, Option<&[f64]>) -> Vec<f64>;

/// [`decompose`] with the trend smoother named, so the tests can run the
/// same decomposition over the reference Loess.
fn decompose_with(data: &[f64], config: StlConfig, smooth: LoessCore) -> Result<StlDecomposition> {
    if config.period < 2 {
        return Err(StatsError::InvalidParameter("period must be at least 2"));
    }
    ensure_len(data, config.period * 2)?;
    ensure_finite(data)?;
    if config.trend_window.is_none()
        && !(config.trend_fraction > 0.0 && config.trend_fraction <= 1.0)
    {
        return Err(StatsError::InvalidParameter(
            "trend_fraction must be in (0, 1]",
        ));
    }
    let n = data.len();
    let trend_window = match config.trend_window {
        Some(w) => clamp_window(w, n),
        None => loess_window(n, config.trend_fraction),
    };
    let mut seasonal = vec![0.0; n];
    let mut trend = vec![0.0; n];
    let mut robustness = vec![1.0; n];
    // One pooled working buffer serves the detrend, deseasonalize, and
    // residual passes of every iteration.
    let mut work = ScratchVec::zeroed(n);
    let outer = config.outer_iterations + 1;
    for outer_pass in 0..outer {
        for _ in 0..config.inner_iterations.max(1) {
            // Step 1: detrend.
            for (w, (d, t)) in work.iter_mut().zip(data.iter().zip(&trend)) {
                *w = d - t;
            }
            // Step 2: cycle-subseries smoothing -> seasonal estimate.
            cycle_subseries_means(&work, config.period, &robustness, &mut seasonal);
            // Step 3: centre the seasonal component so it has zero mean over
            // each full period (keeps level in the trend, not the seasonal).
            center_seasonal(&mut seasonal, config.period);
            // Step 4: deseasonalize and smooth for the trend.
            for (w, (d, s)) in work.iter_mut().zip(data.iter().zip(&seasonal)) {
                *w = d - s;
            }
            ensure_finite(&work)?;
            trend = smooth(&work, trend_window, Some(&robustness));
        }
        // Outer loop: recompute robustness weights from residuals.
        if outer_pass + 1 < outer {
            for (w, i) in work.iter_mut().zip(0..n) {
                *w = data[i] - seasonal[i] - trend[i];
            }
            robustness = robustness_weights(&work)?;
        }
    }
    let residual: Vec<f64> = (0..n).map(|i| data[i] - seasonal[i] - trend[i]).collect();
    Ok(StlDecomposition {
        seasonal,
        trend,
        residual,
    })
}

/// Smooths each cycle subseries (all points at the same phase) with a
/// robustness-weighted mean, then broadcasts the smoothed value back.
fn cycle_subseries_means(data: &[f64], period: usize, weights: &[f64], out: &mut [f64]) {
    let mut phase_sum = ScratchVec::zeroed(period);
    let mut phase_weight = ScratchVec::zeroed(period);
    for (i, (&v, &w)) in data.iter().zip(weights).enumerate() {
        phase_sum[i % period] += v * w;
        phase_weight[i % period] += w;
    }
    for (s, w) in phase_sum.iter_mut().zip(phase_weight.iter()) {
        *s = if *w > 0.0 { *s / *w } else { 0.0 };
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = phase_sum[i % period];
    }
}

/// Removes the per-period mean from the seasonal component.
fn center_seasonal(seasonal: &mut [f64], period: usize) {
    if seasonal.len() < period {
        return;
    }
    let mean: f64 = seasonal[..period].iter().sum::<f64>() / period as f64;
    for v in seasonal.iter_mut() {
        *v -= mean;
    }
}

/// Loess smoothing with a tricube kernel and local linear regression.
///
/// `fraction` selects the bandwidth as a fraction of the series length.
/// `robustness` multiplies the kernel weights (all 1.0 disables it).
///
/// With all weights 1.0 every fitted value is one dot product of the data
/// with a fixed folded kernel (`n·window` multiply-adds); with robustness
/// weights it is the per-point local regression ([`loess_smooth_naive`]).
/// Either gives way to the FFT sliding-regression interior
/// ([`loess_smooth_fft`]) where `loess_fft_pays_off` says the transforms are
/// cheaper. The choice depends only on `(n, window, weights-all-one)`, so it
/// is deterministic; outputs of all paths agree to ~1e-9 relative error
/// (pinned by property tests).
pub fn loess_smooth(data: &[f64], fraction: f64, robustness: &[f64]) -> Result<Vec<f64>> {
    let window = loess_window(data.len().max(1), fraction);
    loess_smooth_windowed(data, window, robustness)
}

/// [`loess_smooth`] with an explicit window in samples instead of a
/// fraction of the series length (at least 3, at most `n`).
pub fn loess_smooth_windowed(data: &[f64], window: usize, robustness: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    if robustness.len() != data.len() {
        return Err(StatsError::InvalidParameter(
            "robustness weights length mismatch",
        ));
    }
    Ok(loess_dispatch(data, clamp_window(window, data.len()), Some(robustness)))
}

/// [`loess_smooth`] with all robustness weights equal to 1.0, without
/// allocating the weight vector. Produces bit-identical output to passing an
/// explicit all-ones slice.
pub fn loess_smooth_uniform(data: &[f64], fraction: f64) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let window = loess_window(data.len(), fraction);
    Ok(loess_dispatch(data, window, None))
}

/// Reference Loess via the per-point O(n·window) local regression.
///
/// Ground truth for the property tests pinning the folded kernels and
/// [`loess_smooth_fft`]; also what a smooth with robustness weights runs
/// below the FFT crossover.
pub fn loess_smooth_naive(data: &[f64], fraction: f64, robustness: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    if robustness.len() != data.len() {
        return Err(StatsError::InvalidParameter(
            "robustness weights length mismatch",
        ));
    }
    let window = loess_window(data.len(), fraction);
    Ok(loess_naive_core(data, window, Some(robustness)))
}

/// Loess with the FFT sliding-regression interior forced on (regardless of
/// the cost model). Public so tests and benches can pin it against
/// [`loess_smooth_naive`] directly.
pub fn loess_smooth_fft(data: &[f64], fraction: f64, robustness: &[f64]) -> Result<Vec<f64>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    if robustness.len() != data.len() {
        return Err(StatsError::InvalidParameter(
            "robustness weights length mismatch",
        ));
    }
    let window = loess_window(data.len(), fraction);
    Ok(loess_fft_core(data, window, Some(robustness)))
}

/// Tricube weight of a neighbour at relative distance `d` of the window's
/// farthest one.
fn tricube(d: f64) -> f64 {
    (1.0 - d.powi(3)).powi(3).max(0.0)
}

/// The window every Loess path gives an `n`-point series for a requested
/// one: at least 3 samples, at most the whole series (so a 2-point series
/// gets a 2-point window).
fn clamp_window(window: usize, n: usize) -> usize {
    window.max(3).min(n)
}

/// The window for a bandwidth given as a fraction of the series length.
fn loess_window(n: usize, fraction: f64) -> usize {
    clamp_window((fraction * n as f64).ceil() as usize, n)
}

/// Deterministic cost model for the Loess dispatch: whether the FFT
/// sliding-regression interior beats the direct one. The FFT path costs
/// `ffts` power-of-two transforms of length `m = n.next_power_of_two()`
/// (5 when the weights are uniform — two sliding correlations share the
/// signal spectrum and the weight moments are constants — and 12 otherwise)
/// against `interior·window` neighbour visits for the direct interior.
///
/// With robustness weights a visit updates the five running sums of the
/// per-point regression, and one `m·log m` unit of a transform costs about
/// two of them.
///
/// With uniform weights a visit is one multiply-add of the folded kernel.
/// The `kernel/loess_{folded,fft}` cases of `pipeline_stages.rs` put a
/// visit at ~0.15 ns (n = 4096, window 410: 245 µs for 1.5 M visits) and a
/// transform at ~1.8 ns per `m·log m` unit (that case's FFT takes 806 µs,
/// some 370 µs of it the per-point boundary; n = 900, window 37: 85 µs,
/// nearly all of it transforms), 12 visits per unit. Timing the two cores
/// against each other for n = 2048…65536 put the crossover at 13–18 visits
/// per unit, so 16 is used: the FFT takes over at window ≈ 1,540 for
/// n = 4096 and ≈ 1,220 for n = 8192 or 16384. At the benched sizes —
/// (900, 90), (900, 37), (4096, 410) — it is 8×, 17× and 3× slower than
/// the folded kernels.
fn loess_fft_pays_off(n: usize, window: usize, uniform: bool) -> bool {
    let interior = n.saturating_sub(window - 1);
    if interior < 2 || window < 8 {
        return false;
    }
    let m = n.next_power_of_two();
    let log_m = m.trailing_zeros() as usize;
    let (ffts, visits_per_unit) = if uniform { (5, 16) } else { (12, 2) };
    interior * window > visits_per_unit * ffts * m * log_m
}

/// Dispatching core: `robustness = None` means all weights are 1.0.
fn loess_dispatch(data: &[f64], window: usize, robustness: Option<&[f64]>) -> Vec<f64> {
    let n = data.len();
    let one = 1.0f64.to_bits();
    let uniform = robustness.is_none_or(|r| r.iter().all(|w| w.to_bits() == one));
    if loess_fft_pays_off(n, window, uniform) {
        loess_fft_core(data, window, robustness)
    } else if uniform {
        loess_folded_core(data, window, &folded_kernels(window))
    } else {
        loess_naive_core(data, window, robustness)
    }
}

/// Kernel sets a thread keeps. The detectors ask for the fallback trend's
/// window (`ceil(0.1·n)`, one or two values per fleet) and STL's
/// `(3p/2)|1` for p ≤ 30 (22 values), so 32 holds a scan's working set.
const KERNEL_TABLE_SETS: usize = 32;

/// `f64`s a thread's kernel table may hold (1 MiB). A set is
/// `(window/2 + 1)·window` values — 33 KiB at window 90, 9 KiB at 47 — so
/// every window up to 510 can be kept; a larger one is built per call.
const KERNEL_TABLE_F64S: usize = 1 << 17;

/// The thread's folded kernel sets by window, most recently used first.
struct KernelTable {
    sets: Vec<(usize, Rc<[f64]>)>,
}

thread_local! {
    static KERNEL_TABLE: RefCell<KernelTable> =
        const { RefCell::new(KernelTable { sets: Vec::new() }) };
}

impl KernelTable {
    fn held_f64s(&self) -> usize {
        self.sets.iter().map(|(_, k)| k.len()).sum()
    }

    /// The kernel set for `window`, built on a miss; least recently used
    /// sets are evicted to stay inside both bounds. A set is a pure
    /// function of `window`, so what a thread smoothed before cannot
    /// change a result — only whether this call pays for the build.
    fn get(&mut self, window: usize) -> Rc<[f64]> {
        if let Some(at) = self.sets.iter().position(|(w, _)| *w == window) {
            self.sets[..=at].rotate_right(1);
            return Rc::clone(&self.sets[0].1);
        }
        let kernels = build_folded_kernels(window);
        if kernels.len() <= KERNEL_TABLE_F64S {
            while self.sets.len() >= KERNEL_TABLE_SETS
                || self.held_f64s() + kernels.len() > KERNEL_TABLE_F64S
            {
                self.sets.pop();
            }
            self.sets.insert(0, (window, Rc::clone(&kernels)));
        }
        kernels
    }
}

/// The folded kernel set for `window` from the thread's [`KernelTable`].
fn folded_kernels(window: usize) -> Rc<[f64]> {
    KERNEL_TABLE.with(|t| t.borrow_mut().get(window))
}

/// Every fixed kernel a uniform-weight Loess of this `window` needs, as
/// `window/2 + 1` rows of `window` values: row 0 is the interior kernel
/// (evaluation point at offset `window/2`), row `1 + c` the kernel of the
/// boundary point at offset `c` from the series' left end. A boundary
/// point at offset `c` from the right end uses row `1 + c` against the
/// reversed data, the same fit mirrored.
fn build_folded_kernels(window: usize) -> Rc<[f64]> {
    let half = window / 2;
    let mut kernels = vec![0.0; (half + 1) * window];
    let offsets = std::iter::once(half).chain(0..half);
    for (row, c) in kernels.chunks_exact_mut(window).zip(offsets) {
        fold_kernel(row, c);
    }
    kernels.into()
}

/// Writes the kernel that maps a window of samples to the local-linear
/// tricube fit at offset `c` of that window. In coordinates centred on
/// `c` (`u = k − c`) the fitted value is the intercept of the weighted
/// regression, `(S2·Σ tri·y − S1·Σ tri·u·y) / (S0·S2 − S1²)` with
/// `Sp = Σ tri·uᵖ`, which is linear in `y`: the moments fold into the
/// weights as `tri_k·(S2 − S1·u_k) / (S0·S2 − S1²)`. A singular fit (all
/// weight on one abscissa) falls back to the weighted mean, as the
/// per-point regression does.
fn fold_kernel(kernel: &mut [f64], c: usize) {
    let max_dist = c.max(kernel.len() - 1 - c).max(1) as f64;
    let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
    for (k, t) in kernel.iter_mut().enumerate() {
        let u = k as f64 - c as f64;
        let d = u.abs() / max_dist;
        *t = tricube(d);
        s0 += *t;
        s1 += *t * u;
        s2 += *t * u * u;
    }
    // `s0 ≥ 1`: the weight at `c` itself is 1.
    let denom = s0 * s2 - s1 * s1;
    let singular = denom.abs() < 1e-12;
    for (k, t) in kernel.iter_mut().enumerate() {
        let u = k as f64 - c as f64;
        *t *= if singular { 1.0 / s0 } else { (s2 - s1 * u) / denom };
    }
}

/// Uniform-weight Loess: one dot product per point with the fixed kernels
/// of [`build_folded_kernels`].
// fbd-lint::hot
fn loess_folded_core(data: &[f64], window: usize, kernels: &[f64]) -> Vec<f64> {
    let n = data.len();
    let half = window / 2;
    let (interior, edges) = kernels.split_at(window);
    let mut smoothed = Vec::with_capacity(n);
    // Left boundary: the window is pinned at the series' start and the
    // evaluation point walks through its first half.
    let head = &data[..window];
    smoothed.extend(edges.chunks_exact(window).map(|kernel| dot(kernel, head)));
    // Interior: the window slides with the point.
    slide(interior, data, &mut smoothed);
    // Right boundary: the left one mirrored, nearest the interior first.
    let mut tail = ScratchVec::with_capacity(window);
    tail.extend(data[n - window..].iter().rev());
    let mirrored = edges.chunks_exact(window).take(window - half - 1).rev();
    smoothed.extend(mirrored.map(|kernel| dot(kernel, &tail)));
    smoothed
}

/// Appends the dot product of `kernel` with every `kernel.len()`-sample
/// window of `data`, each summed in kernel order. Sixteen neighbouring
/// windows advance together so one kernel load serves sixteen sums; the last
/// block is aligned to the end and recomputes what it overlaps, which
/// leaves every sum the same whatever the block it fell in.
// fbd-lint::hot
fn slide(kernel: &[f64], data: &[f64], out: &mut Vec<f64>) {
    const BLOCK: usize = 16;
    let count = data.len() + 1 - kernel.len();
    if count < BLOCK {
        let sums = data.windows(kernel.len());
        out.extend(sums.map(|w| kernel.iter().zip(w).map(|(k, s)| k * s).sum::<f64>()));
        return;
    }
    let mut start = 0;
    while start < count {
        let at = start.min(count - BLOCK);
        let mut acc = [0.0f64; BLOCK];
        for (k, samples) in kernel.iter().zip(data[at..].windows(BLOCK)) {
            for (a, s) in acc.iter_mut().zip(samples) {
                *a += k * s;
            }
        }
        out.extend_from_slice(&acc[start - at..]);
        start = at + BLOCK;
    }
}

/// Dot product over equal-length slices in eight interleaved partial sums,
/// so the additions of neighbouring terms do not wait on each other. The
/// summation order is fixed by the length alone.
// fbd-lint::hot
fn dot(kernel: &[f64], samples: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut kernel_chunks = kernel.chunks_exact(8);
    let mut sample_chunks = samples.chunks_exact(8);
    for (k, s) in (&mut kernel_chunks).zip(&mut sample_chunks) {
        for lane in 0..8 {
            acc[lane] += k[lane] * s[lane];
        }
    }
    let rest = kernel_chunks.remainder().iter().zip(sample_chunks.remainder());
    let rest: f64 = rest.map(|(k, s)| k * s).sum();
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + rest
}

/// The per-point local-regression Loess (previous implementation, kept
/// verbatim modulo the optional weights).
fn loess_naive_core(data: &[f64], window: usize, robustness: Option<&[f64]>) -> Vec<f64> {
    let n = data.len();
    let half = window / 2;
    // The tricube weight of neighbor `j` for point `i` depends only on the
    // offset `j - i` and the window's `max_dist`. Away from the boundaries
    // both are the same for every `i`, so the kernel is computed once and
    // reused; only the `2·half` edge points pay per-point kernel evaluation.
    // The table holds the exact same values the inline expression produced,
    // so the smoothed output is bit-identical.
    let interior_center = half;
    let interior_max_dist = half.max(window - 1 - half).max(1) as f64;
    let mut interior_tri = ScratchVec::with_capacity(window);
    interior_tri.extend((0..window).map(|k| {
        let d = (k as f64 - interior_center as f64).abs() / interior_max_dist;
        tricube(d)
    }));
    let mut edge_tri = ScratchVec::zeroed(window);
    let mut smoothed = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // The window is index-driven.
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (lo + window).min(n);
        let lo = hi.saturating_sub(window);
        let center = i - lo;
        let max_dist = (center.max(hi - 1 - i)).max(1) as f64;
        // Bit equality is the intent: the cached interior kernel is reused
        // only when it would be recomputed to the exact same weights.
        let reuse = center == interior_center && max_dist.to_bits() == interior_max_dist.to_bits();
        let tri: &[f64] = if reuse {
            &interior_tri
        } else {
            for (k, t) in edge_tri[..hi - lo].iter_mut().enumerate() {
                let d = (k as f64 - center as f64).abs() / max_dist;
                *t = tricube(d);
            }
            &edge_tri
        };
        smoothed.push(loess_fit_window(data, robustness, tri, lo, hi, i));
    }
    smoothed
}

/// Weighted local-linear fit of `data[lo..hi]` evaluated at `i`, in absolute
/// x-coordinates — the exact arithmetic of the original per-point loop.
fn loess_fit_window(
    data: &[f64],
    robustness: Option<&[f64]>,
    tri: &[f64],
    lo: usize,
    hi: usize,
    i: usize,
) -> f64 {
    let mut sw = 0.0;
    let mut swx = 0.0;
    let mut swy = 0.0;
    let mut swxx = 0.0;
    let mut swxy = 0.0;
    for (k, j) in (lo..hi).enumerate() {
        // Multiplying by an explicit 1.0 when no weights are supplied keeps
        // the float ops (and therefore the bits) identical to the weighted
        // form with an all-ones slice.
        let w = tri[k] * robustness.map_or(1.0, |r| r[j]);
        let x = j as f64;
        sw += w;
        swx += w * x;
        swy += w * data[j];
        swxx += w * x * x;
        swxy += w * x * data[j];
    }
    let denom = sw * swxx - swx * swx;
    if denom.abs() < 1e-12 || !(sw > 0.0) {
        if sw > 0.0 {
            swy / sw
        } else {
            data[i]
        }
    } else {
        let slope = (sw * swxy - swx * swy) / denom;
        let intercept = (swy - slope * swx) / sw;
        intercept + slope * i as f64
    }
}

/// One boundary point evaluated like the naive path (per-point edge kernel,
/// absolute coordinates), with the kernel and fit fused into a single
/// allocation-free pass. The reciprocal of `max_dist` is hoisted out of the
/// loop, so the tricube weights can differ from the naive division form by
/// an ulp — well inside the 1e-9 pin the fast path is held to.
fn loess_point_naive(
    data: &[f64],
    robustness: Option<&[f64]>,
    i: usize,
    window: usize,
    half: usize,
) -> f64 {
    let n = data.len();
    let lo = i.saturating_sub(half);
    let hi = (lo + window).min(n);
    let lo = hi.saturating_sub(window);
    let center = (i - lo) as f64;
    let inv_dist = 1.0 / ((i - lo).max(hi - 1 - i).max(1)) as f64;
    let mut sw = 0.0;
    let mut swx = 0.0;
    let mut swy = 0.0;
    let mut swxx = 0.0;
    let mut swxy = 0.0;
    match robustness {
        None => {
            for (k, j) in (lo..hi).enumerate() {
                let d = (k as f64 - center).abs() * inv_dist;
                // Multiplying by an explicit 1.0 keeps the float ops
                // identical to the weighted form with an all-ones slice.
                let w = tricube(d) * 1.0;
                let x = j as f64;
                sw += w;
                swx += w * x;
                swy += w * data[j];
                swxx += w * x * x;
                swxy += w * x * data[j];
            }
        }
        Some(r) => {
            for (k, j) in (lo..hi).enumerate() {
                let d = (k as f64 - center).abs() * inv_dist;
                let w = tricube(d) * r[j];
                let x = j as f64;
                sw += w;
                swx += w * x;
                swy += w * data[j];
                swxx += w * x * x;
                swxy += w * x * data[j];
            }
        }
    }
    let denom = sw * swxx - swx * swx;
    if denom.abs() < 1e-12 || !(sw > 0.0) {
        if sw > 0.0 {
            swy / sw
        } else {
            data[i]
        }
    } else {
        let slope = (sw * swxy - swx * swy) / denom;
        let intercept = (swy - slope * swx) / sw;
        intercept + slope * i as f64
    }
}

/// FFT sliding-regression Loess core.
///
/// Away from the boundaries the tricube kernel is shift-invariant, so in
/// window-centered coordinates `u = k − half` the five regression sums for
/// every interior point are sliding dot products of fixed kernels
/// (`tri·u^p`, p ∈ {0,1,2}) against the signal (and, with robustness
/// weights, against `r` and `r·y`). Those are batch-evaluated with FFT
/// cross-correlations ([`crate::fourier::sliding_dots`]): 2 correlations
/// when the weights are uniform (the weight moments are constants of the
/// kernel), 5 otherwise. The fit is solved in centered coordinates, where
/// the normal equations are far better conditioned than the absolute-x form
/// (the value at the center is simply the centered intercept). Boundary
/// points keep the exact per-point naive evaluation.
fn loess_fft_core(data: &[f64], window: usize, robustness: Option<&[f64]>) -> Vec<f64> {
    let n = data.len();
    let half = window / 2;
    let interior_max_dist = half.max(window - 1 - half).max(1) as f64;
    let mut tri = ScratchVec::with_capacity(window);
    tri.extend((0..window).map(|k| {
        let d = (k as f64 - half as f64).abs() / interior_max_dist;
        tricube(d)
    }));
    let mut k1 = ScratchVec::with_capacity(window);
    k1.extend(tri.iter().enumerate().map(|(k, &t)| t * (k as f64 - half as f64)));
    let mut k2 = ScratchVec::with_capacity(window);
    k2.extend(k1.iter().enumerate().map(|(k, &t)| t * (k as f64 - half as f64)));
    let one = 1.0f64.to_bits();
    let uniform = robustness.is_none_or(|r| r.iter().all(|w| w.to_bits() == one));
    // Interior points i ∈ [half, n − window + half]: window start j = i −
    // half runs over 0..=n − window, exactly the alignments sliding_dots
    // produces.
    let first = half;
    let last = n - window + half;
    let mut smoothed = vec![0.0; n];
    for i in (0..first).chain(last + 1..n) {
        smoothed[i] = loess_point_naive(data, robustness, i, window, half);
    }
    let fit = |sw: f64, swu: f64, swuu: f64, swy: f64, swuy: f64, y_i: f64| -> f64 {
        let denom = sw * swuu - swu * swu;
        if denom.abs() < 1e-12 || !(sw > 0.0) {
            if sw > 0.0 {
                swy / sw
            } else {
                y_i
            }
        } else {
            let slope = (sw * swuy - swu * swy) / denom;
            (swy - slope * swu) / sw
        }
    };
    if uniform {
        let sw: f64 = tri.iter().sum();
        let swu: f64 = k1.iter().sum();
        let swuu: f64 = k2.iter().sum();
        let dots = crate::fourier::sliding_dots(data, &[&tri, &k1]);
        for (j, (&swy, &swuy)) in dots[0].iter().zip(&dots[1]).enumerate() {
            let i = j + half;
            smoothed[i] = fit(sw, swu, swuu, swy, swuy, data[i]);
        }
    } else {
        let r = robustness.unwrap_or(&[]);
        let mut ry = ScratchVec::with_capacity(n);
        ry.extend(r.iter().zip(data).map(|(w, y)| w * y));
        let dots_r = crate::fourier::sliding_dots(r, &[&tri, &k1, &k2]);
        let dots_ry = crate::fourier::sliding_dots(&ry, &[&tri, &k1]);
        for j in 0..=n - window {
            let i = j + half;
            smoothed[i] = fit(
                dots_r[0][j],
                dots_r[1][j],
                dots_r[2][j],
                dots_ry[0][j],
                dots_ry[1][j],
                data[i],
            );
        }
    }
    smoothed
}

/// Bisquare robustness weights from residuals: `(1 - (|r|/6·MAD)²)²`,
/// clamped to zero outside.
fn robustness_weights(residual: &[f64]) -> Result<Vec<f64>> {
    let mut abs = ScratchVec::with_capacity(residual.len());
    abs.extend(residual.iter().map(|r| r.abs()));
    let s = descriptive::median(&abs)?.max(1e-12) * 6.0;
    Ok(residual
        .iter()
        .map(|r| {
            let u = (r.abs() / s).min(1.0);
            (1.0 - u * u).powi(2)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_series(n: usize, period: usize, amp: f64, trend_per_step: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                amp * (i as f64 / period as f64 * std::f64::consts::TAU).sin()
                    + trend_per_step * i as f64
            })
            .collect()
    }

    #[test]
    fn components_sum_to_input() {
        let data = seasonal_series(120, 24, 2.0, 0.05);
        let d = decompose(&data, StlConfig::for_period(24)).unwrap();
        #[allow(clippy::needless_range_loop)]
        for i in 0..data.len() {
            let sum = d.seasonal[i] + d.trend[i] + d.residual[i];
            assert!((sum - data[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn recovers_seasonal_amplitude() {
        let data = seasonal_series(240, 24, 3.0, 0.0);
        let d = decompose(&data, StlConfig::for_period(24)).unwrap();
        let max_seasonal = d.seasonal.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (max_seasonal - 3.0).abs() < 0.5,
            "max seasonal = {max_seasonal}"
        );
    }

    #[test]
    fn trend_follows_linear_drift() {
        let data = seasonal_series(240, 24, 1.0, 0.1);
        let d = decompose(&data, StlConfig::for_period(24)).unwrap();
        // The trend at the end should be about 0.1 * 239 = 23.9, within loess
        // edge-effect tolerance.
        let end_trend = *d.trend.last().unwrap();
        assert!((end_trend - 23.9).abs() < 3.0, "end trend = {end_trend}");
        // And the trend should be increasing overall.
        assert!(d.trend.last().unwrap() > &(d.trend[0] + 15.0));
    }

    #[test]
    fn deseasonalized_removes_cycle() {
        let data = seasonal_series(240, 24, 5.0, 0.0);
        let d = decompose(&data, StlConfig::for_period(24)).unwrap();
        let des = d.deseasonalized();
        let spread = des.iter().cloned().fold(f64::MIN, f64::max)
            - des.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 2.0, "deseasonalized spread = {spread}");
    }

    #[test]
    fn step_survives_into_deseasonalized() {
        // A seasonal pattern with a mid-series +2 step: the step must land in
        // trend+residual, not be absorbed by the seasonal component.
        let mut data = seasonal_series(240, 24, 1.0, 0.0);
        for v in data.iter_mut().skip(120) {
            *v += 2.0;
        }
        let d = decompose(&data, StlConfig::for_period(24)).unwrap();
        let des = d.deseasonalized();
        let before: f64 = des[..100].iter().sum::<f64>() / 100.0;
        let after: f64 = des[140..].iter().sum::<f64>() / (des.len() - 140) as f64;
        assert!(
            (after - before - 2.0).abs() < 0.5,
            "shift = {}",
            after - before
        );
    }

    #[test]
    fn robustness_downweights_outlier() {
        let mut data = seasonal_series(240, 24, 1.0, 0.0);
        data[100] += 50.0;
        let cfg = StlConfig {
            outer_iterations: 2,
            ..StlConfig::for_period(24)
        };
        let d = decompose(&data, cfg).unwrap();
        // The spike should be in the residual, not smeared into the trend.
        assert!(d.residual[100] > 30.0);
        assert!(d.trend[100] < 10.0);
    }

    #[test]
    fn rejects_short_series_and_bad_period() {
        let data = vec![1.0; 10];
        assert!(decompose(&data, StlConfig::for_period(24)).is_err());
        assert!(decompose(&data, StlConfig::for_period(1)).is_err());
    }

    #[test]
    fn loess_reproduces_line() {
        let data: Vec<f64> = (0..50).map(|i| 2.0 + 0.3 * i as f64).collect();
        let w = vec![1.0; 50];
        let s = loess_smooth(&data, 0.3, &w).unwrap();
        for (a, b) in s.iter().zip(&data) {
            assert!((a - b).abs() < 1e-6);
        }
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
    fn fft_loess_matches_naive_uniform_weights() {
        for &(n, fraction) in &[(64usize, 0.3f64), (240, 0.25), (900, 0.3), (900, 0.25)] {
            let data = pseudo_series(n, n as u64);
            let w = vec![1.0; n];
            let fast = loess_smooth_fft(&data, fraction, &w).unwrap();
            let slow = loess_smooth_naive(&data, fraction, &w).unwrap();
            let scale = data.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (f - s).abs() < 1e-9 * scale,
                    "n={n} frac={fraction} i={i}: {f} vs {s}"
                );
            }
        }
    }

    #[test]
    fn fft_loess_matches_naive_robustness_weights() {
        let n = 300;
        let data = pseudo_series(n, 11);
        let w: Vec<f64> = (0..n).map(|i| 0.25 + 0.75 * ((i % 7) as f64 / 7.0)).collect();
        let fast = loess_smooth_fft(&data, 0.3, &w).unwrap();
        let slow = loess_smooth_naive(&data, 0.3, &w).unwrap();
        let scale = data.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!((f - s).abs() < 1e-9 * scale, "i={i}: {f} vs {s}");
        }
    }

    #[test]
    fn loess_uniform_matches_explicit_ones() {
        // Short series: the dispatcher picks the naive path, which must be
        // bit-identical with and without the explicit all-ones slice.
        let data = pseudo_series(120, 5);
        let ones = vec![1.0; 120];
        let explicit = loess_smooth(&data, 0.3, &ones).unwrap();
        let implicit = loess_smooth_uniform(&data, 0.3).unwrap();
        for (a, b) in explicit.iter().zip(&implicit) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn loess_dispatch_is_deterministic_and_close_to_naive() {
        // The detectors' regime stays on the folded kernels; a window of
        // half of 4096 samples is past the FFT crossover.
        assert!(!super::loess_fft_pays_off(900, 90, true));
        assert!(!super::loess_fft_pays_off(900, 270, true));
        assert!(!super::loess_fft_pays_off(900, 270, false));
        assert!(super::loess_fft_pays_off(4096, 2048, true));
        for (n, fraction) in [(900, 0.1), (4096, 0.5)] {
            let data = pseudo_series(n, 23);
            let ones = vec![1.0; n];
            let a = loess_smooth(&data, fraction, &ones).unwrap();
            let b = loess_smooth(&data, fraction, &ones).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            let slow = loess_smooth_naive(&data, fraction, &ones).unwrap();
            let scale = data.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
            for (x, s) in a.iter().zip(&slow) {
                assert!((x - s).abs() < 1e-9 * scale);
            }
        }
    }

    #[test]
    fn two_point_series_smooths_to_itself() {
        // The 3-sample minimum window must not outgrow the series.
        let data = [1.0, 2.0];
        assert_eq!(loess_smooth_uniform(&data, 0.5).unwrap(), data);
        assert_eq!(loess_smooth_windowed(&data, 7, &[1.0, 1.0]).unwrap(), data);
        assert_eq!(loess_smooth_naive(&data, 0.5, &[1.0, 1.0]).unwrap(), data);
    }

    fn table_size() -> (usize, usize) {
        KERNEL_TABLE.with(|t| {
            let t = t.borrow();
            (t.sets.len(), t.held_f64s())
        })
    }

    #[test]
    fn kernel_table_is_bounded_and_cannot_change_a_result() {
        let data = pseudo_series(900, 41);
        let smooth_all = |data: &[f64]| -> Vec<u64> {
            let windows = [90, 37, 3, 900, 4, 511];
            let smooths = windows.iter().flat_map(|&w| loess_dispatch(data, w, None));
            smooths.map(f64::to_bits).collect()
        };
        let fresh = {
            let data = data.clone();
            std::thread::spawn(move || smooth_all(&data)).join().unwrap()
        };
        // Cycle this thread's table through more windows than it holds, and
        // through sets that only fit after evicting most of the others.
        for window in (3..3 + 3 * KERNEL_TABLE_SETS).chain([509, 510, 800, 508]) {
            loess_dispatch(&data, window, None);
            let (sets, held) = table_size();
            assert!(sets <= KERNEL_TABLE_SETS && held <= KERNEL_TABLE_F64S, "{sets} sets, {held} f64s");
        }
        // 509, 510 and 508 each nearly fill the table and 800 is never kept.
        assert_eq!(table_size().0, 1);
        assert_eq!(smooth_all(&data), fresh);
    }

    #[test]
    fn stl_trend_matches_the_reference_loess() {
        for period in [2, 7, 24, 30] {
            let data: Vec<f64> = seasonal_series(900, period, 2.0, 0.01)
                .iter()
                .zip(pseudo_series(900, period as u64))
                .map(|(s, noise)| s + 0.1 * noise)
                .collect();
            let config = StlConfig::for_period(period);
            let folded = decompose(&data, config).unwrap();
            let reference = decompose_with(&data, config, loess_naive_core).unwrap();
            let scale = data.iter().fold(1.0f64, |a, v| a.max(v.abs()));
            for (i, (f, r)) in folded.trend.iter().zip(&reference.trend).enumerate() {
                assert!((f - r).abs() <= 1e-9 * scale, "p={period} i={i}: {f} vs {r}");
            }
        }
    }
}

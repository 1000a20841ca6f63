//! The FFT/MASS min-distance kernel behind [`crate::DistCache`].
//!
//! A [`SeriesPlan`] holds one forward FFT of a series at a size covering
//! *every* admissible query length (`next_power_of_two(2n − 1)` ≥
//! `n + m − 1` for all `m ≤ n`), and derives a query's sliding dot
//! products from that one spectrum with a forward and an inverse
//! transform of the reversed query:
//!
//! * [`Metric::ZNormEuclidean`] — MASS: dots + rolling window statistics
//!   feed [`znorm_dist_from_dot`], which owns the zero-variance convention.
//! * [`Metric::MeanSquared`] — the paper's Definition 4 via the identity
//!   `Σ(q−w)² = Σq² − 2·dot + Σw²`, with `Σw²` from a prefix-sum table.
//!
//! The cache chooses between this kernel and the naive early-abandoning
//! loops per request ([`KernelPolicy`]); the crossover lives in
//! `kernel_profitable`.

use crate::euclid::{min_dist_znorm_prepared, znorm_dist_from_dot};
use crate::fft::{Complex, Fft};
use crate::metric::Metric;
use crate::rolling::RollingStats;

/// How the distance cache chooses between the FFT kernel and the naive
/// early-abandoning loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Cost-model crossover: kernel for long queries over long series,
    /// naive otherwise. The default.
    #[default]
    Auto,
    /// Always the FFT kernel (used by the equivalence proptests, which pin
    /// the kernel against the naive reference even at tiny sizes).
    ForceKernel,
    /// Always the naive loop (the cache then only shares window
    /// statistics through its series plans).
    ForceNaive,
}

/// Position of the first non-finite value, if any.
#[inline]
pub(crate) fn first_non_finite(xs: &[f64]) -> Option<usize> {
    xs.iter().position(|x| !x.is_finite())
}

/// Crossover estimate in rough multiply units for one query against a
/// series whose spectrum is already planned: the query pays a forward and
/// an inverse full-size transform.
///
/// The naive loops differ sharply per metric. The raw-metric loop early
/// abandons, capping its effective cost near a constant per window — an
/// O(n) loop the O(n log n) kernel never overtakes at *any* length
/// (`bench_kernel` measures the forced kernel at a fraction of naive
/// across the whole grid), so `MeanSquared` always stays naive under
/// `Auto`. The z-norm loop computes every full dot product; the constant
/// 1.7 per transform was fitted against `bench_kernel` after that loop's
/// 4-lane unrolling.
///
/// The constant **predates the fused two-window naive z-norm loop over
/// prepared statistics**, which made the naive side 1.4–2.1× faster, so
/// the model now picks the kernel in cells where the naive loop is faster
/// (`results/BENCH_kernel.json` records where). It is left as is on
/// purpose — moving the crossover changes which path serves a request,
/// and so changes distance bits.
pub(crate) fn kernel_profitable(metric: Metric, m: usize, n: usize) -> bool {
    if m < 16 || n < 128 {
        return false;
    }
    let windows = (n - m + 1) as f64;
    let naive = match metric {
        Metric::ZNormEuclidean => m as f64 * windows,
        Metric::MeanSquared => return false,
    };
    let nf = fft_size(n) as f64;
    let kernel = 2.0 * 1.7 * nf * nf.log2() + 6.0 * n as f64;
    naive > kernel
}

/// The power-of-two transform size for a length-`n` series: at least
/// `2n − 1`, so the linear convolution with every query length `m ≤ n`
/// fits.
fn fft_size(n: usize) -> usize {
    (2 * n).saturating_sub(1).max(1).next_power_of_two()
}

/// Per-series distance state shared by the FFT kernel and the naive
/// z-norm loop: per-window-length rolling statistics (read by both paths),
/// the padded spectrum (kernel only), and a prefix-sum table of squares
/// (the `MeanSquared` kernel only). Everything is built lazily on first
/// use, so planning a series that is probed once costs nothing extra. The
/// plan does **not** own the series; callers pass the same values to every
/// method (the distance cache guarantees this by keying plans on a content
/// hash).
#[derive(Debug, Clone)]
pub(crate) struct SeriesPlan {
    n: usize,
    fft_size: usize,
    spectrum: Option<Vec<Complex>>,
    /// `(window, stats)` pairs; query-length diversity is small (one per
    /// length ratio), so a linear scan beats a map.
    stats: Vec<(usize, RollingStats)>,
    /// `sq_prefix[j] = Σ_{i<j} series[i]²`, so `Σ series[j..j+m]²` is one
    /// subtraction.
    sq_prefix: Option<Vec<f64>>,
}

impl SeriesPlan {
    /// Plans for `series`. O(1): the statistics, the prefix table and the
    /// FFT are deferred until an evaluation actually needs them.
    pub(crate) fn new(series: &[f64]) -> Self {
        Self {
            n: series.len(),
            fft_size: fft_size(series.len()),
            spectrum: None,
            stats: Vec::new(),
            sq_prefix: None,
        }
    }

    /// The power-of-two transform size shared by every query length.
    #[inline]
    pub(crate) fn fft_size(&self) -> usize {
        self.fft_size
    }

    fn ensure_spectrum(&mut self, fft: &Fft, series: &[f64]) {
        debug_assert_eq!(series.len(), self.n);
        debug_assert_eq!(fft.len(), self.fft_size);
        if self.spectrum.is_none() {
            let mut buf: Vec<Complex> = series.iter().map(|&x| Complex::new(x, 0.0)).collect();
            buf.resize(self.fft_size, Complex::default());
            fft.forward(&mut buf);
            self.spectrum = Some(buf);
        }
    }

    fn stats_for(&mut self, series: &[f64], m: usize) -> &RollingStats {
        debug_assert_eq!(series.len(), self.n);
        if let Some(i) = self.stats.iter().position(|(w, _)| *w == m) {
            return &self.stats[i].1;
        }
        self.stats.push((m, RollingStats::new(series, m)));
        &self.stats.last().unwrap().1
    }

    fn ensure_sq_prefix(&mut self, series: &[f64]) -> &[f64] {
        debug_assert_eq!(series.len(), self.n);
        self.sq_prefix.get_or_insert_with(|| {
            let mut sq_prefix = Vec::with_capacity(series.len() + 1);
            let mut acc = 0.0;
            sq_prefix.push(0.0);
            for &x in series {
                acc += x * x;
                sq_prefix.push(acc);
            }
            sq_prefix
        })
    }

    /// Naive z-normalized min-distance of one already-oriented query
    /// (`q.len() ≤ n`, both non-empty) against the planned series: the
    /// fused loop of [`crate::sliding_min_dist_znorm`] over this plan's
    /// statistics for `query.len()`, so many queries of one length share
    /// one statistics pass. Bit-identical to the unplanned call.
    pub(crate) fn min_dist_znorm_naive(&mut self, series: &[f64], query: &[f64]) -> (f64, usize) {
        min_dist_znorm_prepared(query, series, self.stats_for(series, query.len()))
    }

    /// Sliding dot products `dot(query, series[j..j+m])` for every window
    /// `j`: `IFFT(FFT(rev(q)) · S)` is `conv(series, rev(q))`, whose
    /// aligned entries sit at offsets `m − 1 .. n − 1`.
    fn dots(&mut self, fft: &Fft, series: &[f64], query: &[f64]) -> Vec<f64> {
        self.ensure_spectrum(fft, series);
        let spectrum = self.spectrum.as_ref().expect("spectrum just built");
        let mut buf = vec![Complex::default(); self.fft_size];
        for (i, &x) in query.iter().rev().enumerate() {
            buf[i].re = x;
        }
        fft.forward(&mut buf);
        for (x, s) in buf.iter_mut().zip(spectrum) {
            *x = Complex::new(x.re * s.re - x.im * s.im, x.re * s.im + x.im * s.re);
        }
        fft.inverse(&mut buf);
        buf[query.len() - 1..self.n].iter().map(|c| c.re).collect()
    }

    /// Kernel min-distance of one already-oriented query (`q.len() ≤ n`,
    /// both non-empty) against the planned series. Same return convention
    /// as [`crate::sliding_min_dist`] / [`crate::sliding_min_dist_znorm`].
    pub(crate) fn min_dist_one(
        &mut self,
        fft: &Fft,
        series: &[f64],
        query: &[f64],
        metric: Metric,
    ) -> (f64, usize) {
        let dots = self.dots(fft, series, query);
        self.min_from_dots(series, query, &dots, metric)
    }

    fn min_from_dots(
        &mut self,
        series: &[f64],
        query: &[f64],
        dots: &[f64],
        metric: Metric,
    ) -> (f64, usize) {
        let m = query.len();
        match metric {
            Metric::MeanSquared => {
                let q_sq: f64 = query.iter().map(|x| x * x).sum();
                let sq_prefix = self.ensure_sq_prefix(series);
                let mut best = f64::INFINITY;
                let mut best_at = 0;
                for (j, &dot) in dots.iter().enumerate() {
                    let window_sq = sq_prefix[j + m] - sq_prefix[j];
                    let d = (q_sq - 2.0 * dot + window_sq) / m as f64;
                    // A NaN input poisons the convolution; skip the window
                    // exactly like the naive loop's strict `<` does instead
                    // of letting `max(NaN, 0.0)` collapse it to a perfect
                    // match.
                    if !d.is_finite() {
                        continue;
                    }
                    // the FFT identity can dip epsilon-negative; the naive
                    // sum of squares never does
                    let d = d.max(0.0);
                    if d < best {
                        best = d;
                        best_at = j;
                    }
                }
                (best, best_at)
            }
            Metric::ZNormEuclidean => {
                let mu_q = query.iter().sum::<f64>() / m as f64;
                let sd_q =
                    (query.iter().map(|x| (x - mu_q) * (x - mu_q)).sum::<f64>() / m as f64).sqrt();
                let stats = self.stats_for(series, m);
                let mut best = f64::INFINITY;
                let mut best_at = 0;
                for (j, &dot) in dots.iter().enumerate() {
                    let d = znorm_dist_from_dot(dot, m, mu_q, sd_q, stats.mean(j), stats.std(j));
                    if d < best {
                        best = d;
                        best_at = j;
                    }
                }
                // same scale conversion as `sliding_min_dist_znorm`
                if best.is_finite() {
                    (best * best / m as f64, best_at)
                } else {
                    (f64::INFINITY, 0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclid::{sliding_min_dist, sliding_min_dist_znorm};
    use crate::DistCache;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    fn naive_min_dist(query: &[f64], series: &[f64], metric: Metric) -> (f64, usize) {
        match metric {
            Metric::MeanSquared => sliding_min_dist(query, series),
            Metric::ZNormEuclidean => sliding_min_dist_znorm(query, series),
        }
    }

    /// One request through a fresh cache, as every production caller
    /// reaches the kernel.
    fn cached(policy: KernelPolicy, q: &[f64], s: &[f64], metric: Metric) -> (f64, usize) {
        DistCache::with_policy(policy).min_dist(q, s, metric)
    }

    #[test]
    fn kernel_matches_naive_on_both_metrics() {
        let s = series(200);
        // two windows of the series (distance 0) and a query that occurs
        // nowhere in it
        let elsewhere: Vec<f64> = (0..40).map(|i| (i as f64 * 0.9).cos()).collect();
        let queries: Vec<Vec<f64>> = vec![s[20..52].to_vec(), s[100..117].to_vec(), elsewhere];
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            for (i, q) in queries.iter().enumerate() {
                let fast = cached(KernelPolicy::ForceKernel, q, &s, metric);
                let (nd, _) = naive_min_dist(q, &s, metric);
                assert!(
                    (fast.0 - nd).abs() < 1e-9 * (1.0 + nd.abs()),
                    "{metric:?} query {i}: {} vs {nd}",
                    fast.0
                );
                // the naive sum of squares is never negative, so neither
                // is the kernel's clamped identity
                assert!(fast.0 >= 0.0, "{metric:?} query {i}: {}", fast.0);
            }
        }
    }

    #[test]
    fn degenerate_inputs_keep_naive_conventions() {
        let s = series(32);
        let long: Vec<f64> = series(64);
        let kernel =
            |q: &[f64], s: &[f64]| cached(KernelPolicy::ForceKernel, q, s, Metric::MeanSquared);
        assert_eq!(kernel(&[], &s), (f64::INFINITY, 0));
        // longer query: the series slides over the query, like the naive swap
        let (d, _) = kernel(&long, &s);
        assert!((d - sliding_min_dist(&long, &s).0).abs() < 1e-9);
        assert_eq!(kernel(&s[1..5], &s).0, 0.0);
        assert!(kernel(&s[..4], &[]).0.is_infinite());
    }

    #[test]
    fn nan_input_degrades_to_infinity_never_a_perfect_match() {
        // regression: the MeanSquared arm used `max(NaN, 0.0)`, which is
        // 0.0 — a poisoned window used to win the argmin outright with
        // distance zero. One NaN poisons the *whole* spectrum (the FFT is
        // global), so the kernel cannot skip windows locally the way the
        // naive loop does; the contract is that it degrades to the
        // (INFINITY, 0) "no valid window" convention instead. (The cache
        // never hands the kernel non-finite input: it falls back to the
        // naive loop first; see `DistCache`'s fallback tests.)
        let kernel = |q: &[f64], s: &[f64], metric| {
            let mut plan = SeriesPlan::new(s);
            let fft = Fft::new(plan.fft_size());
            plan.min_dist_one(&fft, s, q, metric)
        };
        let mut s = series(200);
        s[60] = f64::NAN;
        let q: Vec<f64> = series(24);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            assert_eq!(kernel(&q, &s, metric), (f64::INFINITY, 0), "{metric:?}");
        }
        let mut bad_q = q.clone();
        bad_q[5] = f64::NAN;
        let s = series(200);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            assert_eq!(kernel(&bad_q, &s, metric), (f64::INFINITY, 0), "{metric:?}");
        }
    }

    #[test]
    fn auto_policy_agrees_with_forced_paths() {
        let s = series(600);
        let queries: Vec<Vec<f64>> = vec![s[5..11].to_vec(), s[40..360].to_vec()];
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            for q in &queries {
                let auto = cached(KernelPolicy::Auto, q, &s, metric);
                let naive = cached(KernelPolicy::ForceNaive, q, &s, metric);
                assert!((auto.0 - naive.0).abs() < 1e-9 * (1.0 + naive.0.abs()));
            }
        }
    }
}

//! Batch FFT/MASS min-distance kernel.
//!
//! [`batch_min_dist`] answers "what is the minimum sliding distance of each
//! query against this series?" for a whole batch of queries while paying for
//! the series-side FFT only once. Per series it plans a single forward FFT
//! at a size covering *every* admissible query length
//! (`next_power_of_two(2n − 1)` ≥ `n + m − 1` for all `m ≤ n`), then derives
//! each query's sliding dot products from that one spectrum:
//!
//! * [`Metric::ZNormEuclidean`] — MASS: dots + rolling window statistics
//!   feed [`znorm_dist_from_dot`], which owns the zero-variance convention.
//! * [`Metric::MeanSquared`] — the paper's Definition 4 via the identity
//!   `Σ(q−w)² = Σq² − 2·dot + Σw²`, with `Σw²` from a prefix-sum table.
//!
//! Queries are processed **two at a time** through one complex transform:
//! packing `rev(q1) + i·rev(q2)` and convolving with the real series yields
//! `conv1` in the real part and `conv2` in the imaginary part (linearity),
//! so the amortized cost is ~one FFT per query on top of the shared
//! series spectrum.
//!
//! A crossover heuristic ([`KernelPolicy::Auto`]) falls back to the
//! early-abandoning naive loops for short queries/series, where O(m·n)
//! with abandoning beats O(N log N) constants.

use crate::euclid::{min_dist_znorm_prepared, sliding_min_dist, znorm_dist_from_dot};
use crate::fft::{Complex, Fft};
use crate::metric::Metric;
use crate::rolling::RollingStats;

/// How [`batch_min_dist_with`] and the distance cache choose between the
/// FFT kernel and the naive early-abandoning loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Cost-model crossover: kernel for long queries over long series,
    /// naive otherwise. The default.
    #[default]
    Auto,
    /// Always the FFT kernel (used by the equivalence proptests, which pin
    /// the kernel against the naive reference even at tiny sizes).
    ForceKernel,
    /// Always the naive loop (turns the cache into a pure memo layer).
    ForceNaive,
}

/// A typed rejection from the strict kernel entry points.
///
/// The memoizing [`crate::DistCache`] never surfaces this: it *degrades* to
/// the naive loops and counts a `kernel_fallbacks` instead. Use
/// [`batch_min_dist_checked`] when corrupt input must be an error rather
/// than the documented-infinity degradation of the unchecked paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A query in the batch contains a non-finite value.
    NonFiniteQuery {
        /// Index of the offending query within the batch.
        index: usize,
        /// Position of the first non-finite value in that query.
        position: usize,
    },
    /// The series contains a non-finite value.
    NonFiniteSeries {
        /// Position of the first non-finite value in the series.
        position: usize,
    },
    /// A failure injected by the fault harness (never produced by real
    /// input; see `ips-core`'s `FaultPlan`).
    Forced(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::NonFiniteQuery { index, position } => {
                write!(
                    f,
                    "query {index} has a non-finite value at position {position}"
                )
            }
            KernelError::NonFiniteSeries { position } => {
                write!(f, "series has a non-finite value at position {position}")
            }
            KernelError::Forced(reason) => write!(f, "injected kernel failure: {reason}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Position of the first non-finite value, if any.
#[inline]
pub(crate) fn first_non_finite(xs: &[f64]) -> Option<usize> {
    xs.iter().position(|x| !x.is_finite())
}

/// Crossover estimate in rough multiply units. `ffts_per_query` is the
/// amortized number of full-size transforms a caller pays per query: ~1 for
/// the packed batch path, ~2 for one-off queries through the cache.
///
/// The naive loops differ sharply per metric. The raw-metric loop early
/// abandons, capping its effective cost near a constant per window — an
/// O(n) loop the O(n log n) kernel never overtakes at *any* length
/// (`bench_kernel` measures the forced kernel at 0.3–0.5× naive across
/// the whole grid), so `MeanSquared` always stays naive under `Auto`.
/// The z-norm loop computes every full dot product; its 4-lane unrolled
/// form shifted the crossover upward, and the constant below was re-fit
/// against `bench_kernel` after that vectorization (kernel wins from
/// roughly `n = 256, m = 64` on the batch path).
///
/// The constant **predates the fused two-window naive z-norm loop over
/// prepared statistics**, which made the naive side 1.4–2.1× faster: the
/// measured crossover now sits near `n = 512, m = 128`, and at
/// `n = 256, m = 64` this model picks the kernel where the naive loop is
/// faster. It is left as is on purpose — moving the crossover changes
/// which path serves a request, and so changes distance bits.
pub(crate) fn kernel_profitable(
    metric: Metric,
    m: usize,
    n: usize,
    fft_size: usize,
    ffts_per_query: f64,
) -> bool {
    if m < 16 || n < 128 {
        return false;
    }
    let windows = (n - m + 1) as f64;
    let naive = match metric {
        Metric::ZNormEuclidean => m as f64 * windows,
        Metric::MeanSquared => return false,
    };
    let nf = fft_size as f64;
    let kernel = ffts_per_query * 1.7 * nf * nf.log2() + 6.0 * n as f64;
    naive > kernel
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
pub struct SeriesPlan {
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
    pub fn new(series: &[f64]) -> Self {
        let n = series.len();
        let fft_size = (2 * n).saturating_sub(1).max(1).next_power_of_two();
        Self {
            n,
            fft_size,
            spectrum: None,
            stats: Vec::new(),
            sq_prefix: None,
        }
    }

    /// The power-of-two transform size shared by every query length.
    #[inline]
    pub fn fft_size(&self) -> usize {
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

    /// Sliding dot products for up to two queries through **one** complex
    /// transform: `IFFT(FFT(rev(q1) + i·rev(q2)) · S)` carries
    /// `conv(series, rev(q1))` in its real part and `conv(series, rev(q2))`
    /// in its imaginary part, because convolution is linear and the series
    /// is real.
    fn dots_packed(
        &mut self,
        fft: &Fft,
        series: &[f64],
        q1: &[f64],
        q2: Option<&[f64]>,
    ) -> (Vec<f64>, Option<Vec<f64>>) {
        self.ensure_spectrum(fft, series);
        let spectrum = self.spectrum.as_ref().expect("spectrum just built");
        let mut buf = vec![Complex::default(); self.fft_size];
        for (i, &x) in q1.iter().rev().enumerate() {
            buf[i].re = x;
        }
        if let Some(q2) = q2 {
            for (i, &x) in q2.iter().rev().enumerate() {
                buf[i].im = x;
            }
        }
        fft.forward(&mut buf);
        for (x, s) in buf.iter_mut().zip(spectrum) {
            *x = Complex::new(x.re * s.re - x.im * s.im, x.re * s.im + x.im * s.re);
        }
        fft.inverse(&mut buf);
        let extract = |m: usize| -> Vec<f64> { buf[m - 1..self.n].iter().map(|c| c.re).collect() };
        let extract_im =
            |m: usize| -> Vec<f64> { buf[m - 1..self.n].iter().map(|c| c.im).collect() };
        let d1 = extract(q1.len());
        let d2 = q2.map(|q| extract_im(q.len()));
        (d1, d2)
    }

    /// Kernel min-distance of one already-oriented query (`q.len() ≤ n`,
    /// both non-empty) against the planned series. Same return convention
    /// as [`sliding_min_dist`] / [`sliding_min_dist_znorm`].
    pub fn min_dist_one(
        &mut self,
        fft: &Fft,
        series: &[f64],
        query: &[f64],
        metric: Metric,
    ) -> (f64, usize) {
        let (dots, _) = self.dots_packed(fft, series, query, None);
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

/// Naive reference for one query, dispatching on the metric (either
/// argument order; no plan).
#[inline]
pub(crate) fn naive_min_dist(query: &[f64], series: &[f64], metric: Metric) -> (f64, usize) {
    match metric {
        Metric::MeanSquared => sliding_min_dist(query, series),
        Metric::ZNormEuclidean => crate::euclid::sliding_min_dist_znorm(query, series),
    }
}

/// Minimum sliding distance of every query against `series` under the
/// [`KernelPolicy::Auto`] crossover. See [`batch_min_dist_with`].
pub fn batch_min_dist(queries: &[&[f64]], series: &[f64], metric: Metric) -> Vec<(f64, usize)> {
    batch_min_dist_with(queries, series, metric, KernelPolicy::Auto)
}

/// Minimum sliding distance (and argmin offset) of every query against
/// `series`, with an explicit kernel policy.
///
/// Matches the naive loops' conventions exactly: empty inputs yield
/// `(f64::INFINITY, 0)`, a query longer than the series slides the series
/// over the query (handled via the naive path), distances are on the
/// mean-squared scale for both metrics, and the offset is the first argmin.
/// Values agree with the naive reference to ~1e-9 (pinned by the proptest
/// suite in `tests/kernel_props.rs`).
// `inline(never)` pins a single machine-code copy of the batch entry:
// callers that constant-propagate a policy would otherwise get their own
// specialization, and layout luck between copies skews A/B timings of
// paths that are logically identical. The call runs once per batch, so
// the forced call costs nothing measurable.
#[inline(never)]
pub fn batch_min_dist_with(
    queries: &[&[f64]],
    series: &[f64],
    metric: Metric,
    policy: KernelPolicy,
) -> Vec<(f64, usize)> {
    // Under `Auto`, a metric whose naive loop is never overtaken (see
    // `kernel_profitable`) collapses to `ForceNaive` up front, skipping
    // even the memoized per-query check.
    let policy = match (policy, metric) {
        (KernelPolicy::Auto, Metric::MeanSquared) => KernelPolicy::ForceNaive,
        _ => policy,
    };
    let mut out = vec![(f64::INFINITY, 0usize); queries.len()];
    // Same power-of-two size SeriesPlan::new picks; computed up front for
    // the crossover before any plan exists.
    let fft_size = (2 * series.len())
        .saturating_sub(1)
        .max(1)
        .next_power_of_two();
    let mut kernel_idx: Vec<usize> = Vec::new();
    // Built on first use: the naive z-norm loop reads its window statistics
    // (one pass per query length for the whole batch), the kernel its
    // spectrum. An all-`MeanSquared` batch never builds it.
    let mut plan: Option<SeriesPlan> = None;
    // One-entry memo for the Auto decision: every cost-model input except
    // the query length is loop-invariant, and batches overwhelmingly share
    // a single length (IPS draws per length-ratio), so this removes the
    // per-query float math from the hot all-naive path.
    let mut auto_memo: Option<(usize, bool)> = None;
    for (i, q) in queries.iter().enumerate() {
        let eligible = !q.is_empty() && !series.is_empty() && q.len() <= series.len();
        let use_kernel = eligible
            && match policy {
                KernelPolicy::ForceKernel => true,
                KernelPolicy::ForceNaive => false,
                KernelPolicy::Auto => match auto_memo {
                    Some((m, profitable)) if m == q.len() => profitable,
                    _ => {
                        let profitable =
                            kernel_profitable(metric, q.len(), series.len(), fft_size, 1.0);
                        auto_memo = Some((q.len(), profitable));
                        profitable
                    }
                },
            };
        if use_kernel {
            kernel_idx.push(i);
        } else if eligible && metric == Metric::ZNormEuclidean {
            out[i] = plan
                .get_or_insert_with(|| SeriesPlan::new(series))
                .min_dist_znorm_naive(series, q);
        } else if !q.is_empty() && !series.is_empty() {
            out[i] = naive_min_dist(q, series, metric);
        } // else: keep (INF, 0), the empty-input convention
    }
    if kernel_idx.is_empty() {
        return out;
    }
    let plan = plan.get_or_insert_with(|| SeriesPlan::new(series));
    let fft = Fft::new(plan.fft_size());
    for pair in kernel_idx.chunks(2) {
        let q1 = queries[pair[0]];
        let q2 = pair.get(1).map(|&i| queries[i]);
        let (d1, d2) = plan.dots_packed(&fft, series, q1, q2);
        out[pair[0]] = plan.min_from_dots(series, q1, &d1, metric);
        if let (Some(&i2), Some(d2)) = (pair.get(1), d2) {
            out[i2] = plan.min_from_dots(series, queries[i2], &d2, metric);
        }
    }
    out
}

/// Strict variant of [`batch_min_dist`]: rejects non-finite input with a
/// typed [`KernelError`] instead of degrading to the documented-infinity
/// convention. Validation is O(total input) and runs before any transform
/// is planned, so a rejected batch does no kernel work.
pub fn batch_min_dist_checked(
    queries: &[&[f64]],
    series: &[f64],
    metric: Metric,
) -> Result<Vec<(f64, usize)>, KernelError> {
    if let Some(position) = first_non_finite(series) {
        return Err(KernelError::NonFiniteSeries { position });
    }
    for (index, q) in queries.iter().enumerate() {
        if let Some(position) = first_non_finite(q) {
            return Err(KernelError::NonFiniteQuery { index, position });
        }
    }
    Ok(batch_min_dist(queries, series, metric))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn packed_pair_matches_singles() {
        let s = series(96);
        let q1: Vec<f64> = s[10..30].to_vec();
        let q2: Vec<f64> = (0..13).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut plan = SeriesPlan::new(&s);
        let fft = Fft::new(plan.fft_size());
        let (d1, d2) = plan.dots_packed(&fft, &s, &q1, Some(&q2));
        let (s1, _) = plan.dots_packed(&fft, &s, &q1, None);
        let (s2, _) = plan.dots_packed(&fft, &s, &q2, None);
        let d2 = d2.unwrap();
        assert_eq!(d1.len(), s1.len());
        assert_eq!(d2.len(), s2.len());
        for (a, b) in d1.iter().zip(&s1) {
            assert!((a - b).abs() < 1e-8);
        }
        for (a, b) in d2.iter().zip(&s2) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn kernel_matches_naive_on_both_metrics() {
        let s = series(200);
        let queries: Vec<Vec<f64>> = vec![s[20..52].to_vec(), s[100..117].to_vec(), series(40)];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let fast = batch_min_dist_with(&refs, &s, metric, KernelPolicy::ForceKernel);
            for (i, q) in refs.iter().enumerate() {
                let (nd, _) = naive_min_dist(q, &s, metric);
                assert!(
                    (fast[i].0 - nd).abs() < 1e-9 * (1.0 + nd.abs()),
                    "{metric:?} query {i}: {} vs {nd}",
                    fast[i].0
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_keep_naive_conventions() {
        let s = series(32);
        let empty: &[f64] = &[];
        let long: Vec<f64> = series(64);
        let out = batch_min_dist_with(
            &[empty, &long, &s[1..5]],
            &s,
            Metric::MeanSquared,
            KernelPolicy::ForceKernel,
        );
        assert_eq!(out[0], (f64::INFINITY, 0));
        // longer query: series slides over the query, exactly like the naive swap
        assert_eq!(out[1], sliding_min_dist(&long, &s));
        assert_eq!(out[2].0, 0.0);
        assert!(batch_min_dist(&[&s[..4]], &[], Metric::MeanSquared)[0]
            .0
            .is_infinite());
    }

    #[test]
    fn nan_input_degrades_to_infinity_never_a_perfect_match() {
        // regression: the MeanSquared arm used `max(NaN, 0.0)`, which is
        // 0.0 — a poisoned window used to win the argmin outright with
        // distance zero. One NaN poisons the *whole* spectrum (the FFT is
        // global), so the unchecked kernel cannot skip windows locally the
        // way the naive loop does; the contract is that it degrades to the
        // (INFINITY, 0) "no valid window" convention instead.
        let mut s = series(200);
        s[60] = f64::NAN;
        let q: Vec<f64> = series(24);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let fast = batch_min_dist_with(&[&q], &s, metric, KernelPolicy::ForceKernel);
            assert_eq!(fast[0], (f64::INFINITY, 0), "{metric:?}");
        }
        let mut bad_q = q.clone();
        bad_q[5] = f64::NAN;
        let s = series(200);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let fast = batch_min_dist_with(&[&bad_q], &s, metric, KernelPolicy::ForceKernel);
            assert_eq!(fast[0], (f64::INFINITY, 0), "{metric:?}");
        }
    }

    #[test]
    fn checked_entry_rejects_non_finite_input_with_coordinates() {
        let s = series(64);
        let q: Vec<f64> = s[4..20].to_vec();
        let mut bad_q = q.clone();
        bad_q[3] = f64::INFINITY;
        let err = batch_min_dist_checked(&[&q, &bad_q], &s, Metric::MeanSquared).unwrap_err();
        assert_eq!(
            err,
            KernelError::NonFiniteQuery {
                index: 1,
                position: 3
            }
        );
        assert!(err.to_string().contains("query 1"));

        let mut bad_s = s.clone();
        bad_s[9] = f64::NAN;
        let err = batch_min_dist_checked(&[&q], &bad_s, Metric::ZNormEuclidean).unwrap_err();
        assert_eq!(err, KernelError::NonFiniteSeries { position: 9 });

        // clean input matches the unchecked entry bit-for-bit
        let ok = batch_min_dist_checked(&[&q], &s, Metric::MeanSquared).unwrap();
        assert_eq!(ok, batch_min_dist(&[&q], &s, Metric::MeanSquared));
    }

    #[test]
    fn auto_policy_agrees_with_forced_paths() {
        let s = series(600);
        let queries: Vec<Vec<f64>> = vec![s[5..11].to_vec(), s[40..360].to_vec()];
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let auto = batch_min_dist(&refs, &s, metric);
            let naive = batch_min_dist_with(&refs, &s, metric, KernelPolicy::ForceNaive);
            for (a, b) in auto.iter().zip(&naive) {
                assert!((a.0 - b.0).abs() < 1e-9 * (1.0 + b.0.abs()));
            }
        }
    }
}

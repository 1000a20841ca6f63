//! Euclidean distances and the paper's sliding subsequence distance.

use crate::rolling::RollingStats;

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics (in debug builds) when the lengths differ.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    sq_dist_abandon(a, b, f64::INFINITY)
}

/// 4-lane unrolled sum of squared differences with a block-level early
/// abandon: accumulation runs in four independent lanes (the scalar loop is
/// latency-bound on the single FP-add dependency chain; four lanes keep the
/// adder pipeline full), and every 16 elements the combined partial sum is
/// checked against `cutoff`. On abandon the partial sum is returned — it
/// already exceeds `cutoff`, which is all the sliding-min callers need.
///
/// The lane-combination order `(a0 + a1) + (a2 + a3) + tail` is fixed, so
/// the result is deterministic for given inputs (it differs from the
/// sequential left-fold at the last-ulp level, which is why every caller in
/// the workspace shares *this* function rather than mixing loop shapes).
/// A NaN anywhere poisons the partial sums; the `>` abandon test is then
/// false, so NaN inputs run to completion and return NaN — exactly the
/// scalar loop's behaviour (NaN windows lose the strict `<` argmin).
///
/// The body runs over `chunks_exact` views, so it carries no bounds checks
/// and no lane shuffles: lane `l` takes element `i` with `i mod 4 == l`,
/// which is one 256-bit register on an AVX2 build. Every result is
/// bit-identical to the indexed loop `kernel_props.rs` keeps as its
/// reference.
#[inline]
fn sq_dist_abandon(q: &[f64], w: &[f64], cutoff: f64) -> f64 {
    debug_assert_eq!(q.len(), w.len());
    fn add_sq(a: &mut [f64; 4], x: &[f64], y: &[f64]) {
        for (x, y) in x.chunks_exact(4).zip(y.chunks_exact(4)) {
            for l in 0..4 {
                let d = x[l] - y[l];
                a[l] += d * d;
            }
        }
    }
    const BLOCK: usize = 16;
    let mut a = [0.0f64; 4];
    for (x, y) in q.chunks_exact(BLOCK).zip(w.chunks_exact(BLOCK)) {
        add_sq(&mut a, x, y);
        if (a[0] + a[1]) + (a[2] + a[3]) > cutoff {
            return (a[0] + a[1]) + (a[2] + a[3]);
        }
    }
    let blocked = q.len() - q.len() % BLOCK;
    add_sq(&mut a, &q[blocked..], &w[blocked..]);
    let body = q.len() - q.len() % 4;
    let mut acc = (a[0] + a[1]) + (a[2] + a[3]);
    for (x, y) in q[body..].iter().zip(&w[body..]) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// 4-lane unrolled dot product — the znorm counterpart of
/// [`sq_dist_abandon`]'s accumulation shape (no abandon: the correlation
/// identity needs the exact dot, and a partial dot bounds nothing). Shared
/// by the naive z-normalized profile so the naive and vectorized paths are
/// one code path with one rounding behaviour.
#[inline]
pub(crate) fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i + 4 <= n {
        a0 += a[i] * b[i];
        a1 += a[i + 1] * b[i + 1];
        a2 += a[i + 2] * b[i + 2];
        a3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut acc = (a0 + a1) + (a2 + a3);
    while i < n {
        acc += a[i] * b[i];
        i += 1;
    }
    acc
}

/// [`dot4`] of `q` against the four adjacent windows `w[k..k + m]`
/// (`k < 4`, `w.len() == m + 3`) in one pass. Each 4-element block of
/// the query is loaded once for all four windows, and window `k`
/// accumulates in its own four lanes with [`dot4`]'s exact lane
/// assignment (element `i` into lane `i mod 4`), combine order
/// `(a0 + a1) + (a2 + a3)` and sequential tail, so every result is
/// bit-identical to a separate [`dot4`] call. The 16 accumulators are 16
/// independent add chains, and the shifted `chunks_exact` views leave the
/// body free of bounds checks and lane shuffles. Four is the measured
/// best: six windows per step compile to a body about 1.5× slower, and
/// eight gain nothing over four.
#[inline]
fn dot4_x4(q: &[f64], w: &[f64]) -> [f64; 4] {
    let m = q.len();
    debug_assert_eq!(w.len(), m + 3);
    let mut acc = [[0.0f64; 4]; 4];
    let blocks = q
        .chunks_exact(4)
        .zip(w.chunks_exact(4))
        .zip(w[1..].chunks_exact(4))
        .zip(w[2..].chunks_exact(4))
        .zip(w[3..].chunks_exact(4));
    for ((((x, w0), w1), w2), w3) in blocks {
        for (a, wk) in acc.iter_mut().zip([w0, w1, w2, w3]) {
            for l in 0..4 {
                a[l] += x[l] * wk[l];
            }
        }
    }
    let mut out = acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]));
    let body = m - m % 4;
    for (k, o) in out.iter_mut().enumerate() {
        for (x, y) in q[body..].iter().zip(&w[k + body..]) {
            *o += x * y;
        }
    }
    out
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Mean squared difference — the per-alignment term of Definition 4:
/// `(1/|a|) Σ (a_l − b_l)²`.
#[inline]
pub fn mean_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    sq_euclidean(a, b) / a.len() as f64
}

/// The paper's `dist(T_p, T_q)` (Definition 4): the minimum mean squared
/// difference of `query` over every alignment against `series`, together
/// with the argmin offset.
///
/// `query` and `series` may be passed in either order — the shorter slice
/// slides over the longer one ("w.l.o.g. |T_q| ≥ |T_p|" in the paper).
/// Returns `(f64::INFINITY, 0)` when either slice is empty.
///
/// **NaN convention**: a window whose distance evaluates to NaN is never
/// accepted by the strict `<` comparison, so NaN-touching windows simply
/// lose the argmin; when *every* window is affected (a NaN in the query,
/// or a fully poisoned series) the result degrades to the documented
/// `(f64::INFINITY, 0)` — the same value as "no valid window" — and never
/// propagates NaN to the caller. Callers that need to *distinguish*
/// corrupt input from a genuine empty window set should validate up front
/// (e.g. `Dataset::validate`).
pub fn sliding_min_dist(query: &[f64], series: &[f64]) -> (f64, usize) {
    let (q, s) = if query.len() <= series.len() {
        (query, series)
    } else {
        (series, query)
    };
    if q.is_empty() || s.is_empty() {
        return (f64::INFINITY, 0);
    }
    let mut best = f64::INFINITY;
    let mut best_at = 0;
    for (j, w) in s.windows(q.len()).enumerate() {
        // Early-abandoning ED: bail out of the inner sum once the partial
        // sum exceeds the best-so-far (classic shapelet-search optimization).
        let cutoff = best * q.len() as f64;
        let acc = sq_dist_abandon(q, w, cutoff);
        let d = acc / q.len() as f64;
        if d < best {
            best = d;
            best_at = j;
        }
    }
    (best, best_at)
}

/// Z-normalized variant of [`sliding_min_dist`]: both the query and every
/// window are z-normalized before comparison. Returns `(min_dist, offset)`
/// on the mean-squared scale (`z-ED² / m`), bit-identical to the minimum
/// of [`dist_profile_znorm`] under [`argmin`] (the reference oracle pinned
/// by `tests/kernel_props.rs`), but without materializing the profile.
pub fn sliding_min_dist_znorm(query: &[f64], series: &[f64]) -> (f64, usize) {
    let (q, s) = if query.len() <= series.len() {
        (query, series)
    } else {
        (series, query)
    };
    if q.is_empty() || s.is_empty() {
        return (f64::INFINITY, 0);
    }
    min_dist_znorm_prepared(q, s, &RollingStats::new(s, q.len()))
}

/// The z-normalized sliding minimum over prepared series statistics:
/// `q` is already oriented and non-empty (`q.len() ≤ s.len()`), and
/// `stats` must be `RollingStats::new(s, q.len())` — callers that probe
/// one series with many queries (the distance cache's [`SeriesPlan`])
/// build it once per window length instead of once per request.
///
/// One allocation-free pass scores **four adjacent windows** per step
/// (`dot4_x4`: each query block loaded once, a 4×4 block of lane
/// accumulators), and each of the last ≤ 3 windows with one [`dot4`].
/// Each window's dot product keeps [`dot4`]'s exact lane assignment and
/// combine order `(a0 + a1) + (a2 + a3) + tail`, and each goes through
/// [`znorm_dist_from_dot`] with the same statistics [`dist_profile_znorm`]
/// uses, so every per-window distance has the profile's bits. The strict
/// `<` scan from `+∞` in window order keeps the first minimum —
/// [`argmin`]'s tie rule, which also skips nothing here because
/// [`znorm_dist_from_dot`] never returns NaN (non-finite → `+∞`).
///
/// [`SeriesPlan`]: crate::SeriesPlan
pub(crate) fn min_dist_znorm_prepared(q: &[f64], s: &[f64], stats: &RollingStats) -> (f64, usize) {
    debug_assert_eq!(stats.window(), q.len());
    let (mu_q, sd_q) = moments(q);
    min_dist_znorm_rows(q, mu_q, sd_q, s, stats.means(), stats.stds())
}

/// A query's mean and population σ — the query side of every z-normalized
/// distance, computed the same way by the naive loop, the kernel and the
/// prepared query sets that compute it once per query.
#[inline]
pub(crate) fn moments(q: &[f64]) -> (f64, f64) {
    let m = q.len() as f64;
    let mu = q.iter().sum::<f64>() / m;
    let var = q.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / m;
    (mu, var.sqrt())
}

/// The fused loop of [`min_dist_znorm_prepared`] over borrowed window
/// statistics: `(mu_q, sd_q)` are [`moments`]`(q)`, and `means`/`stds`
/// hold one entry per length-`q.len()` window of `s`, as
/// [`RollingStats::new`] computes them.
pub(crate) fn min_dist_znorm_rows(
    q: &[f64],
    mu_q: f64,
    sd_q: f64,
    s: &[f64],
    means: &[f64],
    stds: &[f64],
) -> (f64, usize) {
    let m = q.len();
    debug_assert!(m > 0 && m <= s.len());
    debug_assert_eq!(means.len(), s.len() - m + 1);
    debug_assert_eq!(stds.len(), means.len());
    let n_out = means.len();
    let mut best = f64::INFINITY;
    let mut best_at = 0;
    let mut j = 0;
    while j + 4 <= n_out {
        let dots = dot4_x4(q, &s[j..j + m + 3]);
        for (k, dot) in dots.into_iter().enumerate() {
            let d = znorm_dist_from_dot(dot, m, mu_q, sd_q, means[j + k], stds[j + k]);
            if d < best {
                best = d;
                best_at = j + k;
            }
        }
        j += 4;
    }
    for j in j..n_out {
        let d = znorm_dist_from_dot(dot4(q, &s[j..j + m]), m, mu_q, sd_q, means[j], stds[j]);
        if d < best {
            best = d;
            best_at = j;
        }
    }
    // convert squared z-ED to mean squared difference for comparability
    (best * best / m as f64, best_at)
}

/// Distance profile of `query` against every window of `series`, using the
/// *mean squared* difference of Definition 4. O(n) per output via the
/// incremental identity
/// `sq(j+1) = sq(j) − (s_j − q'_j)² …` — not applicable for arbitrary
/// queries, so this is the straightforward O(n·m) loop with early abandon
/// disabled (profiles need every value).
pub fn dist_profile(query: &[f64], series: &[f64]) -> Vec<f64> {
    if query.is_empty() || series.len() < query.len() {
        return Vec::new();
    }
    series
        .windows(query.len())
        .map(|w| mean_sq_dist(query, w))
        .collect()
}

/// Z-normalized Euclidean distance profile (the matrix-profile metric):
/// `query` is z-normalized, each window of `series` is z-normalized, and
/// the output is the (non-squared) Euclidean distance per window.
///
/// Runs in O(n·m) worst case but uses the dot-product identity
/// `d² = 2m(1 − (qw − m·μq·μw)/(m·σq·σw))` with rolling window statistics,
/// so the per-window cost is one dot product. The FFT/MASS kernel behind
/// [`crate::DistCache`] reaches the minimum of this profile in O(n log n)
/// for long series.
pub fn dist_profile_znorm(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    if m == 0 || series.len() < m {
        return Vec::new();
    }
    let stats = RollingStats::new(series, m);
    let (mu_q, sd_q) = moments(query);
    let n_out = series.len() - m + 1;
    let mut out = Vec::with_capacity(n_out);
    for j in 0..n_out {
        let w = &series[j..j + m];
        let dot = dot4(query, w);
        out.push(znorm_dist_from_dot(
            dot,
            m,
            mu_q,
            sd_q,
            stats.mean(j),
            stats.std(j),
        ));
    }
    out
}

/// The workspace's zero-variance convention for z-normalized distances,
/// **pinned here and nowhere else**: a vector whose standard deviation is
/// at or below `ZNORM_SIGMA_FLOOR · (1 + |μ|)` is treated as constant.
///
/// The floor is *relative* to the mean's magnitude rather than an absolute
/// `f64::EPSILON`, because none of the σ producers reach exact zero on
/// constant data: a two-pass σ over a constant query carries ~`m·ulp(x)`
/// of rounding noise, and [`crate::RollingStats`]' cumsum-difference
/// variance carries cancellation noise up to ~1e-5 absolute for values
/// of magnitude 100. A sub-floor σ that slipped through would be used as
/// a divisor, amplifying last-ulp dot-product differences into O(1) swings
/// of the clamped correlation — the naive and FFT paths would then round
/// the *same* window to distances 0 and 2√m. At 1e-6, every source of pure
/// rounding noise sits well below the floor while any real variation
/// (coefficient of variation ≥ 1e-6) sits well above it.
pub const ZNORM_SIGMA_FLOOR: f64 = 1e-6;

/// True when `sd` is below the pinned zero-variance floor for a vector
/// with mean `mu` — the single predicate every z-normalized distance path
/// (naive profile, the FFT/MASS kernel, STOMP-style matrix profile) uses to
/// decide "this window is constant".
#[inline]
pub fn is_constant_sigma(sd: f64, mu: f64) -> bool {
    sd <= ZNORM_SIGMA_FLOOR * (1.0 + mu.abs())
}

/// Converts a raw dot product and window statistics into the z-normalized
/// Euclidean distance. Shared by the naive profile, the FFT/MASS kernel,
/// and the STOMP-style matrix profile in `ips-profile` — so every
/// path resolves zero-variance windows identically (see
/// [`ZNORM_SIGMA_FLOOR`]):
///
/// * both sides constant → exactly `0` (identical after z-normalization);
/// * exactly one side constant → exactly `√m` (an all-zeros vector against
///   a unit-variance vector).
#[inline]
pub fn znorm_dist_from_dot(dot: f64, m: usize, mu_q: f64, sd_q: f64, mu_w: f64, sd_w: f64) -> f64 {
    let m_f = m as f64;
    let const_q = is_constant_sigma(sd_q, mu_q);
    let const_w = is_constant_sigma(sd_w, mu_w);
    if const_q && const_w {
        return 0.0;
    }
    if const_q || const_w {
        return m_f.sqrt();
    }
    let corr = (dot - m_f * mu_q * mu_w) / (m_f * sd_q * sd_w);
    let d2 = 2.0 * m_f * (1.0 - corr.clamp(-1.0, 1.0));
    // A NaN anywhere in the inputs (a poisoned dot product or NaN window
    // statistics) survives `clamp` and would previously be swallowed by
    // `f64::max(NaN, 0.0) == 0.0` — reporting a corrupt window as a
    // *perfect match*. Non-finite distances are pushed to +∞ instead so a
    // strict `<` argmin can never select them.
    if !d2.is_finite() {
        return f64::INFINITY;
    }
    d2.max(0.0).sqrt()
}

/// Index and value of the minimum of a slice (`None` when empty). NaNs are
/// skipped rather than propagated; ties keep the first minimum.
pub fn argmin(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .min_by(|a, b| cmp_non_nan(*a.1, *b.1))
        .map(|(i, &v)| (i, v))
}

/// Index and value of the maximum of a slice (`None` when empty / all-NaN).
/// Ties keep the last maximum.
pub fn argmax(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter()
        .enumerate()
        .filter(|(_, v)| !v.is_nan())
        .max_by(|a, b| cmp_non_nan(*a.1, *b.1))
        .map(|(i, &v)| (i, v))
}

/// `partial_cmp` for values the caller has already filtered of NaN, where
/// it is always `Some`. Unlike `total_cmp`, `-0.0` and `0.0` compare equal,
/// so ties between them resolve by position.
#[inline]
fn cmp_non_nan(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[1.0], &[4.0]), 9.0);
        assert_eq!(mean_sq_dist(&[0.0, 0.0], &[2.0, 2.0]), 4.0);
        assert_eq!(mean_sq_dist(&[], &[]), 0.0);
    }

    #[test]
    fn sliding_min_finds_exact_match() {
        let series = [5.0, 1.0, 2.0, 3.0, 9.0];
        let (d, at) = sliding_min_dist(&[1.0, 2.0, 3.0], &series);
        assert_eq!(d, 0.0);
        assert_eq!(at, 1);
    }

    #[test]
    fn sliding_min_is_symmetric_in_argument_order() {
        let long = [5.0, 1.0, 2.0, 3.0, 9.0];
        let short = [1.0, 2.0, 3.1];
        assert_eq!(
            sliding_min_dist(&short, &long),
            sliding_min_dist(&long, &short)
        );
    }

    #[test]
    fn sliding_min_empty_inputs() {
        assert_eq!(sliding_min_dist(&[], &[1.0]).0, f64::INFINITY);
        assert_eq!(sliding_min_dist(&[1.0], &[]).0, f64::INFINITY);
    }

    #[test]
    fn early_abandon_matches_naive() {
        // pseudo-random but deterministic values
        let series: Vec<f64> = (0..200)
            .map(|i| ((i * 37 % 101) as f64).sin() * 3.0)
            .collect();
        let query: Vec<f64> = (0..23)
            .map(|i| ((i * 53 % 89) as f64).cos() * 2.0)
            .collect();
        let (fast, at) = sliding_min_dist(&query, &series);
        let naive = series
            .windows(query.len())
            .map(|w| mean_sq_dist(&query, w))
            .fold(f64::INFINITY, f64::min);
        assert!((fast - naive).abs() < 1e-12);
        assert!((mean_sq_dist(&query, &series[at..at + query.len()]) - fast).abs() < 1e-12);
    }

    #[test]
    fn dist_profile_matches_pointwise() {
        let series = [0.0, 1.0, 0.0, -1.0, 0.0];
        let query = [1.0, 0.0];
        let p = dist_profile(&query, &series);
        assert_eq!(p.len(), 4);
        for (j, v) in p.iter().enumerate() {
            assert!((v - mean_sq_dist(&query, &series[j..j + 2])).abs() < 1e-12);
        }
        assert!(dist_profile(&[1.0; 9], &series).is_empty());
        assert!(dist_profile(&[], &series).is_empty());
    }

    #[test]
    fn znorm_profile_matches_explicit_normalization() {
        let series: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.37).sin() + 0.1 * i as f64)
            .collect();
        let query: Vec<f64> = (0..9).map(|i| (i as f64 * 0.9).cos()).collect();
        let p = dist_profile_znorm(&query, &series);
        assert_eq!(p.len(), series.len() - query.len() + 1);
        for (j, &v) in p.iter().enumerate() {
            let zq = ips_znorm(&query);
            let zw = ips_znorm(&series[j..j + query.len()]);
            let expect = euclidean(&zq, &zw);
            assert!((v - expect).abs() < 1e-8, "at {j}: {v} vs {expect}");
        }
    }

    #[test]
    fn znorm_profile_scale_invariance() {
        let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.5).sin()).collect();
        let query: Vec<f64> = series[10..18].to_vec();
        let scaled: Vec<f64> = query.iter().map(|v| v * 7.0 + 3.0).collect();
        let p1 = dist_profile_znorm(&query, &series);
        let p2 = dist_profile_znorm(&scaled, &series);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(p1[10] < 1e-6); // exact occurrence
    }

    #[test]
    fn znorm_profile_constant_windows() {
        let series = [2.0, 2.0, 2.0, 2.0, 5.0, 1.0];
        let query = [3.0, 3.0, 3.0];
        let p = dist_profile_znorm(&query, &series);
        assert_eq!(p[0], 0.0); // constant vs constant
        assert!((p[3] - 3f64.sqrt()).abs() < 1e-12); // constant vs varying
    }

    #[test]
    fn nan_windows_report_infinity_not_a_perfect_match() {
        // regression: `f64::max(NaN, 0.0)` used to collapse a poisoned
        // correlation to distance 0 — a corrupt window won the argmin.
        let d = znorm_dist_from_dot(f64::NAN, 8, 0.0, 1.0, 0.0, 1.0);
        assert_eq!(d, f64::INFINITY);
        let d = znorm_dist_from_dot(3.0, 8, f64::NAN, 1.0, 0.0, 1.0);
        assert_eq!(d, f64::INFINITY);

        // early-abandon scoring: NaN-touching windows lose the argmin, so
        // a partially poisoned series still scores over its clean windows…
        let poisoned = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        assert_eq!(sliding_min_dist(&[1.0, 2.0], &poisoned), (4.0, 2));
        // …and a fully poisoned input yields the documented (INFINITY, 0)
        // "no valid window" result, never NaN itself.
        let all_nan = [f64::NAN, f64::NAN, f64::NAN];
        assert_eq!(sliding_min_dist(&[1.0, 2.0], &all_nan).0, f64::INFINITY);
        assert_eq!(
            sliding_min_dist(&[f64::NAN, 2.0], &[1.0, 2.0, 3.0]).0,
            f64::INFINITY
        );
        assert_eq!(
            sliding_min_dist_znorm(&[1.0, f64::NAN], &[1.0, 2.0, 3.0]).0,
            f64::INFINITY
        );
    }

    #[test]
    fn argmin_argmax() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), Some((1, 1.0)));
        assert_eq!(argmax(&[3.0, 1.0, 2.0]), Some((0, 3.0)));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f64::NAN, 2.0]), Some((1, 2.0)));
    }

    fn ips_znorm(xs: &[f64]) -> Vec<f64> {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let s = (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt();
        if s <= f64::EPSILON {
            vec![0.0; xs.len()]
        } else {
            xs.iter().map(|x| (x - m) / s).collect()
        }
    }
}

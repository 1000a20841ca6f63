//! The distance layer over the FFT/MASS kernel: the only way into it.
//!
//! [`DistCache`] answers [`DistCache::min_dist`] queries while keeping the
//! per-series work that many queries share:
//!
//! * **Series plans** — one series plan per distinct series, so its
//!   rolling window statistics (read by the naive z-norm loop and the FFT
//!   kernel alike), padded spectrum, and prefix sums are computed at most
//!   once per series (statistics: once per query length) no matter how
//!   many candidates probe it, plus one FFT twiddle table per
//!   transform size, shared across series of similar length.
//!
//! [`DistCache::min_dists`] scores a prepared [`QuerySet`] against one
//! series and needs no plan for the queries the naive loop serves: their
//! window statistics come from one prefix-sum pass over the series,
//! computed in the call.
//!
//! Results are not remembered: every request is computed. Callers that
//! would issue the same request twice reuse their own results instead:
//! the engine's exact-scoring plan drops repeats before any distance is
//! computed, and the classifier's shapelet transform takes the
//! (shapelet, own-class instance) distances scoring already computed.
//!
//! Plans are keyed by a **content hash** of the series' raw `f64` bit
//! patterns (two independent 64-bit FNV-style hashes plus the length), so
//! keys are deterministic across runs and independent of where a slice
//! lives in memory — an instance and an equal-valued copy of it share one
//! plan. A collision needs both 64-bit hashes to agree (~2⁻¹²⁸ per pair);
//! there is no bucket-chain verification.
//!
//! The cache is deliberately `Send`-friendly plain data: per-class caches
//! built on worker threads are merged into a session cache with
//! [`DistCache::absorb`] in deterministic class order.

use std::collections::HashMap;

use crate::batch::{first_non_finite, kernel_profitable, KernelPolicy, SeriesPlan};
use crate::euclid::{min_dist_znorm_rows, sliding_min_dist};
use crate::fft::Fft;
use crate::metric::Metric;
use crate::queries::QuerySet;
use crate::rolling::{prefix_sums, window_stats};

/// Work counters exposed through the engine's stage telemetry.
///
/// Every [`DistCache::min_dist`] call is one **eval** (computed, via either
/// the FFT kernel or the naive fallback — the counter tracks requests
/// computed, not which code path served them). A cache never books
/// `cache_hits` itself: that field counts requests a caller answered from
/// an earlier eval (the engine's exact-scoring plan adds its duplicates
/// there, a fit its transform's reused features), so `kernel_evals +
/// cache_hits` equals the number of distance requests the caller's
/// algorithm issued.
/// `kernel_fallbacks` counts the *subset* of evals where the FFT path was
/// selected but could not serve the request (non-finite input, or an
/// injected failure from the fault harness) and the cache degraded to the
/// naive loop — it never disturbs the partition invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distances actually computed.
    pub kernel_evals: usize,
    /// Duplicate requests the caller answered from an earlier eval.
    pub cache_hits: usize,
    /// Evals the FFT kernel should have served but the naive loop did
    /// (graceful degradation; always ≤ `kernel_evals`).
    pub kernel_fallbacks: usize,
}

impl CacheStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &CacheStats) {
        self.kernel_evals += other.kernel_evals;
        self.cache_hits += other.cache_hits;
        self.kernel_fallbacks += other.kernel_fallbacks;
    }

    /// Total distance requests answered (duplicates plus computed evals).
    pub fn requests(&self) -> usize {
        self.kernel_evals + self.cache_hits
    }

    /// Fraction of requests answered without computing (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests() as f64
        }
    }

    /// Publishes the counters (and the derived hit rate as a gauge) into
    /// a metrics registry under `prefix` — e.g. `cache.` yields
    /// `cache.kernel_evals`, `cache.cache_hits`, and the `cache.hit_rate`
    /// gauge.
    pub fn record_into(&self, metrics: &ips_obs::MetricsRegistry, prefix: &str) {
        metrics.incr(&format!("{prefix}kernel_evals"), self.kernel_evals as u64);
        metrics.incr(&format!("{prefix}cache_hits"), self.cache_hits as u64);
        metrics.incr(
            &format!("{prefix}kernel_fallbacks"),
            self.kernel_fallbacks as u64,
        );
        metrics.set_gauge(&format!("{prefix}hit_rate"), self.hit_rate());
    }
}

/// Content identity of one slice: its length plus two independent 64-bit
/// FNV-1a-style chains over the raw bit patterns. Deterministic across
/// runs (no `RandomState`), cheap, and 128 bits of separation between
/// distinct contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SliceKey(usize, u64, u64);

impl SliceKey {
    /// Hashes the content of `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x9e37_79b9_7f4a_7c15 ^ (xs.len() as u64);
        for &x in xs {
            let b = x.to_bits();
            h1 = (h1 ^ b).wrapping_mul(0x0000_0100_0000_01b3);
            h2 = (h2 ^ b.rotate_left(17)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        }
        SliceKey(xs.len(), h1, h2)
    }
}

/// `(shorter, longer)` — the shorter slice slides over the longer; on
/// equal lengths the argument order is kept.
#[inline]
fn orient<'a>(query: &'a [f64], series: &'a [f64]) -> (&'a [f64], &'a [f64]) {
    if query.len() <= series.len() {
        (query, series)
    } else {
        (series, query)
    }
}

/// The distance layer. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct DistCache {
    policy: KernelPolicy,
    ffts: HashMap<usize, Fft>,
    plans: HashMap<SliceKey, SeriesPlan>,
    stats: CacheStats,
    /// When set, every kernel-path attempt is treated as failed and
    /// degrades to the naive loop (fault-injection hook; see
    /// [`DistCache::inject_kernel_failure`]).
    forced_failure: bool,
}

impl DistCache {
    /// An empty cache with the [`KernelPolicy::Auto`] crossover.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with an explicit kernel policy (tests pin
    /// `ForceKernel` / `ForceNaive`).
    pub fn with_policy(policy: KernelPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Forces every subsequent kernel-path attempt to fail, exercising the
    /// graceful-degradation path: results are still served (by the naive
    /// loop) and each degraded eval is counted in
    /// [`CacheStats::kernel_fallbacks`]. Used by the fault-injection
    /// harness.
    pub fn inject_kernel_failure(&mut self) {
        self.forced_failure = true;
    }

    /// Minimum sliding distance of `query` against `series` under `metric`,
    /// with the same conventions as `sliding_min_dist{,_znorm}`: arguments
    /// may come in either order (the shorter slides over the longer), empty
    /// input yields `(f64::INFINITY, 0)`, and the offset is the first
    /// argmin.
    pub fn min_dist(&mut self, query: &[f64], series: &[f64], metric: Metric) -> (f64, usize) {
        let (q, s) = orient(query, series);
        self.min_dist_keyed(SliceKey::of(s), q, s, metric)
    }

    /// [`DistCache::min_dist`] for an already-oriented request
    /// (`q.len() ≤ s.len()`) whose series key the caller already holds —
    /// `series_key` must equal [`SliceKey::of`]`(s)`, typically hashed once
    /// for many requests. Skips the content hash per request; counters and
    /// results are exactly those of `min_dist(q, s, metric)`.
    pub fn min_dist_keyed(
        &mut self,
        series_key: SliceKey,
        q: &[f64],
        s: &[f64],
        metric: Metric,
    ) -> (f64, usize) {
        debug_assert_eq!(series_key, SliceKey::of(s), "key does not match the series");
        debug_assert!(q.len() <= s.len(), "request is not oriented");
        self.stats.kernel_evals += 1;
        if q.is_empty() || s.is_empty() {
            return (f64::INFINITY, 0);
        }
        if !self.use_kernel(metric, q.len(), s.len()) {
            return self.naive(q, s, metric, series_key);
        }
        // Graceful degradation: the FFT path cannot serve poisoned input
        // (one NaN poisons the whole spectrum, losing the naive loop's
        // window-local skipping), and the fault harness can force failures.
        // Both degrade to the naive loop and count a fallback rather than
        // surfacing an error from the scoring hot path.
        if self.forced_failure || first_non_finite(q).is_some() || first_non_finite(s).is_some() {
            self.stats.kernel_fallbacks += 1;
            return self.naive(q, s, metric, series_key);
        }
        let plan = self
            .plans
            .entry(series_key)
            .or_insert_with(|| SeriesPlan::new(s));
        let fft = self
            .ffts
            .entry(plan.fft_size())
            .or_insert_with(|| Fft::new(plan.fft_size()));
        plan.min_dist_one(fft, s, q, metric)
    }

    /// Whether this cache's policy sends a length-`m` query against a
    /// length-`n` series to the FFT kernel — a pure function of the
    /// request's shape.
    fn use_kernel(&self, metric: Metric, m: usize, n: usize) -> bool {
        match self.policy {
            KernelPolicy::ForceKernel => true,
            KernelPolicy::ForceNaive => false,
            KernelPolicy::Auto => kernel_profitable(metric, m, n),
        }
    }

    /// Every query of `set` against `series` under `metric`, in query
    /// order. Entry `i` equals `min_dist(&set.queries()[i], series,
    /// metric)` bit for bit, offset included, and books one eval like it.
    ///
    /// A query the naive loop serves — every `MeanSquared` query, and a
    /// z-norm query the policy keeps off the kernel — hashes nothing and
    /// touches no plan: one prefix-sum pass over `series` is shared by
    /// every query length, each distinct length fills one mean/σ row, and
    /// the query moments come prepared from the set. A query the kernel
    /// serves takes [`min_dist_keyed`](Self::min_dist_keyed) (the series
    /// hashed once for the call), and an empty query or one longer than
    /// the series takes [`min_dist`](Self::min_dist), which slides the
    /// series over it.
    pub fn min_dists<Q: AsRef<[f64]>>(
        &mut self,
        set: &QuerySet<Q>,
        series: &[f64],
        metric: Metric,
    ) -> Vec<(f64, usize)> {
        let n = series.len();
        let queries = set.queries();
        let mut out = vec![(f64::INFINITY, 0); queries.len()];
        let mut key = None;
        // [cum | cum2 | means | stds], sized at the first (shortest)
        // naive z-norm length, whose rows are the longest.
        let mut scratch: Vec<f64> = Vec::new();
        for (m, members) in set.groups() {
            let m = *m;
            if m == 0 || m > n {
                for &i in members {
                    out[i] = self.min_dist(queries[i].as_ref(), series, metric);
                }
                continue;
            }
            if self.use_kernel(metric, m, n) {
                let key = *key.get_or_insert_with(|| SliceKey::of(series));
                for &i in members {
                    out[i] = self.min_dist_keyed(key, queries[i].as_ref(), series, metric);
                }
                continue;
            }
            self.stats.kernel_evals += members.len();
            if metric == Metric::MeanSquared {
                for &i in members {
                    out[i] = sliding_min_dist(queries[i].as_ref(), series);
                }
                continue;
            }
            let n_out = n - m + 1;
            if scratch.is_empty() {
                scratch = vec![0.0; 2 * (n + 1) + 2 * n_out];
                let (cum, rest) = scratch.split_at_mut(n + 1);
                prefix_sums(series, cum, &mut rest[..n + 1]);
            }
            let (cums, rows) = scratch.split_at_mut(2 * (n + 1));
            let (cum, cum2) = cums.split_at(n + 1);
            let (means, stds) = rows.split_at_mut(n_out);
            let stds = &mut stds[..n_out];
            window_stats(cum, cum2, m, means, stds);
            for &i in members {
                let (mu_q, sd_q) = set.moments(i);
                out[i] = min_dist_znorm_rows(queries[i].as_ref(), mu_q, sd_q, series, means, stds);
            }
        }
        out
    }

    /// The naive loops: the early-abandoning `MeanSquared` scan needs no
    /// series state; the z-norm loop reads the series plan's window
    /// statistics, so every query of one length against one series shares
    /// a single statistics pass.
    fn naive(&mut self, q: &[f64], s: &[f64], metric: Metric, ks: SliceKey) -> (f64, usize) {
        match metric {
            Metric::MeanSquared => sliding_min_dist(q, s),
            Metric::ZNormEuclidean => self
                .plans
                .entry(ks)
                .or_insert_with(|| SeriesPlan::new(s))
                .min_dist_znorm_naive(s, q),
        }
    }

    /// Merges `other` into `self`: series plans, FFT tables, and counters.
    /// Existing entries win on (astronomically unlikely) key conflicts.
    /// Called in deterministic class order when per-class worker caches are
    /// folded back into the session cache.
    pub fn absorb(&mut self, other: DistCache) {
        for (k, v) in other.ffts {
            self.ffts.entry(k).or_insert(v);
        }
        for (k, v) in other.plans {
            self.plans.entry(k).or_insert(v);
        }
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclid::sliding_min_dist_znorm;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn every_request_is_one_eval() {
        let s = series(150);
        let q1: Vec<f64> = s[10..40].to_vec();
        let q2: Vec<f64> = s[50..70].to_vec();
        let mut cache = DistCache::new();
        let first = cache.min_dist(&q1, &s, Metric::ZNormEuclidean);
        cache.min_dist(&q2, &s, Metric::ZNormEuclidean);
        // a repeat is computed again, to the same bits
        let again = cache.min_dist(&q1, &s, Metric::ZNormEuclidean);
        assert_eq!(first.0.to_bits(), again.0.to_bits());
        assert_eq!(first.1, again.1);
        cache.min_dist(&q1, &s, Metric::MeanSquared);
        let st = cache.stats();
        assert_eq!(st.kernel_evals, 4);
        assert_eq!(st.cache_hits, 0);
        assert_eq!(st.requests(), 4);
    }

    #[test]
    fn min_dists_matches_one_request_per_query_under_every_policy() {
        let s = series(300);
        // repeated lengths (sharing one statistics row), a kernel-sized
        // length, an empty query and one longer than the series
        let set = QuerySet::new(vec![
            s[10..30].to_vec(),
            series(20),
            s[40..200].to_vec(),
            vec![],
            series(7),
            s[100..120].to_vec(),
            series(301),
        ]);
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::ForceKernel,
            KernelPolicy::ForceNaive,
        ] {
            for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
                let mut cache = DistCache::with_policy(policy);
                let got = cache.min_dists(&set, &s, metric);
                assert_eq!(cache.stats().kernel_evals, set.queries().len());
                for (q, &(d, at)) in set.queries().iter().zip(&got) {
                    let want = DistCache::with_policy(policy).min_dist(q, &s, metric);
                    assert_eq!(
                        (d.to_bits(), at),
                        (want.0.to_bits(), want.1),
                        "{policy:?} {metric:?} m={}",
                        q.len()
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_for_both_metrics_and_orders() {
        let s = series(140);
        let q: Vec<f64> = s[30..75].to_vec();
        let mut cache = DistCache::new();
        let zn = cache.min_dist(&q, &s, Metric::ZNormEuclidean);
        let ms = cache.min_dist(&q, &s, Metric::MeanSquared);
        let zn_ref = sliding_min_dist_znorm(&q, &s);
        let ms_ref = sliding_min_dist(&q, &s);
        assert!((zn.0 - zn_ref.0).abs() < 1e-9);
        assert!((ms.0 - ms_ref.0).abs() < 1e-9);
        // the reversed argument order slides the same query over the same
        // series: same answer, one more eval
        assert_eq!(cache.min_dist(&s, &q, Metric::MeanSquared), ms);
        assert_eq!(cache.min_dist(&s, &q, Metric::ZNormEuclidean), zn);
        assert_eq!(cache.stats().kernel_evals, 4);
        assert_eq!(cache.stats().cache_hits, 0);
    }

    #[test]
    fn equal_content_series_share_one_plan() {
        let s = series(100);
        let copy = s.clone(); // distinct allocation, same values
        let q: Vec<f64> = s[20..36].to_vec();
        let mut cache = DistCache::new();
        let a = cache.min_dist(&q, &s, Metric::ZNormEuclidean);
        let b = cache.min_dist(&q, &copy, Metric::ZNormEuclidean);
        assert_eq!(a, b);
        assert_eq!(cache.plans.len(), 1);
        assert_eq!(cache.stats().kernel_evals, 2);
    }

    #[test]
    fn absorb_merges_counters_and_plans() {
        let s = series(90);
        let t = series(70);
        let mut a = DistCache::new();
        let mut b = DistCache::new();
        a.min_dist(&s[..10], &s, Metric::ZNormEuclidean);
        b.min_dist(&s[..10], &s, Metric::ZNormEuclidean);
        let before = b.min_dist(&s[12..30], &t, Metric::ZNormEuclidean);
        a.absorb(b);
        assert_eq!(a.stats().kernel_evals, 3);
        assert_eq!(a.stats().cache_hits, 0);
        // one plan per distinct series, whichever cache built it
        assert_eq!(a.plans.len(), 2);
        // an absorbed plan serves later requests with the same answer
        assert_eq!(a.min_dist(&s[12..30], &t, Metric::ZNormEuclidean), before);
        assert_eq!(a.plans.len(), 2);
    }

    #[test]
    fn forced_policies_agree() {
        let s = series(128);
        let q: Vec<f64> = s[8..48].to_vec();
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let k = DistCache::with_policy(KernelPolicy::ForceKernel).min_dist(&q, &s, metric);
            let n = DistCache::with_policy(KernelPolicy::ForceNaive).min_dist(&q, &s, metric);
            assert!((k.0 - n.0).abs() < 1e-9 * (1.0 + n.0.abs()), "{metric:?}");
        }
    }

    #[test]
    fn stats_publish_into_a_metrics_registry() {
        let stats = CacheStats {
            kernel_evals: 3,
            cache_hits: 1,
            kernel_fallbacks: 1,
        };
        assert_eq!(stats.requests(), 4); // fallbacks are a subset of evals
        assert_eq!(stats.hit_rate(), 0.25);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let metrics = ips_obs::MetricsRegistry::new();
        stats.record_into(&metrics, "cache.");
        stats.record_into(&metrics, "cache."); // counters accumulate
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["cache.kernel_evals"], 6);
        assert_eq!(snap.counters["cache.cache_hits"], 2);
        assert_eq!(snap.counters["cache.kernel_fallbacks"], 2);
        assert_eq!(snap.gauges["cache.hit_rate"], 0.25);
    }

    #[test]
    fn injected_kernel_failure_degrades_to_naive_and_is_counted() {
        let s = series(150);
        let q: Vec<f64> = s[10..60].to_vec();
        let reference =
            DistCache::with_policy(KernelPolicy::ForceNaive).min_dist(&q, &s, Metric::MeanSquared);

        let mut cache = DistCache::with_policy(KernelPolicy::ForceKernel);
        cache.inject_kernel_failure();
        let got = cache.min_dist(&q, &s, Metric::MeanSquared);
        assert_eq!(got, reference); // same answer, served by the naive loop
        let st = cache.stats();
        assert_eq!(st.kernel_fallbacks, 1);
        assert_eq!(st.kernel_evals, 1); // partition invariant undisturbed
        assert_eq!(st.requests(), 1);
    }

    #[test]
    fn non_finite_input_falls_back_instead_of_poisoning_the_kernel() {
        let mut s = series(150);
        s[40] = f64::NAN;
        let q: Vec<f64> = series(20);
        let mut cache = DistCache::with_policy(KernelPolicy::ForceKernel);
        let got = cache.min_dist(&q, &s, Metric::MeanSquared);
        // the naive loop skips NaN-touching windows, so a clean window wins
        assert!(got.0.is_finite());
        assert_eq!(got, sliding_min_dist(&q, &s));
        assert_eq!(cache.stats().kernel_fallbacks, 1);
    }

    #[test]
    fn empty_inputs_follow_the_naive_convention() {
        let mut cache = DistCache::new();
        assert_eq!(
            cache.min_dist(&[], &[1.0, 2.0], Metric::MeanSquared),
            (f64::INFINITY, 0)
        );
        assert_eq!(
            cache.min_dist(&[1.0], &[], Metric::ZNormEuclidean),
            (f64::INFINITY, 0)
        );
        // degenerate requests still count as evals, keeping the partition
        // invariant (evals + hits == requests)
        assert_eq!(cache.stats().kernel_evals, 2);
    }
}

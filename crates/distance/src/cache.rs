//! A memoizing distance layer over the FFT/MASS kernel: the only way
//! into it.
//!
//! [`DistCache`] answers [`DistCache::min_dist`] queries while remembering
//! two kinds of work:
//!
//! * **Series plans** — one series plan per distinct series, so its
//!   rolling window statistics (read by the naive z-norm loop and the FFT
//!   kernel alike), padded spectrum, and prefix sums are computed at most
//!   once per series (statistics: once per query length) no matter how
//!   many candidates probe it, plus one FFT twiddle table per
//!   transform size, shared across series of similar length.
//! * **Results** — a `(query, series, metric) → (dist, offset)` memo, so
//!   a candidate scored against the same instance by a later stage (or by
//!   the shapelet transform after discovery) is a hash lookup.
//!
//! Keys are **content hashes** of the raw `f64` bit patterns (two
//! independent 64-bit FNV-style hashes plus the length), so they are
//! deterministic across runs and independent of where a slice lives in
//! memory — a candidate window and an equal-valued subsequence of another
//! instance share cache entries. A collision needs both 64-bit hashes to
//! agree (~2⁻¹²⁸ per pair); there is no bucket-chain verification.
//!
//! The cache is deliberately `Send`-friendly plain data: per-class caches
//! built on worker threads are merged into a session cache with
//! [`DistCache::absorb`] in deterministic class order.

use std::collections::HashMap;

use crate::batch::{first_non_finite, kernel_profitable, KernelPolicy, SeriesPlan};
use crate::euclid::sliding_min_dist;
use crate::fft::Fft;
use crate::metric::Metric;

/// Work counters exposed through the engine's stage telemetry.
///
/// Every [`DistCache::min_dist`] call is exactly one of the two: a **hit**
/// (memo lookup) or an **eval** (computed, via either the FFT kernel or the
/// naive fallback — the counter tracks cache misses, not which code path
/// served them). So `kernel_evals + cache_hits` equals the number of
/// distance requests issued by the caller. `kernel_fallbacks` counts the
/// *subset* of evals where the FFT path was selected but could not serve
/// the request (non-finite input, or an injected failure from the fault
/// harness) and the cache degraded to the naive loop — it never disturbs
/// the partition invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distances actually computed (cache misses).
    pub kernel_evals: usize,
    /// Distances served from the memo.
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

    /// Total distance requests answered (hits plus computed misses).
    pub fn requests(&self) -> usize {
        self.kernel_evals + self.cache_hits
    }

    /// Fraction of requests served from the memo (`0.0` when idle).
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

/// Content identity of an oriented `(query, series, metric)` request —
/// exactly the key [`DistCache`] memoizes results under. Exposed (via
/// [`min_dist_key`] and [`MinDistKey::oriented`]) so callers that batch
/// requests — the engine's work-item scheduler — can deduplicate a
/// request list against the cache's own notion of identity: requests with
/// equal keys are the ones a sequential memo would serve as one eval plus
/// hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MinDistKey(SliceKey, SliceKey, Metric);

impl MinDistKey {
    /// The key of an already-oriented request (`q.len() ≤ s.len()`) from
    /// the keys of its two slices — for callers that hash each distinct
    /// slice once and reuse it across many requests. Equal to
    /// [`min_dist_key`]`(q, s, metric)`.
    pub fn oriented(q: SliceKey, s: SliceKey, metric: Metric) -> Self {
        debug_assert!(q.0 <= s.0, "query longer than series");
        MinDistKey(q, s, metric)
    }

    /// Identity of the request's series side — the longer slice, whose
    /// series plan the cache keys by this value.
    pub fn series(&self) -> SliceKey {
        self.1
    }
}

/// The memo key a [`DistCache::min_dist`] call with these arguments files
/// under: arguments are oriented (shorter slides over longer) and content
/// hashed, so equal-valued slices in different allocations — and the two
/// argument orders — map to the same key.
pub fn min_dist_key(query: &[f64], series: &[f64], metric: Metric) -> MinDistKey {
    let (q, s) = orient(query, series);
    MinDistKey(SliceKey::of(q), SliceKey::of(s), metric)
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

/// Memoizing distance layer. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct DistCache {
    policy: KernelPolicy,
    ffts: HashMap<usize, Fft>,
    plans: HashMap<SliceKey, SeriesPlan>,
    memo: HashMap<MinDistKey, (f64, usize)>,
    stats: CacheStats,
    /// When `Some`, every kernel-path attempt is treated as failed and
    /// degrades to the naive loop (fault-injection hook; see
    /// [`DistCache::inject_kernel_failure`]).
    forced_failure: Option<String>,
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
    pub fn inject_kernel_failure(&mut self, reason: impl Into<String>) {
        self.forced_failure = Some(reason.into());
    }

    /// Minimum sliding distance of `query` against `series` under `metric`,
    /// with the same conventions as `sliding_min_dist{,_znorm}`: arguments
    /// may come in either order (the shorter slides over the longer; the
    /// memo is keyed on the oriented pair so both orders hit), empty input
    /// yields `(f64::INFINITY, 0)`, and the offset is the first argmin.
    pub fn min_dist(&mut self, query: &[f64], series: &[f64], metric: Metric) -> (f64, usize) {
        let (q, s) = orient(query, series);
        self.min_dist_keyed(min_dist_key(q, s, metric), q, s)
    }

    /// [`DistCache::min_dist`] for an already-oriented request
    /// (`q.len() ≤ s.len()`) whose memo key the caller already holds —
    /// `key` must equal [`min_dist_key`]`(q, s, metric)`, typically built
    /// with [`MinDistKey::oriented`] from slice keys hashed once. Skips the
    /// two content hashes per request; counters and results are exactly
    /// those of `min_dist(q, s, metric)`.
    pub fn min_dist_keyed(&mut self, key: MinDistKey, q: &[f64], s: &[f64]) -> (f64, usize) {
        debug_assert_eq!(
            key,
            min_dist_key(q, s, key.2),
            "key does not match the request"
        );
        debug_assert!(q.len() <= s.len(), "request is not oriented");
        if let Some(&hit) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return hit;
        }
        self.stats.kernel_evals += 1;
        let result = self.compute(q, s, key.2, key.1);
        self.memo.insert(key, result);
        result
    }

    /// Books `n` additional memo hits without issuing any request — for
    /// callers that deduplicate a request list by [`min_dist_key`] up
    /// front and resolve the duplicates themselves: booking the skipped
    /// lookups here keeps the cumulative counters identical to a
    /// sequential memo serving the full request list.
    pub fn note_hits(&mut self, n: usize) {
        self.stats.cache_hits += n;
    }

    fn compute(&mut self, q: &[f64], s: &[f64], metric: Metric, ks: SliceKey) -> (f64, usize) {
        if q.is_empty() || s.is_empty() {
            return (f64::INFINITY, 0);
        }
        let use_kernel = match self.policy {
            KernelPolicy::ForceKernel => true,
            KernelPolicy::ForceNaive => false,
            KernelPolicy::Auto => kernel_profitable(metric, q.len(), s.len()),
        };
        if !use_kernel {
            return self.naive(q, s, metric, ks);
        }
        // Graceful degradation: the FFT path cannot serve poisoned input
        // (one NaN poisons the whole spectrum, losing the naive loop's
        // window-local skipping), and the fault harness can force failures.
        // Both degrade to the naive loop and count a fallback rather than
        // surfacing an error from the scoring hot path.
        if self.forced_failure.is_some()
            || first_non_finite(q).is_some()
            || first_non_finite(s).is_some()
        {
            self.stats.kernel_fallbacks += 1;
            return self.naive(q, s, metric, ks);
        }
        let plan = self.plans.entry(ks).or_insert_with(|| SeriesPlan::new(s));
        let fft = self
            .ffts
            .entry(plan.fft_size())
            .or_insert_with(|| Fft::new(plan.fft_size()));
        plan.min_dist_one(fft, s, q, metric)
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

    /// Merges `other` into `self`: memo entries, FFT plans, and counters.
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
        for (k, v) in other.memo {
            self.memo.entry(k).or_insert(v);
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
    fn memo_hits_and_evals_partition_requests() {
        let s = series(150);
        let q1: Vec<f64> = s[10..40].to_vec();
        let q2: Vec<f64> = s[50..70].to_vec();
        let mut cache = DistCache::new();
        cache.min_dist(&q1, &s, Metric::ZNormEuclidean);
        cache.min_dist(&q2, &s, Metric::ZNormEuclidean);
        cache.min_dist(&q1, &s, Metric::ZNormEuclidean); // hit
        cache.min_dist(&q1, &s, Metric::MeanSquared); // different metric: miss
        let st = cache.stats();
        assert_eq!(st.kernel_evals, 3);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.kernel_evals + st.cache_hits, 4);
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
        // reversed argument order is served from the memo
        let before = cache.stats().cache_hits;
        assert_eq!(cache.min_dist(&s, &q, Metric::MeanSquared), ms);
        assert_eq!(cache.stats().cache_hits, before + 1);
    }

    #[test]
    fn equal_content_different_slices_share_entries() {
        let s = series(100);
        let a: Vec<f64> = s[20..36].to_vec();
        let b: Vec<f64> = s[20..36].to_vec(); // distinct allocation, same values
        let mut cache = DistCache::new();
        cache.min_dist(&a, &s, Metric::MeanSquared);
        cache.min_dist(&b, &s, Metric::MeanSquared);
        assert_eq!(cache.stats().cache_hits, 1);
    }

    #[test]
    fn absorb_merges_counters_and_memo() {
        let s = series(90);
        let mut a = DistCache::new();
        let mut b = DistCache::new();
        a.min_dist(&s[..10], &s, Metric::MeanSquared);
        b.min_dist(&s[..10], &s, Metric::MeanSquared);
        b.min_dist(&s[12..30], &s, Metric::MeanSquared);
        a.absorb(b);
        assert_eq!(a.stats().kernel_evals, 3);
        // both entries now hit
        a.min_dist(&s[..10], &s, Metric::MeanSquared);
        a.min_dist(&s[12..30], &s, Metric::MeanSquared);
        assert_eq!(a.stats().cache_hits, 2);
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
        cache.inject_kernel_failure("chaos");
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

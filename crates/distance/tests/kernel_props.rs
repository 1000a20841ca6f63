//! Property-based equivalence suite for the FFT/MASS kernel.
//!
//! Pins the kernel, reached the way every fit and served request reaches
//! it — through a `DistCache` (here forced onto the kernel with
//! `KernelPolicy::ForceKernel`) — against the naive references
//! `sliding_min_dist{,_znorm}` over random inputs with lengths 1..=64,
//! including the adversarial shapes the kernel must not get wrong:
//! constant (zero-variance) windows, constant queries, fully flat series,
//! and queries longer than the series.
//!
//! The real `proptest` crate is patched to an empty stub in this offline
//! workspace, so this file carries a minimal property harness of its own:
//! a deterministic splitmix64 generator, per-case derived seeds (failures
//! print the case index for replay), and the same `PROPTEST_CASES`
//! environment knob proptest honors (default 64; CI runs 256).
//!
//! ## Contracts pinned here
//!
//! * **Distance**: kernel and naive minima agree within `1e-9·(1+|d|)`,
//!   and the kernel never reports a negative distance.
//! * **Offset**: the returned offset is a *valid* argmin — recomputing the
//!   naive distance at that offset reproduces the minimum. (Exact offset
//!   equality is deliberately not asserted: on inputs with exactly tied
//!   windows — e.g. a flat series under `MeanSquared`, where every window
//!   is equidistant — FFT rounding may pick a different member of the tie.)
//! * **Fused z-norm loop**: `sliding_min_dist_znorm` (one allocation-free
//!   pass over prepared window statistics that scores four adjacent
//!   windows per step in a 4×4 block of lane accumulators, and each of the
//!   last ≤ 3 windows alone) is *bit-identical* — value bits and offset —
//!   to the reference oracle `dist_profile_znorm` + `argmin`, exact ties
//!   and NaN included; a deterministic shape table covers every
//!   `(m mod 4, window count mod 4)` pair, so both the four-window body
//!   and the per-window tail run at every alignment; and a `DistCache`
//!   that serves many queries from one series plan, or a whole query set
//!   through `min_dists`, returns the same bits as the unplanned call.
//! * **Zero-σ convention** (owned by `znorm_dist_from_dot`, shared by the
//!   naive profile and the kernel): both sides constant → distance
//!   exactly `0`; exactly one side constant → z-ED exactly `√m`, i.e.
//!   `sliding_min_dist_znorm`'s mean-squared scale reports `m/m = 1.0`.
//!   Guarded flat inputs must never produce NaN (a NaN entry would poison
//!   a strict `<` argmin scan, which never accepts NaN).

use ips_distance::{
    argmin, dist_profile_znorm, mean_sq_dist, sliding_min_dist, sliding_min_dist_znorm, DistCache,
    KernelPolicy, Metric, QuerySet,
};

/// splitmix64 — deterministic, seedable, no dependencies.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[-100, 100)`.
    fn value(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -100.0 + 200.0 * unit
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }

    /// Values snapped to a coarse grid (`{-2, …, 2}`), so distinct windows
    /// often have exactly equal distances — the tie rule's test bed.
    fn grid_vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.usize_in(0, 4) as f64 - 2.0).collect()
    }
}

fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn close(a: f64, b: f64) -> bool {
    (a == b) || (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Naive reference dispatch, same orientation rules as the kernel.
fn naive(q: &[f64], s: &[f64], metric: Metric) -> (f64, usize) {
    match metric {
        Metric::MeanSquared => sliding_min_dist(q, s),
        Metric::ZNormEuclidean => sliding_min_dist_znorm(q, s),
    }
}

/// The distance of `q` against the single window of `s` at `offset`, on
/// each metric's reported (mean-squared) scale — used to certify that a
/// returned offset is a true argmin witness.
fn dist_at(q: &[f64], s: &[f64], offset: usize, metric: Metric) -> f64 {
    let (q, s) = if q.len() <= s.len() { (q, s) } else { (s, q) };
    let w = &s[offset..offset + q.len()];
    match metric {
        Metric::MeanSquared => mean_sq_dist(q, w),
        Metric::ZNormEuclidean => {
            let p = sliding_min_dist_znorm(q, w);
            p.0
        }
    }
}

/// One request on the kernel path, through a fresh cache.
fn kernel(q: &[f64], s: &[f64], metric: Metric) -> (f64, usize) {
    DistCache::with_policy(KernelPolicy::ForceKernel).min_dist(q, s, metric)
}

/// Core property: the forced kernel matches the naive reference in value,
/// and its offset witnesses the minimum.
fn check_equivalence(q: &[f64], s: &[f64], metric: Metric, tag: &str) {
    let out = kernel(q, s, metric);
    let reference = naive(q, s, metric);
    assert!(
        out.0 >= 0.0,
        "{tag} {metric:?}: negative kernel distance {}",
        out.0
    );
    assert!(
        close(out.0, reference.0),
        "{tag} {metric:?}: kernel {} vs naive {} (q.len={}, s.len={})",
        out.0,
        reference.0,
        q.len(),
        s.len()
    );
    if out.0.is_finite() {
        let witnessed = dist_at(q, s, out.1, metric);
        assert!(
            close(witnessed, reference.0),
            "{tag} {metric:?}: offset {} witnesses {} but the minimum is {}",
            out.1,
            witnessed,
            reference.0
        );
    }
}

#[test]
fn kernel_matches_naive_on_random_inputs() {
    for case in 0..cases() {
        let mut g = Gen(0xA11CE ^ (case as u64) << 1);
        // independent lengths: the query is allowed to be longer than the
        // series (the kernel must reproduce the naive swap semantics)
        let slen = g.usize_in(1, 64);
        let s = g.vec(slen);
        let qlen = g.usize_in(1, 64);
        let q = g.vec(qlen);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            check_equivalence(&q, &s, metric, &format!("case {case}"));
        }
    }
}

#[test]
fn kernel_matches_naive_with_constant_regions() {
    for case in 0..cases() {
        let mut g = Gen(0xC0457 ^ (case as u64) << 1);
        // a series with an embedded exactly-constant run (zero-variance
        // windows for every length up to the run length)
        let head = g.usize_in(1, 24);
        let mut s = g.vec(head);
        let level = g.value();
        let run = g.usize_in(1, 24);
        s.extend(std::iter::repeat_n(level, run));
        let tail = g.usize_in(0, 16);
        let extra = g.vec(tail);
        s.extend(extra);
        // alternate constant and varying queries
        let qlen = g.usize_in(1, 32);
        let q: Vec<f64> = if case % 2 == 0 {
            vec![g.value(); qlen]
        } else {
            g.vec(qlen)
        };
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            check_equivalence(&q, &s, metric, &format!("const case {case}"));
        }
    }
}

#[test]
fn mass_derived_min_matches_naive_znorm() {
    for case in 0..cases() {
        let mut g = Gen(0x3A55 ^ (case as u64) << 1);
        let slen = g.usize_in(2, 64);
        let s = g.vec(slen);
        let qlen = g.usize_in(1, s.len());
        let q = g.vec(qlen);
        // q.len() ≤ s.len(): the kernel runs unswapped, and its minimum is
        // MASS's best z-normalized distance on the mean-squared scale
        let (got, _) = kernel(&q, &s, Metric::ZNormEuclidean);
        let reference = sliding_min_dist_znorm(&q, &s).0;
        assert!(got.is_finite(), "case {case}: non-finite MASS minimum");
        assert!(
            close(got, reference),
            "case {case}: mass-derived {got} vs naive {reference}"
        );
    }
}

#[test]
fn cache_agrees_with_naive_and_partitions_requests() {
    for case in 0..cases().min(32) {
        let mut g = Gen(0xD15C ^ (case as u64) << 1);
        let slen = g.usize_in(8, 64);
        let s = g.vec(slen);
        let queries: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let qlen = g.usize_in(1, 64);
                g.vec(qlen)
            })
            .collect();
        let mut cache = DistCache::new();
        let mut requests = 0usize;
        for _round in 0..2 {
            for q in &queries {
                for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
                    let got = cache.min_dist(q, &s, metric);
                    let reference = naive(q, &s, metric);
                    assert!(close(got.0, reference.0), "case {case} {metric:?}");
                    requests += 1;
                }
            }
        }
        // no result memo; every request, repeats included, is one eval
        let st = cache.stats();
        assert_eq!(st.kernel_evals, requests, "case {case}");
        assert_eq!(st.cache_hits, 0, "case {case}");
    }
}

// ---- pinned zero-variance regressions (satellite: flat series must not ----
// ---- poison the argmin with NaN)                                       ----

#[test]
fn flat_series_regression_no_nan_poisoning() {
    let flat = vec![3.25; 48];
    let q: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).sin()).collect();

    // every window of a flat series is constant and the query is not, so
    // every z-ED is exactly √m (the one-side-constant convention) and
    // naive and kernel minima agree on the pinned value m/m = 1.0
    assert_eq!(sliding_min_dist_znorm(&q, &flat), (1.0, 0));
    assert_eq!(kernel(&q, &flat, Metric::ZNormEuclidean).0, 1.0);

    // flat vs flat (different levels): identical after z-normalization
    let flat_q = vec![-7.5; 6];
    assert_eq!(sliding_min_dist_znorm(&flat_q, &flat), (0.0, 0));
    assert_eq!(kernel(&flat_q, &flat, Metric::ZNormEuclidean).0, 0.0);
}

#[test]
fn query_longer_than_series_follows_swap_semantics() {
    let mut g = Gen(0x10CA1);
    let s = g.vec(12);
    let q = g.vec(40);
    for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
        let out = kernel(&q, &s, metric);
        let reference = naive(&q, &s, metric);
        assert!(close(out.0, reference.0), "{metric:?}");
    }
}

// ---- the fused z-norm loop against its reference oracle ----

/// The reference the fused loop replaced: the full z-normalized profile,
/// its first NaN-skipping [`argmin`], converted to the mean-squared scale.
fn profile_argmin(q: &[f64], s: &[f64]) -> (f64, usize) {
    let (q, s) = if q.len() <= s.len() { (q, s) } else { (s, q) };
    if q.is_empty() {
        return (f64::INFINITY, 0);
    }
    argmin(&dist_profile_znorm(q, s))
        .map_or((f64::INFINITY, 0), |(i, d)| (d * d / q.len() as f64, i))
}

fn assert_bit_identical(got: (f64, usize), want: (f64, usize), tag: &str) {
    assert!(
        got.0.to_bits() == want.0.to_bits() && got.1 == want.1,
        "{tag}: fused ({:e}, {}) vs profile+argmin ({:e}, {})",
        got.0,
        got.1,
        want.0,
        want.1
    );
}

#[test]
fn fused_znorm_loop_is_bit_identical_to_the_profile_argmin() {
    for case in 0..cases() {
        let mut g = Gen(0xF05E ^ (case as u64) << 1);
        let n = g.usize_in(1, 64);
        // a quarter of the cases draw from a coarse grid (exact ties)
        let mut s = if case % 4 == 0 {
            g.grid_vec(n)
        } else {
            g.vec(n)
        };
        // a planted exactly-constant run in every third series
        if case % 3 == 0 && n > 1 {
            let at = g.usize_in(0, n - 1);
            let run = g.usize_in(1, n - at);
            let level = g.value();
            s[at..at + run].fill(level);
        }
        // window lengths: 1, n, and in between — n − m + 1 windows then
        // falls in every residue mod 4 across cases (the four-window
        // loop's per-window tail)
        let m = match case % 5 {
            0 => 1,
            1 => n,
            _ => g.usize_in(1, n),
        };
        let q = match case % 7 {
            0 => vec![g.value(); m],
            1 => g.grid_vec(m),
            _ => g.vec(m),
        };
        let tag = format!("case {case} (n={n}, m={m})");
        for (a, b) in [(&q, &s), (&s, &q)] {
            assert_bit_identical(sliding_min_dist_znorm(a, b), profile_argmin(a, b), &tag);
        }
        // a NaN poisons the windows touching it (and a NaN query, all of
        // them): those lose the argmin to `+∞`, never win it
        let mut poisoned = s.clone();
        poisoned[g.usize_in(0, n - 1)] = f64::NAN;
        assert_bit_identical(
            sliding_min_dist_znorm(&q, &poisoned),
            profile_argmin(&q, &poisoned),
            &format!("{tag} NaN series"),
        );
        let mut bad_q = q.clone();
        bad_q[g.usize_in(0, m - 1)] = f64::NAN;
        assert_bit_identical(
            sliding_min_dist_znorm(&bad_q, &s),
            profile_argmin(&bad_q, &s),
            &format!("{tag} NaN query"),
        );
    }
}

/// One series probed by many queries of mixed lengths, in both argument
/// orders, through one cache — so the series plan's window statistics
/// serve every query of a length after the first. Each answer must carry
/// the unplanned call's bits, and the shared cache must count exactly
/// what fresh caches would (one eval per request, repeats included).
#[test]
fn planned_cache_znorm_matches_the_unplanned_loop_bit_for_bit() {
    for case in 0..cases().min(64) {
        let mut g = Gen(0x5EED ^ (case as u64) << 1);
        // below the kernel crossover's n ≥ 128, so `Auto` serves every
        // request with the naive loop, exactly as `ForceNaive` does
        let n = g.usize_in(8, 127);
        let s = if case % 4 == 0 {
            g.grid_vec(n)
        } else {
            g.vec(n)
        };
        let lengths = [1, 2, g.usize_in(3, n), g.usize_in(3, n), n];
        let queries: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let m = lengths[g.usize_in(0, lengths.len() - 1)];
                if i % 5 == 4 {
                    vec![g.value(); m]
                } else if i % 3 == 2 {
                    // a window of the series itself: an exact match
                    let at = g.usize_in(0, n - m);
                    s[at..at + m].to_vec()
                } else {
                    g.vec(m)
                }
            })
            .collect();
        for policy in [KernelPolicy::Auto, KernelPolicy::ForceNaive] {
            let mut shared = DistCache::with_policy(policy);
            let mut requests = 0;
            // two rounds: the second reuses every plan the first built
            for round in 0..2 {
                for (i, q) in queries.iter().enumerate() {
                    let (a, b) = if (i + round) % 2 == 0 {
                        (q.as_slice(), s.as_slice())
                    } else {
                        (s.as_slice(), q.as_slice())
                    };
                    let tag = format!("case {case} {policy:?} round {round} query {i}");
                    let want = sliding_min_dist_znorm(a, b);
                    assert_bit_identical(shared.min_dist(a, b, Metric::ZNormEuclidean), want, &tag);
                    let mut fresh = DistCache::with_policy(policy);
                    assert_bit_identical(fresh.min_dist(a, b, Metric::ZNormEuclidean), want, &tag);
                    assert_eq!(
                        (fresh.stats().kernel_evals, fresh.stats().cache_hits),
                        (1, 0)
                    );
                    requests += 1;
                }
            }
            let st = shared.stats();
            assert_eq!(st.kernel_evals, requests, "case {case} {policy:?}");
            assert_eq!(st.cache_hits, 0, "case {case} {policy:?}");
            assert_eq!(st.kernel_fallbacks, 0, "case {case} {policy:?}");
        }
    }
}

/// Every `(m mod 4, window count mod 4)` pair at small and large sizes —
/// window counts 1–3 (no four-window step) and m = 1–3 (no full lane
/// block) included — over random values, grid-snapped values (exact
/// ties), a planted constant run (zero-σ windows) and a NaN window, each
/// scored three ways: the unplanned loop, a series plan shared by the
/// queries (`min_dist` under `ForceNaive`), and one `min_dists` call over
/// the whole query set. All must carry the profile+argmin oracle's bits
/// and offset.
#[test]
fn four_window_loop_is_bit_identical_at_every_shape() {
    let lengths = [1, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 32, 97, 98, 99, 100];
    let counts = [1, 2, 3, 4, 5, 6, 7, 8, 61, 62, 63, 64, 197, 198, 199, 200];
    for (a, &m) in lengths.iter().enumerate() {
        for (b, &windows) in counts.iter().enumerate() {
            let n = m + windows - 1;
            let mut g = Gen(0x4A4A ^ ((a * counts.len() + b) as u64) << 1);
            let random = g.vec(n);
            let grid = g.grid_vec(n);
            let mut flat_run = g.vec(n);
            let at = g.usize_in(0, n - 1);
            let run = g.usize_in(1, n - at).max(m.min(n - at));
            let level = g.value();
            flat_run[at..at + run].fill(level);
            let mut poisoned = g.grid_vec(n);
            poisoned[g.usize_in(0, n - 1)] = f64::NAN;
            for (kind, s) in [
                ("random", random),
                ("grid", grid),
                ("constant run", flat_run),
                ("NaN window", poisoned),
            ] {
                let exact = g.usize_in(0, n - m);
                let queries = QuerySet::new(vec![
                    g.vec(m),
                    g.grid_vec(m),
                    vec![g.value(); m],
                    s[exact..exact + m].to_vec(),
                ]);
                let mut plan = DistCache::with_policy(KernelPolicy::ForceNaive);
                let set = DistCache::with_policy(KernelPolicy::ForceNaive).min_dists(
                    &queries,
                    &s,
                    Metric::ZNormEuclidean,
                );
                for (i, q) in queries.queries().iter().enumerate() {
                    let tag = format!("m={m} windows={windows} {kind} series, query {i}");
                    let want = profile_argmin(q, &s);
                    assert_bit_identical(sliding_min_dist_znorm(q, &s), want, &tag);
                    assert_bit_identical(
                        plan.min_dist(q, &s, Metric::ZNormEuclidean),
                        want,
                        &format!("{tag} (plan)"),
                    );
                    assert_bit_identical(set[i], want, &format!("{tag} (min_dists)"));
                }
            }
        }
    }
}

//! Property-based tests of the classifiers and transform.
//!
//! The scorer (`ShapeletTransform::score`) serves the shapelets the naive
//! loop handles from statistics prepared once per transform and one
//! window-statistics pass per series; the properties below pin it, bit
//! for bit on the distance and equal on the offset, against one
//! `DistCache::min_dist` request per shapelet.

use ips_classify::svm::SvmParams;
use ips_classify::{accuracy, LinearSvm, OneNnEd, Shapelet, ShapeletTransform};
use ips_distance::{DistCache, KernelPolicy, Metric};
use ips_tsdata::{Dataset, TimeSeries};
use proptest::prelude::*;

/// splitmix64, for the scorer properties' structured inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Values on a coarse grid half the time, so windows tie exactly.
    fn values(&mut self, len: usize) -> Vec<f64> {
        let coarse = self.below(2) == 0;
        (0..len)
            .map(|_| {
                let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
                if coarse {
                    (u * 4.0).floor()
                } else {
                    20.0 * u - 10.0
                }
            })
            .collect()
    }

    /// A window or shapelet: random, or constant one time in five.
    fn series(&mut self, len: usize) -> Vec<f64> {
        if self.below(5) == 0 {
            vec![self.values(1)[0] + 100.0; len]
        } else {
            self.values(len)
        }
    }
}

/// `t.score(window)` against one fresh-cache `min_dist` per shapelet:
/// equal distance bits and offsets, and one booked eval per shapelet.
fn assert_scores_match_min_dist(t: &ShapeletTransform, window: &[f64]) {
    let metric = if t.znorm() {
        Metric::ZNormEuclidean
    } else {
        Metric::MeanSquared
    };
    let mut cache = DistCache::new();
    let got = t.score(window, &mut cache);
    assert_eq!(cache.stats().kernel_evals, t.dim());
    assert_eq!(got.len(), t.dim());
    for (i, (s, &(d, at))) in t.shapelets().iter().zip(&got).enumerate() {
        let (want, want_at) = DistCache::new().min_dist(&s.values, window, metric);
        assert_eq!(
            (d.to_bits(), at),
            (want.to_bits(), want_at),
            "shapelet {i} (len {}) on a window of {}: {d} at {at}, want {want} at {want_at}",
            s.len(),
            window.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_nn_is_perfect_on_its_own_training_set(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 6..=6), 2..12),
    ) {
        // distinct-series training sets classify themselves perfectly
        let mut unique = rows.clone();
        unique.sort_by(|a, b| a.partial_cmp(b).unwrap());
        unique.dedup();
        prop_assume!(unique.len() == rows.len());
        let labels: Vec<u32> = (0..rows.len() as u32).collect();
        let d = Dataset::new(rows.into_iter().map(TimeSeries::new).collect(), labels).unwrap();
        let model = OneNnEd::fit(&d);
        prop_assert_eq!(model.accuracy(&d), 1.0);
    }

    #[test]
    fn transform_distances_are_nonnegative_and_zero_on_source(
        series in prop::collection::vec(-10.0f64..10.0, 10..40),
        off in 0usize..8,
        len in 3usize..6,
    ) {
        prop_assume!(off + len <= series.len());
        let shapelet = Shapelet::new(series[off..off + len].to_vec(), 0);
        let t = ShapeletTransform::new(vec![shapelet], false);
        let d = t.transform_one_with_cache(&TimeSeries::new(series.clone()), &mut DistCache::new());
        prop_assert_eq!(d.len(), 1);
        prop_assert!(d[0] >= 0.0);
        prop_assert!(d[0] < 1e-9, "own subsequence must match exactly: {}", d[0]);
    }

    #[test]
    fn prepared_scorer_matches_min_dist_per_shapelet(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let n = 1 + g.below(48);
        // A handful of lengths so they repeat, 1 and longer-than-window
        // lengths included.
        let lengths = [1, 1 + g.below(8), 2 + g.below(n), n, n + 1 + g.below(6)];
        let k = 1 + g.below(9);
        let shapelets: Vec<Shapelet> = (0..k)
            .map(|c| {
                let len = lengths[g.below(lengths.len())];
                Shapelet::new(g.series(len), c as u32)
            })
            .collect();
        let mut window = g.series(n);
        for znorm in [false, true] {
            let t = ShapeletTransform::new(shapelets.clone(), znorm);
            assert_scores_match_min_dist(&t, &window);
        }
        // A window holding a NaN (the server rejects one; the scorer
        // still agrees with the cache, window for window).
        window[g.below(n)] = f64::NAN;
        for znorm in [false, true] {
            let t = ShapeletTransform::new(shapelets.clone(), znorm);
            assert_scores_match_min_dist(&t, &window);
        }
    }

    #[test]
    fn svm_separates_separable_blobs(
        gap in 2.0f64..10.0,
        spread in 0.01f64..0.4,
        n in 10usize..40,
    ) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let jitter = spread * ((i * 37 % 17) as f64 / 17.0 - 0.5);
            x.push(vec![-gap + jitter, jitter]);
            y.push(0);
            x.push(vec![gap - jitter, -jitter]);
            y.push(1);
        }
        let svm = LinearSvm::fit(&x, &y, SvmParams::default());
        let acc = accuracy(&svm.predict_all(&x), &y);
        prop_assert!(acc > 0.95, "acc {}", acc);
    }

    #[test]
    fn accuracy_is_symmetric_under_label_permutation(
        preds in prop::collection::vec(0u32..4, 1..50),
    ) {
        // accuracy(p, p) is always 1; accuracy is in [0,1]
        prop_assert_eq!(accuracy(&preds, &preds), 1.0);
        let shifted: Vec<u32> = preds.iter().map(|p| (p + 1) % 4).collect();
        let a = accuracy(&preds, &shifted);
        prop_assert!((0.0..=1.0).contains(&a));
    }
}

/// At n = 2048, `Auto` sends a z-normalized length-512 shapelet to the FFT
/// kernel and keeps the short ones on the naive loop; the scorer agrees
/// with `min_dist` on both, and the long one's bits are the kernel's.
#[test]
fn prepared_scorer_matches_min_dist_where_auto_picks_the_kernel() {
    let mut g = Gen(2048);
    let window = g.values(2048);
    let shapelets = vec![
        Shapelet::new(window[700..1212].to_vec(), 0),
        Shapelet::new(g.values(512), 1),
        Shapelet::new(g.values(24), 0),
        Shapelet::new(window[99..123].to_vec(), 1),
    ];
    for znorm in [false, true] {
        let t = ShapeletTransform::new(shapelets.clone(), znorm);
        assert_scores_match_min_dist(&t, &window);
    }
    let t = ShapeletTransform::new(shapelets, true);
    let scores = t.score(&window, &mut DistCache::new());
    let mut kernel = DistCache::with_policy(KernelPolicy::ForceKernel);
    for (s, &(d, at)) in t.shapelets()[..2].iter().zip(&scores) {
        let forced = kernel.min_dist(&s.values, &window, Metric::ZNormEuclidean);
        assert_eq!((d.to_bits(), at), (forced.0.to_bits(), forced.1));
    }
}

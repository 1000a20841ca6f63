//! Shapelets, the shapelet transform (Definitions 6–7), and the
//! transform + linear-SVM classification head (Section III-E).
//!
//! A shapelet is a discriminative subsequence tagged with the class it
//! represents. The transform maps a series `T_j` to the embedding
//! `(d_{j,1}, …, d_{j,|S|})` where `d_{j,i} = dist(T_j, S_i)` under the
//! paper's sliding-min mean-squared distance (Definition 4), or its
//! z-normalized variant; a [`ShapeletClassifier`] then classifies the
//! embedding with a linear SVM.
//!
//! Every distance between a shapelet and a series — a fit's features, a
//! prediction, a served request, an explanation's best match — comes from
//! one scorer, [`ShapeletTransform::score`], through a [`DistCache`]. The
//! transform prepares its shapelets when it is built (at the end of a fit,
//! at model load), so the scorer only computes the series' side.

use ips_distance::{DistCache, Metric, QuerySet, SliceKey};
use ips_tsdata::{Dataset, TimeSeries};

use crate::svm::{LinearSvm, SvmParams};

/// A discovered shapelet: the subsequence, the class it represents, and
/// provenance (where it was extracted).
#[derive(Debug, Clone, PartialEq)]
pub struct Shapelet {
    /// The subsequence values.
    pub values: Vec<f64>,
    /// The class this shapelet represents.
    pub class: u32,
    /// Index of the source instance in the training set (`usize::MAX`
    /// when synthetic or unknown).
    pub source_instance: usize,
    /// Start offset within the source instance.
    pub source_offset: usize,
    /// The utility / quality score assigned by the discovering method
    /// (higher = better; semantics are method-specific).
    pub score: f64,
}

impl Shapelet {
    /// Constructs a shapelet without provenance.
    pub fn new(values: Vec<f64>, class: u32) -> Self {
        Self {
            values,
            class,
            source_instance: usize::MAX,
            source_offset: 0,
            score: 0.0,
        }
    }

    /// Length of the subsequence.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a degenerate empty shapelet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl AsRef<[f64]> for Shapelet {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

/// The shapelet transform: a fixed set of shapelets defining an embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeletTransform {
    /// The shapelets, prepared for scoring: each one's z-norm moments and
    /// the same-length groups.
    shapelets: QuerySet<Shapelet>,
    /// Whether distances are computed under z-normalization.
    znorm: bool,
}

impl ShapeletTransform {
    /// Builds a transform from discovered shapelets. `znorm` selects the
    /// z-normalized distance variant (the paper's Definition 4 is raw; the
    /// pipeline default is z-normalized).
    pub fn new(shapelets: Vec<Shapelet>, znorm: bool) -> Self {
        assert!(
            !shapelets.is_empty(),
            "transform needs at least one shapelet"
        );
        assert!(shapelets.iter().all(|s| !s.is_empty()), "empty shapelet");
        Self {
            shapelets: QuerySet::new(shapelets),
            znorm,
        }
    }

    /// The shapelets, in embedding order.
    pub fn shapelets(&self) -> &[Shapelet] {
        self.shapelets.queries()
    }

    /// Embedding dimension `|S|`.
    pub fn dim(&self) -> usize {
        self.shapelets.queries().len()
    }

    /// Whether distances are computed under z-normalization.
    pub fn znorm(&self) -> bool {
        self.znorm
    }

    fn metric(&self) -> Metric {
        if self.znorm {
            Metric::ZNormEuclidean
        } else {
            Metric::MeanSquared
        }
    }

    /// The scorer: every shapelet's `(distance, best-match offset)`
    /// against `series`, in embedding order, through
    /// [`DistCache::min_dists`] — one window-statistics pass shared by
    /// every shapelet the naive loop serves, with the shapelets' moments
    /// prepared at construction; `cache` keeps the series' plan for the
    /// shapelets the FFT kernel serves. The offset indexes `series`,
    /// except for a shapelet longer than the series, where the series
    /// slides over the shapelet and the offset indexes the shapelet.
    pub fn score(&self, series: &[f64], cache: &mut DistCache) -> Vec<(f64, usize)> {
        cache.min_dists(&self.shapelets, series, self.metric())
    }

    /// One entry of [`score`](Self::score), with the same bits:
    /// `shapelet` against `series` under this transform's metric, through
    /// the series plan `cache` keeps under `key` (= [`SliceKey::of`]`(series)`),
    /// for a caller that needs only part of a row and scores each series
    /// through a cache that already holds its plan (a fit's training rows).
    pub fn score_keyed(
        &self,
        shapelet: &Shapelet,
        series: &[f64],
        key: SliceKey,
        cache: &mut DistCache,
    ) -> (f64, usize) {
        if shapelet.len() <= series.len() {
            cache.min_dist_keyed(key, &shapelet.values, series, self.metric())
        } else {
            cache.min_dist(&shapelet.values, series, self.metric())
        }
    }

    /// One series' distance embedding, through `cache`.
    pub fn transform_one_with_cache(&self, series: &TimeSeries, cache: &mut DistCache) -> Vec<f64> {
        self.score(series.values(), cache)
            .into_iter()
            .map(|(d, _)| d)
            .collect()
    }

    /// A dataset's feature matrix (row per instance) through `cache` —
    /// when the cache comes from discovery, the transform starts from the
    /// training series' plans.
    pub fn transform_with_cache(&self, data: &Dataset, cache: &mut DistCache) -> Vec<Vec<f64>> {
        data.all_series()
            .iter()
            .map(|s| self.transform_one_with_cache(s, cache))
            .collect()
    }

    /// [`transform_with_cache`](Self::transform_with_cache) through a
    /// fresh cache.
    pub fn transform(&self, data: &Dataset) -> Vec<Vec<f64>> {
        self.transform_with_cache(data, &mut DistCache::new())
    }
}

/// The classification head (Section III-E): a shapelet transform and the
/// linear SVM trained on its embedding. IPS and every shapelet baseline
/// classify through this one type.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeletClassifier {
    transform: ShapeletTransform,
    svm: LinearSvm,
}

impl ShapeletClassifier {
    /// Pairs a transform with an SVM trained on its embedding.
    pub fn new(transform: ShapeletTransform, svm: LinearSvm) -> Self {
        Self { transform, svm }
    }

    /// Trains the SVM on `features` — the transform's embedding of a
    /// training set labelled `labels` — with the default SVM parameters
    /// under `seed`.
    pub fn fit(
        transform: ShapeletTransform,
        features: &[Vec<f64>],
        labels: &[u32],
        seed: u64,
    ) -> Self {
        let params = SvmParams {
            seed,
            ..SvmParams::default()
        };
        Self::new(transform, LinearSvm::fit(features, labels, params))
    }

    /// The shapelet transform.
    pub fn transform(&self) -> &ShapeletTransform {
        &self.transform
    }

    /// The SVM head.
    pub fn svm(&self) -> &LinearSvm {
        &self.svm
    }

    /// The shapelets, in embedding order.
    pub fn shapelets(&self) -> &[Shapelet] {
        self.transform.shapelets()
    }

    /// Predicts the series `values` through `cache` (a server shares one
    /// across a work item's requests and scores each request's window in
    /// place).
    pub fn predict_with_cache(&self, values: &[f64], cache: &mut DistCache) -> u32 {
        let features: Vec<f64> = self
            .transform
            .score(values, cache)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        self.svm.predict(&features)
    }

    /// Predicts one series through a fresh cache, so memory stays bounded
    /// however many series are predicted.
    pub fn predict(&self, series: &TimeSeries) -> u32 {
        self.predict_with_cache(series.values(), &mut DistCache::new())
    }

    /// Predicts a whole test set.
    pub fn predict_all(&self, test: &Dataset) -> Vec<u32> {
        test.all_series().iter().map(|s| self.predict(s)).collect()
    }

    /// Accuracy on a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        crate::eval::accuracy(&self.predict_all(test), test.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::TimeSeries;

    fn dataset() -> Dataset {
        // class 0 contains the pattern [5,6,5]; class 1 contains [-5,-6,-5]
        let mk = |pat: [f64; 3], at: usize| {
            let mut v = vec![0.0; 12];
            v[at..at + 3].copy_from_slice(&pat);
            TimeSeries::new(v)
        };
        Dataset::new(
            vec![
                mk([5.0, 6.0, 5.0], 2),
                mk([5.0, 6.0, 5.0], 7),
                mk([-5.0, -6.0, -5.0], 3),
                mk([-5.0, -6.0, -5.0], 8),
            ],
            vec![0, 0, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn distance_is_zero_at_exact_occurrence() {
        let t = ShapeletTransform::new(vec![Shapelet::new(vec![5.0, 6.0, 5.0], 0)], false);
        let d = dataset();
        let mut cache = DistCache::new();
        assert_eq!(t.score(d.series(0).values(), &mut cache), vec![(0.0, 2)]);
        assert!(t.score(d.series(2).values(), &mut cache)[0].0 > 1.0);
        assert_eq!(t.score(d.series(1).values(), &mut cache), vec![(0.0, 7)]);
    }

    #[test]
    fn transform_separates_classes_linearly() {
        let t = ShapeletTransform::new(
            vec![
                Shapelet::new(vec![5.0, 6.0, 5.0], 0),
                Shapelet::new(vec![-5.0, -6.0, -5.0], 1),
            ],
            false,
        );
        let d = dataset();
        let x = t.transform(&d);
        assert_eq!(x.len(), 4);
        assert_eq!(t.dim(), 2);
        // class 0 instances: near shapelet 0, far from shapelet 1
        assert!(x[0][0] < 0.1 && x[0][1] > 1.0);
        assert!(x[1][0] < 0.1 && x[1][1] > 1.0);
        assert!(x[2][1] < 0.1 && x[2][0] > 1.0);
        assert!(x[3][1] < 0.1 && x[3][0] > 1.0);
    }

    #[test]
    fn znorm_variant_is_scale_invariant() {
        let t = ShapeletTransform::new(vec![Shapelet::new(vec![1.0, 2.0, 1.0, 0.0], 0)], true);
        let series: Vec<f64> = vec![0.0, 10.0, 20.0, 10.0, 0.0, 0.0];
        let scaled: Vec<f64> = series.iter().map(|v| v * 3.0 + 5.0).collect();
        let (d1, at1) = t.score(&series, &mut DistCache::new())[0];
        let (d2, at2) = t.score(&scaled, &mut DistCache::new())[0];
        assert!((d1 - d2).abs() < 1e-9);
        assert_eq!(at1, at2);
    }

    #[test]
    fn provenance_fields_round_trip() {
        let s = Shapelet {
            values: vec![1.0, 2.0],
            class: 3,
            source_instance: 7,
            source_offset: 11,
            score: 0.9,
        };
        assert_eq!(s.len(), 2);
        assert_eq!(s.class, 3);
        assert_eq!(s.source_instance, 7);
        assert_eq!(s.source_offset, 11);
    }

    /// Four 512-point noisy sine series (two per class) for the
    /// long-series case. The noise matters: on smooth series the kernel
    /// and the naive loop happen to round alike.
    fn long_dataset() -> Dataset {
        let series = |seed: u64| {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let v = (0..512)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let noise = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (i as f64 * 0.07 + seed as f64).sin() + 0.5 * noise
                })
                .collect();
            TimeSeries::new(v)
        };
        Dataset::new((1..=4).map(series).collect(), vec![0, 0, 1, 1]).unwrap()
    }

    #[test]
    fn cached_transform_matches_uncached() {
        let t = ShapeletTransform::new(
            vec![
                Shapelet::new(vec![5.0, 6.0, 5.0], 0),
                Shapelet::new(vec![-5.0, -6.0, -5.0], 1),
            ],
            false,
        );
        let d = dataset();
        for znorm in [false, true] {
            let t = ShapeletTransform::new(t.shapelets().to_vec(), znorm);
            let plain = t.transform(&d);
            let mut cache = DistCache::new();
            let cached = t.transform_with_cache(&d, &mut cache);
            assert_eq!(plain, cached, "znorm={znorm}");
        }
        // a second pass over the same data reuses every plan: same
        // features, one more eval per (shapelet, series) pair, no hits
        let mut cache = DistCache::new();
        let first = t.transform_with_cache(&d, &mut cache);
        let evals = cache.stats().kernel_evals;
        assert_eq!(evals, t.dim() * d.len());
        assert_eq!(t.transform_with_cache(&d, &mut cache), first);
        assert_eq!(cache.stats().kernel_evals, 2 * evals);
        assert_eq!(cache.stats().cache_hits, 0);

        // Long series: at n = 512, `Auto` serves the z-normalized
        // length-128 shapelet with the FFT kernel (the length-8 one stays
        // on the naive loop). A fresh-cache transform, a shared-cache
        // transform and the features `predict` hands the SVM are one
        // scorer's output, bit for bit.
        let long = long_dataset();
        let source = long.series(0).values();
        let t = ShapeletTransform::new(
            vec![
                Shapelet::new(source[40..168].to_vec(), 0),
                Shapelet::new(long.series(2).values()[300..308].to_vec(), 1),
            ],
            true,
        );
        let plain = t.transform(&long);
        let bits = |x: &[Vec<f64>]| -> Vec<Vec<u64>> {
            x.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let cached = t.transform_with_cache(&long, &mut DistCache::new());
        assert_eq!(bits(&plain), bits(&cached));
        let predict_rows: Vec<Vec<f64>> = long
            .all_series()
            .iter()
            .map(|s| t.transform_one_with_cache(s, &mut DistCache::new()))
            .collect();
        assert_eq!(bits(&plain), bits(&predict_rows));
        // The kernel really served the long shapelet: its column matches a
        // kernel-only cache bit for bit.
        let mut kernel = DistCache::with_policy(ips_distance::KernelPolicy::ForceKernel);
        let forced = t.transform_with_cache(&long, &mut kernel);
        let col = |x: &[Vec<f64>]| x.iter().map(|r| r[0].to_bits()).collect::<Vec<_>>();
        assert_eq!(col(&plain), col(&forced));
        // And the head predicts from exactly those features.
        let head = ShapeletClassifier::fit(t, &plain, long.labels(), 7);
        for (s, row) in long.all_series().iter().zip(&plain) {
            assert_eq!(head.predict(s), head.svm().predict(row));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shapelet")]
    fn transform_rejects_empty_set() {
        ShapeletTransform::new(vec![], false);
    }

    #[test]
    #[should_panic(expected = "empty shapelet")]
    fn transform_rejects_empty_shapelet() {
        ShapeletTransform::new(vec![Shapelet::new(vec![], 0)], false);
    }
}

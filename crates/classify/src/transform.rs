//! Shapelets and the shapelet transform (Definitions 6–7).
//!
//! A shapelet is a discriminative subsequence tagged with the class it
//! represents. The transform maps a series `T_j` to the embedding
//! `(d_{j,1}, …, d_{j,|S|})` where `d_{j,i} = dist(T_j, S_i)` under the
//! paper's sliding-min mean-squared distance (Definition 4); a standard
//! classifier then operates on the embedding.

use ips_distance::{sliding_min_dist, sliding_min_dist_znorm, DistCache, Metric};
use ips_tsdata::{Dataset, TimeSeries};

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

    /// Distance from this shapelet to a series (Definition 4 / Formula 3).
    pub fn distance_to(&self, series: &[f64], znorm: bool) -> f64 {
        if znorm {
            sliding_min_dist_znorm(&self.values, series).0
        } else {
            sliding_min_dist(&self.values, series).0
        }
    }

    /// Best-match offset of this shapelet in a series.
    pub fn best_match(&self, series: &[f64], znorm: bool) -> (f64, usize) {
        if znorm {
            sliding_min_dist_znorm(&self.values, series)
        } else {
            sliding_min_dist(&self.values, series)
        }
    }

    /// [`distance_to`](Self::distance_to) routed through the FFT/MASS
    /// distance cache, which reuses the series' plan across calls. The
    /// cache's crossover heuristic keeps the naive loop for short inputs,
    /// so the value matches `distance_to` up to FFT rounding (~1e-9
    /// relative).
    pub fn distance_to_cached(&self, series: &[f64], znorm: bool, cache: &mut DistCache) -> f64 {
        let metric = if znorm {
            Metric::ZNormEuclidean
        } else {
            Metric::MeanSquared
        };
        cache.min_dist(&self.values, series, metric).0
    }
}

/// The shapelet transform: a fixed set of shapelets defining an embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeletTransform {
    shapelets: Vec<Shapelet>,
    /// Whether distances are computed under z-normalization.
    znorm: bool,
}

impl ShapeletTransform {
    /// Builds a transform from discovered shapelets. `znorm` selects the
    /// z-normalized distance variant (the paper's Definition 4 is raw, so
    /// the pipeline default is `false`).
    pub fn new(shapelets: Vec<Shapelet>, znorm: bool) -> Self {
        assert!(
            !shapelets.is_empty(),
            "transform needs at least one shapelet"
        );
        assert!(shapelets.iter().all(|s| !s.is_empty()), "empty shapelet");
        Self { shapelets, znorm }
    }

    /// The shapelets, in embedding order.
    pub fn shapelets(&self) -> &[Shapelet] {
        &self.shapelets
    }

    /// Embedding dimension `|S|`.
    pub fn dim(&self) -> usize {
        self.shapelets.len()
    }

    /// Whether distances are computed under z-normalization.
    pub fn znorm(&self) -> bool {
        self.znorm
    }

    /// Transforms one series into its distance embedding.
    pub fn transform_one(&self, series: &TimeSeries) -> Vec<f64> {
        self.shapelets
            .iter()
            .map(|s| s.distance_to(series.values(), self.znorm))
            .collect()
    }

    /// Transforms a whole dataset into a feature matrix (row per
    /// instance).
    pub fn transform(&self, data: &Dataset) -> Vec<Vec<f64>> {
        data.all_series()
            .iter()
            .map(|s| self.transform_one(s))
            .collect()
    }

    /// [`transform_one`](Self::transform_one) drawing distances from a
    /// shared cache: each series' plan (window statistics, FFT spectrum)
    /// is built once and reused across all shapelets — and across stages,
    /// when the cache comes from discovery.
    pub fn transform_one_with_cache(&self, series: &TimeSeries, cache: &mut DistCache) -> Vec<f64> {
        self.shapelets
            .iter()
            .map(|s| s.distance_to_cached(series.values(), self.znorm, cache))
            .collect()
    }

    /// [`transform`](Self::transform) through a shared distance cache.
    pub fn transform_with_cache(&self, data: &Dataset, cache: &mut DistCache) -> Vec<Vec<f64>> {
        data.all_series()
            .iter()
            .map(|s| self.transform_one_with_cache(s, cache))
            .collect()
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
        let s = Shapelet::new(vec![5.0, 6.0, 5.0], 0);
        let d = dataset();
        assert_eq!(s.distance_to(d.series(0).values(), false), 0.0);
        assert!(s.distance_to(d.series(2).values(), false) > 1.0);
        let (dist, at) = s.best_match(d.series(1).values(), false);
        assert_eq!(dist, 0.0);
        assert_eq!(at, 7);
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
        let s = Shapelet::new(vec![1.0, 2.0, 1.0, 0.0], 0);
        let series: Vec<f64> = vec![0.0, 10.0, 20.0, 10.0, 0.0, 0.0];
        let scaled: Vec<f64> = series.iter().map(|v| v * 3.0 + 5.0).collect();
        let d1 = s.distance_to(&series, true);
        let d2 = s.distance_to(&scaled, true);
        assert!((d1 - d2).abs() < 1e-9);
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

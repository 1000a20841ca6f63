//! Nearest-neighbor classifiers: 1NN-ED and 1NN-DTW.
//!
//! These are the reference baselines of Table II ("1NN-ED \[9\]" and
//! "1NN-DTW \[9\]") and the `DTW_Rn_1NN` column of Table VI. The DTW variant
//! learns its Sakoe–Chiba band fraction on the training set by
//! leave-one-out cross-validation over a small grid (the "Rn" — learned
//! warping window — convention of the UCR baselines) and prunes test-time
//! candidates with the LB_Keogh lower bound.

use ips_distance::{dtw_banded, euclidean, lb_keogh};
use ips_tsdata::Dataset;

/// One-nearest-neighbor under plain Euclidean distance.
#[derive(Debug, Clone)]
pub struct OneNnEd {
    train: Dataset,
}

impl OneNnEd {
    /// Stores the training set (1NN is lazy).
    ///
    /// # Panics
    /// Panics when instances have unequal lengths — plain ED requires
    /// aligned series.
    pub fn fit(train: &Dataset) -> Self {
        assert!(
            train.uniform_length().is_some(),
            "1NN-ED requires equal-length instances"
        );
        Self {
            train: train.clone(),
        }
    }

    /// Predicts the label of one series.
    pub fn predict(&self, series: &[f64]) -> u32 {
        let mut best = f64::INFINITY;
        let mut label = self.train.label(0);
        for (t, l) in self.train.iter() {
            let d = euclidean(series, t.values());
            if d < best {
                best = d;
                label = l;
            }
        }
        label
    }

    /// Predicts every instance of a test set.
    pub fn predict_all(&self, test: &Dataset) -> Vec<u32> {
        test.all_series()
            .iter()
            .map(|s| self.predict(s.values()))
            .collect()
    }

    /// Accuracy over a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        crate::eval::accuracy(&self.predict_all(test), test.labels())
    }
}

/// One-nearest-neighbor under banded DTW with a learned window.
#[derive(Debug, Clone)]
pub struct OneNnDtw {
    train: Dataset,
    band: usize,
}

impl OneNnDtw {
    /// Band fractions tried during fitting (fractions of the series
    /// length, including 0 = Euclidean and 1 = unconstrained).
    pub const BAND_GRID: [f64; 5] = [0.0, 0.03, 0.1, 0.2, 1.0];

    /// Learns the best band fraction by leave-one-out accuracy on the
    /// training set, then stores the set for lazy prediction.
    pub fn fit(train: &Dataset) -> Self {
        let n = train.uniform_length().unwrap_or_else(|| train.min_length());
        let mut best_band = 0usize;
        let mut best_acc = -1.0;
        for &frac in &Self::BAND_GRID {
            let band = ((frac * n as f64) as usize).min(n);
            let acc = Self::loo_accuracy(train, band);
            if acc > best_acc {
                best_acc = acc;
                best_band = band;
            }
        }
        Self {
            train: train.clone(),
            band: best_band,
        }
    }

    /// Creates a classifier with a fixed band (no tuning).
    pub fn with_band(train: &Dataset, band: usize) -> Self {
        Self {
            train: train.clone(),
            band,
        }
    }

    /// The learned band half-width in samples.
    pub fn band(&self) -> usize {
        self.band
    }

    fn loo_accuracy(train: &Dataset, band: usize) -> f64 {
        if train.len() < 2 {
            return 0.0;
        }
        let mut hits = 0usize;
        for i in 0..train.len() {
            let mut best = f64::INFINITY;
            let mut label = 0;
            for j in 0..train.len() {
                if i == j {
                    continue;
                }
                let d = dtw_banded(train.series(i).values(), train.series(j).values(), band);
                if d < best {
                    best = d;
                    label = train.label(j);
                }
            }
            if label == train.label(i) {
                hits += 1;
            }
        }
        hits as f64 / train.len() as f64
    }

    /// Predicts one series, using LB_Keogh to skip candidates whose lower
    /// bound already exceeds the best distance (only sound for
    /// equal-length pairs; unequal lengths fall back to full DTW).
    pub fn predict(&self, series: &[f64]) -> u32 {
        let mut best = f64::INFINITY;
        let mut label = self.train.label(0);
        for (t, l) in self.train.iter() {
            if t.len() == series.len() && lb_keogh(series, t.values(), self.band) >= best {
                continue;
            }
            let d = dtw_banded(series, t.values(), self.band);
            if d < best {
                best = d;
                label = l;
            }
        }
        label
    }

    /// Predicts every instance of a test set.
    pub fn predict_all(&self, test: &Dataset) -> Vec<u32> {
        test.all_series()
            .iter()
            .map(|s| self.predict(s.values()))
            .collect()
    }

    /// Accuracy over a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        crate::eval::accuracy(&self.predict_all(test), test.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_distance::dtw;
    use ips_tsdata::{registry, DatasetSpec, SynthGenerator, TimeSeries};

    fn tiny() -> Dataset {
        // class 0: rising; class 1: falling
        Dataset::new(
            vec![
                TimeSeries::new(vec![0.0, 1.0, 2.0, 3.0]),
                TimeSeries::new(vec![3.0, 2.0, 1.0, 0.0]),
                TimeSeries::new(vec![0.1, 1.1, 2.1, 3.1]),
                TimeSeries::new(vec![3.1, 2.1, 1.1, 0.1]),
            ],
            vec![0, 1, 0, 1],
        )
        .unwrap()
    }

    #[test]
    fn ed_classifies_separable_data() {
        let model = OneNnEd::fit(&tiny());
        assert_eq!(model.predict(&[0.0, 0.9, 2.0, 2.9]), 0);
        assert_eq!(model.predict(&[2.9, 2.0, 0.9, 0.0]), 1);
        assert_eq!(model.accuracy(&tiny()), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ed_rejects_ragged_training_sets() {
        let d = Dataset::new(
            vec![TimeSeries::new(vec![1.0, 2.0]), TimeSeries::new(vec![1.0])],
            vec![0, 1],
        )
        .unwrap();
        OneNnEd::fit(&d);
    }

    #[test]
    fn dtw_classifies_phase_shifted_data() {
        // class patterns identical up to a shift that defeats plain ED
        let mk = |shift: usize, sign: f64| {
            let mut v = vec![0.0; 30];
            for i in 0..6 {
                v[shift + i] = sign * (1.0 + i as f64);
            }
            TimeSeries::new(v)
        };
        let train = Dataset::new(
            vec![mk(3, 1.0), mk(9, 1.0), mk(3, -1.0), mk(9, -1.0)],
            vec![0, 0, 1, 1],
        )
        .unwrap();
        let test = Dataset::new(vec![mk(6, 1.0), mk(6, -1.0)], vec![0, 1]).unwrap();
        let model = OneNnDtw::fit(&train);
        assert_eq!(model.accuracy(&test), 1.0);
    }

    #[test]
    fn dtw_band_is_learned_from_grid() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let model = OneNnDtw::fit(&train);
        assert!(model.band() <= 24);
    }

    #[test]
    fn both_models_beat_chance_on_synthetic_registry_data() {
        let spec = DatasetSpec::new("NnSmoke", 2, 60, 16, 40)
            .with_noise(0.2)
            .with_modes(1);
        let (train, test) = SynthGenerator::new(spec).generate().unwrap();
        let ed = OneNnEd::fit(&train).accuracy(&test);
        let dtw = OneNnDtw::fit(&train).accuracy(&test);
        assert!(ed > 0.6, "ed {ed}");
        assert!(dtw > 0.6, "dtw {dtw}");
    }

    #[test]
    fn lb_pruned_prediction_matches_unpruned() {
        let spec = DatasetSpec::new("NnPrune", 2, 40, 10, 20).with_noise(0.3);
        let (train, test) = SynthGenerator::new(spec).generate().unwrap();
        let model = OneNnDtw::with_band(&train, 4);
        // reference: brute-force without LB pruning
        for s in test.all_series() {
            let mut best = f64::INFINITY;
            let mut label = 0;
            for (t, l) in train.iter() {
                let d = dtw_banded(s.values(), t.values(), 4);
                if d < best {
                    best = d;
                    label = l;
                }
            }
            assert_eq!(model.predict(s.values()), label);
        }
    }

    #[test]
    fn unconstrained_band_matches_brute_force_dtw() {
        // A near miss first, then an exact match that an unsound LB_Keogh
        // envelope would prune.
        let peak = [0.0, 10.0, 10.0, 0.0];
        let near = TimeSeries::new(vec![0.0, 10.0, 10.0, 1.0]);
        let train = Dataset::new(vec![near, TimeSeries::new(peak.to_vec())], vec![0, 1]).unwrap();
        let model = OneNnDtw::with_band(&train, usize::MAX);
        let brute = |s: &[f64]| {
            let mut best = (f64::INFINITY, 0);
            for (t, l) in train.iter() {
                let d = dtw(s, t.values());
                if d < best.0 {
                    best = (d, l);
                }
            }
            best.1
        };
        assert_eq!(brute(&peak), 1);
        for s in [&peak[..], &[0.0, 10.0, 10.0, 0.8], &[1.0, 9.0, 9.0, 1.0]] {
            assert_eq!(model.predict(s), brute(s), "query {s:?}");
        }
    }
}

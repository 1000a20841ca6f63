//! Multivariate TSC — the second future-work item of the paper's
//! conclusion ("apply the IPS for multivariate TSC"), implemented as
//! per-dimension shapelet discovery with a concatenated transform, the
//! strategy of ShapeNet-style baselines.

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, ShapeletTransform};
use ips_distance::DistCache;
use ips_tsdata::{Dataset, TimeSeries};

use crate::config::IpsConfig;
use crate::engine::{Engine, RunReport};
use crate::error::IpsError;
use crate::pool::WorkerPool;

/// A multivariate dataset: one aligned [`Dataset`] per dimension, sharing
/// labels.
#[derive(Debug, Clone)]
pub struct MultivariateDataset {
    dims: Vec<Dataset>,
}

impl MultivariateDataset {
    /// Builds from per-dimension datasets; all must agree on instance
    /// count and labels.
    ///
    /// # Panics
    /// Panics on empty input or label/shape mismatch across dimensions.
    pub fn new(dims: Vec<Dataset>) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        let labels = dims[0].labels().to_vec();
        for (d, dim) in dims.iter().enumerate() {
            assert_eq!(dim.labels(), &labels[..], "labels differ at dimension {d}");
        }
        Self { dims }
    }

    /// Number of dimensions (variables).
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.dims[0].len()
    }

    /// Instances are guaranteed non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The dataset of one dimension.
    pub fn dim(&self, d: usize) -> &Dataset {
        &self.dims[d]
    }

    /// Shared labels.
    pub fn labels(&self) -> &[u32] {
        self.dims[0].labels()
    }

    /// Instance `i` across all dimensions.
    pub fn instance(&self, i: usize) -> Vec<&TimeSeries> {
        self.dims.iter().map(|d| d.series(i)).collect()
    }
}

/// IPS over multivariate series: independent discovery per dimension, one
/// concatenated feature space, one SVM.
#[derive(Debug, Clone)]
pub struct MultivariateIps {
    transforms: Vec<ShapeletTransform>,
    svm: LinearSvm,
    reports: Vec<RunReport>,
}

impl MultivariateIps {
    /// Fits the model. Per-dimension seeds are derived from the base
    /// config seed so dimensions explore independent samples, which also
    /// makes per-dimension discovery embarrassingly parallel: dimensions
    /// run on the engine's worker pool, results merge in dimension order.
    pub fn fit(train: &MultivariateDataset, config: IpsConfig) -> Result<Self, IpsError> {
        // Dimensions share the pool with each dimension's own stages, so
        // discovery itself runs sequentially within a dimension task.
        type DimResult = Result<(ShapeletTransform, Vec<Vec<f64>>, RunReport), IpsError>;
        let per_dim = WorkerPool::new(config.num_threads).run(train.num_dims(), |d| -> DimResult {
            let cfg = config
                .clone()
                .with_seed(config.seed.wrapping_add(d as u64 * 7919))
                .with_threads(1);
            let znorm = cfg.znorm_transform;
            let result = Engine::from_config(&cfg).run(train.dim(d))?;
            let t = ShapeletTransform::new(result.shapelets, znorm);
            let features = t.transform(train.dim(d));
            Ok((t, features, result.report))
        });
        let mut transforms = Vec::with_capacity(train.num_dims());
        let mut feature_blocks: Vec<Vec<Vec<f64>>> = Vec::with_capacity(train.num_dims());
        let mut reports = Vec::with_capacity(train.num_dims());
        for r in per_dim {
            let (t, features, report) = r?;
            feature_blocks.push(features);
            transforms.push(t);
            reports.push(report);
        }
        let features = concat_blocks(&feature_blocks);
        let svm = LinearSvm::fit(
            &features,
            train.labels(),
            SvmParams {
                seed: config.seed,
                ..SvmParams::default()
            },
        );
        Ok(Self {
            transforms,
            svm,
            reports,
        })
    }

    /// Per-dimension discovery telemetry, in dimension order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// Predicts one multivariate instance (`series[d]` is dimension `d`).
    ///
    /// # Panics
    /// Panics when the dimension count differs from training.
    pub fn predict(&self, series: &[&TimeSeries]) -> u32 {
        assert_eq!(
            series.len(),
            self.transforms.len(),
            "dimension count mismatch"
        );
        let mut features = Vec::new();
        let mut cache = DistCache::new();
        for (t, s) in self.transforms.iter().zip(series) {
            features.extend(t.transform_one_with_cache(s, &mut cache));
        }
        self.svm.predict(&features)
    }

    /// Accuracy over a multivariate test set.
    pub fn accuracy(&self, test: &MultivariateDataset) -> f64 {
        let preds: Vec<u32> = (0..test.len())
            .map(|i| self.predict(&test.instance(i)))
            .collect();
        ips_classify::eval::accuracy(&preds, test.labels())
    }

    /// Total feature dimension (sum of per-dimension shapelet counts).
    pub fn feature_dim(&self) -> usize {
        self.transforms.iter().map(|t| t.dim()).sum()
    }
}

fn concat_blocks(blocks: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    let n = blocks[0].len();
    (0..n)
        .map(|i| blocks.iter().flat_map(|b| b[i].iter().copied()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::{DatasetSpec, SynthGenerator};

    fn mv(seed_a: u64, seed_b: u64) -> (MultivariateDataset, MultivariateDataset) {
        // two dimensions carrying complementary class information
        let (tr_a, te_a) = SynthGenerator::new(
            DatasetSpec::new("MvA", 2, 60, 12, 24)
                .with_noise(0.2)
                .with_modes(1)
                .with_seed(seed_a),
        )
        .generate()
        .unwrap();
        let (tr_b, te_b) = SynthGenerator::new(
            DatasetSpec::new("MvB", 2, 60, 12, 24)
                .with_noise(0.2)
                .with_modes(1)
                .with_seed(seed_b),
        )
        .generate()
        .unwrap();
        (
            MultivariateDataset::new(vec![tr_a, tr_b]),
            MultivariateDataset::new(vec![te_a, te_b]),
        )
    }

    #[test]
    fn fit_and_predict_multivariate() {
        let (train, test) = mv(1, 2);
        let cfg = IpsConfig::default().with_sampling(4, 3).with_k(2);
        let model = MultivariateIps::fit(&train, cfg).unwrap();
        assert_eq!(model.feature_dim(), 2 * 2 * 2); // dims × classes × k
        let acc = model.accuracy(&test);
        assert!(acc > 0.6, "accuracy {acc}");
        assert_eq!(model.reports().len(), 2);
        assert!(model.reports().iter().all(|r| !r.stages().is_empty()));
    }

    #[test]
    fn parallel_dimensions_match_sequential() {
        let (train, test) = mv(7, 8);
        let cfg = IpsConfig::default().with_sampling(4, 3).with_k(2);
        let seq = MultivariateIps::fit(&train, cfg.clone()).unwrap();
        let par = MultivariateIps::fit(&train, cfg.with_threads(0)).unwrap();
        let seq_preds: Vec<u32> = (0..test.len())
            .map(|i| seq.predict(&test.instance(i)))
            .collect();
        let par_preds: Vec<u32> = (0..test.len())
            .map(|i| par.predict(&test.instance(i)))
            .collect();
        assert_eq!(seq_preds, par_preds);
    }

    #[test]
    fn dataset_accessors() {
        let (train, _) = mv(3, 4);
        assert_eq!(train.num_dims(), 2);
        assert_eq!(train.len(), 12);
        assert_eq!(train.instance(0).len(), 2);
        assert!(!train.is_empty());
        assert_eq!(train.labels().len(), 12);
    }

    #[test]
    #[should_panic(expected = "labels differ")]
    fn mismatched_labels_rejected() {
        let (a, _) = SynthGenerator::new(DatasetSpec::new("Mv带", 2, 30, 8, 8))
            .generate()
            .unwrap();
        let (b, _) = SynthGenerator::new(DatasetSpec::new("MvY", 3, 30, 9, 9))
            .generate()
            .unwrap();
        MultivariateDataset::new(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "dimension count mismatch")]
    fn wrong_dimension_count_in_predict_panics() {
        let (train, _) = mv(5, 6);
        let cfg = IpsConfig::default().with_sampling(3, 3).with_k(2);
        let model = MultivariateIps::fit(&train, cfg).unwrap();
        model.predict(&[train.dim(0).series(0)]);
    }
}

//! The end-to-end IPS pipeline: discovery (Algorithms 1–4) plus the
//! shapelet-transform + linear-SVM classifier of Section III-E.

use std::collections::HashMap;

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
use ips_distance::{DistCache, Metric};
use ips_obs::{MetricsSnapshot, RunRecord};
use ips_tsdata::{Dataset, TimeSeries};

use crate::config::IpsConfig;
use crate::engine::{Engine, RunReport};
use crate::error::IpsError;

/// Outcome of shapelet discovery ([`Engine::run`]).
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The selected shapelets (`k` per class, best-first within a class).
    pub shapelets: Vec<Shapelet>,
    /// [`Selection::own_class_dists`](crate::engine::Selection::own_class_dists),
    /// for the classifier's shapelet transform.
    pub(crate) own_class_dists: Vec<Vec<f64>>,
    /// True when a [`crate::config::DiscoveryBudget`] limit tripped and
    /// the run returned its best-so-far shapelets instead of the full
    /// computation. Always `false` on unbudgeted runs.
    pub degraded: bool,
    /// Full per-stage telemetry: timings, work counters, and the
    /// candidate counts ([`RunReport::candidates_generated`],
    /// [`RunReport::candidates_pruned`]).
    pub report: RunReport,
}

/// Discovery metadata carried by a fitted classifier: everything from
/// [`DiscoveryResult`] except the shapelets themselves (which live in the
/// transform).
#[derive(Debug, Clone)]
pub struct DiscoveryStats {
    /// Whether the discovery run degraded under its budget (see
    /// [`DiscoveryResult::degraded`]); stamped into serialized records.
    pub degraded: bool,
    /// Full per-stage telemetry.
    pub report: RunReport,
    /// Everything the fit measured beyond discovery stages: `fit.*` spans
    /// (shapelet transform, SVM training), `cache.*` counters and hit
    /// rate, and the `discovery.*` candidate counters — a superset of
    /// [`RunReport::to_metrics`](crate::engine::RunReport::to_metrics)
    /// over `report`.
    pub metrics: MetricsSnapshot,
}

impl DiscoveryStats {
    /// The fit's telemetry as a versioned [`RunRecord`] (kind
    /// `"ips_fit"`), ready to serialize next to other runners' records.
    pub fn to_record(&self, label: &str) -> RunRecord {
        RunRecord::new("ips_fit", label)
            .with_metrics(self.metrics.clone())
            .with_degraded(self.degraded)
    }
}

/// The full classifier: IPS shapelet discovery → shapelet transform →
/// linear SVM.
#[derive(Debug, Clone)]
pub struct IpsClassifier {
    transform: ShapeletTransform,
    svm: LinearSvm,
    discovery: DiscoveryStats,
}

impl IpsClassifier {
    /// Discovers shapelets on `train` and fits the SVM over the
    /// transformed features. A training set with fewer than two classes,
    /// or with a class of one instance, is an
    /// [`IpsError::InvalidTrainingSet`].
    pub fn fit(train: &Dataset, config: IpsConfig) -> Result<Self, IpsError> {
        // Fail fast with typed errors before any stage spends work: the
        // config knobs, then the data itself (NaN/Inf, empty series).
        config.validate()?;
        train.validate()?;
        if train.num_classes() < 2 {
            return Err(IpsError::InvalidTrainingSet(
                "need at least two classes".into(),
            ));
        }
        // Algorithm 1 profiles samples of at least two instances of a
        // class, so a one-instance class would get no shapelet of its own.
        if let Some(class) = train
            .classes()
            .into_iter()
            .find(|&c| train.class_indices(c).len() < 2)
        {
            return Err(IpsError::InvalidTrainingSet(format!(
                "class {class} has one training instance; IPS samples at least two per class"
            )));
        }
        let znorm = config.znorm_transform;
        let svm_params = SvmParams {
            seed: config.seed,
            ..SvmParams::default()
        };
        let engine = Engine::from_config(&config);
        let mut ctx = engine.make_context();
        let mut result = engine.run_with_ctx(train, &mut ctx)?;
        // Discovery stages are already mirrored into the context's
        // registry; the classification head adds its own spans and the
        // distance-cache totals alongside them.
        let metrics = ctx.metrics().clone();
        // The transform takes ownership of the shapelets — they are not
        // duplicated into the stats.
        let shapelets = std::mem::take(&mut result.shapelets);
        let transform = ShapeletTransform::new(shapelets, znorm);
        let features = {
            let _span = metrics.time("fit.transform");
            if config.use_fft_kernel {
                // Reuse discovery's distance work: the run cache carries
                // the training series' plans (window statistics, FFT
                // spectra), and scoring already computed every (shapelet,
                // own-class instance) feature unless its metric differs.
                if (config.metric == Metric::ZNormEuclidean) != znorm {
                    result.own_class_dists.clear();
                }
                let own = &result.own_class_dists;
                let mut cache = ctx.take_dist_cache();
                let (features, reused) = train_features(&transform, train, own, &mut cache);
                // The fit's distance work over discovery + transform: the
                // distances computed (the run cache counts every one) and
                // the requests answered from a distance computed earlier
                // (exact scoring's duplicates and the reused features).
                let mut stats = cache.stats();
                stats.cache_hits += reused + result.report.counters().cache_hits;
                stats.record_into(&metrics, "cache.");
                features
            } else {
                transform.transform(train)
            }
        };
        let svm = {
            let _span = metrics.time("fit.svm");
            LinearSvm::fit(&features, train.labels(), svm_params)
        };
        metrics.incr(
            "discovery.candidates_generated",
            result.report.candidates_generated() as u64,
        );
        metrics.incr(
            "discovery.candidates_pruned",
            result.report.candidates_pruned() as u64,
        );
        let discovery = DiscoveryStats {
            degraded: result.degraded,
            report: result.report,
            metrics: metrics.snapshot(),
        };
        Ok(Self {
            transform,
            svm,
            discovery,
        })
    }

    /// Predicts the label of one series.
    pub fn predict(&self, series: &TimeSeries) -> u32 {
        self.svm.predict(&self.transform.transform_one(series))
    }

    /// Predicts a whole test set.
    pub fn predict_all(&self, test: &Dataset) -> Vec<u32> {
        test.all_series().iter().map(|s| self.predict(s)).collect()
    }

    /// Accuracy on a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        ips_classify::eval::accuracy(&self.predict_all(test), test.labels())
    }

    /// The discovered shapelets.
    pub fn shapelets(&self) -> &[Shapelet] {
        self.transform.shapelets()
    }

    /// Discovery metadata (the run report, fit metrics, degradation flag).
    pub fn discovery(&self) -> &DiscoveryStats {
        &self.discovery
    }

    /// The shapelet transform (for inspecting embeddings).
    pub fn transform(&self) -> &ShapeletTransform {
        &self.transform
    }

    /// The trained linear SVM head (for persistence and inspection).
    pub fn svm(&self) -> &LinearSvm {
        &self.svm
    }
}

/// The training feature matrix through `cache`, taking shapelet `j`'s
/// features for the instances of its class from `own[j]` (distances in
/// [`Dataset::class_indices`] order; an empty row or a missing entry is
/// computed). Returns the features and how many were taken from `own`.
fn train_features(
    transform: &ShapeletTransform,
    train: &Dataset,
    own: &[Vec<f64>],
    cache: &mut DistCache,
) -> (Vec<Vec<f64>>, usize) {
    let mut class_pos: HashMap<u32, usize> = HashMap::new();
    let mut reused = 0;
    let mut features = Vec::new();
    for (series, &label) in train.all_series().iter().zip(train.labels()) {
        // The series' position within its class.
        let pos = *class_pos.entry(label).and_modify(|p| *p += 1).or_default();
        let row = transform.shapelets().iter().enumerate().map(|(j, s)| {
            let known = own
                .get(j)
                .filter(|_| s.class == label)
                .and_then(|d| d.get(pos));
            reused += usize::from(known.is_some());
            let compute = || s.distance_to_cached(series.values(), transform.znorm(), cache);
            known.copied().unwrap_or_else(compute)
        });
        features.push(row.collect());
    }
    (features, reused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Stage;
    use ips_tsdata::{registry, DatasetSpec, SynthGenerator};
    use std::time::Duration;

    fn fast_cfg() -> IpsConfig {
        IpsConfig::default().with_sampling(5, 3).with_k(3)
    }

    #[test]
    fn discovery_produces_k_per_class_and_timings() {
        let spec = DatasetSpec::new("PipeT", 2, 64, 12, 24).with_noise(0.15);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let res = Engine::from_config(&fast_cfg()).run(&train).unwrap();
        assert_eq!(res.shapelets.len(), 6);
        assert!(res.report.candidates_generated() > 0);
        assert!(res.report.total() > Duration::ZERO);
        assert!(res.report.elapsed(Stage::CandidateGen) > Duration::ZERO);
    }

    #[test]
    fn classifier_beats_chance_on_synthetic_data() {
        let spec = DatasetSpec::new("PipeAcc", 2, 80, 16, 40).with_noise(0.2);
        let (train, test) = SynthGenerator::new(spec).generate().unwrap();
        // a larger sample budget than fast_cfg: at (5, 3) the sampled
        // profiles miss the planted pattern often enough to sit right at
        // the 0.7 accuracy threshold
        let cfg = IpsConfig::default().with_sampling(8, 4).with_k(3);
        let model = IpsClassifier::fit(&train, cfg).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc > 0.7, "accuracy {acc}");
        assert_eq!(model.shapelets().len(), 6);
    }

    #[test]
    fn classifier_works_on_registry_dataset() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = IpsClassifier::fit(&train, fast_cfg()).unwrap();
        assert!(model.accuracy(&test) > 0.6);
    }

    #[test]
    fn fit_populates_observability_metrics() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let mut cfg = fast_cfg();
        cfg.use_dt_cr = false;
        let model = IpsClassifier::fit(&train, cfg.clone()).unwrap();
        let stats = model.discovery();
        let m = &stats.metrics;
        // Engine stages mirrored, head spans added.
        for span in [
            "stage.candidate_gen",
            "stage.top_k",
            "fit.transform",
            "fit.svm",
        ] {
            assert!(m.spans.contains_key(span), "missing span {span}");
        }
        assert_eq!(
            m.counters["discovery.candidates_generated"],
            stats.report.candidates_generated() as u64
        );
        // The cache totals cover discovery's requests plus one per
        // feature; the (shapelet, own-class instance) features come from
        // scoring's distances, as hits.
        let topk = stats.report.counters();
        let class_size = |s: &Shapelet| train.class_indices(s.class).len();
        let own: usize = model.shapelets().iter().map(class_size).sum();
        let n_features = model.transform().dim() * train.len();
        let c = |k: &str| m.counters[k] as usize;
        assert_eq!(c("cache.cache_hits"), topk.cache_hits + own);
        assert_eq!(
            c("cache.kernel_evals"),
            topk.kernel_evals + n_features - own
        );
        // Those features are the ones a fresh transform computes.
        let res = Engine::from_config(&cfg).run(&train).unwrap();
        let t = ShapeletTransform::new(res.shapelets, cfg.znorm_transform);
        let (features, _) = train_features(&t, &train, &res.own_class_dists, &mut DistCache::new());
        let fresh = t.transform_with_cache(&train, &mut DistCache::new());
        assert_eq!(features, fresh);
        assert!(m.gauges.contains_key("cache.hit_rate"));
        // And the whole thing serializes as a valid versioned record.
        let record = stats.to_record("ItalyPowerDemand");
        let back = ips_obs::RunRecord::from_json_str(&record.to_json_string()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.kind, "ips_fit");
    }

    #[test]
    fn ablation_paths_run() {
        let spec = DatasetSpec::new("PipeAbl", 2, 64, 12, 12).with_noise(0.2);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        for (use_dabf, use_dt_cr) in [(true, true), (true, false), (false, false), (false, true)] {
            let mut cfg = fast_cfg();
            cfg.use_dabf = use_dabf;
            cfg.use_dt_cr = use_dt_cr;
            let res = Engine::from_config(&cfg).run(&train).unwrap();
            assert!(
                !res.shapelets.is_empty(),
                "dabf={use_dabf} dtcr={use_dt_cr}"
            );
            if !use_dabf {
                assert_eq!(res.report.elapsed(Stage::DabfBuild), Duration::ZERO);
            }
        }
    }

    #[test]
    fn single_class_training_set_is_rejected() {
        let spec = DatasetSpec::new("PipeOne", 2, 40, 8, 8);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let (_, only_zero) = (&train, {
            let idx = train.class_indices(0);
            let series = idx.iter().map(|&i| train.series(i).clone()).collect();
            Dataset::new(series, vec![0; idx.len()]).unwrap()
        });
        let err = IpsClassifier::fit(&only_zero, fast_cfg()).unwrap_err();
        assert!(matches!(err, IpsError::InvalidTrainingSet(_)));
        assert!(err.to_string().contains("two classes"));
    }

    #[test]
    fn discovery_is_deterministic() {
        let spec = DatasetSpec::new("PipeDet", 2, 64, 12, 12);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let a = Engine::from_config(&fast_cfg()).run(&train).unwrap();
        let b = Engine::from_config(&fast_cfg()).run(&train).unwrap();
        assert_eq!(a.shapelets, b.shapelets);
        assert_eq!(a.report.candidates_pruned(), b.report.candidates_pruned());
    }

    #[test]
    fn shapelets_locate_planted_patterns() {
        // with low noise, at least one discovered shapelet per class should
        // overlap the generator's planted pattern window
        let spec = DatasetSpec::new("PipeLoc", 2, 100, 16, 16).with_noise(0.1);
        let gen = SynthGenerator::new(spec);
        let (train, _) = gen.generate().unwrap();
        let res = Engine::from_config(&fast_cfg()).run(&train).unwrap();
        for class in [0u32, 1] {
            let center = gen.pattern_center(class);
            let width = gen.pattern_width(class) * 100.0;
            let free = 100.0 - width;
            let lo = (center * free - width).max(0.0) as usize;
            let hi = (center * free + 2.0 * width) as usize;
            let hit =
                res.shapelets.iter().filter(|s| s.class == class).any(|s| {
                    s.source_offset >= lo.saturating_sub(10) && s.source_offset <= hi + 10
                });
            assert!(
                hit,
                "class {class}: no shapelet near planted window [{lo}, {hi}]"
            );
        }
    }
}

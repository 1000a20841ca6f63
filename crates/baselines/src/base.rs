//! BASE — the matrix-profile baseline of Yeh et al. \[37\] (Section II-B).
//!
//! For each class `C`, all instances are concatenated into one long series
//! `T_C`. The shapelet indicator of a window is the difference between its
//! nearest-neighbor distance in the *other* classes (the AB-join profile)
//! and in its own class (the self-join profile) — Formula 4. The top-k
//! windows by this difference become the class's "shapelets".
//!
//! Reproduced faithfully, including the defects the paper dissects: no
//! exclusion zone around selected windows (issue 2.2, similar
//! subsequences as shapelets), no motif check (issue 1, discords as
//! shapelets), and — by default — no masking of windows that straddle the
//! concatenation boundary between two instances (the description in \[37\]
//! has none; such windows are artifacts of the concatenation).
//! [`BaseConfig::mask_boundaries`] enables the masked variant for
//! ablation.

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
use ips_core::candidates::{Candidate, CandidateKind, CandidatePool};
use ips_core::engine::{
    CandidateSource, Engine, ExecContext, NoopPruner, ScoreRankSelector, StageObserver, WorkerPool,
};
use ips_core::IpsError;
use ips_obs::MetricsRegistry;
use ips_profile::{MatrixProfile, Metric};
use ips_tsdata::{Dataset, TimeSeries};

/// Configuration of the BASE method.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseConfig {
    /// Shapelets per class (the paper sets 5 "for fairness").
    pub k: usize,
    /// Candidate lengths as ratios of the instance length (shared with
    /// IPS's grid).
    pub length_ratios: Vec<f64>,
    /// Profile metric.
    pub metric: Metric,
    /// Z-normalize distances in the shapelet transform.
    pub znorm_transform: bool,
    /// Skip windows straddling instance boundaries in the concatenation.
    /// Off by default — the published baseline has no such correction.
    pub mask_boundaries: bool,
    /// Seed for the SVM head.
    pub seed: u64,
    /// Worker threads for class-parallel profile computation (`0` =
    /// available parallelism; results are identical at any count).
    pub num_threads: usize,
}

impl Default for BaseConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            metric: Metric::ZNormEuclidean,
            znorm_transform: true,
            mask_boundaries: false,
            seed: 0xBA5E,
            num_threads: 1,
        }
    }
}

/// BASE's matrix-profile scoring as an engine [`CandidateSource`]: per
/// class and length, the top-k windows by Formula 4's diff become
/// candidates (`ip_value` = diff). Emitting only the per-length top-k is
/// lossless — the global per-class top-k is a subset of the union, and
/// the stable per-length ordering preserves the global tie-break (length
/// ascending, then window index) that a full sort would produce.
pub struct BaseSource {
    config: BaseConfig,
}

impl BaseSource {
    /// A source for one configuration.
    pub fn new(config: BaseConfig) -> Self {
        Self { config }
    }

    fn class_candidates(
        &self,
        concats: &[(u32, ips_tsdata::ClassConcat)],
        lengths: &[usize],
        class_idx: usize,
    ) -> Vec<Candidate> {
        let config = &self.config;
        let (c, concat) = &concats[class_idx];
        let mut out = Vec::new();
        for &len in lengths {
            let p_self = MatrixProfile::self_join(concat.values(), len, config.metric);
            // nearest other-class distance per window: min over AB-joins
            let mut p_other = vec![f64::INFINITY; p_self.len()];
            for (c2, concat2) in concats {
                if c2 == c {
                    continue;
                }
                let ab =
                    MatrixProfile::ab_join(concat.values(), concat2.values(), len, config.metric);
                for (o, &v) in p_other.iter_mut().zip(ab.values()) {
                    if v < *o {
                        *o = v;
                    }
                }
            }
            // (diff, start) for every valid window at this length
            let mut scored: Vec<(f64, usize)> = Vec::new();
            for (i, (&other, &own)) in p_other.iter().zip(p_self.values()).enumerate() {
                if config.mask_boundaries && !concat.within_one_instance(i, len) {
                    continue; // concatenation artifact
                }
                if other.is_finite() && own.is_finite() {
                    scored.push((other - own, i));
                }
            }
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite diffs"));
            for &(diff, start) in scored.iter().take(config.k) {
                // Provenance maps cleanly only for non-straddling windows;
                // a straddling pick (possible when masking is off) is
                // flagged with `usize::MAX` and the concat offset.
                let (inst, offset) = if concat.within_one_instance(start, len) {
                    concat.to_instance_coords(start)
                } else {
                    (usize::MAX, start)
                };
                out.push(Candidate {
                    values: concat.values()[start..start + len].to_vec(),
                    class: *c,
                    kind: CandidateKind::Motif,
                    ip_value: diff,
                    source_instance: inst,
                    source_offset: offset,
                    embedded: Vec::new(),
                });
            }
        }
        out
    }
}

impl CandidateSource for BaseSource {
    fn generate(&self, train: &Dataset, ctx: &mut ExecContext) -> Result<CandidatePool, IpsError> {
        let classes = train.classes();
        let concats: Vec<(u32, ips_tsdata::ClassConcat)> = classes
            .iter()
            .map(|&c| (c, train.concat_class(c)))
            .collect();
        let n = train.min_length();
        let mut lengths: Vec<usize> = self
            .config
            .length_ratios
            .iter()
            .map(|r| ((r * n as f64).round() as usize).clamp(3, n.max(3)))
            .filter(|&l| l <= n)
            .collect();
        lengths.sort_unstable();
        lengths.dedup();

        // Per-class profiles are independent — compute in parallel, merge
        // in class order.
        let per_class = ctx.workers().run(concats.len(), |i| {
            self.class_candidates(&concats, &lengths, i)
        });
        let mut pool = CandidatePool::default();
        for cands in per_class {
            for c in cands {
                pool.push(c);
            }
        }
        Ok(pool)
    }
}

fn base_engine(config: &BaseConfig) -> Engine {
    Engine::new(
        Box::new(BaseSource::new(config.clone())),
        Box::new(NoopPruner),
        Box::new(ScoreRankSelector { k: config.k }),
    )
    .with_workers(WorkerPool::new(config.num_threads))
}

/// Discovers BASE shapelets: per class, the top-k largest-diff windows
/// over the length grid (Formula 4 extended to top-k). Runs through the
/// staged engine (BASE has no pruning phase, so the pipeline is source →
/// rank selection); degenerate inputs yield an empty vector.
pub fn discover_base_shapelets(train: &Dataset, config: &BaseConfig) -> Vec<Shapelet> {
    match base_engine(config).run(train) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// [`discover_base_shapelets`] with per-stage telemetry reported to
/// `observer`.
pub fn discover_base_shapelets_observed(
    train: &Dataset,
    config: &BaseConfig,
    observer: &mut dyn StageObserver,
) -> Vec<Shapelet> {
    match base_engine(config).run_with_observer(train, observer) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// [`discover_base_shapelets`] with stage telemetry mirrored into a
/// shared [`MetricsRegistry`] (`stage.*` spans plus per-stage counters,
/// the same keys the IPS engine emits).
pub fn discover_base_shapelets_recorded(
    train: &Dataset,
    config: &BaseConfig,
    metrics: &MetricsRegistry,
) -> Vec<Shapelet> {
    let engine = base_engine(config);
    let mut ctx = engine.make_context().with_metrics(metrics.clone());
    match engine.run_with_ctx(train, &mut ctx) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// The full BASE classifier: Formula-4 shapelets → shapelet transform →
/// linear SVM (the same head as IPS, per the paper's fairness setup).
#[derive(Debug, Clone)]
pub struct BaseClassifier {
    transform: ShapeletTransform,
    svm: LinearSvm,
}

impl BaseClassifier {
    /// Fits on a training set.
    ///
    /// # Panics
    /// Panics when discovery yields no shapelets (degenerate input) or the
    /// training set has a single class.
    pub fn fit(train: &Dataset, config: BaseConfig) -> Self {
        Self::fit_recorded(train, config, &MetricsRegistry::new())
    }

    /// [`fit`](Self::fit) with every phase measured into `metrics`:
    /// discovery stages (`stage.*`), the classification head
    /// (`fit.transform`, `fit.svm`), and the transform's distance-cache
    /// totals (`cache.*`) — the same key scheme as `IpsClassifier::fit`,
    /// so records from both methods diff field-for-field.
    pub fn fit_recorded(train: &Dataset, config: BaseConfig, metrics: &MetricsRegistry) -> Self {
        let shapelets = discover_base_shapelets_recorded(train, &config, metrics);
        assert!(!shapelets.is_empty(), "BASE discovered no shapelets");
        let transform = ShapeletTransform::new(shapelets, config.znorm_transform);
        // One FFT plan per training series, reused across all k·|C|
        // shapelet columns of the feature matrix.
        let mut cache = ips_distance::DistCache::new();
        let features = {
            let _span = metrics.time("fit.transform");
            transform.transform_with_cache(train, &mut cache)
        };
        cache.stats().record_into(metrics, "cache.");
        let svm = {
            let _span = metrics.time("fit.svm");
            LinearSvm::fit(
                &features,
                train.labels(),
                SvmParams {
                    seed: config.seed,
                    ..SvmParams::default()
                },
            )
        };
        Self { transform, svm }
    }

    /// Predicts one series.
    pub fn predict(&self, series: &TimeSeries) -> u32 {
        self.svm.predict(&self.transform.transform_one(series))
    }

    /// Accuracy over a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        let preds: Vec<u32> = test.all_series().iter().map(|s| self.predict(s)).collect();
        ips_classify::eval::accuracy(&preds, test.labels())
    }

    /// The selected shapelets.
    pub fn shapelets(&self) -> &[Shapelet] {
        self.transform.shapelets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::registry;

    fn cfg(k: usize) -> BaseConfig {
        BaseConfig {
            k,
            ..Default::default()
        }
    }

    #[test]
    fn discovers_k_per_class_sorted_by_diff() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let s = discover_base_shapelets(&train, &cfg(3));
        assert_eq!(s.len(), 6);
        for class in [0, 1] {
            let scores: Vec<f64> = s
                .iter()
                .filter(|x| x.class == class)
                .map(|x| x.score)
                .collect();
            assert_eq!(scores.len(), 3);
            for w in scores.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn top_k_shapelets_cluster_without_exclusion() {
        // the documented defect: top-k picks are often adjacent windows
        let (train, _) = registry::load("GunPoint").unwrap();
        let s = discover_base_shapelets(&train, &cfg(5));
        assert_eq!(s.len(), 10);
        // provenance maps for non-straddling picks only
        for sh in &s {
            if sh.source_instance == usize::MAX {
                continue; // straddling pick — faithful to the baseline
            }
            let inst = train.series(sh.source_instance);
            assert!(sh.source_offset + sh.len() <= inst.len());
            assert_eq!(sh.values, inst.subsequence(sh.source_offset, sh.len()));
        }
    }

    #[test]
    fn masked_variant_never_straddles() {
        let (train, _) = registry::load("GunPoint").unwrap();
        let cfg = BaseConfig {
            k: 5,
            mask_boundaries: true,
            ..Default::default()
        };
        let s = discover_base_shapelets(&train, &cfg);
        for sh in &s {
            assert_ne!(sh.source_instance, usize::MAX);
            let inst = train.series(sh.source_instance);
            assert_eq!(sh.values, inst.subsequence(sh.source_offset, sh.len()));
        }
    }

    #[test]
    fn parallel_discovery_is_bit_identical() {
        let (train, _) = registry::load("CBF").unwrap();
        let seq = discover_base_shapelets(&train, &cfg(3));
        for threads in [2, 0] {
            let par_cfg = BaseConfig {
                num_threads: threads,
                ..cfg(3)
            };
            assert_eq!(
                seq,
                discover_base_shapelets(&train, &par_cfg),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn observer_reports_engine_stages() {
        use ips_core::engine::{CollectingObserver, Stage};
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let mut obs = CollectingObserver::default();
        let s = discover_base_shapelets_observed(&train, &cfg(3), &mut obs);
        assert_eq!(s.len(), 6);
        let stages: Vec<Stage> = obs.reports.iter().map(|r| r.stage).collect();
        assert_eq!(stages, Stage::ALL.to_vec());
        let gen = &obs.reports[0];
        assert!(gen.counters.candidates_out > 0);
        let topk = obs.reports.last().unwrap();
        assert_eq!(topk.counters.candidates_out, 6);
        assert!(topk.counters.utility_evals > 0);
    }

    #[test]
    fn recorded_fit_measures_every_phase() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let metrics = MetricsRegistry::new();
        let model = BaseClassifier::fit_recorded(&train, cfg(3), &metrics);
        assert_eq!(model.shapelets().len(), 6);
        let snap = metrics.snapshot();
        for span in [
            "stage.candidate_gen",
            "stage.top_k",
            "fit.transform",
            "fit.svm",
        ] {
            assert!(snap.spans.contains_key(span), "missing span {span}");
        }
        assert!(snap.counters["cache.kernel_evals"] > 0);
        assert!(snap.gauges.contains_key("cache.hit_rate"));
    }

    #[test]
    fn classifier_runs_and_beats_chance_sometimes() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = BaseClassifier::fit(&train, cfg(5));
        let acc = model.accuracy(&test);
        // BASE is the weak baseline; require only better-than-random-ish
        assert!(acc > 0.4, "acc {acc}");
        assert_eq!(model.shapelets().len(), 10);
    }

    #[test]
    fn multiclass_datasets_are_supported() {
        let (train, test) = registry::load("CBF").unwrap();
        let model = BaseClassifier::fit(&train, cfg(2));
        assert_eq!(model.shapelets().len(), 6);
        let acc = model.accuracy(&test);
        assert!(acc > 0.2, "acc {acc}");
    }
}

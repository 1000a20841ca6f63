//! A BSPCOVER-style comparator (Li, Choi, Xu, Bhowmick, Chun, Wong:
//! "Efficient shapelet discovery for time series classification", TKDE
//! 2020) — the method the paper reports as the previous state of the art
//! and measures its 25× speedup against.
//!
//! The reference implementation is not public; this follows the paper's
//! published pipeline shape (see DESIGN.md §2): **dense candidate
//! enumeration** over a length grid → **bit-string signatures** (sign
//! random projections) de-duplicated through a **bloom filter** → greedy
//! **maximal-coverage** selection per class → shapelet transform + SVM.
//! Dense enumeration plus per-candidate coverage scoring is what makes
//! this method thorough and slow relative to IPS's sampled profiles — the
//! efficiency contrast of Table IV is structural, not an artifact.

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
use ips_core::candidates::{Candidate, CandidateKind, CandidatePool};
use ips_core::engine::{
    CandidateSource, Engine, ExecContext, NoopPruner, Selection, Selector, StageObserver,
    WorkerPool,
};
use ips_core::IpsError;
use ips_distance::{CacheStats, DistCache, Metric};
use ips_filter::{BloomFilter, Dabf};
use ips_lsh::{embed, Lsh, LshKind, LshParams};
use ips_obs::MetricsRegistry;
use ips_tsdata::{Dataset, TimeSeries};

/// Configuration of the BSPCOVER-style method.
#[derive(Debug, Clone, PartialEq)]
pub struct BspCoverConfig {
    /// Shapelets per class.
    pub k: usize,
    /// Candidate lengths as ratios of the instance length.
    pub length_ratios: Vec<f64>,
    /// Enumeration stride as a fraction of the candidate length (0 =
    /// stride 1, fully dense).
    pub stride_fraction: f64,
    /// Bit-string width for dedup signatures.
    pub signature_bits: usize,
    /// Penalty weight for covering other-class instances during greedy
    /// selection.
    pub penalty: f64,
    /// Hard cap on the total candidate count after dedup (0 = unlimited).
    /// Coverage scoring is O(candidates × instances × N·len); the cap
    /// keeps huge datasets tractable. Candidates are thinned evenly, so
    /// the cap is deterministic. Runs against the cap are a *lower bound*
    /// on BSPCOVER's true cost (recorded in DESIGN.md §2).
    pub max_candidates: usize,
    /// Z-normalize candidate/instance distances.
    pub znorm: bool,
    /// Seed (projections + SVM).
    pub seed: u64,
    /// Worker threads for class-parallel coverage scoring (`0` =
    /// available parallelism; results are identical at any count).
    pub num_threads: usize,
}

impl Default for BspCoverConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            stride_fraction: 0.04,
            signature_bits: 16,
            penalty: 0.5,
            max_candidates: 12_000,
            znorm: true,
            seed: 0xB59C,
            num_threads: 1,
        }
    }
}

/// BSPCOVER's stages 1–2 as an engine [`CandidateSource`]: dense
/// enumeration with bloom-filter bit-string dedup, thinned evenly to the
/// candidate cap **globally** (before the per-class split, preserving the
/// cap's original semantics).
pub struct BspCoverSource {
    config: BspCoverConfig,
}

impl BspCoverSource {
    /// A source for one configuration.
    pub fn new(config: BspCoverConfig) -> Self {
        Self { config }
    }
}

impl CandidateSource for BspCoverSource {
    fn generate(&self, train: &Dataset, _ctx: &mut ExecContext) -> Result<CandidatePool, IpsError> {
        let config = &self.config;
        let n = train.min_length();
        let mut lengths: Vec<usize> = config
            .length_ratios
            .iter()
            .map(|r| ((r * n as f64).round() as usize).clamp(3, n.max(3)))
            .filter(|&l| l <= n)
            .collect();
        lengths.sort_unstable();
        lengths.dedup();

        let embed_dim = 32;
        let lsh = Lsh::new(LshParams {
            kind: LshKind::Cosine,
            dim: embed_dim,
            num_hashes: config.signature_bits,
            seed: config.seed,
            ..Default::default()
        });
        let mut bloom = BloomFilter::with_rate(train.len() * n * lengths.len() / 2 + 64, 0.001);
        // (instance, offset, len) — enumeration is inherently sequential:
        // the bloom filter's dedup decisions depend on insertion order.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for (i, series) in train.all_series().iter().enumerate() {
            for &len in &lengths {
                let stride = ((config.stride_fraction * len as f64) as usize).max(1);
                let mut start = 0;
                while start + len <= series.len() {
                    let sub = series.subsequence(start, len);
                    let sig = lsh.signature(&embed(sub, embed_dim));
                    if !bloom.contains(&sig.0) {
                        bloom.insert(&sig.0);
                        candidates.push((i, start, len));
                    }
                    start += stride;
                }
            }
        }

        // Thin evenly to the candidate cap (deterministic).
        if config.max_candidates > 0 && candidates.len() > config.max_candidates {
            let step = candidates.len() as f64 / config.max_candidates as f64;
            candidates = (0..config.max_candidates)
                .map(|i| candidates[(i as f64 * step) as usize])
                .collect();
        }

        let mut pool = CandidatePool::default();
        for (inst, off, len) in candidates {
            pool.push(Candidate {
                values: train.series(inst).subsequence(off, len).to_vec(),
                class: train.label(inst),
                kind: CandidateKind::Motif,
                ip_value: 0.0,
                source_instance: inst,
                source_offset: off,
                embedded: Vec::new(),
            });
        }
        Ok(pool)
    }
}

/// BSPCOVER's stages 3–4 as an engine [`Selector`]: per-candidate cover
/// sets over the training instances, then greedy maximal coverage per
/// class. Classes are independent, so coverage scoring runs on the
/// context's worker pool; picks merge in class order.
pub struct CoverageSelector {
    config: BspCoverConfig,
}

impl CoverageSelector {
    /// A selector for one configuration.
    pub fn new(config: BspCoverConfig) -> Self {
        Self { config }
    }

    fn select_class(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        class: u32,
    ) -> (Vec<Shapelet>, usize, DistCache) {
        let config = &self.config;
        let metric = if config.znorm {
            Metric::ZNormEuclidean
        } else {
            Metric::MeanSquared
        };
        // Coverage scoring slides every candidate over every instance —
        // exactly the dense pattern the FFT distance cache amortizes (one
        // series plan reused across all candidates of a length). The
        // cache is per class, so parallel scoring stays bit-identical.
        let mut cache = DistCache::new();
        let mut dist = |q: &[f64], t: &[f64]| cache.min_dist(q, t, metric).0;
        let own: Vec<usize> = train.class_indices(class);
        let others: Vec<usize> = (0..train.len())
            .filter(|&i| train.label(i) != class)
            .collect();
        let class_cands = pool.of_class(class);
        // distances and per-candidate threshold = midpoint of the two
        // class-conditional means (the separating margin of the cover).
        let mut covers: Vec<(usize, Vec<usize>, Vec<usize>, f64)> = Vec::new();
        for (ci, cand) in class_cands.iter().enumerate() {
            let q = &cand.values;
            let own_d: Vec<f64> = own
                .iter()
                .map(|&i| dist(q, train.series(i).values()))
                .collect();
            let other_d: Vec<f64> = others
                .iter()
                .map(|&i| dist(q, train.series(i).values()))
                .collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let threshold = 0.5 * (mean(&own_d) + mean(&other_d));
            let covered_own: Vec<usize> = own
                .iter()
                .enumerate()
                .filter(|(j, _)| own_d[*j] <= threshold)
                .map(|(_, &i)| i)
                .collect();
            let covered_other: Vec<usize> = others
                .iter()
                .enumerate()
                .filter(|(j, _)| other_d[*j] <= threshold)
                .map(|(_, &i)| i)
                .collect();
            let margin = mean(&other_d) - mean(&own_d);
            covers.push((ci, covered_own, covered_other, margin));
        }
        let evals = class_cands.len() * (own.len() + others.len());

        // Greedy maximal coverage of own-class instances, penalizing
        // other-class coverage; margin breaks ties.
        let mut uncovered: Vec<usize> = own.clone();
        let mut picked: Vec<usize> = Vec::new();
        for _ in 0..config.k {
            let best = covers
                .iter()
                .filter(|(ci, ..)| !picked.contains(ci))
                .map(|(ci, c_own, c_other, margin)| {
                    let gain = c_own.iter().filter(|i| uncovered.contains(i)).count() as f64
                        - config.penalty * c_other.len() as f64
                        + 1e-6 * margin;
                    (*ci, gain)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite gains"));
            let Some((ci, _)) = best else { break };
            picked.push(ci);
            let covered = &covers.iter().find(|(c, ..)| *c == ci).expect("picked").1;
            uncovered.retain(|i| !covered.contains(i));
        }
        let shapelets = picked
            .into_iter()
            .map(|ci| {
                let cand = &class_cands[ci];
                let (_, _, _, margin) = covers.iter().find(|(c, ..)| *c == ci).expect("cover");
                Shapelet {
                    values: cand.values.clone(),
                    class,
                    source_instance: cand.source_instance,
                    source_offset: cand.source_offset,
                    score: *margin,
                }
            })
            .collect();
        (shapelets, evals, cache)
    }
}

impl Selector for CoverageSelector {
    fn select(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        _dabf: Option<&Dabf>,
        ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError> {
        let classes = train.classes();
        let per_class = ctx.workers().run(classes.len(), |i| {
            self.select_class(pool, train, classes[i])
        });
        let mut shapelets = Vec::new();
        let mut utility_evals = 0;
        let mut cache_stats = CacheStats::default();
        for (class_shapelets, evals, cache) in per_class {
            shapelets.extend(class_shapelets);
            utility_evals += evals;
            cache_stats.merge(&cache.stats());
            ctx.scratch().absorb_dist_cache(cache);
        }
        Ok(Selection {
            shapelets,
            utility_evals,
            cache_stats,
            own_class_dists: Vec::new(),
            degraded: false,
        })
    }
}

fn bspcover_engine(config: &BspCoverConfig) -> Engine {
    Engine::new(
        Box::new(BspCoverSource::new(config.clone())),
        Box::new(NoopPruner),
        Box::new(CoverageSelector::new(config.clone())),
    )
    .with_workers(WorkerPool::new(config.num_threads))
}

/// Discovers shapelets with the BSPCOVER-style pipeline, run through the
/// staged engine (dense enumeration → no pruning phase → coverage
/// selection); degenerate inputs yield an empty vector.
pub fn discover_bspcover_shapelets(train: &Dataset, config: &BspCoverConfig) -> Vec<Shapelet> {
    match bspcover_engine(config).run(train) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// [`discover_bspcover_shapelets`] with per-stage telemetry reported to
/// `observer`.
pub fn discover_bspcover_shapelets_observed(
    train: &Dataset,
    config: &BspCoverConfig,
    observer: &mut dyn StageObserver,
) -> Vec<Shapelet> {
    match bspcover_engine(config).run_with_observer(train, observer) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// [`discover_bspcover_shapelets`] with stage telemetry mirrored into a
/// shared [`MetricsRegistry`] (`stage.*` spans plus per-stage counters).
pub fn discover_bspcover_shapelets_recorded(
    train: &Dataset,
    config: &BspCoverConfig,
    metrics: &MetricsRegistry,
) -> Vec<Shapelet> {
    let engine = bspcover_engine(config);
    let mut ctx = engine.make_context().with_metrics(metrics.clone());
    match engine.run_with_ctx(train, &mut ctx) {
        Ok(result) => result.shapelets,
        // NoCandidates on degenerate inputs, or any validation/stage
        // error surfaced by the hardened engine — the baseline contract
        // stays "degenerate inputs yield an empty vector".
        Err(_) => Vec::new(),
    }
}

/// The BSPCOVER-style classifier: coverage shapelets → transform → SVM.
#[derive(Debug, Clone)]
pub struct BspCoverClassifier {
    transform: ShapeletTransform,
    svm: LinearSvm,
}

impl BspCoverClassifier {
    /// Fits on a training set.
    ///
    /// # Panics
    /// Panics when discovery yields no shapelets or a single class.
    pub fn fit(train: &Dataset, config: BspCoverConfig) -> Self {
        Self::fit_recorded(train, config, &MetricsRegistry::new())
    }

    /// [`fit`](Self::fit) with every phase measured into `metrics` —
    /// `stage.*` discovery spans, `fit.transform`/`fit.svm` head spans,
    /// and `cache.*` distance-cache totals, keyed identically to
    /// `IpsClassifier::fit` so records diff field-for-field.
    pub fn fit_recorded(
        train: &Dataset,
        config: BspCoverConfig,
        metrics: &MetricsRegistry,
    ) -> Self {
        let shapelets = discover_bspcover_shapelets_recorded(train, &config, metrics);
        assert!(!shapelets.is_empty(), "BSPCOVER discovered no shapelets");
        let transform = ShapeletTransform::new(shapelets, config.znorm);
        // One FFT plan per training series, shared across all shapelet
        // columns of the feature matrix.
        let mut cache = DistCache::new();
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

    fn cfg(k: usize) -> BspCoverConfig {
        BspCoverConfig {
            k,
            stride_fraction: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn discovers_up_to_k_per_class() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let s = discover_bspcover_shapelets(&train, &cfg(3));
        for class in [0, 1] {
            let count = s.iter().filter(|x| x.class == class).count();
            assert!((1..=3).contains(&count), "class {class}: {count}");
        }
    }

    #[test]
    fn shapelet_provenance_is_valid() {
        let (train, _) = registry::load("SonyAIBORobotSurface1").unwrap();
        let s = discover_bspcover_shapelets(&train, &cfg(3));
        for sh in &s {
            let inst = train.series(sh.source_instance);
            assert_eq!(train.label(sh.source_instance), sh.class);
            assert_eq!(sh.values, inst.subsequence(sh.source_offset, sh.len()));
        }
    }

    #[test]
    fn classifier_beats_chance_on_easy_data() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = BspCoverClassifier::fit(&train, cfg(5));
        let acc = model.accuracy(&test);
        assert!(acc > 0.6, "acc {acc}");
    }

    #[test]
    fn parallel_coverage_is_bit_identical() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let seq = discover_bspcover_shapelets(&train, &cfg(3));
        for threads in [2, 0] {
            let par_cfg = BspCoverConfig {
                num_threads: threads,
                ..cfg(3)
            };
            assert_eq!(
                seq,
                discover_bspcover_shapelets(&train, &par_cfg),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn observer_reports_engine_stages() {
        use ips_core::engine::{CollectingObserver, Stage};
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let mut obs = CollectingObserver::default();
        let s = discover_bspcover_shapelets_observed(&train, &cfg(3), &mut obs);
        assert!(!s.is_empty());
        let stages: Vec<Stage> = obs.reports.iter().map(|r| r.stage).collect();
        assert_eq!(stages, Stage::ALL.to_vec());
        assert!(obs.reports.last().unwrap().counters.utility_evals > 0);
    }

    #[test]
    fn recorded_fit_measures_every_phase() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let metrics = MetricsRegistry::new();
        let model = BspCoverClassifier::fit_recorded(&train, cfg(3), &metrics);
        assert!(!model.shapelets().is_empty());
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
    }

    #[test]
    fn dedup_reduces_the_dense_pool() {
        // with a coarse signature, near-duplicate windows of a smooth
        // series must collapse: the discovered set is small but non-empty
        let (train, _) = registry::load("SonyAIBORobotSurface2").unwrap();
        let s = discover_bspcover_shapelets(&train, &cfg(50));
        assert!(!s.is_empty());
        assert!(s.len() <= 2 * 50);
        // dedup keeps the picks distinct: no two selected shapelets are
        // the same subsequence
        for (i, a) in s.iter().enumerate() {
            for b in &s[i + 1..] {
                assert!(
                    a.values != b.values
                        || (a.source_instance, a.source_offset)
                            != (b.source_instance, b.source_offset)
                );
            }
        }
    }
}

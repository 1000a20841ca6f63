//! A COTE-IPS-style ensemble.
//!
//! The paper's best-ranked method, COTE-IPS, is "COTE augmented by IPS" —
//! a transformation-ensemble whose members vote with weights learned from
//! training performance. Rebuilding all 35 COTE members is out of scope
//! (DESIGN.md §2); this is the same *construction* over the members this
//! workspace provides: IPS, 1NN-ED, 1NN-DTW, and a Rotation Forest over
//! the raw series values. Weights are stratified-CV train accuracies, the
//! standard proportional-voting scheme of the COTE family.

use std::time::Duration;

use ips_classify::cv::cross_val_accuracy;
use ips_classify::forest::{ForestParams, RotationForest};
use ips_classify::{OneNnDtw, OneNnEd};
use ips_obs::MetricsRegistry;
use ips_tsdata::{Dataset, TimeSeries};

use crate::config::IpsConfig;
use crate::engine::RunReport;
use crate::error::IpsError;
use crate::pipeline::IpsClassifier;
use crate::pool::WorkerPool;
use crate::sampling::member_seed;
use crate::schedule::TaskPartition;

/// Configuration of the ensemble.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// IPS member configuration.
    pub ips: IpsConfig,
    /// Rotation-forest member configuration.
    pub forest: ForestParams,
    /// CV folds used to learn the vote weights.
    pub cv_folds: usize,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            ips: IpsConfig::default(),
            forest: ForestParams::default(),
            cv_folds: 3,
        }
    }
}

enum Member {
    // Boxed: an IpsClassifier (shapelets + transform + SVM) dwarfs the
    // other members, and members live in a Vec of (Member, weight).
    Ips(Box<IpsClassifier>),
    NnEd(OneNnEd),
    NnDtw(OneNnDtw),
    Forest(RotationForest),
}

impl Member {
    fn predict(&self, series: &TimeSeries) -> u32 {
        match self {
            Member::Ips(m) => m.predict(series),
            Member::NnEd(m) => m.predict(series.values()),
            Member::NnDtw(m) => m.predict(series.values()),
            Member::Forest(m) => m.predict(series.values()),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Member::Ips(_) => "IPS",
            Member::NnEd(_) => "1NN-ED",
            Member::NnDtw(_) => "1NN-DTW",
            Member::Forest(_) => "RotF",
        }
    }
}

/// The fitted ensemble: members plus their CV-accuracy vote weights.
pub struct CoteIpsEnsemble {
    members: Vec<(Member, f64)>,
    classes: Vec<u32>,
}

impl CoteIpsEnsemble {
    /// Fits every member on the full training set and learns vote weights
    /// by stratified cross-validation (weights are squared CV accuracies,
    /// emphasizing strong members the way COTE's proportional scheme does).
    pub fn fit(train: &Dataset, config: EnsembleConfig) -> Result<Self, IpsError> {
        let classes = train.classes();
        if classes.len() < 2 {
            return Err(IpsError::InvalidTrainingSet(
                "need at least two classes".into(),
            ));
        }
        let folds = config.cv_folds.max(2);

        // CV weights per member kind. Each weight is an independent,
        // deterministic computation, so the four run on the engine's
        // worker pool; `run` returns them in member order.
        let weights = WorkerPool::new(config.ips.num_threads).run(4, |member| match member {
            0 => cross_val_accuracy(train, folds, |tr, te| {
                match IpsClassifier::fit(tr, config.ips.clone()) {
                    Ok(m) => m.predict_all(te),
                    Err(_) => vec![tr.label(0); te.len()],
                }
            }),
            1 => cross_val_accuracy(train, folds, |tr, te| OneNnEd::fit(tr).predict_all(te)),
            2 => cross_val_accuracy(train, folds, |tr, te| OneNnDtw::fit(tr).predict_all(te)),
            _ => cross_val_accuracy(train, folds, |tr, te| {
                let x: Vec<Vec<f64>> = tr
                    .all_series()
                    .iter()
                    .map(|s| s.values().to_vec())
                    .collect();
                let f = RotationForest::fit(&x, tr.labels(), config.forest);
                te.all_series()
                    .iter()
                    .map(|s| f.predict(s.values()))
                    .collect()
            }),
        });
        let (w_ips, w_ed, w_dtw, w_rotf) = (weights[0], weights[1], weights[2], weights[3]);

        // final members trained on everything
        let ips = IpsClassifier::fit(train, config.ips.clone())?;
        let x: Vec<Vec<f64>> = train
            .all_series()
            .iter()
            .map(|s| s.values().to_vec())
            .collect();
        let forest = RotationForest::fit(&x, train.labels(), config.forest);
        let members = vec![
            (Member::Ips(Box::new(ips)), w_ips * w_ips),
            (Member::NnEd(OneNnEd::fit(train)), w_ed * w_ed),
            (Member::NnDtw(OneNnDtw::fit(train)), w_dtw * w_dtw),
            (Member::Forest(forest), w_rotf * w_rotf),
        ];
        Ok(Self { members, classes })
    }

    /// Weighted-vote prediction.
    pub fn predict(&self, series: &TimeSeries) -> u32 {
        let mut votes: Vec<(u32, f64)> = self.classes.iter().map(|&c| (c, 0.0)).collect();
        for (m, w) in &self.members {
            let label = m.predict(series);
            if let Some(v) = votes.iter_mut().find(|(c, _)| *c == label) {
                v.1 += w.max(1e-6);
            }
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))
            .map(|(c, _)| c)
            .expect("non-empty classes")
    }

    /// Accuracy over a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        let preds: Vec<u32> = test.all_series().iter().map(|s| self.predict(s)).collect();
        ips_classify::eval::accuracy(&preds, test.labels())
    }

    /// `(member name, vote weight)` pairs — for reporting.
    pub fn member_weights(&self) -> Vec<(&'static str, f64)> {
        self.members.iter().map(|(m, w)| (m.name(), *w)).collect()
    }

    /// The IPS member's discovery telemetry.
    pub fn ips_report(&self) -> Option<&RunReport> {
        self.members.iter().find_map(|(m, _)| match m {
            Member::Ips(c) => Some(&c.discovery().report),
            _ => None,
        })
    }
}

/// Configuration of the sampled-discovery ensemble
/// ([`SampledIpsEnsemble`]): `K` independent IPS members, each fit on a
/// *different* random subsample of the candidate pool.
#[derive(Debug, Clone)]
pub struct SampledEnsembleConfig {
    /// Member configuration. `candidate_sampling` must be set — an
    /// ensemble of identical dense runs would be `K` copies of one model.
    /// Each member `m` derives its own seed via
    /// [`member_seed`]`(ips.seed, m)`, so the subsamples are independent;
    /// every other knob is shared.
    pub ips: IpsConfig,
    /// Number of sampled members (`K`, default 5).
    pub members: usize,
    /// CV folds used to learn the vote weights (floored at 2).
    pub cv_folds: usize,
}

impl Default for SampledEnsembleConfig {
    fn default() -> Self {
        Self {
            ips: IpsConfig::default(),
            members: 5,
            cv_folds: 3,
        }
    }
}

/// One fitted member of the sampled ensemble.
struct SampledMember {
    classifier: IpsClassifier,
    weight: f64,
}

/// `K` independent sampled IPS discoveries voting with squared
/// CV-accuracy weights — the COTE-IPS weighting construction over
/// sampled members (Raza & Kramer's recovery mechanism: each member sees
/// a sliver of the candidate pool, the weighted vote recovers — often
/// beats — dense-enumeration accuracy at a fraction of the cost).
///
/// **Scheduling.** Member work (one CV weight + one final fit per
/// member, all independent) is decomposed into [`crate::schedule::WorkItem`]s
/// and dispatched across one worker pool of `ips.num_threads`, so
/// ensemble members fill the machine instead of idling behind a single
/// run's class structure; each member's own engine runs sequentially to
/// avoid nested pools. Results merge in member order, so the fitted
/// ensemble is bit-identical at every thread count and chunk size.
pub struct SampledIpsEnsemble {
    members: Vec<SampledMember>,
    classes: Vec<u32>,
}

impl SampledIpsEnsemble {
    /// Fits the ensemble. Fails with [`IpsError::InvalidConfig`] when
    /// `members == 0` or `ips.candidate_sampling` is unset.
    pub fn fit(train: &Dataset, config: &SampledEnsembleConfig) -> Result<Self, IpsError> {
        if config.members == 0 {
            return Err(IpsError::InvalidConfig {
                field: "members",
                message: "a sampled ensemble needs at least one member".into(),
            });
        }
        if config.ips.candidate_sampling.is_none() {
            return Err(IpsError::InvalidConfig {
                field: "candidate_sampling",
                message: "sampled ensemble members must subsample candidates \
                          (set IpsConfig::candidate_sampling)"
                    .into(),
            });
        }
        config.ips.validate()?;
        let classes = train.classes();
        if classes.len() < 2 {
            return Err(IpsError::InvalidTrainingSet(
                "need at least two classes".into(),
            ));
        }
        let folds = config.cv_folds.max(2);
        // Members run sequentially inside; the parallelism budget goes to
        // the member × task grid below.
        let member_cfg = |m: usize| {
            config
                .ips
                .clone()
                .with_seed(member_seed(config.ips.seed, m))
                .with_threads(1)
        };

        // Two independent work units per member — unit 0 learns the CV
        // weight, unit 1 fits the final member — partitioned into
        // WorkItems (member-major) and self-scheduled across the pool.
        // Item outputs land in fixed item order, so the merge below is
        // deterministic at any thread count and chunk size.
        let units: Vec<usize> = vec![2; config.members];
        let partition = TaskPartition::new(&units, config.ips.chunk_size);
        let pool = WorkerPool::new(config.ips.num_threads);
        type UnitOutcome = (Option<f64>, Option<Result<IpsClassifier, IpsError>>);
        let outputs: Vec<Vec<UnitOutcome>> = partition.run(&pool, |item| {
            let cfg = member_cfg(item.class_idx);
            (item.start..item.end)
                .map(|unit| {
                    if unit == 0 {
                        let acc =
                            cross_val_accuracy(train, folds, |tr, te| {
                                match IpsClassifier::fit(tr, cfg.clone()) {
                                    Ok(m) => m.predict_all(te),
                                    Err(_) => vec![tr.label(0); te.len()],
                                }
                            });
                        (Some(acc), None)
                    } else {
                        (None, Some(IpsClassifier::fit(train, cfg.clone())))
                    }
                })
                .collect()
        });

        let mut members = Vec::with_capacity(config.members);
        for per_member in partition.group_by_class(outputs) {
            let mut weight = 0.0;
            let mut classifier = None;
            for (acc, fit) in per_member.into_iter().flatten() {
                if let Some(acc) = acc {
                    weight = acc * acc;
                }
                if let Some(fit) = fit {
                    classifier = Some(fit?);
                }
            }
            if let Some(classifier) = classifier {
                members.push(SampledMember { classifier, weight });
            }
        }
        Ok(Self { members, classes })
    }

    /// [`fit`](SampledIpsEnsemble::fit), additionally recording telemetry
    /// into `metrics`: the `ensemble_members` counter, each member's
    /// discovery metrics (merged in member order — counters sum), and one
    /// `member{m}.cv_weight` gauge per member.
    pub fn fit_recorded(
        train: &Dataset,
        config: &SampledEnsembleConfig,
        metrics: &MetricsRegistry,
    ) -> Result<Self, IpsError> {
        let ensemble = Self::fit(train, config)?;
        metrics.incr("ensemble_members", ensemble.members.len() as u64);
        for (m, member) in ensemble.members.iter().enumerate() {
            metrics.merge_snapshot(&member.classifier.discovery().metrics);
            metrics.set_gauge(&format!("member{m}.cv_weight"), member.weight);
        }
        Ok(ensemble)
    }

    /// Weighted-vote prediction.
    pub fn predict(&self, series: &TimeSeries) -> u32 {
        let mut votes: Vec<(u32, f64)> = self.classes.iter().map(|&c| (c, 0.0)).collect();
        for member in &self.members {
            let label = member.classifier.predict(series);
            if let Some(v) = votes.iter_mut().find(|(c, _)| *c == label) {
                v.1 += member.weight.max(1e-6);
            }
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Accuracy over a test set.
    pub fn accuracy(&self, test: &Dataset) -> f64 {
        let preds: Vec<u32> = test.all_series().iter().map(|s| self.predict(s)).collect();
        ips_classify::eval::accuracy(&preds, test.labels())
    }

    /// Number of fitted members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no member was fitted (never after a successful `fit`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members' vote weights, in member order.
    pub fn member_weights(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.weight).collect()
    }

    /// Total *discovery* wall-clock summed over all members — the number
    /// the scaling benchmark compares against dense enumeration (member
    /// transform/SVM heads are excluded, matching the dense runs' stage
    /// totals).
    pub fn discovery_total(&self) -> Duration {
        self.members
            .iter()
            .map(|m| m.classifier.discovery().report.total())
            .sum()
    }

    /// Total candidates kept by the members' samplers (the sum of their
    /// `sampled_candidates` counters).
    pub fn sampled_candidates(&self) -> usize {
        self.members
            .iter()
            .map(|m| {
                m.classifier
                    .discovery()
                    .report
                    .counters()
                    .sampled_candidates
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::registry;

    fn config() -> EnsembleConfig {
        EnsembleConfig {
            ips: IpsConfig::default().with_sampling(5, 3).with_k(3),
            forest: ForestParams {
                num_trees: 15,
                ..Default::default()
            },
            cv_folds: 2,
        }
    }

    #[test]
    fn ensemble_fits_and_is_at_least_decent() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let e = CoteIpsEnsemble::fit(&train, config()).unwrap();
        let acc = e.accuracy(&test);
        assert!(acc > 0.6, "ensemble acc {acc}");
        let weights = e.member_weights();
        assert_eq!(weights.len(), 4);
        assert!(weights.iter().all(|(_, w)| (0.0..=1.0).contains(w)));
        let report = e.ips_report().expect("IPS member carries telemetry");
        assert!(!report.stages().is_empty());
    }

    #[test]
    fn parallel_cv_weights_match_sequential() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let seq = CoteIpsEnsemble::fit(&train, config()).unwrap();
        let mut par_cfg = config();
        par_cfg.ips.num_threads = 4;
        let par = CoteIpsEnsemble::fit(&train, par_cfg).unwrap();
        assert_eq!(seq.member_weights(), par.member_weights());
    }

    #[test]
    fn ensemble_is_close_to_or_above_its_best_member() {
        let (train, test) = registry::load("GunPoint").unwrap();
        let e = CoteIpsEnsemble::fit(&train, config()).unwrap();
        let ens = e.accuracy(&test);
        let ed = OneNnEd::fit(&train).accuracy(&test);
        // weighted voting shouldn't collapse far below a decent member
        assert!(ens >= ed - 0.15, "ensemble {ens} vs 1NN-ED {ed}");
    }

    #[test]
    fn single_class_rejected() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let idx = train.class_indices(0);
        let series = idx.iter().map(|&i| train.series(i).clone()).collect();
        let single = Dataset::new(series, vec![0; idx.len()]).unwrap();
        assert!(CoteIpsEnsemble::fit(&single, config()).is_err());
    }

    fn sampled_config(threads: usize) -> SampledEnsembleConfig {
        use crate::config::CandidateSampling;
        SampledEnsembleConfig {
            ips: IpsConfig::default()
                .with_sampling(5, 3)
                .with_k(3)
                .with_threads(threads)
                .with_candidate_sampling(CandidateSampling::fraction(0.4)),
            members: 3,
            cv_folds: 2,
        }
    }

    #[test]
    fn sampled_ensemble_fits_and_votes_decently() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let e = SampledIpsEnsemble::fit(&train, &sampled_config(1)).unwrap();
        assert_eq!(e.len(), 3);
        let acc = e.accuracy(&test);
        assert!(acc > 0.6, "sampled ensemble acc {acc}");
        assert!(e.discovery_total() > Duration::ZERO);
        assert!(e.sampled_candidates() > 0);
        assert!(e.member_weights().iter().all(|w| (0.0..=1.0).contains(w)));
    }

    #[test]
    fn sampled_ensemble_is_thread_and_chunk_invariant() {
        use crate::schedule::ChunkSize;
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let reference = SampledIpsEnsemble::fit(&train, &sampled_config(1)).unwrap();
        for threads in [2, 4] {
            let mut cfg = sampled_config(threads);
            cfg.ips.chunk_size = ChunkSize::Fixed(1);
            let e = SampledIpsEnsemble::fit(&train, &cfg).unwrap();
            assert_eq!(e.member_weights(), reference.member_weights());
            assert_eq!(e.sampled_candidates(), reference.sampled_candidates());
            let preds: Vec<u32> = test.all_series().iter().map(|s| e.predict(s)).collect();
            let ref_preds: Vec<u32> = test
                .all_series()
                .iter()
                .map(|s| reference.predict(s))
                .collect();
            assert_eq!(preds, ref_preds, "threads={threads}");
        }
    }

    #[test]
    fn sampled_ensemble_rejects_bad_configs() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let mut no_members = sampled_config(1);
        no_members.members = 0;
        assert!(matches!(
            SampledIpsEnsemble::fit(&train, &no_members),
            Err(IpsError::InvalidConfig {
                field: "members",
                ..
            })
        ));
        let mut dense = sampled_config(1);
        dense.ips.candidate_sampling = None;
        assert!(matches!(
            SampledIpsEnsemble::fit(&train, &dense),
            Err(IpsError::InvalidConfig {
                field: "candidate_sampling",
                ..
            })
        ));
    }

    #[test]
    fn fit_recorded_emits_member_telemetry() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let metrics = MetricsRegistry::new();
        let e = SampledIpsEnsemble::fit_recorded(&train, &sampled_config(1), &metrics).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counters.get("ensemble_members"), Some(&3));
        assert_eq!(
            snap.counters.get("candidate_gen.sampled_candidates"),
            Some(&(e.sampled_candidates() as u64))
        );
        assert!(snap.gauges.contains_key("member0.cv_weight"));
    }
}

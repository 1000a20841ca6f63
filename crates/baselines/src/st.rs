//! An ST-style comparator (Lines, Davis, Hills, Bagnall: "A shapelet
//! transform for time series classification", KDD 2012 — the `ST` column
//! of Table VI).
//!
//! The original performs an exhaustive candidate search scored by how well
//! each candidate's distance feature separates the classes (information
//! gain over the best split in the original; the F-statistic in later
//! revisions), prunes self-similar candidates (overlapping provenance),
//! and keeps the top-k per class for the transform. This reimplementation
//! uses the F-statistic variant with overlap-based self-similarity
//! pruning, a budgeted enumeration stride for tractability, and the
//! workspace's shared transform + linear-SVM head (DESIGN.md §2).

use std::ops::Deref;

use ips_classify::{Shapelet, ShapeletClassifier, ShapeletTransform};
use ips_distance::sliding_min_dist_znorm;
use ips_tsdata::Dataset;

/// Configuration of the ST-style method.
#[derive(Debug, Clone, PartialEq)]
pub struct StConfig {
    /// Shapelets kept per class.
    pub k: usize,
    /// Candidate lengths as ratios of the instance length.
    pub length_ratios: Vec<f64>,
    /// Enumeration stride as a fraction of the candidate length.
    pub stride_fraction: f64,
    /// Hard cap on scored candidates (0 = unlimited); enumeration past the
    /// cap is thinned evenly, keeping the search budget bounded.
    pub max_candidates: usize,
    /// Overlap fraction above which two candidates from the same instance
    /// are considered self-similar (the pruning of the original).
    pub overlap: f64,
    /// Seed for the SVM head.
    pub seed: u64,
}

impl Default for StConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            stride_fraction: 0.1,
            max_candidates: 3000,
            overlap: 0.5,
            seed: 0x57,
        }
    }
}

/// The F-statistic of a one-way layout: between-group over within-group
/// variance of the distance feature, the ST quality measure. Returns 0
/// for degenerate layouts.
pub fn f_statistic(distances: &[f64], labels: &[u32]) -> f64 {
    debug_assert_eq!(distances.len(), labels.len());
    let n = distances.len();
    if n < 3 {
        return 0.0;
    }
    let grand = distances.iter().sum::<f64>() / n as f64;
    let mut classes: Vec<u32> = labels.to_vec();
    classes.sort_unstable();
    classes.dedup();
    let c = classes.len();
    if c < 2 || c >= n {
        return 0.0;
    }
    let mut between = 0.0;
    let mut within = 0.0;
    for &cl in &classes {
        let members: Vec<f64> = distances
            .iter()
            .zip(labels)
            .filter(|(_, &l)| l == cl)
            .map(|(&d, _)| d)
            .collect();
        let m = members.iter().sum::<f64>() / members.len().max(1) as f64;
        between += members.len() as f64 * (m - grand) * (m - grand);
        within += members.iter().map(|d| (d - m) * (d - m)).sum::<f64>();
    }
    let df_b = (c - 1) as f64;
    let df_w = (n - c) as f64;
    if within <= 1e-12 {
        return f64::MAX / 2.0; // perfect separation
    }
    (between / df_b) / (within / df_w)
}

/// Discovers ST-style shapelets.
pub fn discover_st_shapelets(train: &Dataset, config: &StConfig) -> Vec<Shapelet> {
    let n = train.min_length();
    let lengths: Vec<usize> = {
        let mut ls: Vec<usize> = config
            .length_ratios
            .iter()
            .map(|r| ((r * n as f64).round() as usize).clamp(3, n.max(3)))
            .filter(|&l| l <= n)
            .collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    // enumerate candidates
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (i, series) in train.all_series().iter().enumerate() {
        for &len in &lengths {
            let stride = ((config.stride_fraction * len as f64) as usize).max(1);
            let mut start = 0;
            while start + len <= series.len() {
                candidates.push((i, start, len));
                start += stride;
            }
        }
    }
    if config.max_candidates > 0 && candidates.len() > config.max_candidates {
        let step = candidates.len() as f64 / config.max_candidates as f64;
        candidates = (0..config.max_candidates)
            .map(|i| candidates[(i as f64 * step) as usize])
            .collect();
    }
    // score every candidate by the F-statistic of its distance feature
    let mut scored: Vec<(f64, (usize, usize, usize))> = candidates
        .into_iter()
        .map(|(inst, off, len)| {
            let q = train.series(inst).subsequence(off, len);
            let dists: Vec<f64> = train
                .all_series()
                .iter()
                .map(|t| sliding_min_dist_znorm(q, t.values()).0)
                .collect();
            (f_statistic(&dists, train.labels()), (inst, off, len))
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite F"));

    // per-class top-k with self-similarity pruning
    let mut shapelets = Vec::new();
    for class in train.classes() {
        let mut picked: Vec<(usize, usize, usize)> = Vec::new();
        for &(f, (inst, off, len)) in &scored {
            if picked.len() == config.k {
                break;
            }
            if train.label(inst) != class {
                continue;
            }
            let self_similar = picked.iter().any(|&(pi, po, pl)| {
                pi == inst && overlap_fraction(off, len, po, pl) > config.overlap
            });
            if self_similar {
                continue;
            }
            picked.push((inst, off, len));
            shapelets.push(Shapelet {
                values: train.series(inst).subsequence(off, len).to_vec(),
                class,
                source_instance: inst,
                source_offset: off,
                score: f,
            });
        }
    }
    shapelets
}

fn overlap_fraction(a_off: usize, a_len: usize, b_off: usize, b_len: usize) -> f64 {
    let lo = a_off.max(b_off);
    let hi = (a_off + a_len).min(b_off + b_len);
    if hi <= lo {
        return 0.0;
    }
    (hi - lo) as f64 / a_len.min(b_len) as f64
}

/// The ST-style classifier.
#[derive(Debug, Clone)]
pub struct StClassifier(ShapeletClassifier);

impl StClassifier {
    /// Fits on a training set.
    ///
    /// # Panics
    /// Panics when discovery yields no shapelets or a single class.
    pub fn fit(train: &Dataset, config: StConfig) -> Self {
        let shapelets = discover_st_shapelets(train, &config);
        assert!(!shapelets.is_empty(), "ST discovered no shapelets");
        let transform = ShapeletTransform::new(shapelets, true);
        let features = transform.transform(train);
        Self(ShapeletClassifier::fit(
            transform,
            &features,
            train.labels(),
            config.seed,
        ))
    }
}

impl Deref for StClassifier {
    type Target = ShapeletClassifier;

    fn deref(&self) -> &ShapeletClassifier {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::registry;

    #[test]
    fn f_statistic_orders_separation() {
        // clearly separated groups
        let d1 = [0.1, 0.2, 0.15, 5.0, 5.1, 4.9];
        let l = [0, 0, 0, 1, 1, 1];
        let strong = f_statistic(&d1, &l);
        // interleaved groups
        let d2 = [0.1, 5.0, 0.2, 4.9, 0.15, 5.1];
        let weak = f_statistic(&d2, &[0, 1, 1, 0, 0, 1]);
        assert!(strong > weak, "{strong} vs {weak}");
        // degenerate inputs
        assert_eq!(f_statistic(&[1.0, 2.0], &[0, 1]), 0.0);
        assert_eq!(f_statistic(&[1.0, 2.0, 3.0], &[0, 0, 0]), 0.0);
    }

    #[test]
    fn overlap_fraction_cases() {
        assert_eq!(overlap_fraction(0, 10, 20, 10), 0.0);
        assert_eq!(overlap_fraction(0, 10, 5, 10), 0.5);
        assert_eq!(overlap_fraction(0, 10, 0, 10), 1.0);
        assert_eq!(overlap_fraction(0, 20, 5, 10), 1.0); // contained
    }

    #[test]
    fn discovers_k_per_class_without_self_similar_picks() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = StConfig {
            k: 3,
            ..Default::default()
        };
        let s = discover_st_shapelets(&train, &cfg);
        for class in [0, 1] {
            let picks: Vec<&Shapelet> = s.iter().filter(|x| x.class == class).collect();
            assert!(!picks.is_empty() && picks.len() <= 3);
            for (i, a) in picks.iter().enumerate() {
                for b in &picks[i + 1..] {
                    if a.source_instance == b.source_instance {
                        assert!(
                            overlap_fraction(a.source_offset, a.len(), b.source_offset, b.len())
                                <= cfg.overlap
                        );
                    }
                }
            }
        }
        // scores are F-statistics, descending within class
        for class in [0, 1] {
            let f: Vec<f64> = s
                .iter()
                .filter(|x| x.class == class)
                .map(|x| x.score)
                .collect();
            for w in f.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    #[test]
    fn classifier_is_strong_on_easy_data() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = StClassifier::fit(&train, StConfig::default());
        let acc = model.accuracy(&test);
        assert!(acc > 0.7, "acc {acc}");
    }
}

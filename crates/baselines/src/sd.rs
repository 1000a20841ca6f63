//! An SD-style comparator (Grabocka, Wistuba, Schmidt-Thieme: "Fast
//! classification of univariate and multivariate time series through
//! shapelet discovery", KAIS 2016 — the paper's `SD` column).
//!
//! Pipeline shape from the original: random candidate sampling, **online
//! distance-based clustering** that discards candidates too similar to an
//! already-kept one (the "prune similar shapelets" step), scoring of the
//! survivors by how well their distances separate classes, and a
//! nearest-centroid style classifier over the resulting transform. As
//! with the other reimplemented comparators, the classification head is
//! the workspace's shared shapelet-transform + linear SVM (DESIGN.md §2).

use std::ops::Deref;

use ips_classify::{Shapelet, ShapeletClassifier, ShapeletTransform};
use ips_distance::{sliding_min_dist_znorm, sq_euclidean};
use ips_lsh::embed;
use ips_tsdata::Dataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the SD-style method.
#[derive(Debug, Clone, PartialEq)]
pub struct SdConfig {
    /// Shapelets kept per class.
    pub k: usize,
    /// Candidate lengths as ratios of the instance length.
    pub length_ratios: Vec<f64>,
    /// Randomly sampled candidates per class (before clustering).
    pub samples_per_class: usize,
    /// Clustering radius as a fraction of the mean pairwise embedded
    /// distance; candidates within the radius of a kept one are dropped.
    pub cluster_radius: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SdConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            samples_per_class: 150,
            cluster_radius: 0.3,
            seed: 0x5D,
        }
    }
}

/// Discovers SD-style shapelets.
pub fn discover_sd_shapelets(train: &Dataset, config: &SdConfig) -> Vec<Shapelet> {
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
    let embed_dim = 24;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut shapelets = Vec::new();
    for class in train.classes() {
        let members = train.class_indices(class);
        if members.is_empty() {
            continue;
        }
        // Stage 1: random sampling of (instance, offset, length).
        let raw: Vec<(usize, usize, usize)> = (0..config.samples_per_class)
            .map(|_| {
                let inst = members[rng.random_range(0..members.len())];
                let len = lengths[rng.random_range(0..lengths.len())];
                let max_off = train.series(inst).len() - len;
                let off = rng.random_range(0..=max_off);
                (inst, off, len)
            })
            .collect();
        // Stage 2: online clustering in embedding space — keep a candidate
        // only when it is far from every kept one.
        let embeds: Vec<Vec<f64>> = raw
            .iter()
            .map(|&(i, o, l)| embed(train.series(i).subsequence(o, l), embed_dim))
            .collect();
        let mean_pair = mean_pairwise(&embeds);
        let radius = config.cluster_radius * mean_pair;
        let mut kept: Vec<usize> = Vec::new();
        for (ci, e) in embeds.iter().enumerate() {
            if kept
                .iter()
                .all(|&kc| sq_euclidean(e, &embeds[kc]).sqrt() >= radius)
            {
                kept.push(ci);
            }
        }
        // Stage 3: score survivors by the class-separation margin of their
        // distance feature, keep the top-k.
        let mut scored: Vec<(f64, usize)> = kept
            .into_iter()
            .map(|ci| {
                let (inst, off, len) = raw[ci];
                let q = train.series(inst).subsequence(off, len);
                let mut own = (0.0, 0usize);
                let mut other = (0.0, 0usize);
                for (t, l) in train.iter() {
                    let d = sliding_min_dist_znorm(q, t.values()).0;
                    if l == class {
                        own = (own.0 + d, own.1 + 1);
                    } else {
                        other = (other.0 + d, other.1 + 1);
                    }
                }
                let margin = other.0 / other.1.max(1) as f64 - own.0 / own.1.max(1) as f64;
                (margin, ci)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite margins"));
        for (margin, ci) in scored.into_iter().take(config.k) {
            let (inst, off, len) = raw[ci];
            shapelets.push(Shapelet {
                values: train.series(inst).subsequence(off, len).to_vec(),
                class,
                source_instance: inst,
                source_offset: off,
                score: margin,
            });
        }
    }
    shapelets
}

fn mean_pairwise(embeds: &[Vec<f64>]) -> f64 {
    let n = embeds.len();
    if n < 2 {
        return 0.0;
    }
    // subsample pairs for large pools — the radius only needs a scale
    let step = (n / 50).max(1);
    let mut acc = 0.0;
    let mut cnt = 0usize;
    for i in (0..n).step_by(step) {
        for j in ((i + 1)..n).step_by(step) {
            acc += sq_euclidean(&embeds[i], &embeds[j]).sqrt();
            cnt += 1;
        }
    }
    if cnt == 0 {
        0.0
    } else {
        acc / cnt as f64
    }
}

/// The SD-style classifier.
#[derive(Debug, Clone)]
pub struct SdClassifier(ShapeletClassifier);

impl SdClassifier {
    /// Fits on a training set.
    ///
    /// # Panics
    /// Panics when discovery yields no shapelets or a single class.
    pub fn fit(train: &Dataset, config: SdConfig) -> Self {
        let shapelets = discover_sd_shapelets(train, &config);
        assert!(!shapelets.is_empty(), "SD discovered no shapelets");
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

impl Deref for SdClassifier {
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
    fn discovers_k_per_class_with_valid_provenance() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let s = discover_sd_shapelets(
            &train,
            &SdConfig {
                k: 3,
                ..Default::default()
            },
        );
        for class in [0, 1] {
            let count = s.iter().filter(|x| x.class == class).count();
            assert!((1..=3).contains(&count), "class {class}: {count}");
        }
        for sh in &s {
            assert_eq!(train.label(sh.source_instance), sh.class);
            let inst = train.series(sh.source_instance);
            assert_eq!(sh.values, inst.subsequence(sh.source_offset, sh.len()));
        }
    }

    #[test]
    fn clustering_drops_near_duplicates() {
        let (train, _) = registry::load("GunPoint").unwrap();
        // huge radius → at most a handful of clusters survive per class
        let cfg = SdConfig {
            k: 50,
            cluster_radius: 2.0,
            ..Default::default()
        };
        let s = discover_sd_shapelets(&train, &cfg);
        assert!(s.len() < 20, "kept {}", s.len());
        assert!(!s.is_empty());
    }

    #[test]
    fn classifier_beats_chance_on_easy_data() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let model = SdClassifier::fit(&train, SdConfig::default());
        let acc = model.accuracy(&test);
        assert!(acc > 0.6, "acc {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, _) = registry::load("SonyAIBORobotSurface2").unwrap();
        let a = discover_sd_shapelets(&train, &SdConfig::default());
        let b = discover_sd_shapelets(&train, &SdConfig::default());
        assert_eq!(a, b);
    }
}

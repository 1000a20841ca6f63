//! A Fast-Shapelets-style comparator (Rakthanmanon & Keogh, SDM 2013):
//! SAX symbolization plus random masking to find subsequences whose
//! discretized form separates the classes, followed by refinement on raw
//! distances.
//!
//! The original classifies with a decision tree; we reuse the shared
//! shapelet-transform + SVM head so Table VI compares discovery methods
//! (recorded in DESIGN.md §2).

use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;

use ips_classify::{Shapelet, ShapeletClassifier, ShapeletTransform};
use ips_distance::sliding_min_dist_znorm;
use ips_tsdata::Dataset;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the FS-style method.
#[derive(Debug, Clone, PartialEq)]
pub struct FastShapeletsConfig {
    /// Shapelets per class.
    pub k: usize,
    /// Candidate lengths as ratios of the instance length.
    pub length_ratios: Vec<f64>,
    /// SAX word length (PAA segments).
    pub word_len: usize,
    /// SAX alphabet size.
    pub alphabet: usize,
    /// Random-masking rounds.
    pub rounds: usize,
    /// Positions masked per round.
    pub mask: usize,
    /// Candidates refined on raw distances, per class.
    pub refine_pool: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for FastShapeletsConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            word_len: 8,
            alphabet: 4,
            rounds: 10,
            mask: 2,
            refine_pool: 20,
            seed: 0xFA57,
        }
    }
}

/// SAX-discretizes a subsequence: z-normalize, PAA to `word_len` segments,
/// map each segment mean to an alphabet symbol by Gaussian breakpoints.
pub fn sax_word(sub: &[f64], word_len: usize, alphabet: usize) -> Vec<u8> {
    debug_assert!(alphabet >= 2 && alphabet <= BREAKPOINTS.len() + 1);
    let n = sub.len() as f64;
    let mu = sub.iter().sum::<f64>() / n;
    let sd = (sub.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n).sqrt();
    let z: Vec<f64> = if sd <= f64::EPSILON {
        vec![0.0; sub.len()]
    } else {
        sub.iter().map(|v| (v - mu) / sd).collect()
    };
    // PAA with fractional segment boundaries
    let seg = sub.len() as f64 / word_len as f64;
    (0..word_len)
        .map(|w| {
            let lo = (w as f64 * seg) as usize;
            let hi = (((w + 1) as f64 * seg) as usize).clamp(lo + 1, sub.len());
            let mean = z[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            symbol(mean, alphabet)
        })
        .collect()
}

/// Gaussian equiprobable breakpoints for alphabets 2..=6.
const BREAKPOINTS: [&[f64]; 5] = [
    &[0.0],
    &[-0.43, 0.43],
    &[-0.67, 0.0, 0.67],
    &[-0.84, -0.25, 0.25, 0.84],
    &[-0.97, -0.43, 0.0, 0.43, 0.97],
];

fn symbol(v: f64, alphabet: usize) -> u8 {
    let bps = BREAKPOINTS[alphabet.clamp(2, 6) - 2];
    bps.iter().take_while(|&&b| v > b).count() as u8
}

/// Discovers FS-style shapelets.
pub fn discover_fs_shapelets(train: &Dataset, config: &FastShapeletsConfig) -> Vec<Shapelet> {
    let n = train.min_length();
    let mut lengths: Vec<usize> = config
        .length_ratios
        .iter()
        .map(|r| ((r * n as f64).round() as usize).clamp(config.word_len.max(3), n.max(3)))
        .filter(|&l| l <= n)
        .collect();
    lengths.sort_unstable();
    lengths.dedup();

    let classes = train.classes();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // (instance, offset, len) → per-candidate distinguishing score.
    // BTreeMap, not HashMap: the refinement pool below is cut at a score
    // tie boundary, so iteration order must be deterministic across
    // processes for discovery to be reproducible.
    let mut scores: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();

    for &len in &lengths {
        let stride = (len / 2).max(1);
        // SAX words of every candidate
        let mut words: Vec<((usize, usize, usize), Vec<u8>)> = Vec::new();
        for (i, series) in train.all_series().iter().enumerate() {
            let mut start = 0;
            while start + len <= series.len() {
                let w = sax_word(
                    series.subsequence(start, len),
                    config.word_len,
                    config.alphabet,
                );
                words.push(((i, start, len), w));
                start += stride;
            }
        }
        for _ in 0..config.rounds {
            // mask `mask` random positions
            let mut masked_positions: Vec<usize> = (0..config.word_len).collect();
            for _ in 0..config.mask.min(config.word_len.saturating_sub(1)) {
                let idx = rng.random_range(0..masked_positions.len());
                masked_positions.swap_remove(idx);
            }
            // histogram of masked words per class
            let mut counts: HashMap<Vec<u8>, Vec<usize>> = HashMap::new();
            for ((inst, _, _), w) in &words {
                let mw: Vec<u8> = masked_positions.iter().map(|&p| w[p]).collect();
                let c = train.label(*inst);
                let ci = classes.iter().position(|&x| x == c).expect("class present");
                counts.entry(mw).or_insert_with(|| vec![0; classes.len()])[ci] += 1;
            }
            // distinguishing power of a word: own-class count minus the
            // max other-class count, credited to each of its candidates
            for (key, w) in &words {
                let mw: Vec<u8> = masked_positions.iter().map(|&p| w[p]).collect();
                let cnt = &counts[&mw];
                let c = train.label(key.0);
                let ci = classes.iter().position(|&x| x == c).expect("class present");
                let own = cnt[ci] as f64;
                let other = cnt
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ci)
                    .map(|(_, &v)| v)
                    .max()
                    .unwrap_or(0) as f64;
                *scores.entry(*key).or_insert(0.0) += own - other;
            }
        }
    }

    // Refinement: per class, take the top-scoring pool and re-rank by the
    // real class-separation margin on raw distances.
    let mut shapelets = Vec::new();
    for &class in &classes {
        let mut pool: Vec<(&(usize, usize, usize), &f64)> = scores
            .iter()
            .filter(|((inst, _, _), _)| train.label(*inst) == class)
            .collect();
        pool.sort_by(|a, b| {
            b.1.partial_cmp(a.1)
                .expect("finite")
                .then_with(|| a.0.cmp(b.0))
        });
        pool.truncate(config.refine_pool.max(config.k));
        let mut refined: Vec<(f64, (usize, usize, usize))> = pool
            .into_iter()
            .map(|(&(inst, off, len), _)| {
                let q = train.series(inst).subsequence(off, len);
                let mut own_sum = 0.0;
                let mut own_n = 0usize;
                let mut other_sum = 0.0;
                let mut other_n = 0usize;
                for (t, l) in train.iter() {
                    let d = sliding_min_dist_znorm(q, t.values()).0;
                    if l == class {
                        own_sum += d;
                        own_n += 1;
                    } else {
                        other_sum += d;
                        other_n += 1;
                    }
                }
                let margin = other_sum / other_n.max(1) as f64 - own_sum / own_n.max(1) as f64;
                (margin, (inst, off, len))
            })
            .collect();
        refined.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("finite margins")
                .then_with(|| a.1.cmp(&b.1))
        });
        for (margin, (inst, off, len)) in refined.into_iter().take(config.k) {
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

/// The FS-style classifier.
#[derive(Debug, Clone)]
pub struct FastShapeletsClassifier(ShapeletClassifier);

impl FastShapeletsClassifier {
    /// Fits on a training set.
    ///
    /// # Panics
    /// Panics when discovery yields no shapelets or a single class.
    pub fn fit(train: &Dataset, config: FastShapeletsConfig) -> Self {
        let shapelets = discover_fs_shapelets(train, &config);
        assert!(!shapelets.is_empty(), "FS discovered no shapelets");
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

impl Deref for FastShapeletsClassifier {
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
    fn sax_word_properties() {
        let sub: Vec<f64> = (0..32).map(|i| i as f64).collect(); // rising ramp
        let w = sax_word(&sub, 8, 4);
        assert_eq!(w.len(), 8);
        // symbols increase along a ramp
        for pair in w.windows(2) {
            assert!(pair[0] <= pair[1], "{w:?}");
        }
        assert!(w[0] < w[7]);
        // scale/offset invariance
        let scaled: Vec<f64> = sub.iter().map(|v| v * 100.0 - 7.0).collect();
        assert_eq!(w, sax_word(&scaled, 8, 4));
        // constant input maps to the all-mid word
        let flat = sax_word(&[2.0; 16], 4, 4);
        assert!(flat.iter().all(|&s| s == flat[0]));
    }

    #[test]
    fn symbol_breakpoints_partition() {
        assert_eq!(symbol(-2.0, 4), 0);
        assert_eq!(symbol(-0.3, 4), 1);
        assert_eq!(symbol(0.3, 4), 2);
        assert_eq!(symbol(2.0, 4), 3);
    }

    #[test]
    fn discovers_k_per_class() {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = FastShapeletsConfig {
            k: 3,
            rounds: 5,
            ..Default::default()
        };
        let s = discover_fs_shapelets(&train, &cfg);
        for class in [0, 1] {
            assert_eq!(s.iter().filter(|x| x.class == class).count(), 3);
        }
        for sh in &s {
            assert_eq!(train.label(sh.source_instance), sh.class);
        }
    }

    #[test]
    fn discovery_is_deterministic_across_calls() {
        // Regression: the refinement pool used to be cut from a HashMap
        // iteration whose order is randomized per instance, so tied
        // scores made repeated discoveries disagree (caught by the
        // conformance grid, DESIGN.md §12).
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = FastShapeletsConfig {
            k: 2,
            rounds: 4,
            refine_pool: 8,
            length_ratios: vec![0.2, 0.4],
            ..Default::default()
        };
        let a = discover_fs_shapelets(&train, &cfg);
        let b = discover_fs_shapelets(&train, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source_instance, y.source_instance);
            assert_eq!(x.source_offset, y.source_offset);
            assert_eq!(x.class, y.class);
            assert_eq!(x.values, y.values);
        }
    }

    #[test]
    fn classifier_beats_chance_on_easy_data() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = FastShapeletsConfig {
            rounds: 5,
            ..Default::default()
        };
        let model = FastShapeletsClassifier::fit(&train, cfg);
        let acc = model.accuracy(&test);
        assert!(acc > 0.6, "acc {acc}");
    }
}

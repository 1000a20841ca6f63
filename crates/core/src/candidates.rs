//! Algorithm 1 — shapelet candidate generation with the instance profile.
//!
//! For every class, `Q_N` samples of `Q_S` randomly selected instances are
//! concatenated into one long series; the instance profile at each
//! candidate length yields the sample's motif (minimum IP) and discord
//! (maximum IP). Motifs are the shapelet candidates proper (they address
//! the 1st issue — discords as "shapelets"); discords are retained because
//! the inter-class utility uses "the motifs and discords from the inter
//! classes" (Section III-D).

use ips_lsh::embed;
use ips_profile::{InstanceProfile, PairTable};
use ips_tsdata::{ClassConcat, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::IpsConfig;

/// Motif or discord provenance of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Sample motif — a frequent, widely occurring subsequence.
    Motif,
    /// Sample discord — the most isolated subsequence.
    Discord,
}

/// One shapelet candidate extracted from an instance-profile sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Subsequence values.
    pub values: Vec<f64>,
    /// Class the candidate was sampled from.
    pub class: u32,
    /// Motif or discord.
    pub kind: CandidateKind,
    /// Instance-profile value at extraction (NN distance in the sample).
    pub ip_value: f64,
    /// Original training-set instance index the subsequence came from.
    pub source_instance: usize,
    /// Offset within that instance.
    pub source_offset: usize,
    /// Fixed-dimension LSH embedding (z-normalized, resampled).
    pub embedded: Vec<f64>,
}

impl Candidate {
    /// Candidate length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a degenerate empty candidate (never produced by
    /// generation).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The pool `Φ` of Algorithm 1: candidates grouped per class.
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    classes: Vec<(u32, Vec<Candidate>)>,
}

impl CandidatePool {
    /// Classes present in the pool, in insertion order.
    pub fn classes(&self) -> Vec<u32> {
        self.classes.iter().map(|(c, _)| *c).collect()
    }

    /// All candidates of one class (`Φ_C`).
    pub fn of_class(&self, class: u32) -> &[Candidate] {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Motif candidates of one class (`Φ_C^motif`).
    pub fn motifs_of(&self, class: u32) -> impl Iterator<Item = &Candidate> {
        self.of_class(class)
            .iter()
            .filter(|c| c.kind == CandidateKind::Motif)
    }

    /// Discord candidates of one class (`Φ_C^discord`).
    pub fn discords_of(&self, class: u32) -> impl Iterator<Item = &Candidate> {
        self.of_class(class)
            .iter()
            .filter(|c| c.kind == CandidateKind::Discord)
    }

    /// Total candidate count.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|(_, v)| v.len()).sum()
    }

    /// True when generation produced nothing (degenerate input).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a candidate under its class.
    pub fn push(&mut self, cand: Candidate) {
        if let Some((_, v)) = self.classes.iter_mut().find(|(c, _)| *c == cand.class) {
            v.push(cand);
        } else {
            self.classes.push((cand.class, vec![cand]));
        }
    }

    /// Removes candidates of `class` failing `keep` (used by pruning).
    pub fn retain_class(&mut self, class: u32, mut keep: impl FnMut(&Candidate) -> bool) {
        if let Some((_, v)) = self.classes.iter_mut().find(|(c, _)| *c == class) {
            v.retain(|c| keep(c));
        }
    }

    /// Iterates all candidates.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.classes.iter().flat_map(|(_, v)| v.iter())
    }

    /// Caps the pool at `max` candidates for the `max_candidates`
    /// discovery budget. Keeps a round-robin prefix across classes (the
    /// first kept depth-0 candidate of every class, then depth 1, …) so
    /// no class is starved, and trims each class's tail — deterministic,
    /// insertion-order preserving. Classes left empty are dropped.
    pub fn truncate(&mut self, max: usize) {
        if self.len() <= max {
            return;
        }
        let mut kept = 0usize;
        let mut depth = 0usize;
        let mut keep_depth = vec![0usize; self.classes.len()];
        'fill: loop {
            let mut any = false;
            for (i, (_, v)) in self.classes.iter().enumerate() {
                if depth < v.len() {
                    any = true;
                    if kept == max {
                        break 'fill;
                    }
                    kept += 1;
                    keep_depth[i] = depth + 1;
                }
            }
            if !any {
                break;
            }
            depth += 1;
        }
        for ((_, v), &d) in self.classes.iter_mut().zip(&keep_depth) {
            v.truncate(d);
        }
        self.classes.retain(|(_, v)| !v.is_empty());
    }
}

/// Runs Algorithm 1 over a training set.
///
/// Sampling is deterministic in `config.seed`, and the RNG stream is
/// derived **per (class, sample)** — see [`generate_sample`] — so the
/// scheduler-parallel path ([`crate::engine::ProfileCandidateSource`])
/// produces bit-identical pools at every thread count and chunk size.
/// Classes whose instances are shorter than the smallest candidate length
/// contribute nothing (and the caller's pipeline will surface that as an
/// error).
pub fn generate_candidates(train: &Dataset, config: &IpsConfig) -> CandidatePool {
    let mut pool = CandidatePool::default();
    for class in train.classes() {
        for cand in generate_for_class(train, class, config) {
            pool.push(cand);
        }
    }
    pool
}

/// Algorithm 1's inner loop for a single class: all of its samples, in
/// sample order. Deterministic in `(config.seed, class)`.
pub fn generate_for_class(train: &Dataset, class: u32, config: &IpsConfig) -> Vec<Candidate> {
    (0..config.num_samples.max(1))
        .flat_map(|sample_idx| generate_sample(train, class, sample_idx, config))
        .collect()
}

/// One sample of Algorithm 1 — the scheduler's unit of work: draw the
/// `sample_idx`-th sample of `class`, concatenate it, and extract the
/// motif/discord candidates at every candidate length.
///
/// The RNG is seeded from the `(config.seed, class, sample_idx)` triple
/// (splitmix64-style finalizer), so any decomposition of the sample grid
/// — sequential, class-parallel, or chunked work items — concatenates the
/// same per-sample outputs in the same order: bit-identical pools, no
/// shared RNG stream to serialize.
pub fn generate_sample(
    train: &Dataset,
    class: u32,
    sample_idx: usize,
    config: &IpsConfig,
) -> Vec<Candidate> {
    sample_candidates(
        train,
        class,
        sample_idx,
        config,
        &PairTable::new(config.metric),
    )
}

/// [`generate_sample`] with its instance profiles built from `pairs`, a
/// table of pair joins over `train` shared with other samples (see
/// [`crate::engine::ProfileCandidateSource`]). The candidates are the same
/// whatever the table already holds.
pub(crate) fn sample_candidates(
    train: &Dataset,
    class: u32,
    sample_idx: usize,
    config: &IpsConfig,
    pairs: &PairTable,
) -> Vec<Candidate> {
    let members = train.class_indices(class);
    if members.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(sample_seed(config.seed, class, sample_idx));
    let sample = draw_sample(&members, config.sample_size, &mut rng);
    let concat = ClassConcat::from_instances(sample.iter().map(|&i| (i, train.series(i).values())));
    let n = sample
        .iter()
        .map(|&i| train.series(i).len())
        .min()
        .unwrap_or(0);
    let mut out = Vec::new();
    for len in config.lengths_for(n) {
        extract_motif_discord(
            &pairs.profile(&concat, len),
            &concat,
            class,
            config,
            &mut out,
        );
    }
    out
}

/// Splitmix64-style finalizer over the `(seed, class, sample)` triple —
/// well-separated streams even for adjacent classes and sample indices.
fn sample_seed(seed: u64, class: u32, sample_idx: usize) -> u64 {
    let mut z = seed
        ^ (class as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (sample_idx as u64 + 1).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Draws `q_s` distinct instances (at least 2, all of them when the class
/// is smaller), in random order. A one-instance class yields a one-instance
/// sample, whose profile has no finite value and so no candidate.
fn draw_sample(members: &[usize], q_s: usize, rng: &mut StdRng) -> Vec<usize> {
    let take = q_s.max(2).min(members.len());
    let mut shuffled = members.to_vec();
    shuffled.shuffle(rng);
    shuffled.truncate(take);
    shuffled
}

fn extract_motif_discord(
    ip: &InstanceProfile,
    concat: &ClassConcat,
    class: u32,
    config: &IpsConfig,
    out: &mut Vec<Candidate>,
) {
    let len = ip.window();
    let mut push = |entry: ips_profile::ProfileEntry, kind: CandidateKind| {
        let values = concat.values()[entry.start..entry.start + len].to_vec();
        let (inst, offset) = concat.to_instance_coords(entry.start);
        let embedded = embed(&values, config.embed_dim());
        out.push(Candidate {
            values,
            class,
            kind,
            ip_value: entry.value,
            source_instance: inst,
            source_offset: offset,
            embedded,
        });
    };
    let m = config.motifs_per_sample.max(1);
    for entry in top_entries(ip, m, len / 2, false) {
        push(entry, CandidateKind::Motif);
    }
    for entry in top_entries(ip, m, len / 2, true) {
        push(entry, CandidateKind::Discord);
    }
}

/// Top-`m` smallest (motifs) or largest (discords) profile entries with an
/// exclusion half-width of `excl` around each pick — the coverage
/// generalization of Algorithm 1's single min/max.
fn top_entries(
    ip: &InstanceProfile,
    m: usize,
    excl: usize,
    largest: bool,
) -> Vec<ips_profile::ProfileEntry> {
    let mut order: Vec<&ips_profile::ProfileEntry> = ip
        .entries()
        .iter()
        .filter(|e| e.value.is_finite())
        .collect();
    order.sort_by(|a, b| {
        if largest {
            b.value.partial_cmp(&a.value).expect("finite")
        } else {
            a.value.partial_cmp(&b.value).expect("finite")
        }
    });
    let mut picked: Vec<ips_profile::ProfileEntry> = Vec::with_capacity(m);
    for e in order {
        if picked.len() == m {
            break;
        }
        if picked.iter().any(|p| p.start.abs_diff(e.start) <= excl) {
            continue;
        }
        picked.push(*e);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, IpsClassifier, IpsError};
    use ips_tsdata::{DatasetSpec, SynthGenerator, TimeSeries};

    fn small_config() -> IpsConfig {
        let mut cfg = IpsConfig::default().with_sampling(4, 3).with_seed(7);
        cfg.motifs_per_sample = 1; // the literal Algorithm 1 accounting
        cfg
    }

    fn train() -> Dataset {
        let spec = DatasetSpec::new("CandGen", 2, 64, 12, 12).with_noise(0.15);
        SynthGenerator::new(spec).generate().unwrap().0
    }

    #[test]
    fn pool_size_matches_algorithm1_accounting() {
        let cfg = small_config();
        let train = train();
        let pool = generate_candidates(&train, &cfg);
        // |C| · Q_N · |lengths| · 2 (motif + discord per sample/length)
        let lengths = cfg.lengths_for(64).len();
        assert_eq!(pool.len(), 2 * 4 * lengths * 2);
        assert_eq!(pool.classes(), vec![0, 1]);
        let motifs = pool.motifs_of(0).count();
        let discords = pool.discords_of(0).count();
        assert_eq!(motifs, 4 * lengths);
        assert_eq!(motifs, discords);
        // the coverage generalization multiplies the pool (up to the
        // exclusion-zone limit)
        let mut wide = cfg.clone();
        wide.motifs_per_sample = 3;
        let pool3 = generate_candidates(&train, &wide);
        assert!(pool3.len() > pool.len());
        assert!(pool3.len() <= 3 * pool.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let train = train();
        let a = generate_candidates(&train, &cfg);
        let b = generate_candidates(&train, &cfg);
        let va: Vec<_> = a.iter().map(|c| c.values.clone()).collect();
        let vb: Vec<_> = b.iter().map(|c| c.values.clone()).collect();
        assert_eq!(va, vb);
        let c = generate_candidates(&train, &cfg.clone().with_seed(8));
        let vc: Vec<_> = c.iter().map(|x| x.values.clone()).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn candidates_carry_valid_provenance() {
        let cfg = small_config();
        let train = train();
        let pool = generate_candidates(&train, &cfg);
        for c in pool.iter() {
            assert!(!c.is_empty());
            assert!(c.source_instance < train.len());
            assert_eq!(train.label(c.source_instance), c.class);
            let inst = train.series(c.source_instance);
            assert!(c.source_offset + c.len() <= inst.len());
            // the stored values are really that instance's subsequence
            assert_eq!(
                c.values,
                inst.subsequence(c.source_offset, c.len()),
                "provenance mismatch"
            );
            assert_eq!(c.embedded.len(), cfg.embed_dim());
            assert!(c.ip_value.is_finite());
        }
    }

    #[test]
    fn candidate_lengths_follow_the_grid() {
        let cfg = small_config();
        let train = train();
        let pool = generate_candidates(&train, &cfg);
        let grid = cfg.lengths_for(64);
        for c in pool.iter() {
            assert!(
                grid.contains(&c.len()),
                "length {} not in {grid:?}",
                c.len()
            );
        }
    }

    #[test]
    fn motif_candidates_have_smaller_ip_than_discords_on_average() {
        let cfg = small_config();
        let train = train();
        let pool = generate_candidates(&train, &cfg);
        let mean = |it: Vec<f64>| it.iter().sum::<f64>() / it.len().max(1) as f64;
        let m = mean(pool.motifs_of(0).map(|c| c.ip_value).collect());
        let d = mean(pool.discords_of(0).map(|c| c.ip_value).collect());
        assert!(m < d, "motif mean {m} vs discord mean {d}");
    }

    #[test]
    fn sample_size_larger_than_class_is_clamped() {
        let spec = DatasetSpec::new("TinyClass", 2, 40, 4, 4).with_noise(0.1);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let cfg = IpsConfig::default().with_sampling(3, 50);
        let pool = generate_candidates(&train, &cfg);
        assert!(!pool.is_empty());
    }

    #[test]
    fn a_one_instance_class_yields_no_candidates_and_never_panics() {
        let base = train();
        let mut series: Vec<TimeSeries> = (0..base.len()).map(|i| base.series(i).clone()).collect();
        let mut labels: Vec<u32> = (0..base.len()).map(|i| base.label(i)).collect();
        series.push(base.series(0).clone());
        labels.push(2);
        let train = Dataset::new(series, labels).unwrap();
        let cfg = small_config();
        let pool = generate_candidates(&train, &cfg);
        assert_eq!(pool.classes(), vec![0, 1]);
        let mut shapelets = Vec::new();
        for threads in [1, 2] {
            let cfg = cfg.clone().with_threads(threads);
            let run = Engine::from_config(&cfg).run(&train).unwrap();
            assert_eq!(run.report.candidates_generated(), pool.len());
            shapelets.push(run.shapelets);
            match IpsClassifier::fit(&train, cfg) {
                Err(IpsError::InvalidTrainingSet(msg)) => assert!(msg.contains("class 2"), "{msg}"),
                Err(e) => panic!("threads={threads}: {e}"),
                Ok(_) => panic!("threads={threads}: a one-instance class must be rejected"),
            }
        }
        assert_eq!(shapelets[0], shapelets[1]);
    }

    #[test]
    fn truncate_is_deterministic_and_class_balanced() {
        let cfg = small_config();
        let train = train();
        let mut pool = generate_candidates(&train, &cfg);
        let full = pool.len();
        assert!(full > 6);
        // no-op above the current size
        pool.truncate(full + 1);
        assert_eq!(pool.len(), full);
        let mut a = pool.clone();
        let mut b = pool.clone();
        a.truncate(6);
        b.truncate(6);
        assert_eq!(a.len(), 6);
        // deterministic: two truncations agree candidate-for-candidate
        let va: Vec<_> = a.iter().map(|c| c.values.clone()).collect();
        let vb: Vec<_> = b.iter().map(|c| c.values.clone()).collect();
        assert_eq!(va, vb);
        // balanced: both classes keep 3 of their first candidates
        assert_eq!(a.of_class(0).len(), 3);
        assert_eq!(a.of_class(1).len(), 3);
        assert_eq!(a.of_class(0), &pool.of_class(0)[..3]);
        // a budget of 1 keeps exactly the first class's first candidate
        let mut one = pool.clone();
        one.truncate(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one.classes(), vec![0]);
    }

    #[test]
    fn retain_class_prunes_in_place() {
        let cfg = small_config();
        let train = train();
        let mut pool = generate_candidates(&train, &cfg);
        let before = pool.motifs_of(0).count();
        pool.retain_class(0, |c| c.kind == CandidateKind::Discord);
        assert_eq!(pool.motifs_of(0).count(), 0);
        assert!(pool.discords_of(0).count() > 0);
        assert!(before > 0);
        // other classes untouched
        assert!(pool.motifs_of(1).count() > 0);
    }
}

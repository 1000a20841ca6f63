//! Algorithm 4 — top-k shapelet generation.
//!
//! Scores every surviving motif candidate with the three utilities and
//! polls the `k` best (smallest `u`) per class from a priority queue. The
//! [`TopKStrategy`] selects between the exact scorer and the DT + CR
//! optimized scorer (the Table V / Fig. 10b-c ablation axis).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ips_classify::Shapelet;
use ips_filter::Dabf;
use ips_tsdata::Dataset;

use crate::candidates::{Candidate, CandidatePool};
use crate::config::IpsConfig;
use crate::utility::{score_dt_cr, score_exact};

/// Which utility computation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// Raw distances with computation reuse only.
    Exact,
    /// Distribution transformation + computation reuse via the DABF.
    DtCr,
}

/// Selects the top-`k` shapelets per class (Algorithm 4). The DABF feeds
/// [`TopKStrategy::DtCr`] and is ignored otherwise; requesting DT+CR
/// without a filter gracefully degrades to exact scoring (the same
/// fallback the engine's [`crate::engine::UtilitySelector`] applies) —
/// slower, never wrong.
///
/// Candidates tie-break by pool order, making selection deterministic.
pub fn select_top_k(
    pool: &CandidatePool,
    train: &Dataset,
    dabf: Option<&Dabf>,
    config: &IpsConfig,
    strategy: TopKStrategy,
) -> Vec<Shapelet> {
    let mut shapelets = Vec::new();
    for class in pool.classes() {
        let scores = match (strategy, dabf) {
            (TopKStrategy::DtCr, Some(dabf)) => score_dt_cr(pool, train, dabf, config, class),
            _ => score_exact(pool, train, config, class),
        };
        select_class_from_scores(pool, class, &scores, config, &mut shapelets);
    }
    shapelets
}

/// The per-class half of Algorithm 4: given utility scores for the motif
/// candidates of `class` (in `pool.motifs_of(class)` order, lower is
/// better), polls the diversity-guarded priority queue and appends the
/// selected shapelets to `out`, returning their motif indices in the
/// same order. Pure in its inputs, so scoring may run class-parallel and
/// selection applies sequentially in class order.
pub(crate) fn select_class_from_scores(
    pool: &CandidatePool,
    class: u32,
    scores: &[f64],
    config: &IpsConfig,
    out: &mut Vec<Shapelet>,
) -> Vec<usize> {
    let motifs: Vec<&Candidate> = pool.motifs_of(class).collect();
    debug_assert_eq!(scores.len(), motifs.len());
    // min-queue over (score, index); Reverse() flips BinaryHeap's max
    // behaviour. OrderedScore makes f64 usable as a key (scores are
    // finite by construction).
    let mut queue: BinaryHeap<Reverse<(OrderedScore, usize)>> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| Reverse((OrderedScore(s), i)))
        .collect();
    // Diversity guard: polling purely by score collapses onto one
    // candidate cluster (the paper's issue 2.2 resurfacing inside
    // Alg. 4), so a poll is skipped when the candidate sits closer to
    // an already-selected shapelet than `div_threshold` in embedding
    // space. Skipped candidates are kept as fallback so k is always
    // reached when the pool allows it. A zero diversity (the default)
    // marks no pick too close whatever the scale, so the O(n²) scale is
    // computed only when it matters.
    let div_threshold = if config.diversity == 0.0 {
        0.0
    } else {
        config.diversity * mean_pairwise_embedded(&motifs)
    };
    let mut picked_embeds: Vec<&[f64]> = Vec::with_capacity(config.k);
    let mut seen: Vec<(usize, usize, usize)> = Vec::new();
    let mut deferred: Vec<(OrderedScore, usize)> = Vec::new();
    let mut selected: Vec<(OrderedScore, usize)> = Vec::with_capacity(config.k);
    while selected.len() < config.k {
        let Some(Reverse((score, idx))) = queue.pop() else {
            break;
        };
        let c = motifs[idx];
        // Exact duplicates (the same subsequence rediscovered by
        // several samples) add no information — always skip repeats.
        let key = (c.source_instance, c.source_offset, c.len());
        if seen.contains(&key) {
            continue;
        }
        let e = c.embedded.as_slice();
        let too_close = picked_embeds
            .iter()
            .any(|p| embedded_dist(p, e) < div_threshold);
        if too_close {
            deferred.push((score, idx));
        } else {
            seen.push(key);
            picked_embeds.push(e);
            selected.push((score, idx));
        }
    }
    // Fallback: fill from the best deferred (near-duplicate) candidates.
    deferred.sort_by_key(|a| a.0);
    for d in deferred {
        if selected.len() == config.k {
            break;
        }
        selected.push(d);
    }
    // Present best-first within the class regardless of which pass
    // (diverse or fallback) admitted a candidate.
    selected.sort_by_key(|a| a.0);
    for &(score, idx) in &selected {
        let c = motifs[idx];
        out.push(Shapelet {
            values: c.values.clone(),
            class,
            source_instance: c.source_instance,
            source_offset: c.source_offset,
            // Shapelet scores are "higher = better" by convention.
            score: -score.0,
        });
    }
    selected.into_iter().map(|(_, idx)| idx).collect()
}

/// Mean pairwise Euclidean distance between candidate embeddings (the
/// scale of the diversity guard). Zero when fewer than two candidates.
fn mean_pairwise_embedded(motifs: &[&Candidate]) -> f64 {
    let n = motifs.len();
    if n < 2 {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            acc += embedded_dist(&motifs[i].embedded, &motifs[j].embedded);
            count += 1;
        }
    }
    acc / count as f64
}

#[inline]
fn embedded_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Total-order wrapper for f64 scores. Uses `total_cmp`, so a NaN score
/// (possible only on already-degraded inputs) sorts to the "worst" end
/// deterministically instead of panicking the selection.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedScore(f64);

impl Eq for OrderedScore {}

impl PartialOrd for OrderedScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_candidates;
    use crate::pruning::{build_dabf, prune_with_dabf};
    use ips_tsdata::{DatasetSpec, SynthGenerator};

    fn setup() -> (CandidatePool, Dataset, IpsConfig, Dabf) {
        let spec = DatasetSpec::new("TopkT", 2, 64, 12, 12)
            .with_noise(0.15)
            .with_modes(1);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let cfg = IpsConfig::default().with_sampling(5, 3).with_k(3);
        let mut pool = generate_candidates(&train, &cfg);
        let dabf = build_dabf(&pool, &cfg);
        prune_with_dabf(&mut pool, &dabf);
        (pool, train, cfg, dabf)
    }

    #[test]
    fn selects_k_per_class_with_both_strategies() {
        let (pool, train, cfg, dabf) = setup();
        for strat in [TopKStrategy::Exact, TopKStrategy::DtCr] {
            let s = select_top_k(&pool, &train, Some(&dabf), &cfg, strat);
            assert_eq!(s.len(), 2 * 3, "{strat:?}");
            for class in [0, 1] {
                assert_eq!(s.iter().filter(|x| x.class == class).count(), 3);
            }
        }
    }

    #[test]
    fn shapelets_are_score_ordered_within_class() {
        let (pool, train, cfg, dabf) = setup();
        let s = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::Exact);
        for class in [0, 1] {
            let class_scores: Vec<f64> = s
                .iter()
                .filter(|x| x.class == class)
                .map(|x| x.score)
                .collect();
            for w in class_scores.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "not descending: {class_scores:?}");
            }
        }
    }

    #[test]
    fn k_larger_than_pool_truncates_to_distinct_candidates() {
        let (pool, train, mut cfg, dabf) = setup();
        cfg.k = 10_000;
        let s = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::Exact);
        // duplicates (same provenance) are suppressed, so the cap is the
        // number of distinct motif subsequences
        let mut distinct: Vec<(usize, usize, usize)> = pool
            .classes()
            .iter()
            .flat_map(|&c| {
                pool.motifs_of(c)
                    .map(|m| (m.source_instance, m.source_offset, m.len()))
            })
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(s.len(), distinct.len());
        let motifs_total: usize = pool
            .classes()
            .iter()
            .map(|&c| pool.motifs_of(c).count())
            .sum();
        assert!(s.len() <= motifs_total);
    }

    #[test]
    fn selection_is_deterministic() {
        let (pool, train, cfg, dabf) = setup();
        let a = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::DtCr);
        let b = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::DtCr);
        assert_eq!(a, b);
    }

    #[test]
    fn dtcr_without_dabf_falls_back_to_exact() {
        let (pool, train, cfg, _) = setup();
        let fallback = select_top_k(&pool, &train, None, &cfg, TopKStrategy::DtCr);
        let exact = select_top_k(&pool, &train, None, &cfg, TopKStrategy::Exact);
        assert_eq!(fallback, exact, "the fallback must be exact scoring");
        assert!(!fallback.is_empty());
    }

    #[test]
    fn exact_and_dtcr_agree_reasonably_often() {
        // DT is an approximation; we only require that the two strategies'
        // top sets overlap (they score the same pool). Select deeper than
        // the other tests: at k=3 the two top sets can legitimately be
        // disjoint for an unlucky PRNG stream.
        let (pool, train, mut cfg, dabf) = setup();
        cfg.k = 8;
        let a = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::Exact);
        let b = select_top_k(&pool, &train, Some(&dabf), &cfg, TopKStrategy::DtCr);
        let set_a: Vec<&Vec<f64>> = a.iter().map(|s| &s.values).collect();
        let overlap = b.iter().filter(|s| set_a.contains(&&s.values)).count();
        assert!(overlap >= 1, "strategies share no shapelets at all");
    }
}

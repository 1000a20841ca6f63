//! Rank-based statistical tests: Friedman, Wilcoxon signed-rank, Holm.
//!
//! These drive the paper's Section IV-C analysis: "The Friedman test \[10\],
//! a non-parametric statistical test, and Wilcoxon-signed rank test with
//! Holm's α (5%) \[19\] are taken for all methods."

use crate::special::{chi2_cdf, f_cdf, normal_cdf};

/// Result of the Friedman test over an `N × k` score matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FriedmanResult {
    /// Average rank per method (rank 1 = best, i.e. highest score).
    pub avg_ranks: Vec<f64>,
    /// The chi-square statistic χ²_F.
    pub chi2: f64,
    /// p-value of the χ² form.
    pub p_chi2: f64,
    /// Iman–Davenport F statistic (the less conservative refinement).
    pub f_stat: f64,
    /// p-value of the F form.
    pub p_f: f64,
    /// Number of datasets N.
    pub n_datasets: usize,
    /// Number of methods k.
    pub n_methods: usize,
}

/// Ranks one row of scores, **higher score = better = lower rank**, with
/// ties receiving the average of the tied rank positions (the convention of
/// Demšar's methodology used by the paper's CD diagram).
pub fn rank_row(scores: &[f64]) -> Vec<f64> {
    let k = scores.len();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("no NaN scores"));
    let mut ranks = vec![0.0; k];
    let mut i = 0;
    while i < k {
        let mut j = i;
        while j + 1 < k && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        // positions i..=j (0-based) share the average rank
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Average rank per method over an `N × k` score matrix (`scores[d][m]` =
/// score of method `m` on dataset `d`). Higher scores rank better.
pub fn average_ranks(scores: &[Vec<f64>]) -> Vec<f64> {
    assert!(!scores.is_empty(), "need at least one dataset row");
    let k = scores[0].len();
    let mut sums = vec![0.0; k];
    for row in scores {
        assert_eq!(row.len(), k, "ragged score matrix");
        for (s, r) in sums.iter_mut().zip(rank_row(row)) {
            *s += r;
        }
    }
    sums.iter_mut().for_each(|s| *s /= scores.len() as f64);
    sums
}

/// The Friedman test over an `N × k` score matrix (N datasets, k methods).
///
/// # Panics
/// Panics when fewer than 2 datasets or 2 methods are supplied.
pub fn friedman_test(scores: &[Vec<f64>]) -> FriedmanResult {
    let n = scores.len();
    assert!(n >= 2, "Friedman test needs at least 2 datasets");
    let k = scores[0].len();
    assert!(k >= 2, "Friedman test needs at least 2 methods");
    let avg_ranks = average_ranks(scores);
    let (n_f, k_f) = (n as f64, k as f64);
    let sum_r2: f64 = avg_ranks.iter().map(|r| r * r).sum();
    let chi2 = 12.0 * n_f / (k_f * (k_f + 1.0)) * (sum_r2 - k_f * (k_f + 1.0).powi(2) / 4.0);
    let p_chi2 = 1.0 - chi2_cdf(chi2, k_f - 1.0);
    // Iman–Davenport refinement
    let denom = n_f * (k_f - 1.0) - chi2;
    let (f_stat, p_f) = if denom > 0.0 {
        let f = (n_f - 1.0) * chi2 / denom;
        (f, 1.0 - f_cdf(f, k_f - 1.0, (k_f - 1.0) * (n_f - 1.0)))
    } else {
        (f64::INFINITY, 0.0)
    };
    FriedmanResult {
        avg_ranks,
        chi2,
        p_chi2,
        f_stat,
        p_f,
        n_datasets: n,
        n_methods: k,
    }
}

/// Two-sided Wilcoxon signed-rank test between paired samples `a` and `b`.
///
/// Zero differences are dropped; ties among |differences| get average
/// ranks; the p-value uses the normal approximation with tie correction
/// (adequate for N ≥ ~10; the paper runs it over 46 datasets). Returns
/// `(w_statistic, p_value)`; `p = 1.0` when fewer than one non-zero
/// difference exists.
pub fn wilcoxon_signed_rank(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "paired samples must be equal length");
    let mut diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x - y)
        .filter(|d| *d != 0.0)
        .collect();
    let n = diffs.len();
    if n == 0 {
        return (0.0, 1.0);
    }
    diffs.sort_by(|x, y| x.abs().partial_cmp(&y.abs()).expect("no NaN"));
    // average ranks over |diff| ties, accumulate signed rank sums
    let mut w_plus = 0.0;
    let mut w_minus = 0.0;
    let mut tie_term = 0.0; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && diffs[j + 1].abs() == diffs[i].abs() {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &d in &diffs[i..=j] {
            if d > 0.0 {
                w_plus += avg_rank;
            } else {
                w_minus += avg_rank;
            }
        }
        i = j + 1;
    }
    let w = w_plus.min(w_minus);
    let n_f = n as f64;
    let mean = n_f * (n_f + 1.0) / 4.0;
    let var = n_f * (n_f + 1.0) * (2.0 * n_f + 1.0) / 24.0 - tie_term / 48.0;
    if var <= 0.0 {
        return (w, 1.0);
    }
    // continuity correction toward the mean
    let z = (w - mean + 0.5) / var.sqrt();
    let p = (2.0 * normal_cdf(z)).min(1.0);
    (w, p)
}

/// Holm's step-down adjustment of a vector of p-values at any α: returns
/// adjusted p-values in the input order (compare against α directly).
pub fn holm_adjust(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).expect("no NaN"));
    let mut adjusted = vec![0.0; m];
    let mut running_max: f64 = 0.0;
    for (rank, &idx) in order.iter().enumerate() {
        let adj = ((m - rank) as f64 * p_values[idx]).min(1.0);
        running_max = running_max.max(adj);
        adjusted[idx] = running_max;
    }
    adjusted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_row_basics() {
        // higher score ranks better (rank 1)
        assert_eq!(rank_row(&[0.9, 0.7, 0.8]), vec![1.0, 3.0, 2.0]);
        // ties share the average rank
        assert_eq!(rank_row(&[0.5, 0.5, 0.1]), vec![1.5, 1.5, 3.0]);
        assert_eq!(rank_row(&[0.3, 0.3, 0.3]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn average_ranks_over_matrix() {
        let scores = vec![
            vec![0.9, 0.5, 0.7],
            vec![0.8, 0.6, 0.7],
            vec![0.9, 0.8, 0.7],
        ];
        let r = average_ranks(&scores);
        assert_eq!(
            r,
            vec![1.0, (3.0 + 3.0 + 2.0) / 3.0, (2.0 + 2.0 + 3.0) / 3.0]
        );
    }

    #[test]
    fn friedman_detects_clear_differences() {
        // method 0 always best, method 2 always worst, 12 datasets
        let scores: Vec<Vec<f64>> = (0..12)
            .map(|d| vec![0.9 + 0.001 * d as f64, 0.7, 0.5 - 0.001 * d as f64])
            .collect();
        let res = friedman_test(&scores);
        assert_eq!(res.avg_ranks, vec![1.0, 2.0, 3.0]);
        assert!(res.p_chi2 < 0.01, "p {:.4}", res.p_chi2);
        assert!(res.p_f < 0.01);
    }

    #[test]
    fn friedman_accepts_null_for_identical_methods() {
        // scores shuffled so ranks are balanced
        let scores = vec![
            vec![0.9, 0.8, 0.7],
            vec![0.7, 0.9, 0.8],
            vec![0.8, 0.7, 0.9],
            vec![0.9, 0.8, 0.7],
            vec![0.7, 0.9, 0.8],
            vec![0.8, 0.7, 0.9],
        ];
        let res = friedman_test(&scores);
        assert!(res.p_chi2 > 0.5, "p {:.4}", res.p_chi2);
        for r in res.avg_ranks {
            assert!((r - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn wilcoxon_detects_consistent_improvement() {
        let a: Vec<f64> = (0..20).map(|i| 0.8 + 0.001 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 0.05).collect();
        let (_, p) = wilcoxon_signed_rank(&a, &b);
        assert!(p < 0.01, "p {p}");
    }

    #[test]
    fn wilcoxon_null_for_symmetric_noise() {
        // alternating ± differences of equal magnitude
        let a: Vec<f64> = (0..30)
            .map(|i| 0.5 + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let b = vec![0.5; 30];
        let (_, p) = wilcoxon_signed_rank(&a, &b);
        assert!(p > 0.5, "p {p}");
    }

    #[test]
    fn wilcoxon_all_zero_differences() {
        let a = vec![0.5; 10];
        let (w, p) = wilcoxon_signed_rank(&a, &a);
        assert_eq!(w, 0.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn wilcoxon_handles_ties_in_magnitude() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.9, 2.1, 2.9, 4.1, 4.9, 6.1]; // |d| all equal
        let (_, p) = wilcoxon_signed_rank(&a, &b);
        assert!(p > 0.5);
    }

    #[test]
    fn holm_adjustment_is_monotone_and_bounded() {
        let p = [0.01, 0.04, 0.03, 0.005];
        let adj = holm_adjust(&p);
        // sorted: 0.005*4=0.02, 0.01*3=0.03, 0.03*2=0.06, 0.04*1=0.06(max)
        assert!((adj[3] - 0.02).abs() < 1e-12);
        assert!((adj[0] - 0.03).abs() < 1e-12);
        assert!((adj[2] - 0.06).abs() < 1e-12);
        assert!((adj[1] - 0.06).abs() < 1e-12);
        assert!(adj.iter().all(|&x| x <= 1.0));
    }

    #[test]
    fn holm_clamps_at_one() {
        let adj = holm_adjust(&[0.9, 0.8]);
        assert!(adj.iter().all(|&x| x <= 1.0));
    }
}

//! The distribution-aware bloom filter (DABF) — Section III-B/C of the
//! paper.
//!
//! A DABF answers "is this query *close to most elements* of the set?" in
//! O(1) per query (one LSH projection). Construction (Algorithm 2): hash
//! every element into LSH buckets, rank buckets by the distance between
//! each bucket center and the origin, z-normalize those distances, fit the
//! best distribution by NMSE (Formula 10, Table III). Query (Algorithm 3):
//! project the candidate, z-normalize its distance-to-origin with the
//! fitted distribution's moments, and apply the 3σ rule from Chebyshev's
//! inequality (Formula 11) — within 3σ means "possibly close to most
//! elements" (prune), outside means "definitely not close to most"
//! (keep as a discriminative candidate).

use ips_lsh::{projection_norm, BucketTable, Lsh, LshParams};
use ips_stats::fit::{best_fit, FitResult};

/// Configuration of a DABF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DabfConfig {
    /// LSH family parameters (dimension, family kind, seed, …).
    pub lsh: LshParams,
    /// Histogram bins for distribution fitting.
    pub bins: usize,
    /// The σ-rule multiplier θ (the paper uses 3, giving ≥ 88.89% coverage
    /// by Chebyshev).
    pub sigma_rule: f64,
}

impl Default for DabfConfig {
    fn default() -> Self {
        Self {
            lsh: LshParams::default(),
            bins: 20,
            sigma_rule: 3.0,
        }
    }
}

/// The per-class filter `DABF_C = (LSH_C, Distribution_C)`.
#[derive(Debug, Clone)]
pub struct ClassDabf {
    table: BucketTable,
    /// The table's bucket center norms, ascending with NaN dropped: the
    /// frozen ranking [`ClassDabf::rank_of`] searches.
    sorted_center_norms: Vec<f64>,
    /// Best-fit distribution over the element projection norms (`None`
    /// when the class had too few / degenerate elements — queries then
    /// conservatively report "not close").
    fit: Option<FitResult>,
    /// Moments of the raw norm population, used for z-normalizing queries.
    mu: f64,
    sigma: f64,
    config: DabfConfig,
}

impl ClassDabf {
    /// Builds the filter from embedded elements (each of length
    /// `config.lsh.dim`).
    pub fn build(elements: &[Vec<f64>], config: DabfConfig) -> Self {
        let mut table = BucketTable::new(Lsh::new(config.lsh));
        let mut norms = Vec::with_capacity(elements.len());
        for (id, e) in elements.iter().enumerate() {
            let proj = table.lsh().project(e);
            table.insert(id, &proj);
            norms.push(projection_norm(&proj));
        }
        let (mu, sigma) = moments(&norms);
        // Fit over z-normalized norms (Algorithm 2 lines 8-10); fitting on
        // the normalized values keeps Table III's NMSE comparable across
        // datasets of very different raw scales.
        let fit = if sigma > 0.0 {
            let z: Vec<f64> = norms.iter().map(|v| (v - mu) / sigma).collect();
            best_fit(&z, config.bins)
        } else {
            None
        };
        // A NaN norm is never `<` a query, so dropping it leaves every
        // rank unchanged and keeps the sorted order a valid search key.
        let sorted_center_norms = table
            .ranked_center_norms()
            .into_iter()
            .map(|(norm, _)| norm)
            .filter(|norm| !norm.is_nan())
            .collect();
        Self {
            table,
            sorted_center_norms,
            fit,
            mu,
            sigma,
            config,
        }
    }

    /// The Algorithm 3 query: "possibly close to most elements" (`true` →
    /// the caller prunes the candidate) vs "definitely not close to most"
    /// (`false` → the candidate is discriminative against this class).
    ///
    /// Both halves of `DABF_C = (LSH_C, Distribution_C)` participate: the
    /// query must land in a bucket this class actually populated (the
    /// bloom-filter part — a never-seen bucket is "definitely not close")
    /// **and** its projection norm must fall within the θσ band of the
    /// fitted distribution (the distribution-aware part). The scalar norm
    /// alone conflates different shapes of equal energy; requiring bucket
    /// membership restores the shape sensitivity.
    pub fn is_close_to_most(&self, embedded: &[f64]) -> bool {
        let Some(fit) = &self.fit else {
            return false; // degenerate class: cannot claim closeness
        };
        if self.sigma <= 0.0 {
            return false;
        }
        let proj = self.table.lsh().project(embedded);
        if self.table.bucket_of(&proj).is_none() {
            return false; // LSH says: definitely not close to this class
        }
        let z = (projection_norm(&proj) - self.mu) / self.sigma;
        // Re-standardize within the fitted distribution (its mean/std are
        // ≈ (0,1) for Normal fits but differ for skewed families).
        let (dm, ds) = (fit.dist.mean(), fit.dist.std());
        if ds <= 0.0 {
            return false;
        }
        ((z - dm) / ds).abs() <= self.config.sigma_rule
    }

    /// The bucket rank of a query — the number of buckets whose center
    /// norm is strictly below the query's projection norm, i.e. the
    /// position it would take in the ascending center-norm order. This is
    /// the "bucket index" of the DT lower bound (Formula 15). One
    /// projection plus a binary search over the frozen norms: O(dim ·
    /// hashes + log #buckets). A NaN query ranks 0 and +∞ ranks above
    /// every finite center.
    pub fn rank_of(&self, embedded: &[f64]) -> usize {
        let norm = projection_norm(&self.table.lsh().project(embedded));
        self.sorted_center_norms.partition_point(|&c| c < norm)
    }

    /// The fitted distribution and its NMSE (the Table III row for this
    /// class), when fitting succeeded.
    pub fn fit(&self) -> Option<&FitResult> {
        self.fit.as_ref()
    }

    /// Moments `(μ, σ)` of the element projection norms.
    pub fn norm_moments(&self) -> (f64, f64) {
        (self.mu, self.sigma)
    }

    /// The underlying bucket table (bucket counts, ranked centers).
    pub fn table(&self) -> &BucketTable {
        &self.table
    }

    /// Number of elements inserted.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when built from no elements.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// A DABF per class: `DABF = { DABF_C }` (Algorithm 2 lines 11-12).
#[derive(Debug, Clone, Default)]
pub struct Dabf {
    classes: Vec<(u32, ClassDabf)>,
}

impl Dabf {
    /// Creates an empty multi-class filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the filter for one class.
    pub fn add_class(&mut self, class: u32, filter: ClassDabf) {
        if let Some(slot) = self.classes.iter_mut().find(|(c, _)| *c == class) {
            slot.1 = filter;
        } else {
            self.classes.push((class, filter));
        }
    }

    /// The filter of one class.
    pub fn class(&self, class: u32) -> Option<&ClassDabf> {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, f)| f)
    }

    /// All `(class, filter)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (u32, &ClassDabf)> {
        self.classes.iter().map(|(c, f)| (*c, f))
    }

    /// The Algorithm 3 disjunction: true when the candidate is possibly
    /// close to most elements of **any class other than `own_class`** —
    /// i.e. it should be pruned.
    pub fn close_to_most_of_other_class(&self, own_class: u32, embedded: &[f64]) -> bool {
        self.classes
            .iter()
            .filter(|(c, _)| *c != own_class)
            .any(|(_, f)| f.is_close_to_most(embedded))
    }
}

/// The quadratic-time reference the DABF replaces (Section III-B's "naive
/// method"): store all elements, and per query compute the distance to
/// every element, testing whether the query's mean element distance sits
/// within θσ of the population's own mean-distance distribution.
#[derive(Debug, Clone)]
pub struct NaiveMostFilter {
    elements: Vec<Vec<f64>>,
    mean_dist_mu: f64,
    mean_dist_sigma: f64,
    sigma_rule: f64,
}

impl NaiveMostFilter {
    /// Builds the reference filter; construction is O(n²·d) because it
    /// computes all pairwise distances to learn the closeness scale.
    pub fn build(elements: &[Vec<f64>], sigma_rule: f64) -> Self {
        let n = elements.len();
        let mut mean_dists = Vec::with_capacity(n);
        for (i, e) in elements.iter().enumerate() {
            let mut acc = 0.0;
            let mut cnt = 0usize;
            for (j, f) in elements.iter().enumerate() {
                if i != j {
                    acc += euclid(e, f);
                    cnt += 1;
                }
            }
            if cnt > 0 {
                mean_dists.push(acc / cnt as f64);
            }
        }
        let (mu, sigma) = moments(&mean_dists);
        Self {
            elements: elements.to_vec(),
            mean_dist_mu: mu,
            mean_dist_sigma: sigma,
            sigma_rule,
        }
    }

    /// O(n·d) query: mean distance to every element, θσ test.
    pub fn is_close_to_most(&self, query: &[f64]) -> bool {
        if self.elements.is_empty() || self.mean_dist_sigma <= 0.0 {
            return false;
        }
        let mean: f64 = self.elements.iter().map(|e| euclid(query, e)).sum::<f64>()
            / self.elements.len() as f64;
        (mean - self.mean_dist_mu) / self.mean_dist_sigma <= self.sigma_rule
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when built from no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn moments(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mu = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
    (mu, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_lsh::LshKind;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn config() -> DabfConfig {
        DabfConfig {
            lsh: LshParams {
                kind: LshKind::L2,
                dim: 16,
                num_hashes: 8,
                ..Default::default()
            },
            bins: 15,
            sigma_rule: 3.0,
        }
    }

    /// A tight cluster of elements around a base vector.
    fn cluster(rng: &mut StdRng, base: &[f64], n: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                base.iter()
                    .map(|x| x + rng.random_range(-spread..spread))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rank_of_brackets() {
        let elements: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                (0..16)
                    .map(|j| ((i * 5 + j) as f64 * 1.3).sin() * 4.0)
                    .collect()
            })
            .collect();
        let dabf = ClassDabf::build(&elements, config());
        let buckets = dabf.table().num_buckets();
        assert!(buckets > 1);
        // a NaN projection norm is below no center …
        assert_eq!(dabf.rank_of(&[f64::NAN; 16]), 0);
        // … and an infinite one is above every finite center.
        let mut inf = [0.0; 16];
        inf[0] = f64::INFINITY;
        assert_eq!(dabf.rank_of(&inf), buckets);
        // the elements themselves spread over the ranking
        let (lo, hi) = elements.iter().fold((usize::MAX, 0), |(lo, hi), e| {
            let r = dabf.rank_of(e);
            (lo.min(r), hi.max(r))
        });
        assert!(lo < hi && hi <= buckets);
    }

    #[test]
    fn members_of_a_tight_cluster_are_close_to_most() {
        let mut rng = StdRng::seed_from_u64(11);
        let base: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin() * 2.0).collect();
        let elements = cluster(&mut rng, &base, 200, 0.05);
        let dabf = ClassDabf::build(&elements, config());
        // a fresh sample from the same cluster must be flagged "close"
        let probes = cluster(&mut rng, &base, 30, 0.05);
        let close = probes.iter().filter(|p| dabf.is_close_to_most(p)).count();
        assert!(close >= 25, "only {close}/30 probes flagged close");
    }

    #[test]
    fn distant_queries_are_not_close_to_most() {
        let mut rng = StdRng::seed_from_u64(12);
        let base: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        let elements = cluster(&mut rng, &base, 200, 0.05);
        let dabf = ClassDabf::build(&elements, config());
        let far: Vec<f64> = (0..16).map(|i| 50.0 + i as f64 * 3.0).collect();
        assert!(!dabf.is_close_to_most(&far));
    }

    #[test]
    fn naive_filter_agrees_with_dabf_on_clear_cases() {
        let mut rng = StdRng::seed_from_u64(13);
        let base: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).cos() * 1.5).collect();
        let elements = cluster(&mut rng, &base, 120, 0.05);
        let dabf = ClassDabf::build(&elements, config());
        let naive = NaiveMostFilter::build(&elements, 3.0);
        let near: Vec<f64> = base.iter().map(|x| x + 0.01).collect();
        let far: Vec<f64> = (0..16).map(|i| -40.0 - i as f64).collect();
        assert!(dabf.is_close_to_most(&near) && naive.is_close_to_most(&near));
        assert!(!dabf.is_close_to_most(&far) && !naive.is_close_to_most(&far));
    }

    #[test]
    fn fit_is_reported_for_table3() {
        let mut rng = StdRng::seed_from_u64(14);
        let base: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).sin()).collect();
        let elements = cluster(&mut rng, &base, 300, 0.3);
        let dabf = ClassDabf::build(&elements, config());
        let fit = dabf.fit().expect("fit succeeds on healthy data");
        assert!(fit.nmse.is_finite());
        assert!(!fit.dist.name().is_empty());
        let (mu, sigma) = dabf.norm_moments();
        assert!(mu.is_finite() && sigma > 0.0);
    }

    #[test]
    fn degenerate_classes_never_claim_closeness() {
        let dabf = ClassDabf::build(&[], config());
        assert!(dabf.is_empty());
        assert!(!dabf.is_close_to_most(&[0.0; 16]));

        // all-identical elements: σ = 0 → no distribution → never close
        let same = vec![vec![1.0; 16]; 50];
        let dabf = ClassDabf::build(&same, config());
        assert!(!dabf.is_close_to_most(&[1.0; 16]));

        let naive = NaiveMostFilter::build(&[], 3.0);
        assert!(naive.is_empty());
        assert!(!naive.is_close_to_most(&[0.0; 16]));
    }

    #[test]
    fn multiclass_prune_rule() {
        let mut rng = StdRng::seed_from_u64(15);
        let base_a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin() * 2.0).collect();
        let base_b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).cos() * -2.0).collect();
        let mut dabf = Dabf::new();
        dabf.add_class(
            0,
            ClassDabf::build(&cluster(&mut rng, &base_a, 150, 0.05), config()),
        );
        dabf.add_class(
            1,
            ClassDabf::build(&cluster(&mut rng, &base_b, 150, 0.05), config()),
        );
        assert_eq!(dabf.classes().count(), 2);
        // an element of class 0's cluster queried as a class-0 candidate:
        // only *other* classes are consulted, so it should survive …
        assert!(!dabf.close_to_most_of_other_class(0, &base_a));
        // … but a class-1-like candidate claiming to be class 0 is pruned.
        assert!(dabf.close_to_most_of_other_class(0, &base_b));
    }

    #[test]
    fn add_class_replaces_existing() {
        let mut rng = StdRng::seed_from_u64(16);
        let base: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect();
        let f1 = ClassDabf::build(&cluster(&mut rng, &base, 20, 0.1), config());
        let f2 = ClassDabf::build(&cluster(&mut rng, &base, 40, 0.1), config());
        let mut dabf = Dabf::new();
        dabf.add_class(5, f1);
        dabf.add_class(5, f2);
        assert_eq!(dabf.classes().count(), 1);
        assert_eq!(dabf.class(5).unwrap().len(), 40);
        assert!(dabf.class(9).is_none());
    }
}

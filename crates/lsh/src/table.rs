//! Bucket tables over LSH signatures with centroid tracking.
//!
//! Algorithm 2 inserts every candidate into LSH buckets ("also regarded as
//! clustering"), then ranks the buckets by the distance between each bucket
//! center and the origin. The table keeps running centroid sums so centers
//! are O(1) to read.

use std::collections::HashMap;

use crate::family::{Lsh, Signature};

/// One LSH bucket: member ids and the running sum of their projections.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Ids (caller-defined) of the members.
    pub members: Vec<usize>,
    sum: Vec<f64>,
}

impl Bucket {
    fn new(dim: usize) -> Self {
        Self {
            members: Vec::new(),
            sum: vec![0.0; dim],
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Buckets are created on first insert, so never empty in practice.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Centroid of the members in projection space.
    pub fn center(&self) -> Vec<f64> {
        let n = self.members.len().max(1) as f64;
        self.sum.iter().map(|s| s / n).collect()
    }

    /// Euclidean distance of the centroid from the origin — the ranking
    /// key of Algorithm 2 line 7.
    pub fn center_norm(&self) -> f64 {
        let n = self.members.len().max(1) as f64;
        self.sum
            .iter()
            .map(|s| (s / n) * (s / n))
            .sum::<f64>()
            .sqrt()
    }
}

/// A hash table from signatures to buckets, owning the [`Lsh`] instance
/// that produces both signatures and projections.
#[derive(Debug, Clone)]
pub struct BucketTable {
    lsh: Lsh,
    buckets: HashMap<Signature, Bucket>,
    count: usize,
}

impl BucketTable {
    /// Creates an empty table over the given family instance.
    pub fn new(lsh: Lsh) -> Self {
        Self {
            lsh,
            buckets: HashMap::new(),
            count: 0,
        }
    }

    /// The hash family.
    pub fn lsh(&self) -> &Lsh {
        &self.lsh
    }

    /// Inserts an item under a caller-defined id, given its projection
    /// (`self.lsh().project(embedded)`); returns its signature. Taking the
    /// projection lets a caller that also needs [`projection_norm`] project
    /// each item once.
    pub fn insert(&mut self, id: usize, proj: &[f64]) -> Signature {
        let sig = self.lsh.signature_of(proj);
        let bucket = self
            .buckets
            .entry(sig.clone())
            .or_insert_with(|| Bucket::new(proj.len()));
        bucket.members.push(id);
        for (s, p) in bucket.sum.iter_mut().zip(proj) {
            *s += p;
        }
        self.count += 1;
        sig
    }

    /// Total inserted items.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket holding the signature of a projection
    /// (`self.lsh().project(embedded)`), if any.
    pub fn bucket_of(&self, proj: &[f64]) -> Option<&Bucket> {
        self.buckets.get(&self.lsh.signature_of(proj))
    }

    /// All buckets (arbitrary order).
    pub fn buckets(&self) -> impl Iterator<Item = (&Signature, &Bucket)> {
        self.buckets.iter()
    }

    /// Center-to-origin norms of every bucket, **ranked ascending** — the
    /// ranked-bucket view of Algorithm 2 (line 7). Each entry is
    /// `(center_norm, member_count)`. Ordered by `f64::total_cmp`, so a
    /// degenerate (NaN) norm sorts deterministically instead of panicking.
    pub fn ranked_center_norms(&self) -> Vec<(f64, usize)> {
        let mut norms: Vec<(f64, usize)> = self
            .buckets
            .values()
            .map(|b| (b.center_norm(), b.len()))
            .collect();
        norms.sort_by(|a, b| a.0.total_cmp(&b.0));
        norms
    }
}

/// Distance of a projection from the origin — per item, the quantity the
/// DABF's distribution normalizes and the DT path ranks.
pub fn projection_norm(proj: &[f64]) -> f64 {
    proj.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{LshKind, LshParams};

    fn table() -> BucketTable {
        BucketTable::new(Lsh::new(LshParams {
            kind: LshKind::L2,
            dim: 8,
            num_hashes: 4,
            ..Default::default()
        }))
    }

    /// Inserts an embedded vector through its projection.
    fn put(t: &mut BucketTable, id: usize, v: &[f64]) {
        let proj = t.lsh().project(v);
        t.insert(id, &proj);
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        let v = [1.0, -0.5, 0.3, 0.8, -1.2, 0.0, 0.4, -0.7];
        put(&mut t, 0, &v);
        put(&mut t, 1, &v);
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_buckets(), 1);
        let b = t.bucket_of(&t.lsh().project(&v)).unwrap();
        assert_eq!(b.members, vec![0, 1]);
        assert!(!b.is_empty());
    }

    #[test]
    fn centroid_is_mean_of_projections() {
        let mut t = table();
        let v = [0.5, 0.5, -0.5, -0.5, 1.0, -1.0, 0.0, 0.0];
        put(&mut t, 7, &v);
        let proj = t.lsh().project(&v);
        let b = t.bucket_of(&proj).unwrap();
        for (c, p) in b.center().iter().zip(&proj) {
            assert!((c - p).abs() < 1e-12);
        }
        let norm = proj.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((b.center_norm() - norm).abs() < 1e-12);
        assert!((projection_norm(&proj) - norm).abs() < 1e-12);
    }

    #[test]
    fn distinct_points_usually_split_buckets() {
        let mut t = table();
        // far-apart vectors should not all share one bucket
        for i in 0..20 {
            let v: Vec<f64> = (0..8)
                .map(|j| ((i * 8 + j) as f64 * 1.7).sin() * 5.0)
                .collect();
            put(&mut t, i, &v);
        }
        assert!(t.num_buckets() > 5, "only {} buckets", t.num_buckets());
    }

    #[test]
    fn ranked_norms_are_ascending_and_complete() {
        let mut t = table();
        for i in 0..30 {
            let v: Vec<f64> = (0..8)
                .map(|j| ((i * 3 + j) as f64 * 0.9).cos() * 3.0)
                .collect();
            put(&mut t, i, &v);
        }
        let ranked = t.ranked_center_norms();
        assert_eq!(ranked.iter().map(|r| r.1).sum::<usize>(), 30);
        for w in ranked.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn empty_table_behaviour() {
        let t = table();
        assert!(t.is_empty());
        assert!(t.ranked_center_norms().is_empty());
        assert!(t.bucket_of(&[0.0; 4]).is_none());
    }
}

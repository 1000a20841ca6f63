//! A fixed set of queries prepared once for scoring many series.

use crate::euclid::moments;

/// A fixed set of queries — a model's shapelets — with the
/// per-query state that does not depend on the series they are scored
/// against: each query's z-norm moments `(μ, σ)`, its distinct lengths,
/// and its same-length groups. Built once (at the end of a fit, at model
/// load); [`DistCache::min_dists`](crate::DistCache::min_dists) then
/// scores every query against a series with one shared statistics pass.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySet<Q> {
    queries: Vec<Q>,
    /// `(μ, σ)` per query, exactly as the z-norm loop computes them.
    moments: Vec<(f64, f64)>,
    /// `(length, query indices)` per distinct length, ascending by
    /// length, indices in query order.
    groups: Vec<(usize, Vec<usize>)>,
}

impl<Q: AsRef<[f64]>> QuerySet<Q> {
    /// Prepares `queries`, keeping their order.
    pub fn new(queries: Vec<Q>) -> Self {
        let moments = queries.iter().map(|q| moments(q.as_ref())).collect();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let m = q.as_ref().len();
            match groups.binary_search_by_key(&m, |(len, _)| *len) {
                Ok(g) => groups[g].1.push(i),
                Err(g) => groups.insert(g, (m, vec![i])),
            }
        }
        Self {
            queries,
            moments,
            groups,
        }
    }
}

impl<Q> QuerySet<Q> {
    /// The queries, in the order given.
    pub fn queries(&self) -> &[Q] {
        &self.queries
    }

    /// Query `i`'s z-norm moments `(μ, σ)`.
    pub(crate) fn moments(&self, i: usize) -> (f64, f64) {
        self.moments[i]
    }

    /// `(length, query indices)` per distinct length, ascending.
    pub(crate) fn groups(&self) -> &[(usize, Vec<usize>)] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_length_then_query_order() {
        let set = QuerySet::new(vec![vec![1.0, 2.0, 3.0], vec![4.0], vec![5.0, 6.0, 8.0]]);
        assert_eq!(set.groups(), &[(1, vec![1]), (3, vec![0, 2])]);
        assert_eq!(set.moments(0), moments(&[1.0, 2.0, 3.0]));
        assert_eq!(set.moments(1), (4.0, 0.0));
    }
}

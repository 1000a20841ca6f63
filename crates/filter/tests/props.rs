//! Property-based tests of the filter family.

use ips_filter::{BloomFilter, ClassDabf, DabfConfig, NaiveMostFilter};
use ips_lsh::{projection_norm, LshKind, LshParams};
use proptest::prelude::*;

/// The bucket rank by definition: a linear strict-`<` count of the bucket
/// center norms below the query's projection norm.
fn linear_rank(dabf: &ClassDabf, query: &[f64]) -> usize {
    let norm = projection_norm(&dabf.table().lsh().project(query));
    dabf.table()
        .buckets()
        .filter(|(_, b)| b.center_norm() < norm)
        .count()
}

fn dabf_config(kind: u32) -> DabfConfig {
    DabfConfig {
        lsh: LshParams {
            kind: [LshKind::L2, LshKind::Cosine, LshKind::Hamming][kind as usize % 3],
            dim: 8,
            num_hashes: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Queries that stress the search: NaN, the zero vector and an infinite
/// projection norm.
fn edge_queries() -> Vec<Vec<f64>> {
    let mut inf = vec![0.0; 8];
    inf[0] = f64::INFINITY;
    vec![vec![f64::NAN; 8], vec![0.0; 8], inf]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bloom_never_forgets(items in prop::collection::vec(any::<u64>(), 1..300)) {
        let mut bf = BloomFilter::with_rate(items.len(), 0.01);
        for i in &items {
            bf.insert(i);
        }
        for i in &items {
            prop_assert!(bf.contains(i));
        }
    }

    #[test]
    fn naive_filter_accepts_members_of_tight_clusters(
        base in prop::collection::vec(-5.0f64..5.0, 8..16),
        n in 20usize..60,
    ) {
        let elements: Vec<Vec<f64>> = (0..n)
            .map(|k| base.iter().map(|x| x + 0.001 * (k as f64 % 7.0)).collect())
            .collect();
        let f = NaiveMostFilter::build(&elements, 3.0);
        prop_assert!(f.is_close_to_most(&elements[0]));
        // a point 100 units away is definitely not close
        let far: Vec<f64> = base.iter().map(|x| x + 100.0).collect();
        prop_assert!(!f.is_close_to_most(&far));
    }

    #[test]
    fn rank_of_is_the_linear_strict_count(
        elements in prop::collection::vec(prop::collection::vec(-4.0f64..4.0, 8..9), 0..40),
        queries in prop::collection::vec(prop::collection::vec(-6.0f64..6.0, 8..9), 1..10),
        kind in 0u32..3,
    ) {
        let dabf = ClassDabf::build(&elements, dabf_config(kind));
        // the elements themselves: an element alone in its bucket has
        // exactly its center's norm
        for q in elements.iter().chain(&queries).chain(&edge_queries()) {
            prop_assert_eq!(dabf.rank_of(q), linear_rank(&dabf, q));
        }
    }

    #[test]
    fn rank_of_on_a_one_bucket_table(
        element in prop::collection::vec(-4.0f64..4.0, 8..9),
        copies in 1usize..20,
        queries in prop::collection::vec(prop::collection::vec(-6.0f64..6.0, 8..9), 1..10),
        kind in 0u32..3,
    ) {
        let dabf = ClassDabf::build(&vec![element.clone(); copies], dabf_config(kind));
        prop_assert_eq!(dabf.table().num_buckets(), 1);
        // one copy: the center is the element's projection, whose equal
        // norm the strict count excludes
        if copies == 1 {
            prop_assert_eq!(dabf.rank_of(&element), 0);
        }
        for q in [&element].into_iter().chain(&queries).chain(&edge_queries()) {
            prop_assert_eq!(dabf.rank_of(q), linear_rank(&dabf, q));
        }
    }
}

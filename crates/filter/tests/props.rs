//! Property-based tests of the filter family.

use ips_filter::{BloomFilter, NaiveMostFilter};
use proptest::prelude::*;

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
}

//! Property-based tests of the classifiers and transform.

use ips_classify::svm::SvmParams;
use ips_classify::{accuracy, LinearSvm, OneNnEd, Shapelet, ShapeletTransform};
use ips_distance::DistCache;
use ips_tsdata::{Dataset, TimeSeries};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_nn_is_perfect_on_its_own_training_set(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 6..=6), 2..12),
    ) {
        // distinct-series training sets classify themselves perfectly
        let mut unique = rows.clone();
        unique.sort_by(|a, b| a.partial_cmp(b).unwrap());
        unique.dedup();
        prop_assume!(unique.len() == rows.len());
        let labels: Vec<u32> = (0..rows.len() as u32).collect();
        let d = Dataset::new(rows.into_iter().map(TimeSeries::new).collect(), labels).unwrap();
        let model = OneNnEd::fit(&d);
        prop_assert_eq!(model.accuracy(&d), 1.0);
    }

    #[test]
    fn transform_distances_are_nonnegative_and_zero_on_source(
        series in prop::collection::vec(-10.0f64..10.0, 10..40),
        off in 0usize..8,
        len in 3usize..6,
    ) {
        prop_assume!(off + len <= series.len());
        let shapelet = Shapelet::new(series[off..off + len].to_vec(), 0);
        let t = ShapeletTransform::new(vec![shapelet], false);
        let d = t.transform_one_with_cache(&TimeSeries::new(series.clone()), &mut DistCache::new());
        prop_assert_eq!(d.len(), 1);
        prop_assert!(d[0] >= 0.0);
        prop_assert!(d[0] < 1e-9, "own subsequence must match exactly: {}", d[0]);
    }

    #[test]
    fn svm_separates_separable_blobs(
        gap in 2.0f64..10.0,
        spread in 0.01f64..0.4,
        n in 10usize..40,
    ) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let jitter = spread * ((i * 37 % 17) as f64 / 17.0 - 0.5);
            x.push(vec![-gap + jitter, jitter]);
            y.push(0);
            x.push(vec![gap - jitter, -jitter]);
            y.push(1);
        }
        let svm = LinearSvm::fit(&x, &y, SvmParams::default());
        let acc = accuracy(&svm.predict_all(&x), &y);
        prop_assert!(acc > 0.95, "acc {}", acc);
    }

    #[test]
    fn accuracy_is_symmetric_under_label_permutation(
        preds in prop::collection::vec(0u32..4, 1..50),
    ) {
        // accuracy(p, p) is always 1; accuracy is in [0,1]
        prop_assert_eq!(accuracy(&preds, &preds), 1.0);
        let shifted: Vec<u32> = preds.iter().map(|p| (p + 1) % 4).collect();
        let a = accuracy(&preds, &shifted);
        prop_assert!((0.0..=1.0).contains(&a));
    }
}

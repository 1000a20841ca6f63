//! Property-based tests of the distance kernels.

use ips_distance::{dist_profile, dtw_banded, mean_sq_dist, sliding_min_dist, RollingStats};
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliding_min_is_min_of_profile(
        s in series(8..64),
        qlen in 2usize..8,
        qoff in 0usize..4,
    ) {
        prop_assume!(qoff + qlen <= s.len());
        let q = s[qoff..qoff + qlen].to_vec();
        let (d, at) = sliding_min_dist(&q, &s);
        let profile = dist_profile(&q, &s);
        let min = profile.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((d - min).abs() < 1e-9);
        prop_assert!((profile[at] - d).abs() < 1e-9);
        // the query occurs literally, so the minimum is (near) zero
        prop_assert!(d < 1e-9);
    }

    #[test]
    fn sliding_min_swaps_arguments(a in series(4..32), b in series(4..32)) {
        let x = sliding_min_dist(&a, &b);
        let y = sliding_min_dist(&b, &a);
        prop_assert!((x.0 - y.0).abs() < 1e-9);
    }

    #[test]
    fn mean_sq_dist_is_a_metric_squared(a in series(4..16)) {
        prop_assert!(mean_sq_dist(&a, &a) < 1e-12);
    }

    #[test]
    fn rolling_stats_match_direct(s in series(4..64), w in 1usize..16) {
        prop_assume!(w <= s.len());
        let rs = RollingStats::new(&s, w);
        for j in 0..rs.len() {
            let win = &s[j..j + w];
            let mu = win.iter().sum::<f64>() / w as f64;
            let sd = (win.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / w as f64).sqrt();
            prop_assert!((rs.mean(j) - mu).abs() < 1e-6);
            prop_assert!((rs.std(j) - sd).abs() < 1e-5);
        }
    }

    #[test]
    fn dtw_triangle_of_identity_and_symmetry(a in series(2..24), b in series(2..24)) {
        prop_assert!(dtw_banded(&a, &a, usize::MAX) < 1e-9);
        let d1 = dtw_banded(&a, &b, usize::MAX);
        let d2 = dtw_banded(&b, &a, usize::MAX);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn wider_dtw_band_never_hurts(a in series(8..32), b in series(8..32)) {
        let narrow = dtw_banded(&a, &b, 2);
        let wide = dtw_banded(&a, &b, 16);
        prop_assert!(wide <= narrow + 1e-9);
    }
}

//! Property-based tests of the LSH layer.

use ips_lsh::{embed, resample, BucketTable, Lsh, LshKind, LshParams};
use proptest::prelude::*;

fn vector(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, dim..=dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resample_preserves_endpoints_and_range(
        v in prop::collection::vec(-100.0f64..100.0, 2..64),
        dim in 2usize..64,
    ) {
        let r = resample(&v, dim);
        prop_assert_eq!(r.len(), dim);
        prop_assert!((r[0] - v[0]).abs() < 1e-9);
        prop_assert!((r[dim - 1] - v[v.len() - 1]).abs() < 1e-9);
        // linear interpolation never exceeds the input range
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for x in &r {
            prop_assert!(*x >= lo - 1e-9 && *x <= hi + 1e-9);
        }
    }

    #[test]
    fn embed_is_affine_invariant(
        v in prop::collection::vec(-10.0f64..10.0, 4..32),
        scale in 0.1f64..50.0,
        shift in -100.0f64..100.0,
    ) {
        let a = embed(&v, 16);
        let transformed: Vec<f64> = v.iter().map(|x| x * scale + shift).collect();
        let b = embed(&transformed, 16);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn signatures_are_deterministic_and_dimensioned(v in vector(16)) {
        for kind in [LshKind::L2, LshKind::Cosine, LshKind::Hamming] {
            let p = LshParams { kind, dim: 16, num_hashes: 6, ..Default::default() };
            let lsh = Lsh::new(p);
            prop_assert_eq!(lsh.signature(&v), lsh.signature(&v));
            prop_assert_eq!(lsh.signature(&v).0.len(), 6);
            prop_assert_eq!(lsh.project(&v).len(), 6);
        }
    }

    #[test]
    fn bucket_table_conserves_members(vs in prop::collection::vec(vector(8), 1..40)) {
        let mut t = BucketTable::new(Lsh::new(LshParams {
            dim: 8,
            num_hashes: 4,
            ..Default::default()
        }));
        for (i, v) in vs.iter().enumerate() {
            let proj = t.lsh().project(v);
            t.insert(i, &proj);
        }
        prop_assert_eq!(t.len(), vs.len());
        let total: usize = t.buckets().map(|(_, b)| b.len()).sum();
        prop_assert_eq!(total, vs.len());
        // ranked norms are sorted and complete
        let ranked = t.ranked_center_norms();
        prop_assert_eq!(ranked.iter().map(|r| r.1).sum::<usize>(), vs.len());
        for w in ranked.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        // every inserted vector finds its own bucket
        for v in &vs {
            prop_assert!(t.bucket_of(&t.lsh().project(v)).is_some());
        }
    }
}

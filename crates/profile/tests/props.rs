//! Property-based tests of the profile invariants, and the ordered-pair
//! reference the instance-profile kernel must reproduce.

use std::collections::HashMap;

use ips_distance::{znorm_dist_from_dot, RollingStats};
use ips_profile::{InstanceProfile, MatrixProfile, Metric};
use ips_tsdata::ClassConcat;
use proptest::prelude::*;

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, len)
}

/// One instance of 1–29 points, optionally snapped to a coarse grid (so
/// exact distance ties are common), with a planted constant run that may
/// be empty or cover the whole instance.
fn instance() -> impl Strategy<Value = Vec<f64>> {
    (
        (series(1..30), 0u8..2),
        (0usize..30, 0usize..16, -3.0f64..3.0),
    )
        .prop_map(|((mut v, coarse), (at, len, level))| {
            if coarse == 1 {
                v.iter_mut().for_each(|x| *x = (*x * 0.5).round());
            }
            let at = at.min(v.len());
            let end = (at + len).min(v.len());
            v[at..end].fill(level);
            v
        })
}

/// The distance of every window pair `(a[i..i+m], b[j..j+m])`, computed the
/// way [`MatrixProfile::ab_join`] computes it: diagonals starting on the top
/// row or the left column, each extended by the incremental recurrence.
fn ordered_pair_distances(a: &[f64], b: &[f64], m: usize, metric: Metric) -> Vec<Vec<f64>> {
    let (n_a, n_b) = (a.len() - m + 1, b.len() - m + 1);
    let (stats_a, stats_b) = (RollingStats::new(a, m), RollingStats::new(b, m));
    let dist = |stat: f64, i: usize, j: usize| match metric {
        Metric::MeanSquared => stat.max(0.0) / m as f64,
        Metric::ZNormEuclidean => znorm_dist_from_dot(
            stat,
            m,
            stats_a.mean(i),
            stats_a.std(i),
            stats_b.mean(j),
            stats_b.std(j),
        ),
    };
    let mut d = vec![vec![f64::NAN; n_b]; n_a];
    let starts = (0..n_b).map(|j| (0, j)).chain((1..n_a).map(|i| (i, 0)));
    for (i0, j0) in starts {
        let (x, y) = (&a[i0..i0 + m], &b[j0..j0 + m]);
        let mut stat: f64 = match metric {
            Metric::MeanSquared => x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum(),
            Metric::ZNormEuclidean => x.iter().zip(y).map(|(p, q)| p * q).sum(),
        };
        d[i0][j0] = dist(stat, i0, j0);
        for t in 1..(n_a - i0).min(n_b - j0) {
            let (i, j) = (i0 + t, j0 + t);
            stat += match metric {
                Metric::MeanSquared => {
                    let (drop, add) = (a[i - 1] - b[j - 1], a[i + m - 1] - b[j + m - 1]);
                    add * add - drop * drop
                }
                Metric::ZNormEuclidean => a[i + m - 1] * b[j + m - 1] - a[i - 1] * b[j - 1],
            };
            d[i][j] = dist(stat, i, j);
        }
    }
    d
}

/// The reference instance profile: one join per **ordered** instance pair,
/// each window's minimum kept with a strict `<` in `ab_join`'s visiting
/// order, then across the other instances in order. Returns the entries
/// `(start, value, nn_start)` and the distance of every cross-instance
/// window pair, keyed by concatenation starts.
#[allow(clippy::type_complexity)]
fn reference(
    concat: &ClassConcat,
    m: usize,
    metric: Metric,
) -> (Vec<(usize, f64, usize)>, HashMap<(usize, usize), f64>) {
    let values = concat.values();
    let long: Vec<(usize, &[f64])> = (0..concat.num_instances())
        .map(|i| concat.segment(i))
        .filter(|&(_, len, _)| m > 0 && len >= m)
        .map(|(s, len, _)| (s, &values[s..s + len]))
        .collect();
    let mut entries = Vec::new();
    let mut dist = HashMap::new();
    for (ai, &(a_start, a)) in long.iter().enumerate() {
        let n_a = a.len() - m + 1;
        let (mut best, mut nn) = (vec![f64::INFINITY; n_a], vec![0; n_a]);
        for (bi, &(b_start, b)) in long.iter().enumerate() {
            if bi == ai {
                continue;
            }
            let d = ordered_pair_distances(a, b, m, metric);
            let joined = MatrixProfile::ab_join(a, b, m, metric);
            for (i, row) in d.iter().enumerate() {
                // ab_join visits row i's columns i, i+1, .., then i-1, .., 0.
                let order = (i..row.len()).chain((0..i.min(row.len())).rev());
                let (mut v, mut at) = (f64::INFINITY, 0);
                for j in order {
                    dist.insert((a_start + i, b_start + j), row[j]);
                    if row[j] < v {
                        (v, at) = (row[j], j);
                    }
                }
                assert_eq!(v.to_bits(), joined.values()[i].to_bits());
                assert_eq!(at, joined.nn_index()[i]);
                if v < best[i] {
                    (best[i], nn[i]) = (v, b_start + at);
                }
            }
        }
        entries.extend((0..n_a).map(|i| (a_start + i, best[i], nn[i])));
    }
    (entries, dist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_equals_brute(s in series(20..80), w in 3usize..10) {
        prop_assume!(s.len() >= w + 4);
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let fast = MatrixProfile::self_join_excl(&s, w, metric, w / 2);
            let slow = MatrixProfile::self_join_brute(&s, w, metric, w / 2);
            for i in 0..fast.len() {
                let (a, b) = (fast.values()[i], slow.values()[i]);
                if a.is_finite() || b.is_finite() {
                    prop_assert!((a - b).abs() < 1e-5, "{:?} at {}: {} vs {}", metric, i, a, b);
                }
            }
        }
    }

    #[test]
    fn ab_join_is_elementwise_min_over_queries(a in series(12..40), b in series(12..40), w in 3usize..8) {
        prop_assume!(a.len() >= w && b.len() >= w);
        let mp = MatrixProfile::ab_join(&a, &b, w, Metric::MeanSquared);
        for (i, &v) in mp.values().iter().enumerate() {
            let naive = ips_distance::dist_profile(&a[i..i + w], &b)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            prop_assert!((v - naive).abs() < 1e-6);
        }
    }

    #[test]
    fn profile_values_nonnegative_and_nn_outside_exclusion(s in series(24..64), w in 3usize..8) {
        let excl = w / 2;
        let mp = MatrixProfile::self_join_excl(&s, w, Metric::MeanSquared, excl);
        for (i, (&v, &nn)) in mp.values().iter().zip(mp.nn_index()).enumerate() {
            if v.is_finite() {
                prop_assert!(v >= 0.0);
                prop_assert!(i.abs_diff(nn) > excl);
            }
        }
    }

    #[test]
    fn instance_profile_dominates_matrix_profile(
        instances in prop::collection::vec(series(12..24), 2..5),
        w in 3usize..6,
    ) {
        let cc = ClassConcat::from_instances(
            instances.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
        );
        let ip = InstanceProfile::compute(&cc, w, Metric::MeanSquared);
        let mp = MatrixProfile::self_join_excl(cc.values(), w, Metric::MeanSquared, 0);
        // excluding same-instance matches can only grow the NN distance
        for e in ip.entries() {
            let m = mp.values()[e.start];
            if e.value.is_finite() {
                prop_assert!(m <= e.value + 1e-9, "at {}: {} > {}", e.start, m, e.value);
            }
        }
    }

    #[test]
    fn pair_once_kernel_matches_the_ordered_pair_reference(
        instances in prop::collection::vec(instance(), 1..7),
        w in 1usize..10,
    ) {
        let cc = ClassConcat::from_instances(
            instances.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
        );
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let ip = InstanceProfile::compute(&cc, w, metric);
            let (want, dist) = reference(&cc, w, metric);
            prop_assert_eq!(ip.len(), want.len());
            for (e, &(start, value, nn)) in ip.entries().iter().zip(&want) {
                prop_assert_eq!(e.start, start);
                prop_assert!(
                    e.value.to_bits() == value.to_bits(),
                    "{:?} w={} start={}: {} vs {}", metric, w, start, e.value, value
                );
                if value.is_infinite() {
                    // no other instance is long enough for the window
                    prop_assert_eq!(e.nn_start, nn);
                    continue;
                }
                prop_assert_ne!(cc.instance_of(e.nn_start), cc.instance_of(start));
                let reached = dist.get(&(start, e.nn_start)).copied();
                prop_assert!(
                    reached.map(f64::to_bits) == Some(value.to_bits()),
                    "{:?} w={} start={}: nn {} is at {:?}, not {}",
                    metric, w, start, e.nn_start, reached, value
                );
                let ties = dist
                    .iter()
                    .filter(|(&(p, _), &d)| p == start && d == value)
                    .count();
                if ties == 1 {
                    prop_assert_eq!(e.nn_start, nn);
                }
            }
        }
    }
}

//! Property-based tests of the profile invariants, and the ordered-pair
//! reference the instance-profile kernel must reproduce.

use std::collections::HashMap;

use ips_distance::{is_constant_sigma, znorm_dist_from_dot, RollingStats};
use ips_profile::{InstanceProfile, MatrixProfile, Metric, PairTable};
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

/// The pair statistic (dot product, or squared distance for the raw
/// metric) of every window pair `(a[i..i+m], b[j..j+m])`, computed the way
/// [`MatrixProfile::ab_join`] computes it: diagonals starting on the top
/// row or the left column, each extended by the incremental recurrence.
fn ordered_pair_stats(a: &[f64], b: &[f64], m: usize, metric: Metric) -> Vec<Vec<f64>> {
    let (n_a, n_b) = (a.len() - m + 1, b.len() - m + 1);
    let mut s = vec![vec![f64::NAN; n_b]; n_a];
    let starts = (0..n_b).map(|j| (0, j)).chain((1..n_a).map(|i| (i, 0)));
    for (i0, j0) in starts {
        let (x, y) = (&a[i0..i0 + m], &b[j0..j0 + m]);
        let mut stat: f64 = match metric {
            Metric::MeanSquared => x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum(),
            Metric::ZNormEuclidean => x.iter().zip(y).map(|(p, q)| p * q).sum(),
        };
        s[i0][j0] = stat;
        for t in 1..(n_a - i0).min(n_b - j0) {
            let (i, j) = (i0 + t, j0 + t);
            stat += match metric {
                Metric::MeanSquared => {
                    let (drop, add) = (a[i - 1] - b[j - 1], a[i + m - 1] - b[j + m - 1]);
                    add * add - drop * drop
                }
                Metric::ZNormEuclidean => a[i + m - 1] * b[j + m - 1] - a[i - 1] * b[j - 1],
            };
            s[i][j] = stat;
        }
    }
    s
}

/// The distance of every window pair of `a × b`, from
/// [`ordered_pair_stats`].
fn ordered_pair_distances(a: &[f64], b: &[f64], m: usize, metric: Metric) -> Vec<Vec<f64>> {
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
    let stats = ordered_pair_stats(a, b, m, metric);
    let rows = stats.into_iter().enumerate();
    rows.map(|(i, row)| {
        row.into_iter()
            .enumerate()
            .map(|(j, s)| dist(s, i, j))
            .collect()
    })
    .collect()
}

/// The score (higher is nearer) that ranks `a`'s window `i` against `b`'s
/// window `j`, as DESIGN.md §2 defines it: the negated squared distance,
/// or the correlation `(qt − (mμ_a)μ_b)/((mσ_a)σ_b)` clamped to [−1, 1],
/// with 1.0 when both windows are constant and 0.5 when one is.
fn score(
    stat: f64,
    m: usize,
    metric: Metric,
    a: (&RollingStats, usize),
    b: (&RollingStats, usize),
) -> f64 {
    if metric == Metric::MeanSquared {
        return -stat.max(0.0);
    }
    let ((sa, i), (sb, j)) = (a, b);
    let (mu_a, sd_a, mu_b, sd_b) = (sa.mean(i), sa.std(i), sb.mean(j), sb.std(j));
    match (is_constant_sigma(sd_a, mu_a), is_constant_sigma(sd_b, mu_b)) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 0.5,
        _ => {
            let m_f = m as f64;
            ((stat - (m_f * mu_a) * mu_b) / ((m_f * sd_a) * sd_b)).clamp(-1.0, 1.0)
        }
    }
}

/// The instances of `concat` long enough for `m`, in concatenation
/// order, as `(start, values)`.
fn long_instances(concat: &ClassConcat, m: usize) -> Vec<(usize, &[f64])> {
    let values = concat.values();
    (0..concat.num_instances())
        .map(|i| concat.segment(i))
        .filter(|&(_, len, _)| m > 0 && len >= m)
        .map(|(s, len, _)| (s, &values[s..s + len]))
        .collect()
}

/// The tie rule's oracle: for every window of every instance long enough
/// for `m`, in start order, the concatenation offset of the **earliest**
/// window of another instance with the best score (`0` when no other
/// instance is long enough). Each instance is the row side of its own
/// ordered-pair statistics, so this also checks that the kernel's
/// orientation of a pair changes no score.
fn earliest_best(concat: &ClassConcat, m: usize, metric: Metric) -> Vec<usize> {
    let long = long_instances(concat, m);
    let mut out = Vec::new();
    for (ai, &(_, a)) in long.iter().enumerate() {
        let sa = RollingStats::new(a, m);
        let n_a = a.len() - m + 1;
        let (mut best, mut nn) = (vec![f64::NEG_INFINITY; n_a], vec![0; n_a]);
        for (bi, &(b_start, b)) in long.iter().enumerate() {
            if bi == ai {
                continue;
            }
            let sb = RollingStats::new(b, m);
            for (i, row) in ordered_pair_stats(a, b, m, metric).iter().enumerate() {
                for (j, &stat) in row.iter().enumerate() {
                    let s = score(stat, m, metric, (&sa, i), (&sb, j));
                    if s > best[i] {
                        (best[i], nn[i]) = (s, b_start + j);
                    }
                }
            }
        }
        out.extend(nn);
    }
    out
}

/// An instance set of 2–7 instances plus a repeat of the first under its
/// own index, and 2–4 concatenations of it: each a random subset in a
/// random order (a shuffle key per instance and a size).
#[allow(clippy::type_complexity)]
fn overlapping_samples() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<usize>>)> {
    let orders = prop::collection::vec((prop::collection::vec(0u32..1000, 8), 1usize..9), 2..5);
    (prop::collection::vec(instance(), 2..8), orders).prop_map(|(mut set, orders)| {
        set.push(set[0].clone());
        let orders = orders
            .into_iter()
            .map(|(keys, size)| {
                let mut order: Vec<usize> = (0..set.len()).collect();
                order.sort_by_key(|&i| keys[i]);
                order.truncate(size);
                order
            })
            .collect();
        (set, orders)
    })
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
    let long = long_instances(concat, m);
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

    #[test]
    fn shared_pair_table_matches_fresh_profiles(
        case in overlapping_samples(),
        w in 1usize..10,
    ) {
        let (set, orders) = case;
        for metric in [Metric::MeanSquared, Metric::ZNormEuclidean] {
            let table = PairTable::new(metric);
            let mut pairs = std::collections::HashSet::new();
            for order in &orders {
                let cc = ClassConcat::from_instances(order.iter().map(|&i| (i, set[i].as_slice())));
                let shared = table.profile(&cc, w);
                let fresh = InstanceProfile::compute(&cc, w, metric);
                prop_assert_eq!(shared.len(), fresh.len());
                let nn = earliest_best(&cc, w, metric);
                prop_assert_eq!(shared.len(), nn.len());
                for ((s, f), &nn) in shared.entries().iter().zip(fresh.entries()).zip(&nn) {
                    prop_assert_eq!(s.start, f.start);
                    prop_assert!(
                        s.value.to_bits() == f.value.to_bits(),
                        "{:?} w={} order={:?} start={}: {} vs {}",
                        metric, w, order, s.start, s.value, f.value
                    );
                    prop_assert_eq!(s.nn_start, f.nn_start);
                    prop_assert_eq!(s.nn_start, nn);
                }
                let long: Vec<usize> = order.iter().copied().filter(|&i| set[i].len() >= w).collect();
                for (p, &a) in long.iter().enumerate() {
                    for &b in &long[p + 1..] {
                        pairs.insert((a.min(b), a.max(b)));
                    }
                }
            }
            // every distinct pair was joined exactly once
            prop_assert_eq!(table.len(), pairs.len());
        }
    }
}

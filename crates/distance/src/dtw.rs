//! Dynamic time warping with optional Sakoe–Chiba banding and the LB_Keogh
//! lower bound — the substrate of the paper's 1NN-DTW comparator (Table II
//! and the `DTW_Rn_1NN` column of Table VI).

/// Unconstrained DTW distance (square root of the summed squared local
/// costs, the convention of the UCR archive baselines).
pub fn dtw(a: &[f64], b: &[f64]) -> f64 {
    dtw_banded(a, b, usize::MAX)
}

/// DTW with a Sakoe–Chiba band of half-width `band` cells. `band ==
/// usize::MAX` means unconstrained. Returns `f64::INFINITY` when either
/// input is empty or the band is too narrow to connect the corners.
pub fn dtw_banded(a: &[f64], b: &[f64], band: usize) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let (n, m) = (a.len(), b.len());
    // A band narrower than the length difference can never reach (n,m).
    let min_band = n.abs_diff(m);
    let band = band.max(min_band);
    // Two-row dynamic program over squared costs.
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur.fill(f64::INFINITY);
        let lo = if i > band { i - band } else { 1 };
        let hi = i.saturating_add(band).min(m);
        if lo > hi {
            return f64::INFINITY;
        }
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
            let best = prev[j].min(prev[j - 1]).min(cur[j - 1]);
            cur[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m].sqrt()
}

/// LB_Keogh lower bound for banded DTW: the distance from `query` to the
/// band envelope of `candidate`. Sound for equal-length series — every
/// value of `dtw_banded(query, candidate, band)` is ≥ this bound — so a
/// 1NN search can skip candidates whose bound already exceeds the best.
pub fn lb_keogh(query: &[f64], candidate: &[f64], band: usize) -> f64 {
    debug_assert_eq!(query.len(), candidate.len());
    let n = candidate.len();
    if n == 0 {
        return f64::INFINITY;
    }
    let mut acc = 0.0;
    for (i, &q) in query.iter().enumerate() {
        let lo_idx = i.saturating_sub(band);
        let hi_idx = i.saturating_add(band).min(n - 1);
        let window = &candidate[lo_idx..=hi_idx];
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in window {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if q > hi {
            acc += (q - hi) * (q - hi);
        } else if q < lo {
            acc += (lo - q) * (lo - q);
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_have_zero_distance() {
        let a: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        assert_eq!(dtw(&a, &a), 0.0);
        assert_eq!(dtw_banded(&a, &a, 2), 0.0);
    }

    #[test]
    fn shifted_series_warp_to_near_zero() {
        let a: Vec<f64> = (0..60).map(|i| ((i as f64 - 10.0) * 0.4).sin()).collect();
        let b: Vec<f64> = (0..60).map(|i| ((i as f64 - 13.0) * 0.4).sin()).collect();
        let ed: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let d = dtw(&a, &b);
        assert!(
            d < ed * 0.5,
            "dtw {d} should absorb the phase shift vs ed {ed}"
        );
    }

    #[test]
    fn band_zero_reduces_to_euclidean_for_equal_lengths() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 2.0, 2.0, 5.0];
        let ed: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!((dtw_banded(&a, &b, 0) - ed).abs() < 1e-12);
    }

    #[test]
    fn wider_band_never_increases_distance() {
        let a: Vec<f64> = (0..40).map(|i| ((i * 13 % 11) as f64) * 0.2).collect();
        let b: Vec<f64> = (0..40).map(|i| ((i * 7 % 13) as f64) * 0.2).collect();
        let mut last = f64::INFINITY;
        for band in [0, 1, 2, 5, 10, 40] {
            let d = dtw_banded(&a, &b, band);
            assert!(d <= last + 1e-12, "band {band}: {d} > {last}");
            last = d;
        }
        assert!((dtw_banded(&a, &b, 40) - dtw(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn unequal_lengths_are_supported() {
        let a = [0.0, 1.0, 2.0, 1.0, 0.0];
        let b = [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0];
        let d = dtw(&a, &b);
        assert!(d.is_finite());
        assert!(d < 0.5, "warping should absorb the stretch: {d}");
        // band narrower than the length gap is widened internally
        assert!(dtw_banded(&a, &b, 0).is_finite());
    }

    #[test]
    fn empty_inputs_are_infinite() {
        assert_eq!(dtw(&[], &[1.0]), f64::INFINITY);
        assert_eq!(dtw(&[1.0], &[]), f64::INFINITY);
    }

    #[test]
    fn symmetry() {
        let a: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).cos()).collect();
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.3).sin() * 2.0).collect();
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-12);
        assert!((dtw_banded(&a, &b, 3) - dtw_banded(&b, &a, 3)).abs() < 1e-12);
    }

    #[test]
    fn lb_keogh_lower_bounds_banded_dtw() {
        let a: Vec<f64> = (0..50).map(|i| ((i * 29 % 23) as f64) * 0.1).collect();
        let b: Vec<f64> = (0..50).map(|i| ((i * 17 % 19) as f64) * 0.1).collect();
        let peak = [0.0, 10.0, 10.0, 0.0];
        for (q, c) in [(&a[..], &b[..]), (&peak[..], &peak[..])] {
            for band in [1, 3, 8, usize::MAX] {
                let lb = lb_keogh(q, c, band);
                let d = dtw_banded(q, c, band);
                assert!(lb <= d + 1e-9, "band {band}: lb {lb} > dtw {d}");
            }
        }
    }

    #[test]
    fn lb_keogh_zero_for_contained_query() {
        let cand = [0.0, 10.0, 0.0, 10.0];
        let query = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(lb_keogh(&query, &cand, 1), 0.0);
    }
}

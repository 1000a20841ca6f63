//! Rolling window statistics over a series.
//!
//! Precomputes the mean and standard deviation of every length-`m` window in
//! O(n) using cumulative sums, as required by the z-normalized distance
//! profile, MASS, and the STOMP-style matrix profile.

/// Per-window mean and standard deviation of all length-`m` windows.
#[derive(Debug, Clone)]
pub struct RollingStats {
    means: Vec<f64>,
    stds: Vec<f64>,
    window: usize,
}

impl RollingStats {
    /// Computes statistics for every window of `series` of length `window`.
    /// Produces an empty set when `window == 0` or the series is shorter
    /// than the window.
    pub fn new(series: &[f64], window: usize) -> Self {
        if window == 0 || series.len() < window {
            return Self {
                means: Vec::new(),
                stds: Vec::new(),
                window,
            };
        }
        let n_out = series.len() - window + 1;
        let mut cum = vec![0.0; series.len() + 1];
        let mut cum2 = vec![0.0; series.len() + 1];
        prefix_sums(series, &mut cum, &mut cum2);
        let mut means = vec![0.0; n_out];
        let mut stds = vec![0.0; n_out];
        window_stats(&cum, &cum2, window, &mut means, &mut stds);
        Self {
            means,
            stds,
            window,
        }
    }

    /// Number of windows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True when no windows exist (window longer than series).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// The window length `m`.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Mean of window starting at `j`.
    #[inline]
    pub fn mean(&self, j: usize) -> f64 {
        self.means[j]
    }

    /// Population standard deviation of window starting at `j`.
    #[inline]
    pub fn std(&self, j: usize) -> f64 {
        self.stds[j]
    }

    /// All means.
    #[inline]
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// All standard deviations.
    #[inline]
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

/// Fills `cum` and `cum2` with the prefix sums of `series` and of its
/// squares: `cum[j] = Σ_{i<j} x_i`, `cum2[j] = Σ_{i<j} x_i²`. Both must
/// hold `series.len() + 1` entries. One pass serves every window length
/// (see [`window_stats`]). f64 accumulation over laptop-scale series is
/// adequate (validated against the direct computation in tests).
pub(crate) fn prefix_sums(series: &[f64], cum: &mut [f64], cum2: &mut [f64]) {
    debug_assert_eq!(cum.len(), series.len() + 1);
    debug_assert_eq!(cum2.len(), series.len() + 1);
    let (mut s, mut s2) = (0.0, 0.0);
    cum[0] = 0.0;
    cum2[0] = 0.0;
    for ((&x, c), c2) in series.iter().zip(&mut cum[1..]).zip(&mut cum2[1..]) {
        s += x;
        s2 += x * x;
        *c = s;
        *c2 = s2;
    }
}

/// Mean and population σ of every length-`window` window from the prefix
/// sums of [`prefix_sums`], into `means` and `stds` (one entry per window,
/// `n − window + 1`). Each window costs two subtractions, so a series
/// probed at many lengths shares one prefix-sum pass.
pub(crate) fn window_stats(
    cum: &[f64],
    cum2: &[f64],
    window: usize,
    means: &mut [f64],
    stds: &mut [f64],
) {
    debug_assert!(window > 0 && window < cum.len());
    debug_assert_eq!(means.len(), cum.len() - window);
    debug_assert_eq!(stds.len(), means.len());
    let w = window as f64;
    let sums = cum[window..].iter().zip(cum);
    let sums2 = cum2[window..].iter().zip(cum2);
    for (((hi, lo), (hi2, lo2)), (mean, std)) in sums.zip(sums2).zip(means.iter_mut().zip(stds)) {
        let s = hi - lo;
        let s2 = hi2 - lo2;
        let mu = s / w;
        // A singleton window has zero variance by definition; computing
        // it via the cumsum difference would leave cancellation noise.
        let var = if window == 1 {
            0.0
        } else {
            (s2 / w - mu * mu).max(0.0)
        };
        *mean = mu;
        *std = var.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_mean_std(w: &[f64]) -> (f64, f64) {
        let m = w.iter().sum::<f64>() / w.len() as f64;
        let v = w.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / w.len() as f64;
        (m, v.sqrt())
    }

    #[test]
    fn matches_direct_computation() {
        let series: Vec<f64> = (0..128)
            .map(|i| ((i * 31 % 17) as f64) * 0.3 - (i as f64) * 0.01)
            .collect();
        for window in [1, 2, 5, 16, 128] {
            let rs = RollingStats::new(&series, window);
            assert_eq!(rs.len(), series.len() - window + 1);
            for j in 0..rs.len() {
                let (m, s) = direct_mean_std(&series[j..j + window]);
                assert!((rs.mean(j) - m).abs() < 1e-9, "mean at {j}, w={window}");
                assert!((rs.std(j) - s).abs() < 1e-7, "std at {j}, w={window}");
            }
        }
    }

    #[test]
    fn degenerate_windows() {
        assert!(RollingStats::new(&[1.0, 2.0], 0).is_empty());
        assert!(RollingStats::new(&[1.0, 2.0], 3).is_empty());
        let rs = RollingStats::new(&[5.0], 1);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.mean(0), 5.0);
        assert_eq!(rs.std(0), 0.0);
    }

    #[test]
    fn constant_series_has_zero_std() {
        let rs = RollingStats::new(&[4.0; 50], 8);
        assert!(rs.stds().iter().all(|&s| s == 0.0));
        assert!(rs.means().iter().all(|&m| (m - 4.0).abs() < 1e-12));
    }
}

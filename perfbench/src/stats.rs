//! Sample statistics and digests shared by every workload.

/// Median of a sample (the mean of the middle pair for even counts);
/// `0.0` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`); `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let idx = ((s.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    s[idx]
}

/// The quantile `fit_s` and `serve_rps` report: the fastest tenth of a
/// run's samples. On a shared host other tenants slow whole stretches of
/// a run by up to 1.7×, and the share of slowed stretches changes from run
/// to run, which moves a median by more than its bound; the fastest tenth
/// comes from the unslowed stretches, which nearly every run has.
pub const FAST_QUANTILE: f64 = 0.10;

/// Largest value of a sample; `0.0` for an empty sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Samples a tail statistic must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing sample: the value at the highest percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Share of the sample at or below the value, in percent.
    pub percentile: f64,
    /// Samples strictly beyond the value's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `xs`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist (no rank then has ten samples beyond it). In ascending order the
/// value is the one at rank `n - 11`, so exactly ten samples rank above
/// it: with 100 samples that is the 90th percentile, with 1000 the 99th.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// FNV-1a, 64 bit: the digest of shapelet sets and response streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so concatenations differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's own seeded generator for request orders, so
/// the inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Sample count and quartiles plus the 10th/90th percentiles of a sample,
/// for the detail line.
pub fn summary(xs: &[f64]) -> ips_obs::Json {
    let mut s = ips_obs::Json::object();
    s.insert("n", xs.len());
    for (k, q) in [
        ("min", 0.0),
        ("p05", 0.05),
        ("p10", 0.1),
        ("p25", 0.25),
        ("p50", 0.5),
        ("p75", 0.75),
        ("p90", 0.9),
    ] {
        s.insert(k, quantile(xs, q));
    }
    s
}

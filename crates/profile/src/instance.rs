//! The paper's instance profile (Definitions 8–9).
//!
//! Given a concatenation of sampled class instances, the instance profile
//! annotates every *valid* subsequence (one that does not straddle an
//! instance boundary) with its nearest-neighbor distance among subsequences
//! of **other** instances in the sample (`m' != m` in Definition 9). This
//! fixes the MP baseline's habit of matching a subsequence against its own
//! instance, and — because the concatenation is a *sample* rather than the
//! whole class — yields diverse candidates across repeated draws.
//!
//! Repeated draws from one class share most of their instance pairs, so a
//! [`PairTable`] keeps each pair's join and builds every draw's profile
//! from the joins it already holds.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ips_distance::{is_constant_sigma, RollingStats};
use ips_tsdata::ClassConcat;

use crate::matrix::Metric;

/// One annotated subsequence of the instance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    /// Start offset in the concatenated series.
    pub start: usize,
    /// Nearest-neighbor distance among other-instance subsequences.
    pub value: f64,
    /// Start offset (in the concatenation) of that nearest neighbor.
    pub nn_start: usize,
}

/// The instance profile of one sampled concatenation at one window length.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceProfile {
    entries: Vec<ProfileEntry>,
    window: usize,
    metric: Metric,
}

impl InstanceProfile {
    /// Computes the instance profile of `concat` for window length
    /// `window`.
    ///
    /// Implementation: one STOMP pass per **unordered** instance pair
    /// `(a, b)`. The pass walks the `a × b` window grid in row order with
    /// the recurrence `qt[i][j] = qt[i-1][j-1] + (a[i+m-1]·b[j+m-1] −
    /// a[i-1]·b[j-1])` (squared differences for [`Metric::MeanSquared`]),
    /// and each pair statistic updates both `a`'s row best and `b`'s column
    /// best. Window statistics are computed once per instance. The pass
    /// tracks a *score* — the clamped correlation for
    /// [`Metric::ZNormEuclidean`], the negated squared distance for
    /// [`Metric::MeanSquared`] — and each window's profile is the maximum
    /// of its pair bests over the other instances, converted into a
    /// distance once at the end; both conversions are monotone under IEEE
    /// rounding, so every `value` is bit-identical to the minimum of
    /// [`MatrixProfile::ab_join`](crate::MatrixProfile::ab_join) over all
    /// other instances. Subsequences straddling a boundary never appear
    /// because the passes operate on per-instance slices.
    ///
    /// `nn_start` is the earliest-starting window with the best score. When
    /// several windows tie at the minimum distance, that can be a different
    /// one of them than a per-row `ab_join` scan picks: the scan keeps the
    /// first minimum in diagonal order, and neighbouring correlations can
    /// round to the same distance. A window with no other instance long
    /// enough to match keeps `value = +∞` and `nn_start = 0`.
    ///
    /// This is [`PairTable::profile`] on a table private to the call, keyed
    /// by concatenation position.
    pub fn compute(concat: &ClassConcat, window: usize, metric: Metric) -> Self {
        PairTable::new(metric).profile_keyed(concat, window, |i| i)
    }

    /// All annotated subsequences in start order.
    #[inline]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Window length `L`.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Metric used.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of annotated subsequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instance was long enough for the window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The motif: the entry with the minimum profile value (`min(IP)` of
    /// Algorithm 1, line 7). `None` when empty or all-infinite.
    pub fn motif(&self) -> Option<ProfileEntry> {
        self.entries
            .iter()
            .filter(|e| e.value.is_finite())
            .min_by(|a, b| a.value.partial_cmp(&b.value).unwrap_or(Ordering::Equal))
            .copied()
    }

    /// The discord: the entry with the maximum finite profile value
    /// (`max(IP)` of Algorithm 1, line 8).
    pub fn discord(&self) -> Option<ProfileEntry> {
        self.entries
            .iter()
            .filter(|e| e.value.is_finite())
            .max_by(|a, b| a.value.partial_cmp(&b.value).unwrap_or(Ordering::Equal))
            .copied()
    }

    /// Profile values only, in start order (for plotting / Figure-style
    /// output).
    pub fn values(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.value).collect()
    }
}

/// The pair joins behind the instance profiles of many concatenations of
/// one dataset under one metric — Algorithm 1's `Q_N` overlapping samples
/// of a class, which share most of their instance pairs.
///
/// An entry is keyed by `(lower original index, higher original index,
/// window)`. It holds, from one STOMP pass, every window's best score
/// against the other instance and the earliest window of that instance
/// reaching it, for both instances. A profile is the max-combine of its
/// pairs' entries, walked in concatenation order with a strict `>`, so it
/// is bit-identical to a fresh [`InstanceProfile::compute`] whichever
/// concatenation joined a pair first (DESIGN.md §2).
///
/// Entries fill lazily, each at most once: concurrent callers asking for
/// the same pair wait on one `OnceLock` while the first joins it, and no
/// lock is held during a join. A join that panics leaves its entry empty
/// for the next caller. A table assumes one original index always names
/// the same series, so build one per dataset.
#[derive(Debug)]
pub struct PairTable {
    metric: Metric,
    joins: Mutex<HashMap<PairKey, Arc<OnceLock<PairJoin>>>>,
}

/// `(lower instance id, higher instance id, window)`.
type PairKey = (usize, usize, usize);

impl PairTable {
    /// An empty table for one metric.
    pub fn new(metric: Metric) -> Self {
        Self {
            metric,
            joins: Mutex::default(),
        }
    }

    /// Number of pair joins the table holds.
    pub fn len(&self) -> usize {
        self.lock().values().filter(|j| j.get().is_some()).count()
    }

    /// True when no pair has been joined yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instance profile of `concat` for window length `window`,
    /// bit-identical to [`InstanceProfile::compute`]. Pairs are keyed by
    /// the instances' original indices (the third field of
    /// [`ClassConcat::segment`]), so a pair this table has already joined
    /// at `window` is not joined again.
    pub fn profile(&self, concat: &ClassConcat, window: usize) -> InstanceProfile {
        self.profile_keyed(concat, window, |i| concat.segment(i).2)
    }

    /// The profile of `concat` with `id(i)` naming its `i`-th instance in
    /// the table's keys.
    fn profile_keyed(
        &self,
        concat: &ClassConcat,
        window: usize,
        id: impl Fn(usize) -> usize,
    ) -> InstanceProfile {
        let (m, metric) = (window, self.metric);
        let values = concat.values();
        let long: Vec<Instance> = (0..concat.num_instances())
            .filter_map(|i| {
                let (start, len, _) = concat.segment(i);
                (m > 0 && len >= m).then(|| Instance {
                    id: id(i),
                    start,
                    series: &values[start..start + len],
                    side: OnceCell::new(),
                })
            })
            .collect();
        let mut best: Vec<Best> = long
            .iter()
            .map(|x| Best::new(x.series.len() - m + 1))
            .collect();
        let mut rows = Rows::default();
        // Pairs in (p, q) order visit each instance's partners in
        // concatenation order, which the earliest-window rule relies on.
        for p in 0..long.len() {
            let (head, tail) = best.split_at_mut(p + 1);
            for (q, y_best) in (p + 1..long.len()).zip(tail) {
                let (x, y) = (&long[p], &long[q]);
                // The entry's `lo` side is the lower id; orientation cannot
                // change a score bit (DESIGN.md §2).
                let flip = y.id < x.id;
                let (lo, hi) = if flip { (y, x) } else { (x, y) };
                let entry = self.entry((lo.id, hi.id, m));
                let pair = entry.get_or_init(|| {
                    join(lo.side(m, metric), hi.side(m, metric), m, metric, &mut rows)
                });
                let (x_side, y_side) = if flip {
                    (&pair.hi, &pair.lo)
                } else {
                    (&pair.lo, &pair.hi)
                };
                head[p].merge(x_side, y.start);
                y_best.merge(y_side, x.start);
            }
        }
        let m_f = m as f64;
        let entries = long
            .iter()
            .zip(&best)
            .flat_map(|(x, b)| {
                b.score
                    .iter()
                    .zip(&b.nn)
                    .enumerate()
                    .map(move |(w, (&score, &nn_start))| ProfileEntry {
                        start: x.start + w,
                        value: match metric {
                            Metric::ZNormEuclidean => znorm_dist_from_corr(score, m_f),
                            Metric::MeanSquared => -score / m_f,
                        },
                        nn_start,
                    })
            })
            .collect();
        InstanceProfile {
            entries,
            window,
            metric,
        }
    }

    /// The (possibly still empty) entry of `key`, inserted on first use.
    fn entry(&self, key: PairKey) -> Arc<OnceLock<PairJoin>> {
        Arc::clone(self.lock().entry(key).or_default())
    }

    /// The key map. It is only locked to look an entry up, never across a
    /// join, so a poisoned lock (a panic inside a map operation) still
    /// guards a consistent map.
    fn lock(&self) -> MutexGuard<'_, HashMap<PairKey, Arc<OnceLock<PairJoin>>>> {
        self.joins.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Correlation score of a pair of windows of which exactly one is constant:
/// it converts to the distance `√m` (see [`ips_distance::znorm_dist_from_dot`]).
const ONE_CONSTANT: f64 = 0.5;
/// Correlation score of a pair of constant windows: distance exactly `0`.
const BOTH_CONSTANT: f64 = 1.0;

/// One long-enough instance of a concatenation: its table id, its offset
/// in the concatenation, and its window statistics, computed on the first
/// join it needs.
struct Instance<'a> {
    id: usize,
    start: usize,
    series: &'a [f64],
    side: OnceCell<Side<'a>>,
}

impl<'a> Instance<'a> {
    fn side(&self, m: usize, metric: Metric) -> &Side<'a> {
        self.side.get_or_init(|| Side::new(self.series, m, metric))
    }
}

/// One instance of a pair: its window statistics, shared by every pair it
/// joins within one profile.
struct Side<'a> {
    series: &'a [f64],
    mu: Vec<f64>,
    sd: Vec<f64>,
    m_mu: Vec<f64>,
    m_sd: Vec<f64>,
    constant: Vec<bool>,
}

impl<'a> Side<'a> {
    fn new(series: &'a [f64], m: usize, metric: Metric) -> Self {
        let (mu, sd) = match metric {
            Metric::ZNormEuclidean => {
                let stats = RollingStats::new(series, m);
                (stats.means().to_vec(), stats.stds().to_vec())
            }
            Metric::MeanSquared => (Vec::new(), Vec::new()),
        };
        let m_f = m as f64;
        Self {
            series,
            m_mu: mu.iter().map(|&x| m_f * x).collect(),
            m_sd: sd.iter().map(|&x| m_f * x).collect(),
            constant: sd
                .iter()
                .zip(&mu)
                .map(|(&s, &u)| is_constant_sigma(s, u))
                .collect(),
            mu,
            sd,
        }
    }
}

/// The best score each window of one instance has reached (higher is
/// nearer), and where: a window index of the other instance within a
/// [`PairJoin`], a concatenation offset within a profile.
#[derive(Debug)]
struct Best {
    score: Vec<f64>,
    nn: Vec<usize>,
}

impl Best {
    fn new(windows: usize) -> Self {
        Self {
            score: vec![f64::NEG_INFINITY; windows],
            nn: vec![0; windows],
        }
    }

    /// Max-combines one pair's bests against the instance starting at
    /// `other_start`. The strict `>` keeps the earlier partner on a tie.
    fn merge(&mut self, pair: &Best, other_start: usize) {
        let old = self.score.iter_mut().zip(&mut self.nn);
        for ((best, nn), (&s, &j)) in old.zip(pair.score.iter().zip(&pair.nn)) {
            raise(best, nn, s, other_start + j);
        }
    }
}

/// `if c > *best { (*best, *nn) = (c, at) }`, as bit masks: written as an
/// `if`, it compiles to a branch that mispredicts while a best climbs from
/// `−∞`, and it does not vectorize.
#[inline]
fn raise(best: &mut f64, nn: &mut usize, c: f64, at: usize) {
    let keep = u64::from(c > *best).wrapping_sub(1);
    *best = f64::from_bits((best.to_bits() & keep) | (c.to_bits() & !keep));
    *nn = (*nn & keep as usize) | (at & !keep as usize);
}

/// One STOMP pass over an instance pair at one window length: the bests of
/// the lower id's windows and of the higher id's.
#[derive(Debug)]
struct PairJoin {
    lo: Best,
    hi: Best,
}

/// Scratch rows reused by every pair join of one profile.
#[derive(Default)]
struct Rows {
    /// The pair statistic (dot product or squared distance) of the current
    /// row, and the row being built from it.
    grid: [Vec<f64>; 2],
    /// The current row's scores as seen from `a`'s window and from each of
    /// `b`'s windows (they differ only for the z-normalized metric).
    a_view: Vec<f64>,
    b_view: Vec<f64>,
}

/// One pass over the window grid of the pair `(a, b)`: every pair statistic
/// becomes a score for `a`'s window (its row best) and a score for `b`'s
/// window (its column best). Each best keeps the earliest window reaching
/// it.
fn join(a: &Side, b: &Side, m: usize, metric: Metric, rows: &mut Rows) -> PairJoin {
    let Rows {
        grid,
        a_view,
        b_view,
    } = rows;
    let n_b = b.series.len() - m + 1;
    let mut lo = Best::new(a.series.len() - m + 1);
    let mut hi = Best::new(n_b);
    a_view.resize(n_b, 0.0);
    b_view.resize(n_b, 0.0);
    let visit = |i: usize, stat: &[f64]| {
        let b_scores: &[f64] = match metric {
            Metric::ZNormEuclidean => {
                znorm_scores(a, i, b, stat, a_view, b_view);
                b_view
            }
            // The squared distance is symmetric bitwise: one score serves
            // both sides.
            Metric::MeanSquared => {
                for (s, &sq) in a_view.iter_mut().zip(stat) {
                    *s = -sq.max(0.0);
                }
                a_view
            }
        };
        (lo.score[i], lo.nn[i]) = row_best(a_view);
        for ((best, nn), &c) in hi.score.iter_mut().zip(&mut hi.nn).zip(b_scores) {
            raise(best, nn, c, i);
        }
    };
    match metric {
        Metric::ZNormEuclidean => {
            let dot = |x: &[f64], y: &[f64]| -> f64 { x.iter().zip(y).map(|(p, q)| p * q).sum() };
            let step = |qt: f64, a_drop: f64, a_add: f64, b_drop: f64, b_add: f64| {
                qt + (a_add * b_add - a_drop * b_drop)
            };
            for_each_row(a.series, b.series, m, grid, dot, step, visit);
        }
        Metric::MeanSquared => {
            let sq = |x: &[f64], y: &[f64]| -> f64 {
                x.iter().zip(y).map(|(p, q)| (p - q) * (p - q)).sum()
            };
            let step = |sq: f64, a_drop: f64, a_add: f64, b_drop: f64, b_add: f64| {
                let (drop, add) = (a_drop - b_drop, a_add - b_add);
                sq + (add * add - drop * drop)
            };
            for_each_row(a.series, b.series, m, grid, sq, step, visit);
        }
    }
    PairJoin { lo, hi }
}

/// The best score of `row` and the earliest index reaching it: what a
/// strict-`>` scan in index order keeps, without that scan's
/// data-dependent branch. A four-lane maximum finds the best value, then
/// the first index holding it is returned with its own bits (`0.0` and
/// `−0.0` tie). `(−∞, 0)` when nothing beats `−∞`.
fn row_best(row: &[f64]) -> (f64, usize) {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let chunks = row.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &c) in lanes.iter_mut().zip(chunk) {
            *lane = if c > *lane { c } else { *lane };
        }
    }
    let max = lanes
        .iter()
        .chain(tail)
        .fold(f64::NEG_INFINITY, |m, &c| if c > m { c } else { m });
    match row.iter().position(|&c| c == max) {
        Some(j) if max > f64::NEG_INFINITY => (row[j], j),
        _ => (f64::NEG_INFINITY, 0),
    }
}

/// Walks the STOMP rows of the window grid of `a × b`: calls `visit(i,
/// row)` with `row[j]` the pair statistic of windows `a[i..i+m]` and
/// `b[j..j+m]`. Row 0 and column 0 start from `init`; every other cell
/// extends its upper-left neighbour with `step(prev, a_drop, a_add, b_drop,
/// b_add)` — the same diagonal recurrence, term for term, as
/// [`MatrixProfile::ab_join`](crate::MatrixProfile::ab_join), so every
/// statistic is bit-identical to the one that join computes.
fn for_each_row(
    a: &[f64],
    b: &[f64],
    m: usize,
    [row, next]: &mut [Vec<f64>; 2],
    init: impl Fn(&[f64], &[f64]) -> f64,
    step: impl Fn(f64, f64, f64, f64, f64) -> f64,
    mut visit: impl FnMut(usize, &[f64]),
) {
    let (n_a, n_b) = (a.len() - m + 1, b.len() - m + 1);
    row.clear();
    row.extend((0..n_b).map(|j| init(&a[..m], &b[j..j + m])));
    visit(0, row);
    next.resize(n_b, 0.0);
    for i in 1..n_a {
        let (a_drop, a_add) = (a[i - 1], a[i + m - 1]);
        next[0] = init(&a[i..i + m], &b[..m]);
        for j in 1..n_b {
            next[j] = step(row[j - 1], a_drop, a_add, b[j - 1], b[j + m - 1]);
        }
        visit(i, next);
        std::mem::swap(row, next);
    }
}

/// The correlation scores of `a`'s window `i` against every window of `b`,
/// into `a_view` (`a`'s window as the query) and `b_view` (`b`'s). The two
/// stay separate expressions, each written as
/// [`ips_distance::znorm_dist_from_dot`] writes it for its query side,
/// because that formula is not symmetric bitwise.
fn znorm_scores(a: &Side, i: usize, b: &Side, qt: &[f64], a_view: &mut [f64], b_view: &mut [f64]) {
    let n = qt.len();
    let (a_view, b_view, b_const) = (&mut a_view[..n], &mut b_view[..n], &b.constant[..n]);
    if a.constant[i] {
        for j in 0..n {
            let c = if b_const[j] {
                BOTH_CONSTANT
            } else {
                ONE_CONSTANT
            };
            a_view[j] = c;
            b_view[j] = c;
        }
        return;
    }
    let (mu_a, sd_a, m_mu_a, m_sd_a) = (a.mu[i], a.sd[i], a.m_mu[i], a.m_sd[i]);
    let (mu_b, sd_b, m_mu_b, m_sd_b) = (&b.mu[..n], &b.sd[..n], &b.m_mu[..n], &b.m_sd[..n]);
    for j in 0..n {
        let c_ab = ((qt[j] - m_mu_a * mu_b[j]) / (m_sd_a * sd_b[j])).clamp(-1.0, 1.0);
        let c_ba = ((qt[j] - m_mu_b[j] * mu_a) / (m_sd_b[j] * sd_a)).clamp(-1.0, 1.0);
        a_view[j] = if b_const[j] { ONE_CONSTANT } else { c_ab };
        b_view[j] = if b_const[j] { ONE_CONSTANT } else { c_ba };
    }
}

/// The distance of a best (already clamped) correlation score:
/// `√(2m(1 − c))`, written as [`ips_distance::znorm_dist_from_dot`] writes
/// it, so the two agree bit for bit. A window that met no other window
/// keeps the score `−∞` and the distance `+∞`.
fn znorm_dist_from_corr(corr: f64, m_f: f64) -> f64 {
    let d2 = 2.0 * m_f * (1.0 - corr);
    if !d2.is_finite() {
        return f64::INFINITY;
    }
    d2.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::{ClassConcat, Dataset, TimeSeries};

    fn concat_of(seqs: &[Vec<f64>]) -> ClassConcat {
        ClassConcat::from_instances(seqs.iter().enumerate().map(|(i, v)| (i, v.as_slice())))
    }

    #[test]
    fn motif_is_the_shared_pattern() {
        // Pattern present in instances 0 and 2, absent in 1.
        let pat = vec![5.0, 6.0, 5.5, 6.5, 5.0];
        let mut a = vec![0.0; 30];
        a[8..13].copy_from_slice(&pat);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() * 0.3).collect();
        let mut c = vec![0.1; 30];
        c[20..25].copy_from_slice(&pat);
        let concat = concat_of(&[a, b, c]);
        let ip = InstanceProfile::compute(&concat, 5, Metric::MeanSquared);
        let motif = ip.motif().unwrap();
        assert!(motif.value < 1e-10);
        assert!(motif.start == 8 || motif.start == 30 + 30 + 20);
        // the nearest neighbor is the twin occurrence in the other instance
        let (inst_m, _) = concat.to_instance_coords(motif.start);
        let (inst_nn, _) = concat.to_instance_coords(motif.nn_start);
        assert_ne!(inst_m, inst_nn);
    }

    #[test]
    fn same_instance_matches_are_excluded() {
        // A pattern repeated twice *within* instance 0 but absent elsewhere
        // must NOT produce a zero profile value (the MP baseline would).
        let pat = vec![9.0, 8.0, 9.5, 8.5];
        let mut a = vec![0.0; 30];
        a[2..6].copy_from_slice(&pat);
        a[20..24].copy_from_slice(&pat);
        let b = vec![0.0; 30];
        let concat = concat_of(&[a, b]);
        let ip = InstanceProfile::compute(&concat, 4, Metric::MeanSquared);
        let at2 = ip.entries().iter().find(|e| e.start == 2).unwrap();
        assert!(
            at2.value > 1.0,
            "same-instance twin must not count: {}",
            at2.value
        );
    }

    #[test]
    fn no_straddling_subsequences() {
        let concat = concat_of(&[vec![1.0; 10], vec![2.0; 10]]);
        let ip = InstanceProfile::compute(&concat, 4, Metric::MeanSquared);
        // valid starts: 0..=6 and 10..=16 — never 7, 8, 9
        assert_eq!(ip.len(), 14);
        assert!(ip
            .entries()
            .iter()
            .all(|e| concat.within_one_instance(e.start, 4)));
    }

    #[test]
    fn entry_count_matches_definition() {
        // |D_C| instances of length N give |D_C|·(N − L + 1) entries.
        let seqs: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..25).map(|i| ((i + k * 7) as f64 * 0.3).sin()).collect())
            .collect();
        let concat = concat_of(&seqs);
        let ip = InstanceProfile::compute(&concat, 6, Metric::MeanSquared);
        assert_eq!(ip.len(), 4 * (25 - 6 + 1));
    }

    #[test]
    fn short_instances_are_skipped() {
        let concat = concat_of(&[vec![1.0, 2.0], vec![0.0; 12]]);
        let ip = InstanceProfile::compute(&concat, 5, Metric::MeanSquared);
        assert_eq!(ip.len(), 8); // only the second instance contributes
                                 // single-instance sample: every neighbor search has no other long
                                 // instance? No — instance 0 is too short to provide neighbors, so
                                 // the profile is infinite and motif() is None.
        assert!(ip.motif().is_none());
        assert!(ip.discord().is_none());
    }

    #[test]
    fn works_from_dataset_concat() {
        let data = Dataset::new(
            vec![
                TimeSeries::new((0..20).map(|i| (i as f64 * 0.4).sin()).collect()),
                TimeSeries::new((0..20).map(|i| (i as f64 * 0.4).sin() + 0.01).collect()),
            ],
            vec![1, 1],
        )
        .unwrap();
        let cc = data.concat_class(1);
        let ip = InstanceProfile::compute(&cc, 5, Metric::ZNormEuclidean);
        assert_eq!(ip.len(), 2 * 16);
        let motif = ip.motif().unwrap();
        assert!(
            motif.value < 0.5,
            "near-identical instances: {}",
            motif.value
        );
    }

    #[test]
    fn values_are_start_ordered() {
        let concat = concat_of(&[vec![0.5; 10], vec![1.0; 10], vec![0.0; 10]]);
        let ip = InstanceProfile::compute(&concat, 3, Metric::MeanSquared);
        let starts: Vec<usize> = ip.entries().iter().map(|e| e.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn constant_windows_pin_exact_zero_and_sqrt_m() {
        // Instances 0 and 1 are flat at different levels; instance 2 has
        // no flat window of length 4.
        let ramp: Vec<f64> = (0..12).map(|i| (i * i) as f64 * 0.1).collect();
        let concat = concat_of(&[vec![3.0; 12], vec![-7.5; 12], ramp]);
        let ip = InstanceProfile::compute(&concat, 4, Metric::ZNormEuclidean);
        for e in ip.entries() {
            let (inst, _) = concat.to_instance_coords(e.start);
            if inst < 2 {
                // a flat window matches the other flat instance exactly
                assert_eq!(e.value.to_bits(), 0.0f64.to_bits(), "at {}", e.start);
                assert_eq!(concat.to_instance_coords(e.nn_start).0, 1 - inst);
            } else {
                // against flat windows only: exactly √m
                assert_eq!(e.value.to_bits(), 2.0f64.to_bits(), "at {}", e.start);
            }
        }
        let flat_vs_ramp = concat_of(&[vec![3.0; 12], (0..12).map(|i| i as f64).collect()]);
        let ip = InstanceProfile::compute(&flat_vs_ramp, 9, Metric::ZNormEuclidean);
        assert!(ip.entries().iter().all(|e| e.value == 3.0));
    }

    #[test]
    fn correlations_rounding_below_minus_one_clamp_to_two_sqrt_m() {
        // Reversed two-point windows are perfectly anti-correlated, and
        // this pair's correlation rounds to just below −1.
        let a = vec![-6.332141681413033, -3.3079412127067904];
        let b: Vec<f64> = a.iter().rev().copied().collect();
        let ip = InstanceProfile::compute(&concat_of(&[a, b]), 2, Metric::ZNormEuclidean);
        for e in ip.entries() {
            assert_eq!(e.value.to_bits(), 8.0f64.sqrt().to_bits());
        }
    }

    #[test]
    fn a_panicking_join_leaves_its_entry_empty_for_the_next_caller() {
        let concat = concat_of(&[vec![0.0, 1.0, 3.0, 2.0, 0.0], vec![1.0, 3.0, 2.0, 5.0]]);
        let table = PairTable::new(Metric::MeanSquared);
        std::thread::scope(|s| {
            let failed = s.spawn(|| {
                table.entry((0, 1, 3)).get_or_init(|| panic!("join failed"));
            });
            assert!(failed.join().is_err());
        });
        assert!(table.is_empty());
        let ip = table.profile(&concat, 3);
        assert_eq!(
            ip,
            InstanceProfile::compute(&concat, 3, Metric::MeanSquared)
        );
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn ties_go_to_the_earliest_window() {
        // Integer data: squared distances are exact, so the pattern's two
        // copies in instance 1 and its copy in instance 2 tie at zero.
        let pat = [1.0, 3.0, 2.0];
        let mut a = vec![0.0; 8];
        a[2..5].copy_from_slice(&pat);
        let mut b = vec![0.0; 10];
        b[1..4].copy_from_slice(&pat);
        b[6..9].copy_from_slice(&pat);
        let mut c = vec![0.0; 6];
        c[0..3].copy_from_slice(&pat);
        let concat = concat_of(&[a, b, c]);
        let ip = InstanceProfile::compute(&concat, 3, Metric::MeanSquared);
        let at = |start: usize| *ip.entries().iter().find(|e| e.start == start).unwrap();
        assert_eq!(at(2).value, 0.0);
        assert_eq!(at(2).nn_start, 8 + 1);
        // instance 2's copy ties with all three earlier ones
        assert_eq!(at(18).value, 0.0);
        assert_eq!(at(18).nn_start, 2);
    }
}

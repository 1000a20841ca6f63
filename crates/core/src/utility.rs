//! The three utility functions (Definitions 11–13) and their optimized
//! computation (Section III-E: distribution transformation + computation
//! reuse).
//!
//! A motif candidate is scored `u = U_intra − U_inter + U_DC` and the
//! **smallest** `u` wins (small intra-class distance, large inter-class
//! distance, small distance to own-class instances — exactly the polarity
//! of Algorithm 4's priority queue).
//!
//! Faithfulness note: the paper's utilities apply a sigmoid to a *sum* of
//! distances; over hundreds of candidates the sum saturates the sigmoid to
//! 1.0 in f64 and all scores tie. We apply the sigmoid to the *mean*
//! distance instead — a monotone rescaling that preserves the intended
//! ordering while keeping the scores numerically distinct (recorded in
//! DESIGN.md §2).

use ips_distance::{sliding_min_dist, sliding_min_dist_znorm, DistCache, SliceKey};
use ips_filter::Dabf;
use ips_lsh::embed;
use ips_profile::Metric;
use ips_tsdata::Dataset;
use std::collections::HashMap;

use crate::candidates::{Candidate, CandidatePool};
use crate::config::IpsConfig;

/// Logistic squashing of a mean distance into `(0, 1)`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Exact utility scores for the motif candidates of `class`, with the CR
/// (computation-reuse) optimization: every pairwise distance is computed
/// once and shared across the three utilities. Distances follow
/// `config.metric` so scoring and discovery agree.
///
/// Returns one score per motif candidate, in `pool.motifs_of(class)`
/// order. Lower is better. This is the monolith's scorer and the
/// reference the engine's record → compute → replay pipeline is tested
/// against.
pub fn score_exact(
    pool: &CandidatePool,
    train: &Dataset,
    config: &IpsConfig,
    class: u32,
) -> Vec<f64> {
    let metric = config.metric;
    let mut dist = |a: &[f64], b: &[f64]| compute_min_dist(a, b, metric);
    score_exact_core(pool, train, class, &mut Vec::new(), &mut dist).0
}

/// One sliding-distance request through the shared vectorized naive
/// loops — what the reference scorer [`score_exact`] computes.
fn compute_min_dist(a: &[f64], b: &[f64], metric: Metric) -> f64 {
    match metric {
        Metric::MeanSquared => sliding_min_dist(a, b).0,
        Metric::ZNormEuclidean => sliding_min_dist_znorm(a, b).0,
    }
}

/// The single source of exact-scoring arithmetic: every distance the
/// utilities need is drawn from `dist`, and every floating-point
/// accumulation happens here in one fixed order. The recording pass
/// ([`exact_request_plan`]), the reference scorer ([`score_exact`]), and
/// the scheduler's replay pass ([`score_exact_replay`]) all run *this*
/// function — they cannot enumerate requests or combine distances
/// differently, which is what makes chunked scoring bit-identical to the
/// reference.
///
/// Returns the scores, the request count, and each motif's distances to
/// the class's training instances (the `U_DC` term), motif-major: row `i`
/// holds motif `i`'s distances in [`Dataset::class_indices`] order.
fn score_exact_core<'a>(
    pool: &'a CandidatePool,
    train: &'a Dataset,
    class: u32,
    intra_sum: &mut Vec<f64>,
    dist: &mut dyn FnMut(&'a [f64], &'a [f64]) -> f64,
) -> (Vec<f64>, usize, Vec<f64>) {
    let motifs: Vec<&Candidate> = pool.motifs_of(class).collect();
    if motifs.is_empty() {
        return (Vec::new(), 0, Vec::new());
    }
    // CR: intra-class pairwise distances form a symmetric matrix computed
    // once (the paper: "we calculate the distances between every two
    // candidates, then combine the distances for each candidate's
    // utility, which reduces the computation time in half").
    let n = motifs.len();
    intra_sum.clear();
    intra_sum.resize(n, 0.0);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(&motifs[i].values, &motifs[j].values);
            intra_sum[i] += d;
            intra_sum[j] += d;
        }
    }
    // Inter-class: motifs and discords of the other classes.
    let others: Vec<&Candidate> = pool
        .classes()
        .into_iter()
        .filter(|&c| c != class)
        .flat_map(|c| pool.of_class(c).iter())
        .collect();
    // Intra-instance: raw instances of the class.
    let instances: Vec<&'a [f64]> = train
        .class_indices(class)
        .into_iter()
        .map(|i| train.series(i).values())
        .collect();

    let mut own = Vec::with_capacity(n * instances.len());
    let scores = motifs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let u_intra = sigmoid(intra_sum[i] / (n.max(2) - 1) as f64);
            let u_inter = if others.is_empty() {
                0.5
            } else {
                let s: f64 = others.iter().map(|o| dist(&m.values, &o.values)).sum();
                sigmoid(s / others.len() as f64)
            };
            let u_dc = if instances.is_empty() {
                0.5
            } else {
                let row = own.len();
                own.extend(instances.iter().map(|t| dist(&m.values, t)));
                let s: f64 = own[row..].iter().sum();
                sigmoid(s / instances.len() as f64)
            };
            u_intra - u_inter + u_dc
        })
        .collect();
    // Every sliding distance requested: the symmetric intra matrix, one
    // per (motif, other-class candidate), one per (motif, own instance).
    let evals = n * (n - 1) / 2 + n * others.len() + n * instances.len();
    (scores, evals, own)
}

/// One distinct sliding-distance request, oriented the way the distance
/// cache orients it (`q` slides over the at-least-as-long `s`) and
/// carrying the content key the cache files `s`'s series plan under, so
/// resolving it through a cache shard hashes nothing.
#[derive(Clone, Copy)]
pub(crate) struct KeyedRequest<'a> {
    pub q: &'a [f64],
    pub s: &'a [f64],
    pub series_key: SliceKey,
}

impl KeyedRequest<'_> {
    /// The request's distance through `cache`, by series key (no content
    /// hashing) — the value [`score_exact`] computes for `(q, s)` up to
    /// the cache's kernel choice.
    pub fn resolve(&self, metric: Metric, cache: &mut DistCache) -> f64 {
        cache
            .min_dist_keyed(self.series_key, self.q, self.s, metric)
            .0
    }
}

/// One class's exact-scoring request list, deduplicated by content:
/// `unique` holds the first occurrence of each distinct oriented
/// `(query, series)` pair, `req_to_unique[r]` maps the `r`-th request to
/// its entry in `unique`.
pub(crate) struct ClassRequests<'a> {
    /// Each distinct request once, **grouped by oriented series** (series
    /// in order of first appearance, each group's requests in request
    /// order), so a contiguous chunk meets a series' requests in one run
    /// and its cache shard builds that series' statistics once.
    pub unique: Vec<KeyedRequest<'a>>,
    /// Request index → index into `unique`.
    pub req_to_unique: Vec<usize>,
}

impl ClassRequests<'_> {
    /// Requests answered from an earlier request's distance: every repeat
    /// of an earlier request (the top-k stage's `cache_hits`).
    pub fn duplicate_requests(&self) -> usize {
        self.req_to_unique.len() - self.unique.len()
    }
}

/// Recording pass of the scheduler's exact-scoring pipeline: runs
/// [`score_exact_core`] with a request-recording distance closure (no
/// distance work), then deduplicates by the content keys of the oriented
/// `(query, series)` pair, so each distinct distance is computed once
/// (the paper's computation reuse) and `unique.len()` is the class's
/// eval count independent of how `unique` is ordered or later chunked.
///
/// Each distinct slice (a motif, another class's candidate, an instance)
/// is content-hashed once per class rather than twice per request: the
/// slices all borrow from `pool` and `train` for `'a`, so their address
/// and length identify them for the lifetime of the plan.
pub(crate) fn exact_request_plan<'a>(
    pool: &'a CandidatePool,
    train: &'a Dataset,
    class: u32,
) -> ClassRequests<'a> {
    let mut reqs: Vec<(&'a [f64], &'a [f64])> = Vec::new();
    let mut record = |a: &'a [f64], b: &'a [f64]| {
        reqs.push((a, b));
        0.0
    };
    score_exact_core(pool, train, class, &mut Vec::new(), &mut record);
    let mut slice_keys: HashMap<(*const f64, usize), SliceKey> = HashMap::new();
    let mut key_of = |xs: &[f64]| {
        *slice_keys
            .entry((xs.as_ptr(), xs.len()))
            .or_insert_with(|| SliceKey::of(xs))
    };
    let mut unique: Vec<KeyedRequest<'a>> = Vec::new();
    let mut req_to_unique = Vec::with_capacity(reqs.len());
    let mut seen = HashMap::with_capacity(reqs.len());
    for (a, b) in reqs {
        let (q, s) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let series_key = key_of(s);
        let idx = *seen.entry((key_of(q), series_key)).or_insert_with(|| {
            unique.push(KeyedRequest { q, s, series_key });
            unique.len() - 1
        });
        req_to_unique.push(idx);
    }
    // Group by oriented series, series in first-appearance order: a stable
    // sort on the group index keeps request order within a group.
    let mut group_of: HashMap<SliceKey, usize> = HashMap::new();
    let groups: Vec<usize> = unique
        .iter()
        .map(|r| {
            let next = group_of.len();
            *group_of.entry(r.series_key).or_insert(next)
        })
        .collect();
    let mut order: Vec<usize> = (0..unique.len()).collect();
    order.sort_by_key(|&i| groups[i]);
    let mut new_index = vec![0; unique.len()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }
    for r in &mut req_to_unique {
        *r = new_index[*r];
    }
    ClassRequests {
        unique: order.iter().map(|&i| unique[i]).collect(),
        req_to_unique,
    }
}

/// Replay pass of the scheduler's exact-scoring pipeline: re-runs
/// [`score_exact_core`] feeding the `r`-th request the precomputed
/// `unique_dists[plan.req_to_unique[r]]`. Because the core enumerates
/// requests deterministically, request `r` here is exactly request `r`
/// of the recording pass, and the score arithmetic runs in
/// [`score_exact`]'s order — bit-identical at any thread count or chunk
/// size, and to [`score_exact`] itself whenever the distances are (always
/// when resolved without a cache). The motifs' own-instance distances
/// come back too (see [`score_exact_core`]), for the shapelet transform
/// to reuse.
pub(crate) fn score_exact_replay(
    pool: &CandidatePool,
    train: &Dataset,
    class: u32,
    intra_sum: &mut Vec<f64>,
    plan: &ClassRequests<'_>,
    unique_dists: &[f64],
) -> (Vec<f64>, usize, Vec<f64>) {
    let mut r = 0usize;
    let mut replay = |_a: &[f64], _b: &[f64]| {
        let d = unique_dists[plan.req_to_unique[r]];
        r += 1;
        d
    };
    score_exact_core(pool, train, class, intra_sum, &mut replay)
}

/// DT + CR scores: distances are replaced by bucket-rank differences in
/// the DABF's projection space (Formula 15's lower bound `|B_i − B_j|`),
/// and per-candidate sums over `|B_i − B_j|` are computed from a sorted
/// prefix-sum in O(log n) each instead of O(n) (the reuse step).
///
/// Returns one score per motif candidate of `class`, lower is better.
pub fn score_dt_cr(
    pool: &CandidatePool,
    train: &Dataset,
    dabf: &Dabf,
    config: &IpsConfig,
    class: u32,
) -> Vec<f64> {
    let tables = ClassRankTables::new(pool, dabf);
    score_dt_cr_with(pool, train, dabf, config, class, &tables).0
}

/// Every class's candidates ranked in that class's own DABF table, one
/// [`AbsDevTable`] per class in `pool.classes()` order — the inter-class
/// half of DT + CR. It depends only on the pool and the DABF, so one
/// build serves every scored class of a fit.
pub(crate) struct ClassRankTables<'a> {
    tables: Vec<(u32, &'a ips_filter::ClassDabf, AbsDevTable)>,
}

impl<'a> ClassRankTables<'a> {
    /// Ranks each class's candidates in its own table. A class without a
    /// filter, or without candidates, gets no table.
    pub(crate) fn new(pool: &CandidatePool, dabf: &'a Dabf) -> Self {
        let tables = pool
            .classes()
            .into_iter()
            .filter_map(|c| {
                let f = dabf.class(c)?;
                let ranks: Vec<f64> = pool
                    .of_class(c)
                    .iter()
                    .map(|x| f.rank_of(&x.embedded) as f64)
                    .collect();
                (!ranks.is_empty()).then(|| (c, f, AbsDevTable::new(&ranks)))
            })
            .collect();
        Self { tables }
    }
}

/// [`score_dt_cr`] over prebuilt rank tables, with work accounting:
/// returns the scores and the number of rank / abs-dev queries the
/// DT + CR computation of `class` issues against the DABF tables.
pub(crate) fn score_dt_cr_with(
    pool: &CandidatePool,
    train: &Dataset,
    dabf: &Dabf,
    config: &IpsConfig,
    class: u32,
    tables: &ClassRankTables<'_>,
) -> (Vec<f64>, usize) {
    let motifs: Vec<&Candidate> = pool.motifs_of(class).collect();
    if motifs.is_empty() {
        return (Vec::new(), 0);
    }
    // A filter can miss a class (e.g. pruning skipped under a budget, or
    // a class emptied before the build): degrade to neutral scores — the
    // diversity-guarded selection still yields usable shapelets.
    let Some(own) = dabf.class(class) else {
        return (vec![0.0; motifs.len()], 0);
    };
    // Bucket ranks of this class's motifs in its own table.
    let motif_ranks: Vec<f64> = motifs
        .iter()
        .map(|m| own.rank_of(&m.embedded) as f64)
        .collect();
    let intra = AbsDevTable::new(&motif_ranks);

    // Other classes: each class's candidates ranked in its own table; the
    // query motif is ranked in that same table so differences live in one
    // space.
    let other_tables: Vec<(&ips_filter::ClassDabf, &AbsDevTable)> = tables
        .tables
        .iter()
        .filter(|(c, _, _)| *c != class)
        .map(|(_, f, t)| (*f, t))
        .collect();

    // Own-class instances embedded whole and ranked in the own table.
    let instance_ranks: Vec<f64> = train
        .class_indices(class)
        .into_iter()
        .map(|i| {
            let e = embed(train.series(i).values(), config.embed_dim());
            own.rank_of(&e) as f64
        })
        .collect();
    let inst_table = AbsDevTable::new(&instance_ranks);

    // Bucket ranks live on a 0..#buckets integer scale; the mean absolute
    // deviation must be normalized back to [0, 1] before the sigmoid or
    // every utility saturates to 1.0 and all scores tie (the scale-fix
    // counterpart of the sum→mean change documented in the module docs).
    let own_scale = own.table().num_buckets().max(1) as f64;
    let scores: Vec<f64> = motifs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let u_intra = sigmoid(intra.mean_abs_dev_excluding_self(motif_ranks[i]) / own_scale);
            let u_inter = if other_tables.is_empty() {
                0.5
            } else {
                let (sum, count) = other_tables.iter().fold((0.0, 0usize), |(s, c), (f, t)| {
                    let scale = f.table().num_buckets().max(1) as f64;
                    let r = f.rank_of(&m.embedded) as f64;
                    (s + t.sum_abs_dev(r) / scale, c + t.len())
                });
                sigmoid(sum / count.max(1) as f64)
            };
            let u_dc = if inst_table.is_empty() {
                0.5
            } else {
                sigmoid(inst_table.mean_abs_dev(motif_ranks[i]) / own_scale)
            };
            u_intra - u_inter + u_dc
        })
        .collect();
    // Queries of this class's DT + CR computation: the rank lookups behind
    // its tables (one per motif, per other-class candidate, per own
    // instance) plus, per motif, one intra abs-dev, a rank + abs-dev per
    // other table, and one distance-correlation abs-dev. The other-class
    // ranks count for every scored class, shared build or not, so the
    // figure is the algorithm's and does not depend on the reuse.
    let n = motifs.len();
    let other_ranks: usize = other_tables.iter().map(|(_, t)| t.len()).sum();
    let evals = n + other_ranks + instance_ranks.len() + n * (2 + 2 * other_tables.len());
    (scores, evals)
}

/// Sorted-values + prefix-sums structure answering `Σ_j |x − v_j|` in
/// O(log n) — the computation-reuse core of the DT path.
#[derive(Debug, Clone)]
pub struct AbsDevTable {
    sorted: Vec<f64>,
    prefix: Vec<f64>,
}

impl AbsDevTable {
    /// Builds the table from arbitrary values.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        // total_cmp: ranks are finite by construction, but a degraded
        // input must reorder deterministically rather than panic.
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for &v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        Self { sorted, prefix }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built over no values.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `Σ_j |x − v_j|`.
    pub fn sum_abs_dev(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        let left_sum = self.prefix[idx];
        let total = self.prefix[n];
        let left = x * idx as f64 - left_sum;
        let right = (total - left_sum) - x * (n - idx) as f64;
        left + right
    }

    /// Mean absolute deviation of `x` from the stored values.
    pub fn mean_abs_dev(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum_abs_dev(x) / self.sorted.len() as f64
        }
    }

    /// Mean absolute deviation excluding one occurrence of `x` itself
    /// (used when `x` is a member of the table).
    pub fn mean_abs_dev_excluding_self(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        if n <= 1 {
            return 0.0;
        }
        self.sum_abs_dev(x) / (n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_candidates;
    use crate::pruning::build_dabf;
    use ips_tsdata::{DatasetSpec, SynthGenerator};

    #[test]
    fn sigmoid_shape() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }

    #[test]
    fn abs_dev_table_matches_naive() {
        let vals = [3.0, -1.0, 7.0, 2.0, 2.0, 0.5];
        let t = AbsDevTable::new(&vals);
        for x in [-2.0, 0.0, 2.0, 3.5, 10.0] {
            let naive: f64 = vals.iter().map(|v| (x - v).abs()).sum();
            assert!((t.sum_abs_dev(x) - naive).abs() < 1e-9, "x={x}");
            assert!((t.mean_abs_dev(x) - naive / 6.0).abs() < 1e-9);
        }
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(AbsDevTable::new(&[]).sum_abs_dev(5.0), 0.0);
        assert_eq!(
            AbsDevTable::new(&[1.0]).mean_abs_dev_excluding_self(1.0),
            0.0
        );
    }

    fn setup() -> (CandidatePool, Dataset, IpsConfig) {
        let spec = DatasetSpec::new("UtilT", 2, 64, 12, 12).with_noise(0.15);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let cfg = IpsConfig::default().with_sampling(5, 3).with_seed(2);
        let pool = generate_candidates(&train, &cfg);
        (pool, train, cfg)
    }

    #[test]
    fn exact_scores_are_finite_and_complete() {
        let (pool, train, cfg) = setup();
        for c in pool.classes() {
            let scores = score_exact(&pool, &train, &cfg, c);
            assert_eq!(scores.len(), pool.motifs_of(c).count());
            assert!(scores.iter().all(|s| s.is_finite()));
            // score range is bounded by the three sigmoids
            assert!(scores.iter().all(|s| (-1.0..=2.0).contains(s)));
        }
    }

    #[test]
    fn exact_request_plan_is_series_grouped_and_keyed_like_the_cache() {
        use std::collections::HashSet;
        let (pool, train, _) = setup();
        for c in pool.classes() {
            let plan = exact_request_plan(&pool, &train, c);
            // the same request enumeration the plan recorded
            let mut reqs: Vec<(&[f64], &[f64])> = Vec::new();
            let mut record = |a, b| {
                reqs.push((a, b));
                0.0
            };
            score_exact_core(&pool, &train, c, &mut Vec::new(), &mut record);
            assert_eq!(plan.req_to_unique.len(), reqs.len());
            for (&(a, b), &u) in reqs.iter().zip(&plan.req_to_unique) {
                let entry = &plan.unique[u];
                // oriented like the cache: the shorter slice slides
                let (q, s) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                assert_eq!(SliceKey::of(entry.q), SliceKey::of(q));
                assert_eq!(SliceKey::of(entry.s), SliceKey::of(s));
                assert_eq!(entry.series_key, SliceKey::of(s));
                assert!(entry.q.len() <= entry.s.len());
            }
            // every distinct key pair once, every entry reached
            let keys: HashSet<_> = plan
                .unique
                .iter()
                .map(|r| (SliceKey::of(r.q), r.series_key))
                .collect();
            assert_eq!(keys.len(), plan.unique.len());
            let reached: HashSet<_> = plan.req_to_unique.iter().collect();
            assert_eq!(reached.len(), plan.unique.len());
            // series-contiguous: once the run of a series ends, it never
            // reappears
            let mut closed = HashSet::new();
            for pair in plan.unique.windows(2) {
                let (prev, next) = (pair[0].series_key, pair[1].series_key);
                if prev != next {
                    closed.insert(prev);
                    assert!(!closed.contains(&next), "class {c}: series split");
                }
            }
            // series groups appear in first-request order
            let mut first_seen = Vec::new();
            for &u in &plan.req_to_unique {
                let series = plan.unique[u].series_key;
                if !first_seen.contains(&series) {
                    first_seen.push(series);
                }
            }
            let mut grouped: Vec<_> = plan.unique.iter().map(|r| r.series_key).collect();
            grouped.dedup();
            assert_eq!(grouped, first_seen, "class {c}: group order");
        }
    }

    #[test]
    fn forced_kernel_scoring_matches_naive_scores() {
        // The engine's Auto crossover keeps the naive loop on short synth
        // series; this pins the FFT path itself: the engine's plan →
        // resolve → replay pipeline on a ForceKernel cache against the
        // naive reference scorer.
        use ips_distance::KernelPolicy;
        let (pool, train, cfg) = setup();
        let mut cache = DistCache::with_policy(KernelPolicy::ForceKernel);
        let mut unique_total = 0;
        for c in pool.classes() {
            let plain = score_exact(&pool, &train, &cfg, c);
            let plan = exact_request_plan(&pool, &train, c);
            let dists: Vec<f64> = plan
                .unique
                .iter()
                .map(|r| r.resolve(cfg.metric, &mut cache))
                .collect();
            unique_total += dists.len();
            let (forced, requests, own) =
                score_exact_replay(&pool, &train, c, &mut Vec::new(), &plan, &dists);
            assert_eq!(plain.len(), forced.len());
            assert_eq!(requests, plan.req_to_unique.len());
            for (i, (a, b)) in plain.iter().zip(&forced).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "class {c} candidate {i}: naive {a} vs forced-kernel {b}"
                );
            }
            // The motifs' own-instance distances come back motif-major.
            let instances = train.class_indices(c);
            assert_eq!(own.len(), plain.len() * instances.len());
            for (m, row) in pool.motifs_of(c).zip(own.chunks(instances.len())) {
                for (&t, &d) in instances.iter().zip(row) {
                    let want = compute_min_dist(&m.values, train.series(t).values(), cfg.metric);
                    assert!((d - want).abs() <= 1e-9 * (1.0 + want.abs()), "class {c}");
                }
            }
        }
        assert!(unique_total > 0);
        let stats = cache.stats();
        assert_eq!(stats.kernel_evals, unique_total);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn dt_cr_scores_are_finite_and_complete() {
        let (pool, train, cfg) = setup();
        let dabf = build_dabf(&pool, &cfg);
        for c in pool.classes() {
            let scores = score_dt_cr(&pool, &train, &dabf, &cfg, c);
            assert_eq!(scores.len(), pool.motifs_of(c).count());
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn shared_rank_tables_match_the_per_class_rebuild() {
        // Four classes, so each scored class folds three other tables.
        let spec = DatasetSpec::new("UtilT4", 4, 64, 16, 4).with_noise(0.15);
        let (train, _) = SynthGenerator::new(spec).generate().unwrap();
        let cfg = IpsConfig::default().with_sampling(5, 3).with_seed(2);
        let pool = generate_candidates(&train, &cfg);
        let dabf = build_dabf(&pool, &cfg);
        let shared = ClassRankTables::new(&pool, &dabf);
        assert_eq!(shared.tables.len(), 4);
        for c in pool.classes() {
            // The per-class rebuild: only the other classes' tables,
            // ranked afresh for this class.
            let rebuilt = ClassRankTables {
                tables: ClassRankTables::new(&pool, &dabf)
                    .tables
                    .into_iter()
                    .filter(|(o, _, _)| *o != c)
                    .collect(),
            };
            let (want, want_evals) = score_dt_cr_with(&pool, &train, &dabf, &cfg, c, &rebuilt);
            let (got, got_evals) = score_dt_cr_with(&pool, &train, &dabf, &cfg, c, &shared);
            assert_eq!(got_evals, want_evals, "class {c}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "class {c}");
            assert_eq!(
                bits(&score_dt_cr(&pool, &train, &dabf, &cfg, c)),
                bits(&want)
            );
        }
    }

    #[test]
    fn scores_are_not_all_tied() {
        // the saturation fix must keep candidates distinguishable
        let (pool, train, cfg) = setup();
        let exact = score_exact(&pool, &train, &cfg, 0);
        let distinct = exact
            .iter()
            .filter(|&&s| (s - exact[0]).abs() > 1e-9)
            .count();
        assert!(distinct > 0, "exact scores all tied: {exact:?}");
        let dabf = build_dabf(&pool, &cfg);
        let dt = score_dt_cr(&pool, &train, &dabf, &cfg, 0);
        let distinct = dt.iter().filter(|&&s| (s - dt[0]).abs() > 1e-9).count();
        assert!(distinct > 0, "dt scores all tied: {dt:?}");
    }

    #[test]
    fn empty_class_yields_empty_scores() {
        let (pool, train, cfg) = setup();
        assert!(score_exact(&pool, &train, &cfg, 99).is_empty());
        let dabf = build_dabf(&pool, &cfg);
        assert!(score_dt_cr(&pool, &train, &dabf, &cfg, 99).is_empty());
    }

    #[test]
    fn discriminative_candidate_scores_better_than_shared_one() {
        // Construct a pool by hand: class 0 has a candidate close to its
        // own instances and far from class 1 (good), plus one that sits in
        // both classes (bad).
        use crate::candidates::{Candidate, CandidateKind};
        use ips_lsh::embed as e;
        use ips_tsdata::TimeSeries;
        let dim = IpsConfig::default().embed_dim();
        let pat_good = vec![5.0, 6.0, 5.5, 6.5, 5.0];
        let pat_shared = vec![1.0, 1.5, 1.0, 1.5, 1.0];
        let mk_series = |pat: &[f64], at: usize| {
            let mut v = vec![0.0; 30];
            v[at..at + pat.len()].copy_from_slice(pat);
            TimeSeries::new(v)
        };
        // class 0 instances contain both patterns; class 1 only shared
        let train = Dataset::new(
            vec![
                mk_series(&pat_good, 4),
                mk_series(&pat_good, 10),
                mk_series(&pat_shared, 5),
                mk_series(&pat_shared, 12),
            ],
            vec![0, 0, 1, 1],
        )
        .unwrap();
        let mut pool = CandidatePool::default();
        let mk_cand = |values: &[f64], class: u32, kind| Candidate {
            values: values.to_vec(),
            class,
            kind,
            ip_value: 0.0,
            source_instance: 0,
            source_offset: 0,
            embedded: e(values, dim),
        };
        pool.push(mk_cand(&pat_good, 0, CandidateKind::Motif));
        pool.push(mk_cand(&pat_shared, 0, CandidateKind::Motif));
        pool.push(mk_cand(&pat_shared, 1, CandidateKind::Motif));
        let cfg = IpsConfig::default();
        let scores = score_exact(&pool, &train, &cfg, 0);
        assert!(
            scores[0] < scores[1],
            "good candidate {} should beat shared {}",
            scores[0],
            scores[1]
        );
    }
}

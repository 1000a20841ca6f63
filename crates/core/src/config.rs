//! Configuration of the IPS pipeline.

use std::time::Duration;

use ips_distance::KernelPolicy;
use ips_filter::DabfConfig;
use ips_lsh::LshParams;
use ips_profile::Metric;

use crate::error::IpsError;
use crate::schedule::ChunkSize;

/// Resource limits on a discovery run. Both limits default to `None`
/// (unlimited), keeping budgeted runs strictly opt-in: the bit-identity
/// guarantees of the equivalence suite apply to unbudgeted runs.
///
/// When a budget trips after partial progress, discovery returns
/// best-so-far shapelets with `degraded = true` on the result (and the run
/// record); only a budget so tight that *nothing* was produced surfaces
/// [`IpsError::BudgetExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiscoveryBudget {
    /// Wall-clock ceiling for the whole discovery run. Checked at stage
    /// boundaries and between per-class scoring units (never mid-kernel),
    /// so overshoot is bounded by one unit of work. Inherently
    /// nondeterministic — do not combine with bit-identity assertions.
    pub max_wall_clock: Option<Duration>,
    /// Ceiling on candidates carried past generation. Enforced by a
    /// deterministic truncation of the pooled candidates (stable order),
    /// so a budgeted run is reproducible for a fixed config.
    pub max_candidates: Option<usize>,
}

impl DiscoveryBudget {
    /// True when neither limit is set (the default).
    pub fn is_unlimited(&self) -> bool {
        self.max_wall_clock.is_none() && self.max_candidates.is_none()
    }
}

/// Sampling budget for [`SampledCandidateSource`]: how many of the inner
/// source's candidates survive sampling.
///
/// [`SampledCandidateSource`]: crate::sampling::SampledCandidateSource
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleBudget {
    /// Keep `ceil(fraction × pool_size)` candidates; must lie in `(0, 1]`.
    /// Under stratified sampling the fraction applies within each class.
    Fraction(f64),
    /// Keep at most this many candidates (≥ 1). Under stratified sampling
    /// the count is a *per-class* cap; otherwise it caps the pooled total.
    Count(usize),
}

impl SampleBudget {
    /// The target size this budget resolves to for a pool of `n`
    /// candidates: never more than `n`, and at least 1 whenever `n > 0`
    /// (sampling may thin a pool, never empty it).
    pub fn resolve(self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match self {
            SampleBudget::Fraction(f) => ((f * n as f64).ceil() as usize).clamp(1, n),
            SampleBudget::Count(c) => c.clamp(1, n),
        }
    }
}

/// Candidate-subsampling knob for sublinear discovery (Raza & Kramer
/// style randomized shapelets). `None` on [`IpsConfig`] keeps the dense
/// enumeration; `Some` wraps the configured source in a
/// [`SampledCandidateSource`] seeded from [`IpsConfig::seed`].
///
/// Sampling is a pure function of (inner pool, seed) — never of
/// `num_threads` or `chunk_size` — so the engine's bit-identity contract
/// extends to sampled runs.
///
/// [`SampledCandidateSource`]: crate::sampling::SampledCandidateSource
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSampling {
    /// How much of the pool survives.
    pub budget: SampleBudget,
    /// Class-stratified (the default): the budget applies within each
    /// class, and every class that produced a candidate keeps at least
    /// one. Unstratified: one global draw over the pooled candidates.
    pub stratified: bool,
}

impl CandidateSampling {
    /// Stratified sampling keeping `ceil(fraction · class_pool)` per class.
    pub fn fraction(fraction: f64) -> Self {
        Self {
            budget: SampleBudget::Fraction(fraction),
            stratified: true,
        }
    }

    /// Stratified sampling keeping at most `count` candidates per class.
    pub fn count(count: usize) -> Self {
        Self {
            budget: SampleBudget::Count(count),
            stratified: true,
        }
    }

    /// Builder-style override of the stratification flag.
    pub fn with_stratified(mut self, stratified: bool) -> Self {
        self.stratified = stratified;
        self
    }
}

/// All knobs of the IPS pipeline, matching the paper's parameter setting
/// (Section IV-A): shapelet number `k = 5`, candidate length ratios
/// `{0.1, 0.2, 0.3, 0.4, 0.5}`, sample number `Q_N ∈ {10, 20, 50, 100}`,
/// sample size `Q_S ∈ {2, 3, 4, 5, 10}`.
#[derive(Debug, Clone, PartialEq)]
pub struct IpsConfig {
    /// Shapelets per class (the paper's `k`, default 5).
    pub k: usize,
    /// Candidate lengths as ratios of the instance length.
    pub length_ratios: Vec<f64>,
    /// Number of samples per class (`Q_N`).
    pub num_samples: usize,
    /// Instances per sample (`Q_S`).
    pub sample_size: usize,
    /// Motif/discord candidates extracted per (sample, length) pair.
    /// Algorithm 1 takes exactly one of each (`1`); higher values extract
    /// the top-M under an exclusion zone, trading candidate-generation
    /// time for coverage (ablated in the `candidates` bench).
    pub motifs_per_sample: usize,
    /// Profile metric. The paper's Definition 4 is the raw mean-squared
    /// distance, available as [`Metric::MeanSquared`]; the default is the
    /// z-normalized variant because UCR instances arrive pre-normalized
    /// (the setting the paper's raw metric effectively operates in) and
    /// the raw metric is brittle on un-normalized data — see DESIGN.md §2.
    pub metric: Metric,
    /// DABF configuration (LSH family, histogram bins, σ rule).
    pub dabf: DabfConfig,
    /// Enable DABF pruning (off = keep all candidates; the Table V /
    /// Fig. 10a ablation).
    pub use_dabf: bool,
    /// Enable the DT & CR optimizations in top-k scoring (the Table V /
    /// Fig. 10b-c ablation).
    pub use_dt_cr: bool,
    /// Use z-normalized distances in the shapelet transform (default
    /// true, matching the profile metric default).
    pub znorm_transform: bool,
    /// Diversity guard strength in Algorithm 4: a candidate closer than
    /// `diversity × (mean pairwise embedded distance)` to an
    /// already-selected shapelet of its class is deferred. `0.0` (the
    /// default — the literal Algorithm 4) disables the guard; the
    /// `sweep_diversity` bench ablates it.
    pub diversity: f64,
    /// Master RNG seed (sampling, SVM shuffling).
    pub seed: u64,
    /// Worker threads for the discovery engine (`0` = available
    /// parallelism). Results are bit-identical at any thread count —
    /// candidate generation derives its RNG per class, and pruning /
    /// scoring parallelize over pure per-class units — so this is purely
    /// a throughput knob. Default `1` (sequential).
    pub num_threads: usize,
    /// The kernel policy of the distance caches that exact utility
    /// scoring and the classifier's training transform run through:
    /// `true` is [`KernelPolicy::Auto`], whose crossover picks the
    /// FFT/MASS kernel or the naive loop per request; `false` is
    /// [`KernelPolicy::ForceNaive`]. Either way every distance goes
    /// through the same caches and counters; selected shapelets are
    /// identical (pinned by the engine equivalence suite). Default `true`.
    pub use_fft_kernel: bool,
    /// Work-item granularity for the engine's scheduler
    /// ([`crate::schedule`]): how many units (candidates, probes,
    /// distance requests) each schedulable range carries. Like
    /// `num_threads` this is purely a throughput knob — the partition is
    /// a function of the workload and this knob alone, and results merge
    /// in fixed item order, so shapelets and work counters are identical
    /// at every chunk size (pinned by the equivalence suite). Default
    /// [`ChunkSize::Auto`].
    pub chunk_size: ChunkSize,
    /// Resource limits for discovery (default: unlimited). See
    /// [`DiscoveryBudget`] for the degradation semantics.
    pub budget: DiscoveryBudget,
    /// Candidate subsampling for sublinear discovery (default `None` =
    /// dense enumeration). See [`CandidateSampling`]; applied *before*
    /// [`DiscoveryBudget::max_candidates`], which then only stamps
    /// `degraded` when it cuts the already-sampled pool.
    pub candidate_sampling: Option<CandidateSampling>,
}

impl Default for IpsConfig {
    fn default() -> Self {
        Self {
            k: 5,
            length_ratios: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            num_samples: 10,
            sample_size: 5,
            motifs_per_sample: 3,
            metric: Metric::ZNormEuclidean,
            dabf: DabfConfig::default(),
            use_dabf: true,
            use_dt_cr: true,
            znorm_transform: true,
            diversity: 0.0,
            // Re-pinned when candidate RNG derivation moved to
            // per-(class, sample) streams: the default stream changed, and
            // this value keeps the IPS-vs-BASE quality suites winning
            // (quality across seeds is unchanged — see the suite docs).
            seed: 5,
            num_threads: 1,
            use_fft_kernel: true,
            chunk_size: ChunkSize::Auto,
            budget: DiscoveryBudget::default(),
            candidate_sampling: None,
        }
    }
}

impl IpsConfig {
    /// Resolves the candidate length grid for instances of length `n`:
    /// distinct lengths, each `ratio · n` rounded, floored at 8 samples —
    /// shorter z-normalized subsequences carry almost no shape and match
    /// everywhere, poisoning both utilities and the transform.
    pub fn lengths_for(&self, n: usize) -> Vec<usize> {
        let floor = 8.min(n.max(3));
        let mut ls: Vec<usize> = self
            .length_ratios
            .iter()
            .map(|r| ((r * n as f64).round() as usize).clamp(floor, n.max(floor)))
            .filter(|&l| l <= n)
            .collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// The LSH parameters inside the DABF config.
    pub fn lsh(&self) -> &LshParams {
        &self.dabf.lsh
    }

    /// Embedding dimension used for hashing candidates.
    pub fn embed_dim(&self) -> usize {
        self.dabf.lsh.dim
    }

    /// Builder-style override of the shapelet count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Builder-style override of the sampling parameters.
    pub fn with_sampling(mut self, num_samples: usize, sample_size: usize) -> Self {
        self.num_samples = num_samples;
        self.sample_size = sample_size;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the worker-thread count (`0` = available
    /// parallelism).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// The distance caches' kernel policy (see
    /// [`use_fft_kernel`](Self::use_fft_kernel)).
    pub(crate) fn kernel_policy(&self) -> KernelPolicy {
        if self.use_fft_kernel {
            KernelPolicy::Auto
        } else {
            KernelPolicy::ForceNaive
        }
    }

    /// Builder-style override of the scheduler's work-item granularity.
    pub fn with_chunk_size(mut self, chunk_size: ChunkSize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Builder-style override of the discovery budget.
    pub fn with_budget(mut self, budget: DiscoveryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style override of the candidate-sampling knob.
    pub fn with_candidate_sampling(mut self, sampling: CandidateSampling) -> Self {
        self.candidate_sampling = Some(sampling);
        self
    }

    /// Checks every knob for usability, returning
    /// [`IpsError::InvalidConfig`] naming the first offending field. Run
    /// by [`crate::engine::Engine::run`] and
    /// [`crate::pipeline::IpsClassifier::fit`] before any work starts.
    pub fn validate(&self) -> Result<(), IpsError> {
        fn bad(field: &'static str, message: impl Into<String>) -> Result<(), IpsError> {
            Err(IpsError::InvalidConfig {
                field,
                message: message.into(),
            })
        }
        if self.k == 0 {
            return bad("k", "must select at least one shapelet per class");
        }
        if self.length_ratios.is_empty() {
            return bad("length_ratios", "need at least one candidate length ratio");
        }
        if let Some(r) = self
            .length_ratios
            .iter()
            .find(|r| !r.is_finite() || **r <= 0.0 || **r > 1.0)
        {
            return bad("length_ratios", format!("ratio {r} is outside (0, 1]"));
        }
        if self.num_samples == 0 {
            return bad("num_samples", "need at least one sample per class");
        }
        if self.sample_size == 0 {
            return bad("sample_size", "need at least one instance per sample");
        }
        if self.motifs_per_sample == 0 {
            return bad(
                "motifs_per_sample",
                "need at least one motif/discord pair per sample",
            );
        }
        if !self.diversity.is_finite() || self.diversity < 0.0 {
            return bad(
                "diversity",
                format!("{} is not a finite non-negative factor", self.diversity),
            );
        }
        if self.chunk_size == ChunkSize::Fixed(0) {
            return bad(
                "chunk_size",
                "a fixed chunk must hold at least one work unit",
            );
        }
        if self.budget.max_candidates == Some(0) {
            return bad(
                "budget.max_candidates",
                "a zero candidate budget can never produce a result",
            );
        }
        if self.budget.max_wall_clock == Some(Duration::ZERO) {
            return bad(
                "budget.max_wall_clock",
                "a zero wall-clock budget can never produce a result",
            );
        }
        if let Some(sampling) = &self.candidate_sampling {
            match sampling.budget {
                SampleBudget::Fraction(f) if !f.is_finite() || f <= 0.0 || f > 1.0 => {
                    return bad(
                        "candidate_sampling.budget",
                        format!("fraction {f} is outside (0, 1]"),
                    );
                }
                SampleBudget::Count(0) => {
                    return bad(
                        "candidate_sampling.budget",
                        "a zero sample count can never produce a result",
                    );
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = IpsConfig::default();
        assert_eq!(c.k, 5);
        assert_eq!(c.length_ratios, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(c.use_dabf && c.use_dt_cr);
    }

    #[test]
    fn lengths_are_deduped_and_clamped() {
        let c = IpsConfig::default();
        let ls = c.lengths_for(100);
        assert_eq!(ls, vec![10, 20, 30, 40, 50]);
        // tiny series: every ratio clamps to the floor of 8
        let ls = c.lengths_for(10);
        assert_eq!(ls, vec![8]);
        // very short series: the floor itself clamps to the length
        let ls = c.lengths_for(4);
        assert_eq!(ls, vec![4]);
    }

    #[test]
    fn builders_apply() {
        let c = IpsConfig::default()
            .with_k(7)
            .with_sampling(3, 2)
            .with_seed(1)
            .with_threads(4);
        assert_eq!(c.k, 7);
        assert_eq!((c.num_samples, c.sample_size), (3, 2));
        assert_eq!(c.seed, 1);
        assert_eq!(c.num_threads, 4);
        assert!(c.embed_dim() > 0);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(IpsConfig::default().num_threads, 1);
    }

    #[test]
    fn validate_accepts_the_default_and_names_offending_fields() {
        assert!(IpsConfig::default().validate().is_ok());
        let cases: Vec<(IpsConfig, &str)> = vec![
            (IpsConfig::default().with_k(0), "k"),
            (
                IpsConfig {
                    length_ratios: vec![],
                    ..IpsConfig::default()
                },
                "length_ratios",
            ),
            (
                IpsConfig {
                    length_ratios: vec![0.2, f64::NAN],
                    ..IpsConfig::default()
                },
                "length_ratios",
            ),
            (IpsConfig::default().with_sampling(0, 3), "num_samples"),
            (IpsConfig::default().with_sampling(5, 0), "sample_size"),
            (
                IpsConfig {
                    diversity: f64::INFINITY,
                    ..IpsConfig::default()
                },
                "diversity",
            ),
            (
                IpsConfig::default().with_chunk_size(ChunkSize::Fixed(0)),
                "chunk_size",
            ),
            (
                IpsConfig::default().with_budget(DiscoveryBudget {
                    max_candidates: Some(0),
                    ..DiscoveryBudget::default()
                }),
                "budget.max_candidates",
            ),
            (
                IpsConfig::default().with_budget(DiscoveryBudget {
                    max_wall_clock: Some(Duration::ZERO),
                    ..DiscoveryBudget::default()
                }),
                "budget.max_wall_clock",
            ),
            (
                IpsConfig::default().with_candidate_sampling(CandidateSampling::fraction(0.0)),
                "candidate_sampling.budget",
            ),
            (
                IpsConfig::default().with_candidate_sampling(CandidateSampling::fraction(f64::NAN)),
                "candidate_sampling.budget",
            ),
            (
                IpsConfig::default().with_candidate_sampling(CandidateSampling::fraction(1.5)),
                "candidate_sampling.budget",
            ),
            (
                IpsConfig::default().with_candidate_sampling(CandidateSampling::count(0)),
                "candidate_sampling.budget",
            ),
        ];
        for (cfg, want) in cases {
            match cfg.validate() {
                Err(IpsError::InvalidConfig { field, .. }) => assert_eq!(field, want),
                other => panic!("{want}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn sample_budget_resolves_within_pool_bounds() {
        assert_eq!(SampleBudget::Fraction(0.1).resolve(100), 10);
        assert_eq!(SampleBudget::Fraction(0.1).resolve(5), 1); // ceil + floor of 1
        assert_eq!(SampleBudget::Fraction(1.0).resolve(7), 7);
        assert_eq!(SampleBudget::Count(3).resolve(100), 3);
        assert_eq!(SampleBudget::Count(300).resolve(100), 100);
        assert_eq!(SampleBudget::Fraction(0.5).resolve(0), 0);
        assert_eq!(SampleBudget::Count(5).resolve(0), 0);
    }

    #[test]
    fn sampled_configs_validate() {
        assert!(IpsConfig::default()
            .with_candidate_sampling(CandidateSampling::fraction(0.25))
            .validate()
            .is_ok());
        assert!(IpsConfig::default()
            .with_candidate_sampling(CandidateSampling::count(8).with_stratified(false))
            .validate()
            .is_ok());
    }

    #[test]
    fn budget_default_is_unlimited() {
        assert!(DiscoveryBudget::default().is_unlimited());
        assert!(!DiscoveryBudget {
            max_candidates: Some(10),
            ..DiscoveryBudget::default()
        }
        .is_unlimited());
    }
}

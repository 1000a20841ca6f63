//! The staged discovery engine — a trait-based decomposition of the
//! pipeline into its three stages plus a shared execution context.
//!
//! IPS and the engine-hosted baselines (`ips-baselines`) share one
//! generate → prune → select skeleton:
//!
//! - [`CandidateSource`] — stage 1, Algorithm 1 (or a baseline's
//!   enumeration strategy): produce the candidate pool.
//! - [`Pruner`] — stages 2–3, Algorithms 2 & 3 (DABF build + pruning),
//!   or [`NoopPruner`] for methods without a pruning phase.
//! - [`Selector`] — stage 4, Algorithm 4 (utility scoring + top-k), or a
//!   simpler ranking rule.
//!
//! An [`Engine`] composes one implementation of each and drives them with
//! a shared [`ExecContext`] that carries a [`WorkerPool`] (deterministic
//! class-parallel execution), reusable [`Scratch`] buffers, and the
//! telemetry sink: every stage emits a [`StageReport`] (wall-clock plus
//! [`StageCounters`]) into a [`RunReport`], and an optional
//! [`StageObserver`] sees each report the moment the stage finishes.
//!
//! Parallelism never changes results: stages decompose into
//! [`crate::schedule::WorkItem`] ranges *within* each class (generation
//! samples, pruning probe ranges, unique-distance batches), each item a
//! pure function of immutable inputs, and item outputs merge in fixed
//! class-major order. The partition depends only on the workload and the
//! [`chunk_size`](crate::IpsConfig::chunk_size) knob — never the thread
//! count — so results are bit-identical to the monolithic reference at
//! any thread count and chunk size, and counters at any thread count
//! (enforced by the `engine_equivalence` test suite).
//!
//! **Robustness contract** (DESIGN.md §10): the engine never aborts on
//! malformed input or a misbehaving stage. Configurations and training
//! sets are validated up front ([`IpsConfig::validate`],
//! `Dataset::validate`), every stage closure runs under `catch_unwind`
//! (a panic becomes [`IpsError::StageFailed`] and sibling worker tasks
//! still complete), and a [`DiscoveryBudget`] turns resource exhaustion
//! into a *degraded* best-so-far result instead of an error. A seeded
//! [`FaultPlan`] can inject each of these failures deliberately; the
//! default plan is inert.
//!
//! [`DiscoveryBudget`]: crate::config::DiscoveryBudget
//! [`IpsError::StageFailed`]: crate::IpsError::StageFailed

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ips_classify::Shapelet;
use ips_distance::{CacheStats, DistCache};
use ips_filter::Dabf;
use ips_obs::{MetricsRegistry, MetricsSnapshot, RunRecord};
use ips_profile::PairTable;
use ips_tsdata::Dataset;

use crate::candidates::{sample_candidates, CandidatePool};
use crate::config::IpsConfig;
use crate::error::IpsError;
use crate::fault::FaultPlan;
use crate::pipeline::DiscoveryResult;
use crate::pool::{panic_message, WorkerPool};
use crate::pruning::{
    apply_survivors, build_dabf, dabf_survivors_range, naive_filters, naive_survivors_range,
};
use crate::schedule::TaskPartition;
use crate::topk::select_class_from_scores;
use crate::utility::{exact_request_plan, score_dt_cr_counted, score_exact_replay, ClassRequests};

// ---------------------------------------------------------------------------
// Telemetry: stages, counters, reports, observers
// ---------------------------------------------------------------------------

/// The four pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Algorithm 1 — candidate generation.
    CandidateGen,
    /// Algorithm 2 — DABF construction (absent or zero-length for
    /// pruner implementations that build no filter).
    DabfBuild,
    /// Algorithm 3 — candidate pruning.
    Pruning,
    /// Algorithm 4 — utility scoring and top-k selection.
    TopK,
}

impl Stage {
    /// Human-readable stage name (used in bench tables).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::CandidateGen => "candidate_gen",
            Stage::DabfBuild => "dabf_build",
            Stage::Pruning => "pruning",
            Stage::TopK => "top_k",
        }
    }

    /// All stages, in order.
    pub const ALL: [Stage; 4] = [
        Stage::CandidateGen,
        Stage::DabfBuild,
        Stage::Pruning,
        Stage::TopK,
    ];
}

/// Work counters attached to a stage report. Only the counters that make
/// sense for a stage are non-zero; the rest stay at their defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Candidates entering the stage.
    pub candidates_in: usize,
    /// Candidates leaving the stage (for [`Stage::TopK`]: shapelets).
    pub candidates_out: usize,
    /// Per-class filter membership queries issued (pruning stages).
    pub dabf_probes: usize,
    /// Utility evaluations: distance computations or rank/abs-dev queries
    /// (selection stages). Exact scoring counts *requests*, so there
    /// `utility_evals == kernel_evals + cache_hits`.
    pub utility_evals: usize,
    /// Sliding distances actually computed by the distance cache (misses,
    /// served by the FFT kernel or the naive loop). Zero when the stage
    /// issues no sliding distances.
    pub kernel_evals: usize,
    /// Sliding-distance requests answered from an earlier request's
    /// distance: the duplicates exact scoring's request plan dropped
    /// before any shard computed them.
    pub cache_hits: usize,
    /// Kernel evaluations that degraded to the naive scorer (non-finite
    /// input or an injected kernel failure). Always a subset of
    /// `kernel_evals`, so the partition `utility_evals == kernel_evals +
    /// cache_hits` is undisturbed.
    pub kernel_fallbacks: usize,
    /// Work items the stage dispatched through the scheduler
    /// ([`crate::schedule::TaskPartition`]). A pure function of the
    /// workload and the `chunk_size` knob — invariant across thread
    /// counts (asserted by the obs integration suite), but it *does*
    /// change with `chunk_size` by definition.
    pub sched_items: usize,
    /// Candidates kept by a [`crate::sampling::SampledCandidateSource`]
    /// wrapped around the stage's generator. Zero for dense (unsampled)
    /// runs; for sampled runs it equals the stage's `candidates_out`
    /// while `candidates_in` holds the inner source's dense pool size,
    /// so one record shows how much sampling shrank the pool. A pure
    /// function of (workload, seed) — thread- and chunk-invariant.
    pub sampled_candidates: usize,
}

impl StageCounters {
    /// Component-wise sum.
    pub fn merge(self, other: StageCounters) -> StageCounters {
        StageCounters {
            candidates_in: self.candidates_in + other.candidates_in,
            candidates_out: self.candidates_out + other.candidates_out,
            dabf_probes: self.dabf_probes + other.dabf_probes,
            utility_evals: self.utility_evals + other.utility_evals,
            kernel_evals: self.kernel_evals + other.kernel_evals,
            cache_hits: self.cache_hits + other.cache_hits,
            kernel_fallbacks: self.kernel_fallbacks + other.kernel_fallbacks,
            sched_items: self.sched_items + other.sched_items,
            sampled_candidates: self.sampled_candidates + other.sampled_candidates,
        }
    }

    /// The counters as `(name, value)` pairs — the single source of the
    /// field names used in metrics keys, serialized records, and the
    /// rendered table, so the three views cannot drift apart.
    pub fn fields(&self) -> [(&'static str, usize); 9] {
        [
            ("candidates_in", self.candidates_in),
            ("candidates_out", self.candidates_out),
            ("dabf_probes", self.dabf_probes),
            ("utility_evals", self.utility_evals),
            ("kernel_evals", self.kernel_evals),
            ("cache_hits", self.cache_hits),
            ("kernel_fallbacks", self.kernel_fallbacks),
            ("sched_items", self.sched_items),
            ("sampled_candidates", self.sampled_candidates),
        ]
    }
}

/// One finished stage: what ran, for how long, and how much work it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage this report describes.
    pub stage: Stage,
    /// Wall-clock time of the stage.
    pub elapsed: Duration,
    /// Work counters.
    pub counters: StageCounters,
}

/// Hook invoked as each stage completes — the replacement for ad-hoc
/// `Instant::now()` bracketing in benches and callers. Implementations
/// must not assume all four stages fire (a pruner may skip
/// [`Stage::DabfBuild`]).
pub trait StageObserver {
    /// Called once per completed stage, in execution order.
    fn on_stage(&mut self, report: &StageReport);
}

/// A [`StageObserver`] that collects reports into a vector — convenient
/// for tests and benches.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// The reports observed so far, in arrival order.
    pub reports: Vec<StageReport>,
}

impl StageObserver for CollectingObserver {
    fn on_stage(&mut self, report: &StageReport) {
        self.reports.push(*report);
    }
}

/// The full telemetry of one engine run: every stage report, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    stages: Vec<StageReport>,
}

impl RunReport {
    /// Assembles a report from externally collected stage reports (e.g. a
    /// [`CollectingObserver`] attached to an engine without keeping the
    /// [`DiscoveryResult`]).
    pub fn from_reports(stages: Vec<StageReport>) -> Self {
        Self { stages }
    }

    /// All stage reports, in execution order.
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// The report of one stage, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Elapsed time of one stage (zero when it did not run).
    pub fn elapsed(&self, stage: Stage) -> Duration {
        self.stage(stage)
            .map(|r| r.elapsed)
            .unwrap_or(Duration::ZERO)
    }

    /// Total wall-clock across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|r| r.elapsed).sum()
    }

    /// Counters summed over all stages.
    pub fn counters(&self) -> StageCounters {
        self.stages
            .iter()
            .fold(StageCounters::default(), |acc, r| acc.merge(r.counters))
    }

    /// Candidates produced by Algorithm 1: the candidate-generation
    /// stage's output (for a sampled source, the sampled pool), before
    /// any `max_candidates` budget cut. Zero when the stage did not run.
    pub fn candidates_generated(&self) -> usize {
        self.stage(Stage::CandidateGen)
            .map_or(0, |r| r.counters.candidates_out)
    }

    /// Candidates removed by pruning (Algorithm 3): the pruning stage's
    /// input minus its output. Candidates cut by a `max_candidates`
    /// budget never enter the stage, so they are not counted here.
    pub fn candidates_pruned(&self) -> usize {
        self.stage(Stage::Pruning).map_or(0, |r| {
            r.counters
                .candidates_in
                .saturating_sub(r.counters.candidates_out)
        })
    }

    /// Renders a fixed-width per-stage table (used by the bench bins).
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "stage           time_ms      in     out  probes   evals  kevals    hits  fbacks   items sampled\n",
        );
        for r in &self.stages {
            out.push_str(&format!(
                "{:<14} {:>8.2} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
                r.stage.name(),
                r.elapsed.as_secs_f64() * 1e3,
                r.counters.candidates_in,
                r.counters.candidates_out,
                r.counters.dabf_probes,
                r.counters.utility_evals,
                r.counters.kernel_evals,
                r.counters.cache_hits,
                r.counters.kernel_fallbacks,
                r.counters.sched_items,
                r.counters.sampled_candidates,
            ));
        }
        out.push_str(&format!(
            "{:<14} {:>8.2}\n",
            "total",
            self.total().as_secs_f64() * 1e3
        ));
        out
    }

    /// The report as a metrics snapshot: one `stage.{name}` span per
    /// stage report plus one `{name}.{counter}` counter per non-zero
    /// [`StageCounters`] field — the serialized view consumed by
    /// `bench_pipeline` and `scripts/check_bench.py`. Repeated reports of
    /// the same stage fold additively (span count > 1, counters summed),
    /// so the snapshot's totals always agree with
    /// [`counters`](RunReport::counters).
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        for r in &self.stages {
            let ns = u64::try_from(r.elapsed.as_nanos()).unwrap_or(u64::MAX);
            registry.observe_ns(&format!("stage.{}", r.stage.name()), ns);
            for (field, value) in r.counters.fields() {
                if value > 0 {
                    registry.incr(&format!("{}.{field}", r.stage.name()), value as u64);
                }
            }
        }
        registry.snapshot()
    }

    /// The report as a versioned [`RunRecord`] with the given identity —
    /// what runners serialize to disk.
    pub fn to_record(&self, kind: &str, label: &str) -> RunRecord {
        RunRecord::new(kind, label).with_metrics(self.to_metrics())
    }
}

// ---------------------------------------------------------------------------
// Execution context: worker pool + scratch + telemetry sink
// ---------------------------------------------------------------------------

/// Reusable scratch state shared across stages of one run: recycled
/// buffers for the exact-scoring replay pass, and the run's accumulated
/// [`DistCache`] — per-series plans (window statistics, FFT spectra) and
/// FFT tables that later stages (and, via
/// [`ExecContext::take_dist_cache`], the shapelet transform after
/// discovery) reuse instead of recomputing.
#[derive(Debug, Default)]
pub struct Scratch {
    f64_bufs: Vec<Vec<f64>>,
    dist_cache: DistCache,
}

impl Scratch {
    /// Takes a cleared `f64` buffer (recycled if one is available).
    pub fn take_f64(&mut self) -> Vec<f64> {
        let mut buf = self.f64_bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a buffer for reuse.
    pub fn recycle_f64(&mut self, buf: Vec<f64>) {
        self.f64_bufs.push(buf);
    }

    /// The run's accumulated distance cache.
    pub fn dist_cache(&mut self) -> &mut DistCache {
        &mut self.dist_cache
    }

    /// Folds a stage-local cache (e.g. one class's worker cache) into the
    /// run cache. Callers merge in deterministic class order.
    pub fn absorb_dist_cache(&mut self, cache: DistCache) {
        self.dist_cache.absorb(cache);
    }
}

/// Per-run execution state handed to every stage: worker pool, scratch
/// buffers, and the telemetry sinks (the structured [`RunReport`] plus a
/// shared [`MetricsRegistry`] every recorded stage is mirrored into).
pub struct ExecContext<'o> {
    workers: WorkerPool,
    scratch: Scratch,
    report: RunReport,
    metrics: MetricsRegistry,
    observer: Option<&'o mut dyn StageObserver>,
    faults: FaultPlan,
    deadline: Option<Instant>,
    sched_notes: Vec<(Stage, usize)>,
    counter_notes: Vec<(Stage, StageCounters)>,
}

impl<'o> ExecContext<'o> {
    /// A context running on `workers` with no observer attached.
    pub fn new(workers: WorkerPool) -> Self {
        Self {
            workers,
            scratch: Scratch::default(),
            report: RunReport::default(),
            metrics: MetricsRegistry::new(),
            observer: None,
            faults: FaultPlan::default(),
            deadline: None,
            sched_notes: Vec::new(),
            counter_notes: Vec::new(),
        }
    }

    /// Attaches a [`StageObserver`] that sees each stage as it finishes.
    pub fn with_observer(mut self, observer: &'o mut dyn StageObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Shares an external [`MetricsRegistry`] (replacing the context's
    /// own): stages recorded here land next to whatever else the caller
    /// measures — classifier heads, baseline sweeps, bench loops.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// The context's metrics registry (clone it to share: clones view the
    /// same underlying state).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The worker pool (stages may call [`WorkerPool::run`]).
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// The run's fault plan (inert unless the engine was built with
    /// [`Engine::with_faults`]). Stage implementations consult it for the
    /// faults they own — e.g. the selector arms the distance cache's
    /// forced kernel failure.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The wall-clock deadline from the run's [`DiscoveryBudget`]
    /// (`None` when unlimited), and whether it has already passed.
    ///
    /// [`DiscoveryBudget`]: crate::config::DiscoveryBudget
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True when a deadline is set and has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The shared scratch buffers.
    pub fn scratch(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// Detaches the run's accumulated distance cache — the classifier
    /// hands it to the shapelet transform so the transform starts from the
    /// training series' plans discovery already built.
    pub fn take_dist_cache(&mut self) -> DistCache {
        std::mem::take(self.scratch.dist_cache())
    }

    /// Buffers a stage's scheduler work-item count until that stage's
    /// [`record`](ExecContext::record) call drains it into the stage
    /// counters. Stage-keyed rather than "most recent" because a stage
    /// body may run before an *earlier* stage label is recorded (the
    /// pruner executes before both the `DabfBuild` and `Pruning` records
    /// are written).
    pub fn note_sched_items(&mut self, stage: Stage, items: usize) {
        self.sched_notes.push((stage, items));
    }

    /// Buffers extra counters for a stage until its
    /// [`record`](ExecContext::record) call merges them in — the general
    /// form of [`note_sched_items`](ExecContext::note_sched_items), used
    /// by stage *wrappers* (e.g.
    /// [`SampledCandidateSource`](crate::sampling::SampledCandidateSource))
    /// that add telemetry to a stage whose record the engine writes.
    pub fn note_counters(&mut self, stage: Stage, counters: StageCounters) {
        self.counter_notes.push((stage, counters));
    }

    /// Records a finished stage: drains any buffered
    /// [`note_sched_items`](ExecContext::note_sched_items) for it into
    /// the counters, forwards the report to the observer, appends it to
    /// the run report, and mirrors it into the metrics registry (a
    /// `stage.{name}` span plus `{name}.{counter}` counters, matching
    /// [`RunReport::to_metrics`]).
    pub fn record(&mut self, stage: Stage, elapsed: Duration, counters: StageCounters) {
        let mut counters = counters;
        self.sched_notes.retain(|&(s, items)| {
            if s == stage {
                counters.sched_items += items;
                false
            } else {
                true
            }
        });
        self.counter_notes.retain(|&(s, noted)| {
            if s == stage {
                counters = counters.merge(noted);
                false
            } else {
                true
            }
        });
        let report = StageReport {
            stage,
            elapsed,
            counters,
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_stage(&report);
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.metrics
            .observe_ns(&format!("stage.{}", stage.name()), ns);
        for (field, value) in counters.fields() {
            if value > 0 {
                self.metrics
                    .incr(&format!("{}.{field}", stage.name()), value as u64);
            }
        }
        self.report.stages.push(report);
    }

    /// Consumes the context, yielding the accumulated telemetry.
    pub fn into_report(self) -> RunReport {
        self.report
    }
}

// ---------------------------------------------------------------------------
// Stage traits
// ---------------------------------------------------------------------------

/// Stage 1: produce the candidate pool. Implementations own their
/// configuration, so methods with different parameter sets (IPS,
/// baselines) fit the same trait.
pub trait CandidateSource: Send + Sync {
    /// Generates the pool from the training set.
    fn generate(&self, train: &Dataset, ctx: &mut ExecContext) -> Result<CandidatePool, IpsError>;
}

/// Outcome of the pruning stage.
pub struct PruneOutcome {
    /// The filter, when one was built (needed by DT selection).
    pub dabf: Option<Dabf>,
    /// Time spent building the filter (reported as [`Stage::DabfBuild`];
    /// zero when no filter is built).
    pub dabf_build: Duration,
    /// Filter membership queries issued.
    pub probes: usize,
}

/// Stages 2–3: build the filter (if any) and prune the pool in place.
pub trait Pruner: Send + Sync {
    /// Prunes `pool`, returning what was removed and what was built.
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError>;
}

/// Outcome of the selection stage.
pub struct Selection {
    /// Selected shapelets, grouped per class, best-first within a class.
    pub shapelets: Vec<Shapelet>,
    /// Utility evaluations performed (distance *requests* when the
    /// distance cache is active).
    pub utility_evals: usize,
    /// Distance-cache work: computed evaluations + deduplicated requests.
    /// Zero for selectors that issue no sliding distances (DT+CR,
    /// rank-based).
    pub cache_stats: CacheStats,
    /// Per shapelet, its distances to the instances of its class (in
    /// [`Dataset::class_indices`] order) as scoring computed them; rows are
    /// empty, or the list short, where the selector computed none.
    pub own_class_dists: Vec<Vec<f64>>,
    /// True when a [`DiscoveryBudget`](crate::config::DiscoveryBudget)
    /// deadline cut scoring short — the shapelets are the best of the
    /// classes that were scored, not all of them.
    pub degraded: bool,
}

/// Stage 4: score the surviving candidates and select the shapelets.
pub trait Selector: Send + Sync {
    /// Selects shapelets from the pruned pool.
    fn select(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        dabf: Option<&Dabf>,
        ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError>;
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// A composed discovery pipeline: one [`CandidateSource`], one
/// [`Pruner`], one [`Selector`], driven stage by stage with uniform
/// timing and counting.
pub struct Engine {
    source: Box<dyn CandidateSource>,
    pruner: Box<dyn Pruner>,
    selector: Box<dyn Selector>,
    workers: WorkerPool,
    config: Option<IpsConfig>,
    faults: FaultPlan,
}

impl Engine {
    /// Composes an engine from explicit stages (no configuration to
    /// validate, no discovery budget).
    pub fn new(
        source: Box<dyn CandidateSource>,
        pruner: Box<dyn Pruner>,
        selector: Box<dyn Selector>,
    ) -> Self {
        Self {
            source,
            pruner,
            selector,
            workers: WorkerPool::new(1),
            config: None,
            faults: FaultPlan::default(),
        }
    }

    /// The standard IPS composition for a configuration: profile-based
    /// generation, DABF (or naive) pruning, utility selection, with the
    /// worker pool sized by `config.num_threads`. The configuration is
    /// kept, so every run validates it and honors its
    /// [`DiscoveryBudget`](crate::config::DiscoveryBudget).
    pub fn from_config(config: &IpsConfig) -> Self {
        let pruner: Box<dyn Pruner> = if config.use_dabf {
            Box::new(DabfPruner::new(config.clone()))
        } else {
            Box::new(NaivePruner::new(config.clone()))
        };
        let mut source: Box<dyn CandidateSource> =
            Box::new(ProfileCandidateSource::new(config.clone()));
        if let Some(sampling) = config.candidate_sampling {
            source = Box::new(crate::sampling::SampledCandidateSource::new(
                source,
                sampling,
                config.seed,
            ));
        }
        Self {
            source,
            pruner,
            selector: Box::new(UtilitySelector::new(config.clone())),
            workers: WorkerPool::new(config.num_threads),
            config: Some(config.clone()),
            faults: FaultPlan::default(),
        }
    }

    /// Overrides the worker pool.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Arms a fault plan for every subsequent run (chaos testing only;
    /// the default plan is inert).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// A fresh execution context sized for this engine's worker pool —
    /// pass it to [`run_with_ctx`] to retain post-run state (notably the
    /// distance cache) that [`run`] would discard.
    ///
    /// [`run`]: Engine::run
    /// [`run_with_ctx`]: Engine::run_with_ctx
    pub fn make_context(&self) -> ExecContext<'static> {
        ExecContext::new(self.workers.clone())
    }

    /// Runs the staged pipeline.
    pub fn run(&self, train: &Dataset) -> Result<DiscoveryResult, IpsError> {
        let mut ctx = ExecContext::new(self.workers.clone());
        self.run_with_ctx(train, &mut ctx)
    }

    /// Runs the staged pipeline, reporting each stage to `observer` as it
    /// completes.
    pub fn run_with_observer(
        &self,
        train: &Dataset,
        observer: &mut dyn StageObserver,
    ) -> Result<DiscoveryResult, IpsError> {
        let mut ctx = ExecContext::new(self.workers.clone()).with_observer(observer);
        self.run_with_ctx(train, &mut ctx)
    }

    /// Runs the staged pipeline in a caller-owned context, leaving
    /// post-run state (scratch buffers, the accumulated distance cache)
    /// available on `ctx` afterwards.
    ///
    /// Validates the configuration (when the engine holds one) and the
    /// training set before any stage runs; runs every stage under a
    /// panic guard ([`IpsError::StageFailed`]); and enforces the
    /// configuration's [`DiscoveryBudget`], degrading to a best-so-far
    /// result (`degraded = true`) when a limit trips mid-run.
    ///
    /// [`DiscoveryBudget`]: crate::config::DiscoveryBudget
    pub fn run_with_ctx(
        &self,
        train: &Dataset,
        ctx: &mut ExecContext,
    ) -> Result<DiscoveryResult, IpsError> {
        if let Some(config) = &self.config {
            config.validate()?;
        }
        // Data faults corrupt a private copy before validation — the
        // validation pass is exactly what must catch them.
        let corrupted;
        let train = if self.faults.is_inert() {
            train
        } else {
            corrupted = self.faults.corrupt_dataset(train);
            &corrupted
        };
        train.validate()?;

        let budget = self.config.as_ref().map(|c| c.budget).unwrap_or_default();
        ctx.deadline = budget.max_wall_clock.map(|limit| Instant::now() + limit);
        ctx.faults = self.faults.clone();
        let faults = &self.faults;
        let mut degraded = false;

        // Stage 1: candidate generation.
        let t0 = Instant::now();
        let mut pool = guard(Stage::CandidateGen, || {
            faults.trip_stage_panic(Stage::CandidateGen);
            self.source.generate(train, ctx)
        })?;
        let generated = pool.len();
        ctx.record(
            Stage::CandidateGen,
            t0.elapsed(),
            StageCounters {
                candidates_out: generated,
                ..Default::default()
            },
        );
        if pool.is_empty() {
            return Err(IpsError::NoCandidates);
        }
        // `max_candidates` applies to the pool the source *emitted* — for
        // a sampled source that is the already-subsampled pool, so the
        // budget stamps `degraded` only when it cuts the sampled pool
        // itself, never merely because the dense pre-sampling pool was
        // larger (pinned by `sampling_budget` in the equivalence suite).
        if let Some(max) = budget.max_candidates {
            if pool.len() > max {
                pool.truncate(max);
                degraded = true;
            }
        }

        // Stages 2–3: filter construction + pruning. The pruner reports
        // one combined wall-clock; the engine splits out the build time
        // it declares so DabfBuild and Pruning stay separately visible.
        // A deadline that already passed skips pruning entirely (the
        // selector copes with an unpruned pool; the DT optimization
        // silently falls back to exact scoring without a DABF).
        let entering = pool.len();
        let t1 = Instant::now();
        let outcome = if ctx.deadline_exceeded() {
            degraded = true;
            PruneOutcome {
                dabf: None,
                dabf_build: Duration::ZERO,
                probes: 0,
            }
        } else {
            let label = if faults.should_panic(Stage::DabfBuild) {
                Stage::DabfBuild
            } else {
                Stage::Pruning
            };
            guard(label, || {
                faults.trip_stage_panic(Stage::DabfBuild);
                faults.trip_stage_panic(Stage::Pruning);
                self.pruner.prune(&mut pool, ctx)
            })?
        };
        let prune_total = t1.elapsed();
        ctx.record(
            Stage::DabfBuild,
            outcome.dabf_build,
            StageCounters::default(),
        );
        ctx.record(
            Stage::Pruning,
            prune_total.saturating_sub(outcome.dabf_build),
            StageCounters {
                candidates_in: entering,
                candidates_out: pool.len(),
                dabf_probes: outcome.probes,
                ..Default::default()
            },
        );

        // Stage 4: selection.
        let t2 = Instant::now();
        let survivors = pool.len();
        let selection = guard(Stage::TopK, || {
            faults.trip_stage_panic(Stage::TopK);
            self.selector
                .select(&pool, train, outcome.dabf.as_ref(), ctx)
        })?;
        degraded |= selection.degraded;
        ctx.record(
            Stage::TopK,
            t2.elapsed(),
            StageCounters {
                candidates_in: survivors,
                candidates_out: selection.shapelets.len(),
                utility_evals: selection.utility_evals,
                kernel_evals: selection.cache_stats.kernel_evals,
                cache_hits: selection.cache_stats.cache_hits,
                kernel_fallbacks: selection.cache_stats.kernel_fallbacks,
                ..Default::default()
            },
        );
        if selection.shapelets.is_empty() {
            return Err(if degraded {
                IpsError::BudgetExhausted {
                    budget: if ctx.deadline.is_some() {
                        "max_wall_clock"
                    } else {
                        "max_candidates"
                    },
                    detail: "budget tripped before any shapelet was selected".to_string(),
                }
            } else {
                IpsError::NoCandidates
            });
        }

        Ok(DiscoveryResult {
            shapelets: selection.shapelets,
            own_class_dists: selection.own_class_dists,
            degraded,
            report: std::mem::take(&mut ctx.report),
        })
    }
}

/// Runs one stage closure under `catch_unwind`: a panic anywhere in the
/// stage (its own code or a worker task re-panic) becomes
/// [`IpsError::StageFailed`] carrying the stage name and the panic
/// message, so one bad stage can never abort the caller.
fn guard<T>(stage: Stage, f: impl FnOnce() -> Result<T, IpsError>) -> Result<T, IpsError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(IpsError::StageFailed {
            stage: stage.name(),
            reason: panic_message(payload.as_ref()),
        }),
    }
}

// ---------------------------------------------------------------------------
// Default IPS stage implementations
// ---------------------------------------------------------------------------

/// Algorithm 1 as a [`CandidateSource`]: sample-granular instance-profile
/// sampling on the work-item scheduler — the "distributed IPS" direction
/// named as future work in the paper's conclusion. The unit of work is
/// one *(class, sample)* pair, so generation fans out across the whole
/// [`WorkerPool`] even on a 2-class dataset. Bit-identical to the
/// sequential [`crate::candidates::generate_candidates`] at any worker
/// count and chunk size: each sample derives its RNG stream from `(seed,
/// class, sample)`, and items merge in class-major, sample order
/// ([`TaskPartition::run`] preserves item order).
///
/// The stage owns one [`PairTable`]: a class's samples overlap, so each
/// instance pair is joined once per length for the whole stage instead of
/// once per sample that draws it, and a profile built from the table is
/// bit-identical to one computed alone.
pub struct ProfileCandidateSource {
    config: IpsConfig,
}

impl ProfileCandidateSource {
    /// A source for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl CandidateSource for ProfileCandidateSource {
    fn generate(&self, train: &Dataset, ctx: &mut ExecContext) -> Result<CandidatePool, IpsError> {
        let classes = train.classes();
        let units = vec![self.config.num_samples.max(1); classes.len()];
        let partition = TaskPartition::new(&units, self.config.chunk_size);
        ctx.note_sched_items(Stage::CandidateGen, partition.len());
        let pairs = PairTable::new(self.config.metric);
        let per_item = partition.run(ctx.workers(), |item| {
            let class = classes[item.class_idx];
            let mut out = Vec::new();
            for sample_idx in item.start..item.end {
                out.extend(sample_candidates(
                    train,
                    class,
                    sample_idx,
                    &self.config,
                    &pairs,
                ));
            }
            out
        });
        let mut pool = CandidatePool::default();
        for c in per_item.into_iter().flatten() {
            pool.push(c);
        }
        Ok(pool)
    }
}

/// Partitions each class's candidate list into probe ranges, evaluates
/// `survivors` over every range on the scheduler, and applies the
/// concatenated flags per class; returns the filter probes issued.
/// Shared skeleton of [`DabfPruner`] and [`NaivePruner`]: each flag is a
/// pure function of the immutable filter(s) and one candidate, and probe
/// counts sum, so any chunking reproduces the sequential pass
/// bit-for-bit.
fn prune_scheduled(
    pool: &mut CandidatePool,
    ctx: &mut ExecContext,
    chunk: crate::schedule::ChunkSize,
    survivors: impl Fn(&CandidatePool, u32, usize, usize) -> (Vec<bool>, usize) + Sync,
) -> usize {
    let classes = pool.classes();
    let units: Vec<usize> = classes.iter().map(|&c| pool.of_class(c).len()).collect();
    let partition = TaskPartition::new(&units, chunk);
    ctx.note_sched_items(Stage::Pruning, partition.len());
    let per_item = {
        let pool = &*pool;
        partition.run(ctx.workers(), |item| {
            survivors(pool, classes[item.class_idx], item.start, item.end)
        })
    };
    let mut probes = 0;
    for (&class, chunks) in classes.iter().zip(partition.group_by_class(per_item)) {
        let mut flags = Vec::new();
        for (chunk_flags, chunk_probes) in chunks {
            flags.extend(chunk_flags);
            probes += chunk_probes;
        }
        apply_survivors(pool, class, &flags);
    }
    probes
}

/// Algorithms 2 & 3 as a [`Pruner`]: build the DABF, then prune on the
/// work-item scheduler — each class's candidate list is cut into probe
/// ranges so the whole pool's pruning work load-balances across every
/// worker even on a 2-class dataset.
pub struct DabfPruner {
    config: IpsConfig,
}

impl DabfPruner {
    /// A pruner for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl Pruner for DabfPruner {
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        let t = Instant::now();
        let dabf = build_dabf(pool, &self.config);
        let dabf_build = t.elapsed();
        let probes = prune_scheduled(pool, ctx, self.config.chunk_size, |p, c, s, e| {
            dabf_survivors_range(p, &dabf, c, s, e)
        });
        Ok(PruneOutcome {
            dabf: Some(dabf),
            dabf_build,
            probes,
        })
    }
}

/// The quadratic reference pruner (Fig. 10a's "no DABF" ablation) behind
/// the same trait: naive per-class filters, probe ranges scheduled the
/// same way as [`DabfPruner`].
pub struct NaivePruner {
    config: IpsConfig,
}

impl NaivePruner {
    /// A pruner for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }
}

impl Pruner for NaivePruner {
    fn prune(
        &self,
        pool: &mut CandidatePool,
        ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        let filters = naive_filters(pool, &self.config);
        let probes = prune_scheduled(pool, ctx, self.config.chunk_size, |p, c, s, e| {
            naive_survivors_range(p, &filters, c, s, e)
        });
        Ok(PruneOutcome {
            dabf: None,
            dabf_build: Duration::ZERO,
            probes,
        })
    }
}

/// A pass-through pruner for methods without a pruning phase (several
/// baselines). Reports zero work.
pub struct NoopPruner;

impl Pruner for NoopPruner {
    fn prune(
        &self,
        _pool: &mut CandidatePool,
        _ctx: &mut ExecContext,
    ) -> Result<PruneOutcome, IpsError> {
        Ok(PruneOutcome {
            dabf: None,
            dabf_build: Duration::ZERO,
            probes: 0,
        })
    }
}

/// Algorithm 4 as a [`Selector`]: utility scoring (exact or DT+CR)
/// followed by the diversity-guarded priority-queue poll.
///
/// Exact scoring runs as a three-pass scheduler pipeline that is
/// bit-identical at any thread count *and* chunk size:
///
/// 1. **Record** — `exact_request_plan` enumerates each class's
///    sliding-distance requests without computing any (the scoring core
///    has no distance-value-dependent control flow), dedupes them by the
///    content keys of the oriented `(query, series)` pair (hashing each
///    distinct slice once), and groups the distinct requests by series.
/// 2. **Compute** — the per-class *unique* request lists are cut into
///    [`TaskPartition`] batches; each batch resolves its slice against a
///    fresh cache shard by series key, meeting each series' requests in
///    one run so the shard builds that series' window statistics once per
///    query length. Every shard request is one eval, so the shards' evals
///    sum to the class's distinct requests wherever the batch boundaries
///    fall; the duplicates the plan dropped are booked as `cache_hits`.
/// 3. **Replay** — `score_exact_replay` re-runs the scoring core per
///    class, feeding request *r* its precomputed distance: the
///    floating-point accumulation order is the reference scorer's
///    ([`crate::score_exact`]), untouched by the chunking.
///
/// DT+CR scores over a class's rank table are inherently class-granular
/// and run on a [`TaskPartition::per_class`] partition.
///
/// Without a wall-clock budget all classes are scored as one batch. Under
/// a budget the same pipeline scores one class per batch and the deadline
/// is checked between batches; at least one class is always scored, so a
/// degraded run still yields its best-so-far.
pub struct UtilitySelector {
    config: IpsConfig,
}

impl UtilitySelector {
    /// A selector for one configuration.
    pub fn new(config: IpsConfig) -> Self {
        Self { config }
    }

    /// Exact scoring of one batch of classes: record → compute
    /// (scheduled) → replay. Each class's shards fold into the run cache
    /// in class order; their counters and the plan's duplicates accumulate
    /// into `stats`. Returns `score_exact_replay`'s output per class.
    fn score_exact_batch(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        classes: &[u32],
        ctx: &mut ExecContext,
        stats: &mut CacheStats,
    ) -> Vec<(Vec<f64>, usize, Vec<f64>)> {
        // Each work item draws its sliding distances from a *fresh* cache
        // shard (not the shared run cache), so counters are identical at
        // every thread count.
        let inject_kernel = ctx.faults().kernel_error;
        // The kernel fault forces the kernel *path* too (ForceKernel):
        // under the Auto crossover small inputs would never attempt the
        // FFT and the injected failure would be vacuous. Every eval then
        // attempts the kernel, fails, and must degrade cleanly.
        let policy = if inject_kernel {
            ips_distance::KernelPolicy::ForceKernel
        } else {
            self.config.kernel_policy()
        };
        let make_cache = || {
            let mut cache = DistCache::with_policy(policy);
            if inject_kernel {
                cache.inject_kernel_failure();
            }
            cache
        };
        let plans: Vec<ClassRequests> = classes
            .iter()
            .map(|&c| exact_request_plan(pool, train, c))
            .collect();
        let units: Vec<usize> = plans.iter().map(|p| p.unique.len()).collect();
        let partition = TaskPartition::new(&units, self.config.chunk_size);
        ctx.note_sched_items(Stage::TopK, partition.len());
        let metric = self.config.metric;
        let per_item = partition.run(ctx.workers(), |item| {
            let mut cache = make_cache();
            let dists: Vec<f64> = plans[item.class_idx].unique[item.start..item.end]
                .iter()
                .map(|r| r.resolve(metric, &mut cache))
                .collect();
            (dists, cache)
        });
        let grouped = partition.group_by_class(per_item);
        let mut buf = ctx.scratch().take_f64();
        let mut out = Vec::with_capacity(classes.len());
        for ((&c, plan), chunks) in classes.iter().zip(&plans).zip(grouped) {
            let mut unique_dists = Vec::with_capacity(plan.unique.len());
            for (dists, shard) in chunks {
                unique_dists.extend(dists);
                stats.merge(&shard.stats());
                ctx.scratch().absorb_dist_cache(shard);
            }
            // Repeats answered from an earlier request's distance.
            stats.cache_hits += plan.duplicate_requests();
            out.push(score_exact_replay(
                pool,
                train,
                c,
                &mut buf,
                plan,
                &unique_dists,
            ));
        }
        ctx.scratch().recycle_f64(buf);
        out
    }
}

impl Selector for UtilitySelector {
    fn select(
        &self,
        pool: &CandidatePool,
        train: &Dataset,
        dabf: Option<&Dabf>,
        ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError> {
        // DT requires a DABF; fall back to exact scoring when pruning ran
        // without one, even if DT+CR was requested.
        let dt_dabf = dabf.filter(|_| self.config.use_dt_cr);
        let classes = pool.classes();
        let batch_len = if ctx.deadline().is_some() {
            1
        } else {
            classes.len().max(1)
        };
        let mut scored = Vec::with_capacity(classes.len());
        let mut cache_stats = CacheStats::default();
        let mut degraded = false;
        for (i, batch) in classes.chunks(batch_len).enumerate() {
            if i > 0 && ctx.deadline_exceeded() {
                degraded = true;
                break;
            }
            scored.extend(match dt_dabf {
                Some(dabf) => {
                    // Rank-table scoring is class-granular by nature: one
                    // work item per class (every listed class holds ≥ 1
                    // candidate, so items align 1:1 with `batch`).
                    let units: Vec<usize> = batch.iter().map(|&c| pool.of_class(c).len()).collect();
                    let partition = TaskPartition::per_class(&units);
                    ctx.note_sched_items(Stage::TopK, partition.len());
                    partition.run(ctx.workers(), |item| {
                        let c = batch[item.class_idx];
                        let (s, e) = score_dt_cr_counted(pool, train, dabf, &self.config, c);
                        (s, e, Vec::new())
                    })
                }
                None => self.score_exact_batch(pool, train, batch, ctx, &mut cache_stats),
            });
        }
        let mut shapelets = Vec::new();
        let mut own_class_dists = Vec::new();
        let mut utility_evals = 0;
        for (&class, (scores, evals, own)) in classes.iter().zip(scored) {
            utility_evals += evals;
            let picked =
                select_class_from_scores(pool, class, &scores, &self.config, &mut shapelets);
            // One row per motif (empty rows after DT+CR scoring).
            let width = own.len() / scores.len().max(1);
            own_class_dists.extend(picked.iter().map(|&i| own[i * width..][..width].to_vec()));
        }
        Ok(Selection {
            shapelets,
            utility_evals,
            cache_stats,
            own_class_dists,
            degraded,
        })
    }
}

/// A generic rank-based selector: per class, the `k` candidates with the
/// highest `ip_value` (stable on ties), mapped directly to shapelets.
/// Used by baselines whose candidate score is computed at generation
/// time.
pub struct ScoreRankSelector {
    /// Shapelets per class.
    pub k: usize,
}

impl Selector for ScoreRankSelector {
    fn select(
        &self,
        pool: &CandidatePool,
        _train: &Dataset,
        _dabf: Option<&Dabf>,
        _ctx: &mut ExecContext,
    ) -> Result<Selection, IpsError> {
        let mut shapelets = Vec::new();
        let mut utility_evals = 0;
        for class in pool.classes() {
            let cands = pool.of_class(class);
            utility_evals += cands.len();
            let mut order: Vec<usize> = (0..cands.len()).collect();
            // total_cmp: a NaN score sorts deterministically instead of
            // panicking the whole run.
            order.sort_by(|&a, &b| cands[b].ip_value.total_cmp(&cands[a].ip_value));
            for &i in order.iter().take(self.k) {
                let c = &cands[i];
                shapelets.push(Shapelet {
                    values: c.values.clone(),
                    class,
                    source_instance: c.source_instance,
                    source_offset: c.source_offset,
                    score: c.ip_value,
                });
            }
        }
        Ok(Selection {
            shapelets,
            utility_evals,
            cache_stats: CacheStats::default(),
            own_class_dists: Vec::new(),
            degraded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_preserves_index_order() {
        for threads in [1, 2, 3, 8, 0] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(10, |i| i * i);
            assert_eq!(
                out,
                (0..10).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_pool_handles_empty_and_tiny_inputs() {
        let pool = WorkerPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i + 1), vec![1]);
        assert!(WorkerPool::new(0).threads() >= 1);
    }

    #[test]
    fn try_run_contains_panics_and_siblings_still_complete() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let completed = AtomicUsize::new(0);
            let err = pool
                .try_run(8, |i| {
                    if i == 3 {
                        panic!("task {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .unwrap_err();
            assert_eq!(err, "task 3 exploded", "threads={threads}");
            assert_eq!(
                completed.load(Ordering::SeqCst),
                7,
                "siblings must not be poisoned (threads={threads})"
            );
        }
        // The non-panicking path is unchanged.
        assert_eq!(WorkerPool::new(2).try_run(3, |i| i * 2).unwrap(), [0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "worker task panicked: boom")]
    fn run_repanics_with_the_original_message() {
        WorkerPool::new(2).run(4, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn guard_converts_panics_into_stage_failed() {
        let err = guard::<()>(Stage::Pruning, || panic!("synthetic failure")).unwrap_err();
        match err {
            IpsError::StageFailed { stage, reason } => {
                assert_eq!(stage, "pruning");
                assert_eq!(reason, "synthetic failure");
            }
            other => panic!("expected StageFailed, got {other:?}"),
        }
        // String payloads and non-string payloads both render.
        let err = guard::<()>(Stage::TopK, || panic!("{}", format!("id {}", 7))).unwrap_err();
        assert!(format!("{err}").contains("stage top_k failed: id 7"));
        assert!(guard(Stage::TopK, || Ok(1)).is_ok());
    }

    #[test]
    fn scratch_recycles_buffers() {
        let mut s = Scratch::default();
        let mut b = s.take_f64();
        b.extend([1.0, 2.0]);
        s.recycle_f64(b);
        let b2 = s.take_f64();
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
        assert!(b2.capacity() >= 2, "capacity should be retained");
    }

    #[test]
    fn run_report_sums_and_indexes_stages() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::CandidateGen,
            Duration::from_millis(3),
            StageCounters {
                candidates_out: 10,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::Pruning,
            Duration::from_millis(2),
            StageCounters {
                candidates_in: 10,
                candidates_out: 7,
                dabf_probes: 5,
                ..Default::default()
            },
        );
        let report = ctx.into_report();
        assert_eq!(report.total(), Duration::from_millis(5));
        assert_eq!(
            report.stage(Stage::Pruning).unwrap().counters.dabf_probes,
            5
        );
        assert!(report.stage(Stage::TopK).is_none());
        assert_eq!(report.elapsed(Stage::TopK), Duration::ZERO);
        assert_eq!(report.counters().candidates_out, 17);
        let table = report.render_table();
        assert!(table.contains("candidate_gen"));
        assert!(table.contains("pruning"));
    }

    #[test]
    fn context_mirrors_stages_into_metrics() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::CandidateGen,
            Duration::from_micros(40),
            StageCounters {
                candidates_out: 12,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::TopK,
            Duration::from_micros(60),
            StageCounters {
                candidates_in: 12,
                utility_evals: 99,
                ..Default::default()
            },
        );
        let live = ctx.metrics().snapshot();
        let report = ctx.into_report();
        // The live mirror and the post-hoc conversion agree exactly.
        assert_eq!(live, report.to_metrics());
        assert_eq!(live.counters["candidate_gen.candidates_out"], 12);
        assert_eq!(live.counters["top_k.utility_evals"], 99);
        assert_eq!(live.spans["stage.top_k"].total_ns, 60_000);
        // Zero-valued counter fields are omitted, not written as zeros.
        assert!(!live.counters.contains_key("candidate_gen.candidates_in"));
    }

    #[test]
    fn report_record_round_trips_and_matches_counters() {
        let mut ctx = ExecContext::new(WorkerPool::new(1));
        ctx.record(
            Stage::Pruning,
            Duration::from_millis(2),
            StageCounters {
                candidates_in: 30,
                candidates_out: 20,
                dabf_probes: 7,
                ..Default::default()
            },
        );
        ctx.record(
            Stage::TopK,
            Duration::from_millis(1),
            StageCounters {
                candidates_in: 20,
                candidates_out: 4,
                utility_evals: 80,
                kernel_evals: 50,
                cache_hits: 30,
                ..Default::default()
            },
        );
        let report = ctx.into_report();
        let record = report.to_record("discovery", "unit");
        let back = ips_obs::RunRecord::from_json_str(&record.to_json_string()).unwrap();
        assert_eq!(back, record);
        // Serialized counters sum to exactly RunReport::counters().
        let totals = report.counters();
        for (field, value) in totals.fields() {
            let sum: u64 = back
                .metrics
                .counters
                .iter()
                .filter(|(k, _)| k.ends_with(&format!(".{field}")))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(sum, value as u64, "{field}");
        }
        // And the rendered table shows the same per-stage numbers.
        let table = report.render_table();
        for r in report.stages() {
            assert!(table.contains(r.stage.name()));
        }
        assert!(table.contains(" 80 "), "utility_evals column:\n{table}");
    }

    #[test]
    fn observer_sees_stages_in_order() {
        let mut obs = CollectingObserver::default();
        let mut ctx = ExecContext::new(WorkerPool::new(1)).with_observer(&mut obs);
        ctx.record(
            Stage::CandidateGen,
            Duration::ZERO,
            StageCounters::default(),
        );
        ctx.record(Stage::TopK, Duration::ZERO, StageCounters::default());
        drop(ctx);
        assert_eq!(
            obs.reports.iter().map(|r| r.stage).collect::<Vec<_>>(),
            vec![Stage::CandidateGen, Stage::TopK]
        );
    }

    fn profile_train(classes: usize) -> Dataset {
        use ips_tsdata::{DatasetSpec, SynthGenerator};
        let spec = DatasetSpec::new("ParT", classes, 48, 4 * classes, 8).with_noise(0.2);
        SynthGenerator::new(spec).generate().unwrap().0
    }

    fn profile_cfg() -> IpsConfig {
        IpsConfig::default().with_sampling(4, 3).with_seed(21)
    }

    /// Drives [`ProfileCandidateSource`] through a fresh context on
    /// `threads` workers.
    fn generate_on(train: &Dataset, cfg: &IpsConfig, threads: usize) -> CandidatePool {
        let mut ctx = ExecContext::new(WorkerPool::new(threads));
        ProfileCandidateSource::new(cfg.clone())
            .generate(train, &mut ctx)
            .unwrap()
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        use crate::candidates::generate_candidates;
        use crate::schedule::ChunkSize;
        let train = profile_train(4);
        let base = profile_cfg();
        let seq = generate_candidates(&train, &base);
        for threads in [1, 2, 4, 0] {
            for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(3)] {
                let cfg = base.clone().with_chunk_size(chunk);
                let par = generate_on(&train, &cfg, threads);
                assert_eq!(par.len(), seq.len(), "threads={threads} chunk={chunk:?}");
                let a: Vec<_> = seq.iter().map(|c| (&c.values, c.class)).collect();
                let b: Vec<_> = par.iter().map(|c| (&c.values, c.class)).collect();
                assert_eq!(a, b, "threads={threads} chunk={chunk:?}");
            }
        }
    }

    #[test]
    fn more_threads_than_classes_is_fine() {
        let train = profile_train(2);
        let pool = generate_on(&train, &profile_cfg(), 16);
        assert!(!pool.is_empty());
        assert_eq!(pool.classes().len(), 2);
    }

    #[test]
    fn single_threaded_path_works() {
        let train = profile_train(3);
        let pool = generate_on(&train, &profile_cfg(), 1);
        assert_eq!(pool.classes().len(), 3);
    }
}

//! IPS — Instance Profile for Shapelet discovery (Li et al., ICDE 2022).
//!
//! The primary contribution of the paper, end to end:
//!
//! 1. **Candidate generation** (Algorithm 1, [`candidates`]): `Q_N`
//!    random samples of `Q_S` instances per class are concatenated; the
//!    instance profile of each sample at each candidate length yields one
//!    motif and one discord candidate.
//! 2. **DABF construction** (Algorithm 2, [`pruning`]): per-class
//!    distribution-aware bloom filters over the LSH-embedded candidates.
//! 3. **Candidate pruning** (Algorithm 3, [`pruning`]): a candidate that
//!    is "possibly close to most elements" of *another* class is removed.
//! 4. **Top-k selection** (Algorithm 4, [`topk`] / [`utility`]): three
//!    utility functions (intra-class, inter-class, intra-instance) score
//!    the surviving motif candidates; the distribution-transformation (DT)
//!    and computation-reuse (CR) optimizations make scoring O(n log n).
//!
//! [`pipeline::IpsClassifier`] wires discovery to the shapelet transform
//! and a linear SVM — the paper's full TSC pipeline.
//!
//! ```
//! use ips_core::{IpsConfig, IpsClassifier};
//! use ips_tsdata::registry;
//!
//! let (train, test) = registry::load("ItalyPowerDemand").unwrap();
//! let mut cfg = IpsConfig::default();
//! cfg.num_samples = 4; // small config for the doctest
//! cfg.sample_size = 3;
//! let model = IpsClassifier::fit(&train, cfg).unwrap();
//! assert!(model.accuracy(&test) > 0.5);
//! ```

pub mod candidates;
pub mod config;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod explain;
pub mod fault;
pub mod multivariate;
pub mod pipeline;
pub mod pruning;
pub mod sampling;
pub mod schedule;
pub mod topk;
pub mod utility;

pub use candidates::{generate_candidates, Candidate, CandidateKind, CandidatePool};
pub use config::{CandidateSampling, DiscoveryBudget, IpsConfig, SampleBudget};
pub use engine::{
    CandidateSource, CollectingObserver, Engine, ExecContext, Pruner, RunReport, Selection,
    Selector, Stage, StageCounters, StageObserver, StageReport, WorkerPool,
};
pub use ensemble::{CoteIpsEnsemble, EnsembleConfig, SampledEnsembleConfig, SampledIpsEnsemble};
pub use error::IpsError;
pub use explain::{explain_prediction, explanation_text, Explanation, MatchExplanation};
pub use fault::{FaultPlan, FaultStage};
pub use multivariate::{MultivariateDataset, MultivariateIps};
pub use pipeline::{DiscoveryResult, DiscoveryStats, IpsClassifier};
pub use pruning::{build_dabf, prune_naive, prune_with_dabf};
pub use sampling::{member_seed, sample_pool, SampledCandidateSource};
pub use schedule::{ChunkSize, TaskPartition, WorkItem};
pub use topk::{select_top_k, TopKStrategy};
pub use utility::score_exact;

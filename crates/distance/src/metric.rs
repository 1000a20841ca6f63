//! The two subsequence-distance metrics used across the workspace.
//!
//! Defined here (rather than in `ips-profile`, where it historically lived)
//! so the FFT kernel and the distance cache can key on it without a
//! dependency cycle. `ips_profile::Metric` re-exports this type.

/// Distance metric used by profile computation and the FFT kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// The paper's Definition 4: mean squared difference, no normalization.
    MeanSquared,
    /// Z-normalized Euclidean distance — the metric of the matrix-profile
    /// literature. Offset/scale invariant.
    ZNormEuclidean,
}

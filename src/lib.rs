//! # ips — Instance Profile for Shapelet discovery
//!
//! A from-scratch Rust reproduction of *"IPS: Instance Profile for
//! Shapelet Discovery for Time Series Classification"* (Li, Choi, Xu,
//! Bhowmick, Mah, Wong — ICDE 2022), together with every substrate the
//! system needs: time series containers and synthetic UCR-like data
//! ([`tsdata`]), distance kernels including FFT/MASS and DTW
//! ([`distance`]), matrix & instance profiles ([`profile`]), LSH families
//! ([`lsh`]), bloom filters up to the paper's distribution-aware bloom
//! filter ([`filter`]), a statistics stack with rank tests and
//! critical-difference diagrams ([`stats`]), classifiers ([`classify`]),
//! the comparator methods BASE / BSPCOVER-style / FS-style / LTS-style
//! ([`baselines`]), the IPS pipeline itself ([`core`]), and the
//! observability layer every runner reports through — span timers,
//! metrics registry, versioned run records ([`obs`]) — and the serving
//! layer: model persistence, a model registry, and a batch-admission
//! classification server ([`serve`]).
//!
//! ## Quickstart
//!
//! ```
//! use ips::core::{IpsClassifier, IpsConfig};
//! use ips::tsdata::registry;
//!
//! // Synthesize a UCR-like dataset (deterministic; a loader for the real
//! // archive is in `ips::tsdata::ucr`).
//! let (train, test) = registry::load("ItalyPowerDemand").unwrap();
//!
//! // Discover shapelets and fit the transform + linear-SVM classifier.
//! let cfg = IpsConfig::default().with_sampling(5, 3);
//! let model = IpsClassifier::fit(&train, cfg).unwrap();
//!
//! println!("accuracy: {:.3}", model.accuracy(&test));
//! for s in model.shapelets().iter().take(3) {
//!     println!("class {} shapelet of length {}", s.class, s.len());
//! }
//! # assert!(model.accuracy(&test) > 0.5);
//! ```
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every table and figure.

pub use ips_baselines as baselines;
pub use ips_classify as classify;
pub use ips_core as core;
pub use ips_distance as distance;
pub use ips_filter as filter;
pub use ips_lsh as lsh;
pub use ips_obs as obs;
pub use ips_profile as profile;
pub use ips_serve as serve;
pub use ips_stats as stats;
pub use ips_tsdata as tsdata;

/// Renders a series as a one-line unicode sparkline — used by the
/// examples and the figure harnesses for quick terminal visualization.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return '·';
            }
            let t = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[t]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::sparkline;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        assert!(sparkline(&[1.0, f64::NAN]).contains('·'));
        // constant series renders without NaN artifacts
        let flat = sparkline(&[2.0; 5]);
        assert_eq!(flat.chars().count(), 5);
    }
}

/// The most commonly used items in one import.
pub mod prelude {
    pub use ips_baselines::{BaseClassifier, BaseConfig, BspCoverClassifier, BspCoverConfig};
    pub use ips_classify::{LinearSvm, OneNnDtw, OneNnEd, Shapelet, ShapeletTransform};
    pub use ips_core::{Engine, IpsClassifier, IpsConfig};
    pub use ips_obs::{MetricsRegistry, RunRecord};
    pub use ips_profile::{InstanceProfile, MatrixProfile, Metric};
    pub use ips_serve::{ClassifyRequest, IpsServer, ModelRegistry, ServableModel, ServeConfig};
    pub use ips_tsdata::{registry, Dataset, TimeSeries};
}

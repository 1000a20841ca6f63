//! Matrix profile and instance profile computation.
//!
//! The matrix profile (Definition 5 of the paper; Yeh et al., "Matrix
//! Profile I") annotates every window of a series with its nearest-neighbor
//! distance. This crate provides:
//!
//! * **self-joins** with a trivial-match exclusion zone, in both the
//!   paper's raw mean-squared metric (Definition 4) and the conventional
//!   z-normalized Euclidean metric, each with a brute-force reference and
//!   an O(n²) incremental (STOMP-style) implementation;
//! * **AB-joins** between two series (the `P_AB` of Figures 3–4);
//! * the paper's **instance profile** (Definitions 8–9): the profile of a
//!   *sampled concatenation* of class instances where subsequences may not
//!   straddle instance boundaries and same-instance matches are excluded,
//!   built from instance-pair joins that a [`PairTable`] shares across
//!   the overlapping samples of one class;
//! * **motif/discord extraction** with exclusion zones.
//!
//! ```
//! use ips_profile::{MatrixProfile, Metric};
//!
//! let mut s: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
//! s.extend_from_slice(&[9.0, -9.0, 9.0]); // an obvious anomaly
//! s.extend((0..61).map(|i| (i as f64 * 0.4).sin()));
//! let mp = MatrixProfile::self_join(&s, 8, Metric::ZNormEuclidean);
//! let (discord_at, _) = mp.discord();
//! assert!((58..=68).contains(&discord_at));
//! ```

pub mod instance;
pub mod matrix;
pub mod motif;

pub use instance::{InstanceProfile, PairTable, ProfileEntry};
pub use matrix::{MatrixProfile, Metric};
pub use motif::{top_discords, top_motifs, Occurrence};

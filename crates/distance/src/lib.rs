//! Distance kernels for the IPS workspace.
//!
//! Implements the paper's subsequence distance (Definition 4: sliding-window
//! minimum of the *mean squared* Euclidean difference), plain and
//! z-normalized Euclidean distances, rolling mean/std statistics, and DTW
//! with the LB_Keogh lower bound (used by the 1NN-DTW comparator).
//!
//! Distance profiles are the primitive under both the matrix profile
//! (`ips-profile`) and shapelet transformation (`ips-classify`).
//!
//! [`DistCache`] is the one way into the O(n log n) FFT/MASS min-distance
//! kernel: it picks kernel or naive loop per request under a
//! [`KernelPolicy`], keeps per-series plans that many requests share, and
//! every fit and served request goes through it. A fixed query set — a
//! model's shapelets — is prepared once as a [`QuerySet`] (per-query
//! z-norm moments, same-length groups), and [`DistCache::min_dists`]
//! scores the whole set against a series with one window-statistics pass,
//! hashing nothing for the queries the naive loop serves.
//!
//! ```
//! use ips_distance::{sliding_min_dist, euclidean};
//!
//! let series = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
//! let query = [1.0, 2.0, 1.0];
//! // the query occurs exactly at offset 2
//! let (d, at) = sliding_min_dist(&query, &series);
//! assert_eq!((d, at), (0.0, 2));
//! assert!(euclidean(&[0.0, 3.0], &[4.0, 0.0]) == 5.0);
//! ```

mod batch;
pub mod cache;
pub mod dtw;
pub mod euclid;
mod fft;
pub mod metric;
mod queries;
pub mod rolling;

pub use batch::KernelPolicy;
pub use cache::{CacheStats, DistCache, SliceKey};
pub use dtw::{dtw, dtw_banded, lb_keogh};
pub use euclid::{
    argmax, argmin, dist_profile, dist_profile_znorm, euclidean, is_constant_sigma, mean_sq_dist,
    sliding_min_dist, sliding_min_dist_znorm, sq_euclidean, znorm_dist_from_dot, ZNORM_SIGMA_FLOOR,
};
pub use metric::Metric;
pub use queries::QuerySet;
pub use rolling::RollingStats;

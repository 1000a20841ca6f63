//! Distance kernels for the IPS workspace.
//!
//! Implements the paper's subsequence distance (Definition 4: sliding-window
//! minimum of the *mean squared* Euclidean difference), plain and
//! z-normalized Euclidean distances, rolling mean/std statistics, a radix-2
//! FFT, the MASS O(n log n) distance-profile algorithm, and DTW with the
//! LB_Keogh lower bound (used by the 1NN-DTW comparator).
//!
//! Distance profiles are the primitive under both the matrix profile
//! (`ips-profile`) and shapelet transformation (`ips-classify`).
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

pub mod batch;
pub mod cache;
pub mod dtw;
pub mod euclid;
pub mod fft;
pub mod mass;
pub mod metric;
pub mod rolling;

pub use batch::{
    batch_min_dist, batch_min_dist_checked, batch_min_dist_with, KernelError, KernelPolicy,
    SeriesPlan,
};
pub use cache::{min_dist_key, CacheStats, DistCache, MinDistKey, SliceKey};
pub use dtw::{dtw, dtw_banded, lb_keogh, DtwOptions};
pub use euclid::{
    argmax, argmin, dist_profile, dist_profile_znorm, euclidean, is_constant_sigma, mean_sq_dist,
    sliding_min_dist, sliding_min_dist_znorm, sq_euclidean, znorm_dist_from_dot, ZNORM_SIGMA_FLOOR,
};
pub use fft::{fft_convolve, Complex, Fft};
pub use mass::{mass, sliding_dot_products};
pub use metric::Metric;
pub use rolling::RollingStats;

//! Locality-sensitive hashing for time series subsequences.
//!
//! The DABF (Section III-B) hashes shapelet candidates with an LSH family,
//! buckets them, and fits a distribution over the bucket distances. The
//! paper evaluates three families (Table VII): the p-stable L2 scheme of
//! Datar et al. \[7\] (the default — best accuracy), random-hyperplane
//! cosine hashing, and Hamming bit sampling. All three are implemented
//! here from scratch, along with:
//!
//! * [`embed`](mod@embed) — the fixed-dimension embedding that lets
//!   variable-length candidates share one hash family (z-normalize +
//!   linear resample; see `DESIGN.md` §2);
//! * [`table`] — bucket tables with centroid tracking, supporting the
//!   bucket ranking step of Algorithm 2.
//!
//! ```
//! use ips_lsh::{Lsh, LshKind, LshParams};
//!
//! let lsh = Lsh::new(LshParams { kind: LshKind::L2, dim: 8, ..Default::default() });
//! let a = [1.0, 2.0, 1.5, 2.5, 1.0, 2.0, 1.5, 2.5];
//! let mut b = a;
//! b[3] += 0.01; // tiny perturbation: same bucket with high probability
//! assert_eq!(lsh.signature(&a), lsh.signature(&b));
//! ```

pub mod embed;
pub mod family;
pub mod table;

pub use embed::{embed, resample};
pub use family::{Lsh, LshKind, LshParams, Signature};
pub use table::{Bucket, BucketTable};

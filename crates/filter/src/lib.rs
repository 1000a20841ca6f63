//! Bloom-filter-family data structures, culminating in the paper's
//! distribution-aware bloom filter (DABF).
//!
//! The lineage the paper builds on is implemented in full:
//!
//! * [`bloom`] — the classic Bloom filter \[4\]: "possibly in the set" /
//!   "definitely not in the set";
//! * [`dabf`] — the paper's contribution (Section III-B/C): "possibly
//!   close to **most** elements" / "definitely not close to most", in O(1)
//!   per query via an LSH projection plus a fitted distribution and the
//!   3σ rule.
//!
//! ```
//! use ips_filter::BloomFilter;
//!
//! let mut bf = BloomFilter::with_rate(1000, 0.01);
//! bf.insert(&"shapelet-42");
//! assert!(bf.contains(&"shapelet-42"));
//! assert!(!bf.contains(&"never-inserted"));
//! ```

pub mod bloom;
pub mod dabf;

pub use bloom::BloomFilter;
pub use dabf::{ClassDabf, Dabf, DabfConfig, NaiveMostFilter};

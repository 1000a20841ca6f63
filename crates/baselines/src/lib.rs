//! Comparator methods for the IPS evaluation.
//!
//! * [`base`] — **BASE**, the MP baseline of Yeh et al. \[37\] (Formula 4):
//!   concatenate each class, take the subsequences with the largest
//!   matrix-profile difference as "shapelets". Reproduced faithfully —
//!   including its two defects the paper analyzes (discords as shapelets,
//!   no diversity) — so Tables II/IV/VI and Figure 6 can be regenerated.
//! * [`bspcover`] — a BSPCOVER-style comparator (Li et al., TKDE 2020):
//!   dense candidate enumeration, bit-string bloom dedup, greedy maximal
//!   coverage. The "thorough but slow" method IPS is measured against.
//! * [`fast_shapelets`] — a Fast-Shapelets-style comparator
//!   (Rakthanmanon & Keogh, 2013): SAX words + random masking.
//! * [`lts`] — an LTS-style comparator (Grabocka et al., 2014): shapelets
//!   learned jointly with a logistic model by gradient descent.
//!
//! All four share the classification head of the IPS pipeline (shapelet
//! transform + linear SVM) so Table VI compares *discovery* methods, not
//! classifier heads. Where an original used a different head (FS: decision
//! tree; LTS: its own logistic layer), that substitution is recorded in
//! DESIGN.md §2.

pub mod base;
pub mod bspcover;
pub mod fast_shapelets;
pub mod lts;
pub mod sd;
pub mod st;

pub use base::{
    discover_base_shapelets, discover_base_shapelets_observed, discover_base_shapelets_recorded,
    BaseClassifier, BaseConfig, BaseSource,
};
pub use bspcover::{
    discover_bspcover_shapelets, discover_bspcover_shapelets_observed,
    discover_bspcover_shapelets_recorded, BspCoverClassifier, BspCoverConfig, BspCoverSource,
    CoverageSelector,
};
pub use fast_shapelets::{discover_fs_shapelets, FastShapeletsClassifier, FastShapeletsConfig};
pub use lts::{LtsClassifier, LtsConfig};
pub use sd::{discover_sd_shapelets, SdClassifier, SdConfig};
pub use st::{discover_st_shapelets, StClassifier, StConfig};

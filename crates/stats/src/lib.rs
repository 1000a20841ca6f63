//! Statistics substrate for the IPS reproduction.
//!
//! Everything here is implemented from scratch (no statistics crates are in
//! the sanctioned dependency set):
//!
//! * [`special`] — erf, log-gamma, regularized incomplete gamma/beta, and
//!   the normal / chi-square / F CDFs built on them;
//! * [`histogram`] — fixed-width histograms with density normalization;
//! * [`fit`] — Normal / Gamma / Uniform / Exponential distributions, moment
//!   fitting, and NMSE-based best-fit selection (Table III);
//! * [`rank`] — the Friedman test and Wilcoxon signed-rank test with Holm's
//!   step-down correction (Section IV-C);
//! * [`cd`] — Nemenyi critical difference and the text rendering of the
//!   critical-difference diagram (Figure 11).

pub mod cd;
pub mod fit;
pub mod histogram;
pub mod rank;
pub mod special;

pub use cd::{cd_diagram_text, cliques, grid_summary_text, nemenyi_cd, CdDiagram};
pub use fit::{best_fit, nmse, Distribution, FitResult};
pub use histogram::Histogram;
pub use rank::{average_ranks, friedman_test, holm_adjust, wilcoxon_signed_rank, FriedmanResult};
pub use special::{chi2_cdf, erf, erfc, f_cdf, ln_gamma, normal_cdf, reg_inc_beta, reg_inc_gamma};

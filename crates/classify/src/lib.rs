//! Classifiers and the shapelet transform.
//!
//! The paper classifies by *shapelet transformation* (Definition 7): each
//! series becomes the vector of its distances to the discovered shapelets,
//! and "we adopt SVM with a linear kernel for the classification"
//! (Section III-E). This crate provides:
//!
//! * [`transform`] — shapelets and the shapelet transform;
//! * [`svm`] — a from-scratch linear SVM (one-vs-rest Pegasos SGD);
//! * [`nn`] — 1NN-ED and 1NN-DTW, the classic baselines of Tables II/VI;
//! * [`tree`] / [`forest`] — CART decision trees and a Rotation-Forest-
//!   style ensemble (Table VI's `RotF` comparator), with from-scratch PCA;
//! * [`cv`] — stratified k-fold cross-validation;
//! * [`eval`] — accuracy / confusion-matrix utilities.
//!
//! ```
//! use ips_tsdata::registry;
//! use ips_classify::nn::OneNnEd;
//!
//! let (train, test) = registry::load("ItalyPowerDemand").unwrap();
//! let model = OneNnEd::fit(&train);
//! let acc = model.accuracy(&test);
//! assert!(acc > 0.5, "acc {acc}");
//! ```

pub mod cv;
pub mod eval;
pub mod forest;
pub mod nn;
pub mod svm;
pub mod transform;
pub mod tree;

pub use cv::cross_val_accuracy;
pub use eval::{accuracy, confusion_matrix, Evaluation};
pub use forest::{ForestParams, RotationForest};
pub use nn::{OneNnDtw, OneNnEd};
pub use svm::LinearSvm;
pub use transform::{Shapelet, ShapeletTransform};
pub use tree::{DecisionTree, TreeParams};

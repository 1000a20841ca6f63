//! Time series and dataset containers for the IPS reproduction.
//!
//! This crate is the data substrate of the workspace: it defines the
//! [`TimeSeries`] and [`Dataset`] containers used by every other crate,
//! z-normalization helpers, concatenation with instance-boundary tracking
//! (needed by the instance profile), a loader/writer for the UCR archive's
//! tab-separated format, and a deterministic synthetic generator that stands
//! in for the UCR archive itself (see `DESIGN.md` §2 for the substitution
//! rationale).
//!
//! # Quick example
//!
//! ```
//! use ips_tsdata::{registry, Dataset};
//!
//! let (train, test) = registry::load("ArrowHead").expect("known dataset");
//! assert_eq!(train.num_classes(), 3);
//! assert!(train.len() > 0 && test.len() > 0);
//! assert_eq!(train.series(0).len(), train.series(1).len());
//! ```

pub mod dataset;
pub mod error;
pub mod registry;
pub mod series;
pub mod synth;
pub mod ucr;

pub use dataset::{ClassConcat, Dataset};
pub use error::{Error, Result};
pub use series::{znormalize, znormalize_in_place, TimeSeries};
pub use synth::{DatasetSpec, ShapeKind, SynthGenerator};

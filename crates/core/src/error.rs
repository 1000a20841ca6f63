//! The unified error taxonomy of the IPS workspace.
//!
//! Every fallible path in discovery and classification surfaces an
//! [`IpsError`]: the pipeline's own failure modes are variants here,
//! and the two foreign enums the pipeline can encounter —
//! [`ips_tsdata::Error`] from data loading/validation and
//! [`ips_obs::ObsError`] from record parsing — are wrapped with `From`
//! conversions so `?` composes across crate boundaries. The policy for
//! what panics versus what returns `Err` is documented in DESIGN.md §10:
//! invalid *input* (data, config, budgets) is always an error; violated
//! *internal invariants* remain `debug_assert!`s.

use std::fmt;

use ips_obs::ObsError;

/// Unified error type for discovery, classification, and serving paths.
///
/// Not `Clone`/`PartialEq`: the wrapped [`ips_tsdata::Error`] can carry a
/// live `std::io::Error`. Match on variants (or render with `Display`)
/// instead of comparing whole values.
#[derive(Debug)]
pub enum IpsError {
    /// Candidate generation produced nothing (instances shorter than the
    /// smallest candidate length, or an empty class structure).
    NoCandidates,
    /// The training set cannot support classification (e.g. one class).
    InvalidTrainingSet(String),
    /// A configuration field holds an unusable value.
    InvalidConfig {
        /// The offending `IpsConfig` field.
        field: &'static str,
        /// Why the value is rejected.
        message: String,
    },
    /// The input data failed validation or loading
    /// ([`ips_tsdata::Dataset::validate`], the UCR loader, …).
    InvalidData(ips_tsdata::Error),
    /// A pipeline stage failed or panicked; the run was aborted cleanly
    /// without poisoning sibling work.
    StageFailed {
        /// The stage that failed (one of the [`crate::engine::Stage`]
        /// names, or a classification-head step).
        stage: &'static str,
        /// The panic payload or failure description.
        reason: String,
    },
    /// A [`crate::config::DiscoveryBudget`] was exhausted before *any*
    /// result could be produced. (When a budget trips after partial
    /// progress, discovery instead returns best-so-far shapelets with
    /// `degraded = true`.)
    BudgetExhausted {
        /// Which budget tripped (`"max_wall_clock"` or `"max_candidates"`).
        budget: &'static str,
        /// What had (not) been accomplished when it tripped.
        detail: String,
    },
    /// A run-record or model-file (de)serialization failure from the
    /// observability layer's JSON codec: unparseable bytes, a structurally
    /// malformed document, or an unsupported schema version.
    Record(ObsError),
    /// A model file could not be read or written (I/O level — the bytes
    /// never reached the codec). Corruption *inside* a readable file
    /// surfaces as [`IpsError::Record`] instead.
    Persist {
        /// The file the operation was addressing.
        path: String,
        /// The underlying I/O failure.
        reason: String,
    },
    /// A serving request named a model absent from the registry.
    UnknownModel(String),
}

impl fmt::Display for IpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpsError::NoCandidates => {
                write!(f, "candidate generation produced no candidates")
            }
            IpsError::InvalidTrainingSet(m) => write!(f, "invalid training set: {m}"),
            IpsError::InvalidConfig { field, message } => {
                write!(f, "invalid config: {field}: {message}")
            }
            IpsError::InvalidData(e) => write!(f, "invalid data: {e}"),
            IpsError::StageFailed { stage, reason } => {
                write!(f, "stage {stage} failed: {reason}")
            }
            IpsError::BudgetExhausted { budget, detail } => {
                write!(f, "discovery budget {budget} exhausted: {detail}")
            }
            IpsError::Record(e) => write!(f, "run record error: {e}"),
            IpsError::Persist { path, reason } => {
                write!(f, "model persistence failed for {path}: {reason}")
            }
            IpsError::UnknownModel(name) => {
                write!(f, "model {name:?} is not in the registry")
            }
        }
    }
}

impl std::error::Error for IpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IpsError::InvalidData(e) => Some(e),
            IpsError::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ips_tsdata::Error> for IpsError {
    fn from(e: ips_tsdata::Error) -> Self {
        IpsError::InvalidData(e)
    }
}

impl From<ObsError> for IpsError {
    fn from(e: ObsError) -> Self {
        IpsError::Record(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = IpsError::InvalidConfig {
            field: "k",
            message: "must be at least 1".into(),
        };
        assert!(e.to_string().contains('k'));
        assert!(e.to_string().contains("at least 1"));
        let e = IpsError::StageFailed {
            stage: "pruning",
            reason: "worker panicked: boom".into(),
        };
        assert!(e.to_string().contains("pruning"));
        assert!(e.to_string().contains("boom"));
        let e = IpsError::BudgetExhausted {
            budget: "max_wall_clock",
            detail: "deadline hit before any class was scored".into(),
        };
        assert!(e.to_string().contains("max_wall_clock"));
        let e = IpsError::Persist {
            path: "models/a.json".into(),
            reason: "permission denied".into(),
        };
        assert!(e.to_string().contains("models/a.json"));
        assert!(e.to_string().contains("permission denied"));
        let e = IpsError::UnknownModel("cbf".into());
        assert!(e.to_string().contains("cbf"));
    }

    #[test]
    fn foreign_errors_convert_and_keep_their_source() {
        let e: IpsError = ips_tsdata::Error::NonFinite {
            instance: 3,
            position: 9,
        }
        .into();
        assert!(matches!(e, IpsError::InvalidData(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("instance 3"));

        let e: IpsError = ObsError::Parse("truncated".into()).into();
        assert!(matches!(e, IpsError::Record(_)));
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn ips_error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IpsError>();
    }
}

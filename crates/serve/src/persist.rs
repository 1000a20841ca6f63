//! Model persistence: a fitted classifier as a versioned JSON document.
//!
//! The wire format reuses the `ips-obs` codec (DESIGN.md §14): objects
//! have deterministically sorted keys, and finite `f64`s are written with
//! Rust's shortest-round-trip `Display`, so every shapelet value, SVM
//! weight, and standardization parameter survives save → load
//! *bit-identically* — a loaded model's transform and decision function
//! are exactly the in-memory ones. The document carries its own
//! [`MODEL_SCHEMA_VERSION`]; readers refuse any other version.
//!
//! Failure taxonomy (never a panic, whatever the bytes):
//! - unreadable/unwritable file → [`IpsError::Persist`] (I/O level),
//! - unparseable JSON → [`IpsError::Record`]([`ObsError::Parse`]),
//! - parseable but structurally wrong → [`IpsError::Record`]([`ObsError::Malformed`]),
//! - a version this reader does not speak →
//!   [`IpsError::Record`]([`ObsError::SchemaVersion`]).

use std::ops::Deref;
use std::path::Path;

use ips_classify::{LinearSvm, Shapelet, ShapeletClassifier, ShapeletTransform};
use ips_core::{IpsClassifier, IpsError};
use ips_obs::{Json, ObsError};

/// The on-disk model schema version. Bump on any change to the serialized
/// layout and update the loader (plus committed fixtures) in the same PR.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// The `kind` discriminator stamped into every model document.
pub const MODEL_KIND: &str = "ips_model";

/// A fitted model reduced to what serving needs: its
/// [`ShapeletClassifier`] head (shapelet transform and SVM, with their
/// accessors and `predict*`), under a registry name. Discovery telemetry
/// is deliberately left behind — it belongs to the training run, not the
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ServableModel {
    name: String,
    head: ShapeletClassifier,
}

impl Deref for ServableModel {
    type Target = ShapeletClassifier;

    fn deref(&self) -> &ShapeletClassifier {
        &self.head
    }
}

impl ServableModel {
    /// Assembles a servable model, checking that the SVM head actually
    /// fits the transform's embedding (feature dimension = shapelet
    /// count) and that every parameter is representable in the wire
    /// format (finite).
    pub fn new(
        name: impl Into<String>,
        transform: ShapeletTransform,
        svm: LinearSvm,
    ) -> Result<Self, IpsError> {
        let name = name.into();
        if name.is_empty() {
            return Err(malformed("model name must be non-empty"));
        }
        if svm.means().len() != transform.dim() {
            return Err(malformed(format!(
                "SVM feature dimension {} does not match {} shapelets",
                svm.means().len(),
                transform.dim()
            )));
        }
        let model = Self {
            name,
            head: ShapeletClassifier::new(transform, svm),
        };
        model.check_finite()?;
        Ok(model)
    }

    /// Extracts the servable artifact from a fitted [`IpsClassifier`].
    pub fn from_classifier(
        name: impl Into<String>,
        model: &IpsClassifier,
    ) -> Result<Self, IpsError> {
        Self::new(name, model.transform().clone(), model.svm().clone())
    }

    /// The registry name this model serves under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Length of the longest shapelet — the natural minimum window length
    /// for full-fidelity matches (shorter windows still score: the
    /// sliding distance handles them symmetrically).
    pub fn max_shapelet_len(&self) -> usize {
        self.shapelets()
            .iter()
            .map(Shapelet::len)
            .max()
            .unwrap_or(0)
    }

    /// Serializes as a JSON value under [`MODEL_SCHEMA_VERSION`].
    pub fn to_json(&self) -> Json {
        let shapelets: Vec<Json> = self
            .shapelets()
            .iter()
            .map(|s| {
                let mut obj = Json::object();
                obj.insert("values", s.values.clone());
                obj.insert("class", s.class);
                obj.insert(
                    "source_instance",
                    if s.source_instance == usize::MAX {
                        Json::Null
                    } else {
                        Json::from(s.source_instance)
                    },
                );
                obj.insert("source_offset", s.source_offset);
                obj.insert("score", s.score);
                obj
            })
            .collect();
        let head = self.svm();
        let mut svm = Json::object();
        svm.insert("classes", head.classes().to_vec());
        svm.insert(
            "weights",
            Json::Arr(head.weights().iter().cloned().map(Json::from).collect()),
        );
        svm.insert("means", head.means().to_vec());
        svm.insert("stds", head.stds().to_vec());
        let mut obj = Json::object();
        obj.insert("schema_version", u64::from(MODEL_SCHEMA_VERSION));
        obj.insert("kind", MODEL_KIND);
        obj.insert("name", self.name.clone());
        obj.insert("znorm", self.transform().znorm());
        obj.insert("shapelets", Json::Arr(shapelets));
        obj.insert("svm", svm);
        obj
    }

    /// Serializes as a pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Rebuilds a model from a JSON value, validating every structural
    /// invariant before touching constructors that assert.
    pub fn from_json(value: &Json) -> Result<Self, IpsError> {
        let version = value
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or_else(|| malformed("missing `schema_version`"))? as u32;
        if version != MODEL_SCHEMA_VERSION {
            return Err(IpsError::Record(ObsError::SchemaVersion {
                found: version,
                expected: MODEL_SCHEMA_VERSION,
            }));
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing `kind` string"))?;
        if kind != MODEL_KIND {
            return Err(malformed(format!(
                "document kind {kind:?} is not {MODEL_KIND:?}"
            )));
        }
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing `name` string"))?
            .to_string();
        let znorm = value
            .get("znorm")
            .and_then(Json::as_bool)
            .ok_or_else(|| malformed("missing `znorm` boolean"))?;
        let shapelets = value
            .get("shapelets")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing `shapelets` array"))?;
        if shapelets.is_empty() {
            return Err(malformed("`shapelets` must be non-empty"));
        }
        let shapelets = shapelets
            .iter()
            .enumerate()
            .map(|(i, s)| parse_shapelet(i, s))
            .collect::<Result<Vec<_>, _>>()?;
        let svm_obj = value
            .get("svm")
            .filter(|v| v.as_obj().is_some())
            .ok_or_else(|| malformed("missing `svm` object"))?;
        let classes = svm_obj
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing `svm.classes` array"))?
            .iter()
            .map(|v| {
                v.as_num()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX))
                    .map(|n| n as u32)
                    .ok_or_else(|| malformed("`svm.classes` entries must be u32"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let weights = svm_obj
            .get("weights")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing `svm.weights` array"))?
            .iter()
            .map(|row| f64_array(row, "svm.weights row"))
            .collect::<Result<Vec<_>, _>>()?;
        let means = f64_array(
            svm_obj
                .get("means")
                .ok_or_else(|| malformed("missing `svm.means` array"))?,
            "svm.means",
        )?;
        let stds = f64_array(
            svm_obj
                .get("stds")
                .ok_or_else(|| malformed("missing `svm.stds` array"))?,
            "svm.stds",
        )?;
        let svm = LinearSvm::from_parts(classes, weights, means, stds)
            .map_err(|e| malformed(format!("svm: {e}")))?;
        // Shapelets were validated non-empty above, so the transform
        // constructor's assertions cannot fire.
        Self::new(name, ShapeletTransform::new(shapelets, znorm), svm)
    }

    /// Parses and rebuilds a model from a JSON document.
    pub fn from_json_str(text: &str) -> Result<Self, IpsError> {
        let value =
            Json::parse(text).map_err(|e| IpsError::Record(ObsError::Parse(e.to_string())))?;
        Self::from_json(&value)
    }

    fn check_finite(&self) -> Result<(), IpsError> {
        for (i, s) in self.shapelets().iter().enumerate() {
            if !s.values.iter().all(|v| v.is_finite()) || !s.score.is_finite() {
                return Err(malformed(format!(
                    "shapelet {i} holds a non-finite value (unrepresentable in JSON)"
                )));
            }
        }
        // `LinearSvm::from_parts` already rejects non-finite parameters;
        // a *trained* SVM can still carry them if training diverged.
        let finite = |xs: &[f64]| xs.iter().all(|v| v.is_finite());
        if !self.svm().weights().iter().all(|w| finite(w))
            || !finite(self.svm().means())
            || !finite(self.svm().stds())
        {
            return Err(malformed(
                "SVM holds a non-finite parameter (unrepresentable in JSON)",
            ));
        }
        Ok(())
    }
}

fn malformed(message: impl Into<String>) -> IpsError {
    IpsError::Record(ObsError::Malformed(message.into()))
}

fn f64_array(value: &Json, what: &str) -> Result<Vec<f64>, IpsError> {
    value
        .as_arr()
        .ok_or_else(|| malformed(format!("`{what}` must be an array")))?
        .iter()
        .map(|v| {
            v.as_num()
                .filter(|n| n.is_finite())
                .ok_or_else(|| malformed(format!("`{what}` entries must be finite numbers")))
        })
        .collect()
}

fn parse_shapelet(index: usize, value: &Json) -> Result<Shapelet, IpsError> {
    let values = f64_array(
        value
            .get("values")
            .ok_or_else(|| malformed(format!("shapelet {index}: missing `values`")))?,
        "shapelet.values",
    )?;
    if values.is_empty() {
        return Err(malformed(format!("shapelet {index}: empty `values`")));
    }
    let class = value
        .get("class")
        .and_then(Json::as_num)
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX))
        .ok_or_else(|| malformed(format!("shapelet {index}: `class` must be u32")))?
        as u32;
    let source_instance = match value.get("source_instance") {
        None | Some(Json::Null) => usize::MAX,
        Some(v) => v
            .as_num()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| malformed(format!("shapelet {index}: bad `source_instance`")))?
            as usize,
    };
    let source_offset = value
        .get("source_offset")
        .and_then(Json::as_num)
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .ok_or_else(|| malformed(format!("shapelet {index}: bad `source_offset`")))?
        as usize;
    let score = value
        .get("score")
        .and_then(Json::as_num)
        .filter(|n| n.is_finite())
        .ok_or_else(|| malformed(format!("shapelet {index}: `score` must be finite")))?;
    Ok(Shapelet {
        values,
        class,
        source_instance,
        source_offset,
        score,
    })
}

/// Writes a model document to `path` (creating parent directories).
pub fn save_model(model: &ServableModel, path: impl AsRef<Path>) -> Result<(), IpsError> {
    let path = path.as_ref();
    let persist = |e: std::io::Error| IpsError::Persist {
        path: path.display().to_string(),
        reason: e.to_string(),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(persist)?;
        }
    }
    std::fs::write(path, model.to_json_string()).map_err(persist)
}

/// Reads a model document from `path`. Corrupt bytes come back as typed
/// errors (see the module docs) — never a panic.
pub fn load_model(path: impl AsRef<Path>) -> Result<ServableModel, IpsError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| IpsError::Persist {
        path: path.display().to_string(),
        reason: e.to_string(),
    })?;
    ServableModel::from_json_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_classify::svm::SvmParams;
    use ips_distance::DistCache;
    use ips_tsdata::TimeSeries;

    fn tiny_model(name: &str) -> ServableModel {
        let shapelets = vec![
            Shapelet {
                values: vec![5.0, 6.5, 5.0],
                class: 0,
                source_instance: 3,
                source_offset: 2,
                score: 1.25,
            },
            Shapelet {
                values: vec![-5.0, -6.5, -5.0],
                class: 1,
                source_instance: usize::MAX,
                source_offset: 0,
                score: 0.1 + 0.2, // deliberately non-representable-in-decimal
            },
        ];
        let features = vec![
            vec![0.1, 9.0],
            vec![0.2, 8.5],
            vec![9.1, 0.3],
            vec![8.7, 0.2],
        ];
        let svm = LinearSvm::fit(&features, &[0, 0, 1, 1], SvmParams::default());
        ServableModel::new(name, ShapeletTransform::new(shapelets, false), svm).unwrap()
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ips_persist_{}_{tag}.json", std::process::id()))
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let model = tiny_model("tiny");
        let back = ServableModel::from_json_str(&model.to_json_string()).unwrap();
        assert_eq!(back, model);
        // And the derived behavior matches exactly, not just structurally.
        let probe = TimeSeries::new(vec![0.0, 5.0, 6.5, 5.0, 0.0, -1.0]);
        let mut c1 = DistCache::new();
        let mut c2 = DistCache::new();
        assert_eq!(
            model.transform().transform_one_with_cache(&probe, &mut c1),
            back.transform().transform_one_with_cache(&probe, &mut c2),
        );
        assert_eq!(
            model.predict_with_cache(probe.values(), &mut c1),
            back.predict_with_cache(probe.values(), &mut c2)
        );
    }

    #[test]
    fn save_load_round_trip() {
        let model = tiny_model("disk");
        let path = tmp("roundtrip");
        save_model(&model, &path).unwrap();
        let back = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, model);
        assert_eq!(back.name(), "disk");
        assert_eq!(back.max_shapelet_len(), 3);
    }

    #[test]
    fn missing_file_is_a_persist_error() {
        let err = load_model(tmp("never_written")).unwrap_err();
        assert!(matches!(err, IpsError::Persist { .. }), "{err}");
        assert!(err.to_string().contains("never_written"));
    }

    #[test]
    fn rejects_other_schema_versions() {
        let mut doc = tiny_model("v").to_json();
        doc.insert("schema_version", 99u64);
        let err = ServableModel::from_json(&doc).unwrap_err();
        assert!(
            matches!(
                err,
                IpsError::Record(ObsError::SchemaVersion {
                    found: 99,
                    expected: MODEL_SCHEMA_VERSION
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_wrong_kind() {
        let mut doc = tiny_model("k").to_json();
        doc.insert("kind", "ips_fit");
        let err = ServableModel::from_json(&doc).unwrap_err();
        assert!(
            matches!(err, IpsError::Record(ObsError::Malformed(_))),
            "{err}"
        );
    }

    #[test]
    fn truncated_file_is_a_parse_error_not_a_panic() {
        let text = tiny_model("t").to_json_string();
        for cut in [1, text.len() / 3, text.len() - 2] {
            let err = ServableModel::from_json_str(&text[..cut]).unwrap_err();
            assert!(
                matches!(err, IpsError::Record(ObsError::Parse(_))),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn garbled_documents_are_malformed_not_a_panic() {
        let model = tiny_model("g");
        type Surgery = Box<dyn Fn(&mut Json)>;
        let surgeries: Vec<(&str, Surgery)> = vec![
            (
                "no shapelets",
                Box::new(|d| {
                    d.insert("shapelets", Json::Arr(vec![]));
                }),
            ),
            (
                "svm is a string",
                Box::new(|d| {
                    d.insert("svm", "nope");
                }),
            ),
            (
                "shapelet values hold null",
                Box::new(|d| {
                    d.insert(
                        "shapelets",
                        Json::Arr(vec![{
                            let mut s = Json::object();
                            s.insert("values", Json::Arr(vec![Json::Null]));
                            s.insert("class", 0u64);
                            s.insert("source_offset", 0u64);
                            s.insert("score", 0.0);
                            s
                        }]),
                    );
                }),
            ),
            (
                "negative class",
                Box::new(|d| {
                    let Some(Json::Arr(shapelets)) = d.get("shapelets").cloned() else {
                        unreachable!()
                    };
                    let mut s = shapelets[0].clone();
                    s.insert("class", Json::Num(-1.0));
                    d.insert("shapelets", Json::Arr(vec![s]));
                }),
            ),
        ];
        for (what, surgery) in surgeries {
            let mut doc = model.to_json();
            surgery(&mut doc);
            let err = ServableModel::from_json(&doc).unwrap_err();
            assert!(
                matches!(err, IpsError::Record(ObsError::Malformed(_))),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn svm_structural_corruption_is_malformed() {
        let mut doc = tiny_model("s").to_json();
        let mut svm = doc.get("svm").unwrap().clone();
        svm.insert("classes", vec![0u64]); // one class
        doc.insert("svm", svm);
        let err = ServableModel::from_json(&doc).unwrap_err();
        assert!(
            matches!(err, IpsError::Record(ObsError::Malformed(_))),
            "{err}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected_at_assembly() {
        let model = tiny_model("d");
        let one_shapelet =
            ShapeletTransform::new(model.transform().shapelets()[..1].to_vec(), false);
        let err = ServableModel::new("d", one_shapelet, model.svm().clone()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn non_finite_parameters_cannot_be_saved() {
        let model = tiny_model("nf");
        let mut shapelets = model.transform().shapelets().to_vec();
        shapelets[0].values[1] = f64::NAN;
        let err = ServableModel::new(
            "nf",
            ShapeletTransform::new(shapelets, false),
            model.svm().clone(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}

//! The model registry: N fitted models, addressable by name.
//!
//! A [`ModelRegistry`] is the immutable half of the server — built once
//! (from memory or a directory of model files), then shared read-only by
//! every worker. `BTreeMap` keeps [`names`](ModelRegistry::names) in a
//! deterministic sorted order, which the batch scheduler relies on for
//! its fixed class-major merge order.

use std::collections::BTreeMap;
use std::path::Path;

use ips_core::IpsError;

use crate::persist::{load_model, ServableModel};

/// A named collection of servable models.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, ServableModel>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a model under its embedded name. Duplicate names are a hard
    /// error: silently shadowing a deployed model is how stale artifacts
    /// keep serving.
    pub fn insert(&mut self, model: ServableModel) -> Result<(), IpsError> {
        let name = model.name().to_string();
        if self.models.contains_key(&name) {
            return Err(IpsError::InvalidConfig {
                field: "registry",
                message: format!("duplicate model name {name:?}"),
            });
        }
        self.models.insert(name, model);
        Ok(())
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<&ServableModel> {
        self.models.get(name)
    }

    /// Model names in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Loads every `*.json` model file in `dir` (sorted by file name for
    /// deterministic error order). One corrupt file fails the whole load —
    /// a registry that silently dropped a model would misroute traffic.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, IpsError> {
        let dir = dir.as_ref();
        let persist = |e: std::io::Error| IpsError::Persist {
            path: dir.display().to_string(),
            reason: e.to_string(),
        };
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(persist)? {
            let path = entry.map_err(persist)?.path();
            if path.extension().is_some_and(|e| e == "json") {
                paths.push(path);
            }
        }
        paths.sort();
        let mut registry = Self::new();
        for path in paths {
            registry.insert(load_model(&path)?)?;
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::save_model;
    use ips_classify::svm::SvmParams;
    use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
    use ips_obs::ObsError;

    fn model(name: &str, flip: f64) -> ServableModel {
        let shapelets = vec![
            Shapelet::new(vec![flip * 5.0, flip * 6.0], 0),
            Shapelet::new(vec![flip * -5.0, flip * -6.0], 1),
        ];
        let features = vec![
            vec![0.1, 9.0],
            vec![0.3, 8.0],
            vec![9.0, 0.2],
            vec![8.0, 0.4],
        ];
        let svm = LinearSvm::fit(&features, &[0, 0, 1, 1], SvmParams::default());
        ServableModel::new(name, ShapeletTransform::new(shapelets, false), svm).unwrap()
    }

    #[test]
    fn insert_get_and_sorted_names() {
        let mut reg = ModelRegistry::new();
        assert!(reg.is_empty());
        reg.insert(model("zeta", 1.0)).unwrap();
        reg.insert(model("alpha", -1.0)).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["alpha", "zeta"]);
        assert_eq!(reg.get("zeta").unwrap().name(), "zeta");
        assert!(reg.get("gamma").is_none());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut reg = ModelRegistry::new();
        reg.insert(model("a", 1.0)).unwrap();
        let err = reg.insert(model("a", -1.0)).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn load_dir_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("ips_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        save_model(&model("a", 1.0), dir.join("a.json")).unwrap();
        save_model(&model("b", -1.0), dir.join("b.json")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let reg = ModelRegistry::load_dir(&dir).unwrap();
        assert_eq!(reg.names(), vec!["a", "b"]);

        std::fs::write(dir.join("c.json"), "{ truncated").unwrap();
        let err = ModelRegistry::load_dir(&dir).unwrap_err();
        assert!(matches!(err, IpsError::Record(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deeply_nested_model_file_is_a_parse_error_not_an_abort() {
        let dir = std::env::temp_dir().join(format!("ips_registry_deep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        save_model(&model("a", 1.0), dir.join("a.json")).unwrap();
        let deep =
            r#"{"schema_version":1,"kind":"ips_model","svm":"#.to_string() + &"[".repeat(1_000_000);
        std::fs::write(dir.join("deep.json"), deep).unwrap();
        let err = ModelRegistry::load_dir(&dir).unwrap_err();
        assert!(
            matches!(&err, IpsError::Record(ObsError::Parse(m)) if m.contains("nested deeper")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_on_missing_directory_is_a_persist_error() {
        let err = ModelRegistry::load_dir("/no/such/dir/anywhere").unwrap_err();
        assert!(matches!(err, IpsError::Persist { .. }), "{err}");
    }
}

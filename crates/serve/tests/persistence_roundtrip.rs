//! End-to-end persistence and serving checks on a real fitted classifier
//! (satellite contract of DESIGN.md §14): save → load → transform is
//! bit-identical to the in-memory transform, corrupt files surface typed
//! errors, and the server's batch path matches single-request scoring.

use std::sync::OnceLock;

use ips_core::{ChunkSize, IpsClassifier, IpsConfig, IpsError};
use ips_distance::DistCache;
use ips_obs::{Json, ObsError};
use ips_serve::{
    load_model, save_model, ClassifyRequest, IpsServer, ModelRegistry, ServableModel, ServeConfig,
};
use ips_tsdata::registry;
use proptest::prelude::*;

fn fitted() -> (IpsClassifier, ips_tsdata::Dataset) {
    let (train, test) = registry::load("ItalyPowerDemand").unwrap();
    let cfg = IpsConfig::default().with_sampling(5, 3).with_k(3);
    (IpsClassifier::fit(&train, cfg).unwrap(), test)
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ips_serve_it_{}_{tag}.json", std::process::id()))
}

#[test]
fn save_load_transform_is_bit_identical_to_in_memory() {
    let (model, test) = fitted();
    let servable = ServableModel::from_classifier("italy", &model).unwrap();
    let path = tmp("bitident");
    save_model(&servable, &path).unwrap();
    let loaded = load_model(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded, servable);
    assert_eq!(loaded.transform(), model.transform());
    // Bit-identity of behavior, not just structure: the loaded transform
    // produces the exact embedding of the in-memory one on every test
    // series — over the whole set, and one series at a time through the
    // cache path serving uses.
    assert_eq!(
        loaded.transform().transform(&test),
        model.transform().transform(&test),
    );
    for series in test.all_series() {
        let mut c1 = DistCache::new();
        let mut c2 = DistCache::new();
        assert_eq!(
            loaded.transform().transform_one_with_cache(series, &mut c1),
            model.transform().transform_one_with_cache(series, &mut c2),
        );
    }
    // And the decision function agrees everywhere.
    for series in test.all_series() {
        let mut cache = DistCache::new();
        assert_eq!(
            loaded.predict_with_cache(series.values(), &mut cache),
            model.predict(series)
        );
        // A served model explains its predictions exactly as the fitted
        // one does: same label, same matches, same bits.
        let view = |e: ips_core::Explanation| {
            let matches: Vec<_> = e
                .matches
                .iter()
                .map(|m| (m.shapelet_index, m.distance.to_bits(), m.match_offset))
                .collect();
            (e.predicted, matches)
        };
        assert_eq!(
            view(ips_core::explain_prediction(&loaded, series)),
            view(ips_core::explain_prediction(&model, series))
        );
    }
}

#[test]
fn corrupt_model_files_yield_typed_errors_never_panics() {
    let (model, _) = fitted();
    let servable = ServableModel::from_classifier("italy", &model).unwrap();
    let text = servable.to_json_string();
    let path = tmp("corrupt");

    // Truncations at every-ish depth of the document. (`len - 2` clips
    // the closing brace; `len - 1` would only drop the trailing newline.)
    for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 2] {
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(
            matches!(err, IpsError::Record(ObsError::Parse(_))),
            "cut={cut}: {err}"
        );
    }
    // Garbling that keeps the JSON valid but breaks the shape.
    std::fs::write(&path, text.replace("\"shapelets\"", "\"shapelettes\"")).unwrap();
    assert!(matches!(
        load_model(&path).unwrap_err(),
        IpsError::Record(ObsError::Malformed(_))
    ));
    // A future schema version is refused, not misread.
    std::fs::write(
        &path,
        text.replace("\"schema_version\": 1", "\"schema_version\": 999"),
    )
    .unwrap();
    assert!(matches!(
        load_model(&path).unwrap_err(),
        IpsError::Record(ObsError::SchemaVersion { found: 999, .. })
    ));
    // A document wrapped 200 levels deep is past the parser's nesting
    // limit: a parse error, not a stack overflow.
    std::fs::write(&path, mutate(&text, &text, 3, 0, 0, 200)).unwrap();
    assert!(matches!(
        load_model(&path).unwrap_err(),
        IpsError::Record(ObsError::Parse(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn served_batches_match_in_memory_classifier_predictions() {
    let (model, test) = fitted();
    let dir = std::env::temp_dir().join(format!("ips_serve_it_models_{}", std::process::id()));
    save_model(
        &ServableModel::from_classifier("italy", &model).unwrap(),
        dir.join("italy.json"),
    )
    .unwrap();
    let models = ModelRegistry::load_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mut server = IpsServer::new(
        models,
        ServeConfig {
            num_threads: 4,
            max_batch: 16,
            chunk_size: ChunkSize::Auto,
        },
    )
    .unwrap();
    let mut responses = Vec::new();
    for (i, series) in test.all_series().iter().enumerate() {
        let request = ClassifyRequest {
            id: i as u64,
            model: "italy".into(),
            window: series.values().to_vec(),
        };
        if let Some(batch) = server.submit(request).unwrap() {
            responses.extend(batch);
        }
    }
    responses.extend(server.flush().unwrap());
    assert_eq!(responses.len(), test.len());
    // The serving path (loaded model, batch admission, cached distances)
    // reproduces the in-memory classifier's prediction on every instance.
    for (i, series) in test.all_series().iter().enumerate() {
        assert_eq!(responses[i].id, i as u64);
        assert_eq!(responses[i].label, model.predict(series), "instance {i}");
    }
}

/// Two saved model documents from different fits: the document under
/// mutation, and a donor whose fragments get spliced into it. Fitted once
/// and shared by every proptest case.
fn saved_documents() -> &'static (String, String) {
    static DOCS: OnceLock<(String, String)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let (train, _) = registry::load("ItalyPowerDemand").unwrap();
        let save = |name: &str, cfg: IpsConfig| {
            let model = IpsClassifier::fit(&train, cfg).unwrap();
            let text = ServableModel::from_classifier(name, &model)
                .unwrap()
                .to_json_string();
            // Mutations cut and splice at byte offsets.
            assert!(text.is_ascii());
            text
        };
        let cfg = IpsConfig::default().with_sampling(5, 3);
        (
            save("italy", cfg.clone().with_k(3)),
            save("donor", cfg.with_k(2).with_seed(7)),
        )
    })
}

/// One corruption of `doc`, chosen by `kind`: truncate it, flip one byte
/// (XOR with a non-zero 7-bit mask, so the text stays ASCII), splice in a
/// fragment of `donor`, or wrap the whole document `depth` levels deep in
/// arrays or single-key objects.
fn mutate(doc: &str, donor: &str, kind: usize, a: u64, b: u64, depth: usize) -> String {
    let at = (a % (doc.len() as u64 + 1)) as usize;
    match kind {
        0 => doc[..at].to_string(),
        1 => {
            let mut bytes = doc.as_bytes().to_vec();
            let i = at.min(bytes.len() - 1);
            bytes[i] ^= (b % 127) as u8 + 1;
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        }
        2 => {
            let len = (b % 64) as usize + 1;
            let from = ((b >> 8) % donor.len() as u64) as usize;
            let fragment = &donor[from..(from + len).min(donor.len())];
            let end = (at + len).min(doc.len());
            format!("{}{fragment}{}", &doc[..at], &doc[end..])
        }
        _ => {
            let (open, close) = if b & 1 == 0 {
                ("[", "]")
            } else {
                ("{\"v\": ", "}")
            };
            format!("{}{doc}{}", open.repeat(depth), close.repeat(depth))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The persisted-model boundary (DESIGN.md §10, §14): whatever the
    /// bytes, `from_json_str` returns a typed codec error or a model —
    /// never a panic. A mutation that leaves the document's value intact
    /// (e.g. truncating only the trailing newline) must load the identical
    /// model; one that changes a value to another well-formed value (a
    /// flipped digit) may load, but only as a model that saves and
    /// reloads as itself.
    #[test]
    fn mutated_model_bytes_yield_typed_errors_or_faithful_models(
        kind in 0usize..4,
        a in any::<u64>(),
        b in any::<u64>(),
        depth in 120usize..=200,
    ) {
        let (doc, donor) = saved_documents();
        let mutated = mutate(doc, donor, kind, a, b, depth);
        match ServableModel::from_json_str(&mutated) {
            Err(e) => prop_assert!(
                matches!(e, IpsError::Record(_)),
                "kind {}: untyped failure {}", kind, e
            ),
            Ok(model) => {
                let saved = model.to_json_string();
                if Json::parse(&mutated).ok() == Json::parse(doc).ok() {
                    prop_assert_eq!(
                        &saved, doc,
                        "kind {}: value-preserving mutation changed the model", kind
                    );
                } else {
                    let reloaded = ServableModel::from_json_str(&saved);
                    prop_assert!(
                        reloaded.as_ref().is_ok_and(|m| *m == model),
                        "kind {}: a loaded model must reload as itself", kind
                    );
                }
            }
        }
    }
}

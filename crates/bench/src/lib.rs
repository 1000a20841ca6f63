//! Shared infrastructure for the table/figure reproduction harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see `DESIGN.md` §3 for the index); this library holds
//! the pieces they share: timed method runners, published constants
//! ([`published`]), dataset subsets, and plain-text table formatting.

pub mod published;

use std::time::Instant;

use ips_baselines::{BspCoverClassifier, BspCoverConfig};
use ips_classify::forest::{ForestParams, RotationForest};
use ips_core::ensemble::{CoteIpsEnsemble, EnsembleConfig};
use ips_core::{IpsClassifier, IpsConfig};
use ips_obs::Json;
use ips_tsdata::Dataset;

/// The `build` object every bench bin writes into its `results/*.json`
/// document, so a record says what it ran on: the target architecture
/// and whether the AVX2, FMA and AVX-512F target features were enabled
/// at compile time (`.cargo/config.toml` builds x86-64 for x86-64-v3,
/// which enables the first two).
pub fn build_stamp() -> Json {
    let mut build = Json::object();
    build.insert("target_arch", std::env::consts::ARCH);
    build.insert("avx2", cfg!(target_feature = "avx2"));
    build.insert("fma", cfg!(target_feature = "fma"));
    build.insert("avx512f", cfg!(target_feature = "avx512f"));
    build
}

/// Accuracy (fraction) and wall-clock fit+discovery time of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Seconds spent fitting (discovery + classifier training).
    pub fit_seconds: f64,
}

/// Times `fit`, then scores the fitted model with `score` (untimed) — the
/// skeleton every method runner shares. For example
/// `timed(|| OneNnEd::fit(&train), |m| m.accuracy(&test))`.
pub fn timed<M>(fit: impl FnOnce() -> M, score: impl FnOnce(&M) -> f64) -> RunResult {
    let t = Instant::now();
    let model = fit();
    let fit_seconds = t.elapsed().as_secs_f64();
    RunResult {
        accuracy: score(&model),
        fit_seconds,
    }
}

/// The harness-wide IPS configuration: the paper's grid values
/// `Q_N = 20`, `Q_S = 5` and `k = 5`.
pub fn ips_config() -> IpsConfig {
    IpsConfig::default().with_sampling(20, 5)
}

/// Accuracy of IPS averaged over `runs` random-sampling seeds — the
/// paper's protocol ("the results of IPS … are the mean values of 5
/// runs"). Timing is the mean fit time.
pub fn run_ips_avg(train: &Dataset, test: &Dataset, cfg: IpsConfig, runs: usize) -> RunResult {
    let runs = runs.max(1);
    let mut acc = 0.0;
    let mut secs = 0.0;
    for r in 0..runs {
        let c = cfg
            .clone()
            .with_seed(cfg.seed.wrapping_add(r as u64 * 0x9E37));
        let one = run_ips(train, test, c);
        acc += one.accuracy;
        secs += one.fit_seconds;
    }
    RunResult {
        accuracy: acc / runs as f64,
        fit_seconds: secs / runs as f64,
    }
}

/// Fits and scores IPS.
pub fn run_ips(train: &Dataset, test: &Dataset, cfg: IpsConfig) -> RunResult {
    timed(
        || IpsClassifier::fit(train, cfg).expect("IPS fit"),
        |m| m.accuracy(test),
    )
}

/// Fits and scores the BSPCOVER-style comparator, with its candidate cap
/// scaled to the dataset (cap recorded in DESIGN.md §2).
pub fn run_bspcover(train: &Dataset, test: &Dataset, k: usize) -> RunResult {
    let cfg = BspCoverConfig {
        k,
        ..Default::default()
    };
    timed(|| BspCoverClassifier::fit(train, cfg), |m| m.accuracy(test))
}

/// Fits and scores a Rotation Forest over the raw series values (the
/// Table VI `RotF` comparator).
pub fn run_rotf(train: &Dataset, test: &Dataset) -> RunResult {
    let values = |d: &Dataset| -> Vec<Vec<f64>> {
        d.all_series().iter().map(|s| s.values().to_vec()).collect()
    };
    timed(
        || RotationForest::fit(&values(train), train.labels(), ForestParams::default()),
        |f| ips_classify::eval::accuracy(&f.predict_all(&values(test)), test.labels()),
    )
}

/// Fits and scores the COTE-IPS-style ensemble.
pub fn run_cote_ips(train: &Dataset, test: &Dataset, ips: IpsConfig) -> RunResult {
    let cfg = EnsembleConfig {
        ips,
        ..Default::default()
    };
    timed(
        || CoteIpsEnsemble::fit(train, cfg).expect("ensemble fit"),
        |e| e.accuracy(test),
    )
}

/// The small-dataset subset used by default in the long sweeps (Table IV /
/// Table VI run these in seconds; `--full` switches to all 46).
pub const QUICK_SUBSET: [&str; 15] = [
    "ArrowHead",
    "BeetleFly",
    "CBF",
    "Coffee",
    "ECG200",
    "ECGFiveDays",
    "GunPoint",
    "ItalyPowerDemand",
    "MoteStrain",
    "SonyAIBORobotSurface1",
    "SonyAIBORobotSurface2",
    "SyntheticControl",
    "ToeSegmentation1",
    "TwoLeadECG",
    "Wafer",
];

/// True when the CLI asked for the full 46-dataset sweep.
pub fn full_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Dataset names for a sweep binary: the quick subset, or Table IV's 46
/// under `--full`.
pub fn sweep_datasets() -> Vec<&'static str> {
    if full_requested() {
        ips_tsdata::registry::table4_names()
    } else {
        QUICK_SUBSET.to_vec()
    }
}

/// Formats one table row: a name column then fixed-width value columns.
pub fn row(name: &str, values: &[String]) -> String {
    let mut out = format!("{name:<28}");
    for v in values {
        out.push_str(&format!(" {v:>10}"));
    }
    out
}

/// Formats a ratio as `x.xx×` or `-` when the denominator is ~zero.
pub fn speedup(num: f64, den: f64) -> String {
    if den <= 1e-12 {
        "-".into()
    } else {
        format!("{:.2}x", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_tsdata::registry;

    #[test]
    fn runners_produce_sane_results_on_a_tiny_dataset() {
        let (train, test) = registry::load("ItalyPowerDemand").unwrap();
        let cfg = IpsConfig::default().with_sampling(4, 3);
        let nn = timed(|| ips_classify::OneNnEd::fit(&train), |m| m.accuracy(&test));
        for r in [run_ips(&train, &test, cfg), nn] {
            assert!((0.0..=1.0).contains(&r.accuracy));
            assert!(r.fit_seconds >= 0.0);
        }
    }

    #[test]
    fn published_tables_are_complete() {
        assert_eq!(published::TABLE6.len(), 46);
        assert_eq!(published::TABLE4.len(), 46);
        // Table VI and IV cover the same datasets in the same order
        for (a, b) in published::TABLE6.iter().zip(&published::TABLE4) {
            assert_eq!(a.dataset, b.dataset);
        }
        // every published dataset exists in the registry
        for r in &published::TABLE4 {
            assert!(
                ips_tsdata::registry::info(r.dataset).is_ok(),
                "{}",
                r.dataset
            );
        }
        // exactly one missing value (ELIS / NonInvasive)
        let nans: usize = published::TABLE6
            .iter()
            .map(|r| r.acc.iter().filter(|v| v.is_nan()).count())
            .sum();
        assert_eq!(nans, 1);
    }

    #[test]
    fn quick_subset_is_registered() {
        for n in QUICK_SUBSET {
            assert!(ips_tsdata::registry::info(n).is_ok(), "{n}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert!(row("x", &["1".into(), "2".into()]).contains("x"));
        assert_eq!(speedup(10.0, 2.0), "5.00x");
        assert_eq!(speedup(1.0, 0.0), "-");
    }
}

//! Accuracy-vs-wall-clock scaling frontier: dense discovery vs sampled
//! candidate sources vs the sampled ensemble on 10×-scaled registry
//! datasets (DESIGN.md §13). Emits `results/BENCH_scaling.json` — an
//! array of versioned [`RunRecord`]s — which
//! `scripts/check_bench.py --scaling` diffs against the committed
//! `results/BENCH_scaling.baseline.json` in CI.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_scaling
//! ```
//!
//! Cells per dataset (labels `{method}/{dataset}x{factor}/t{threads}`):
//!
//! * `dense` (t1) — the reference: full candidate pool, exact utility
//!   scoring (`use_dt_cr = false`), so selection cost scales with
//!   pool × training instances and dominates discovery at 10×.
//! * `sampled_f05` (t1 **and** t2) / `sampled_f25` (t1) — the same run
//!   through a [`ips_core::SampledCandidateSource`] at fraction
//!   budgets. The t2 variant exists for the gate alone: sampling is
//!   pure in (workload, seed), so its counters and accuracy must be
//!   bit-identical to t1.
//! * `ensemble` (t1) — K independent sampled discoveries under derived
//!   member seeds, CV-weighted voting ([`SampledIpsEnsemble`]).
//!
//! Two spans per cell: `discovery.total` (the engine's summed stage
//! wall-clock; for the ensemble, summed over member discoveries — CV
//! weight learning and the transform/SVM heads are excluded on every
//! method) and `fit.total` (end to end). Everything that is not wall
//! clock is deterministic by construction: scaled datasets come from
//! `registry::load_scaled` (fixed name-derived seeds), every method is
//! seeded, and sampling never depends on thread count or chunk size —
//! so the checker pins counters, accuracies, params, and span keys
//! exactly, with no wall budgets.

use std::process::ExitCode;
use std::time::Instant;

use ips_core::{
    CandidateSampling, IpsClassifier, IpsConfig, SampledEnsembleConfig, SampledIpsEnsemble,
};
use ips_obs::{Json, MetricsRegistry, RunRecord, SCHEMA_VERSION};
use ips_tsdata::{registry, Dataset};

/// Registry datasets and the scale factor applied to instances and
/// length. 10× keeps the dense reference CI-sized; the sampled cells
/// are the ones that would still be tractable at 100×.
const DATASETS: [(&str, usize); 2] = [("ItalyPowerDemand", 10), ("SonyAIBORobotSurface2", 10)];

/// Sampled-ensemble shape: K members × per-member budget.
const ENSEMBLE_MEMBERS: usize = 3;
const ENSEMBLE_FRACTION: f64 = 0.10;

fn scaling_cfg(threads: usize, sampling: Option<CandidateSampling>) -> IpsConfig {
    // Q_S = 2 keeps the fixed per-run cost (instance-profile candidate
    // generation, which sampling cannot shrink) small relative to exact
    // selection, which scales with pool × instances.
    let mut cfg = IpsConfig::default()
        .with_sampling(6, 2)
        .with_k(3)
        .with_threads(threads);
    // Short ratios bound the sliding-distance cost at 10× lengths; exact
    // scoring (no DT+CR) makes selection cost proportional to the pool,
    // which is precisely the axis sampling shrinks.
    cfg.length_ratios = vec![0.1, 0.2, 0.3];
    cfg.use_dt_cr = false;
    cfg.candidate_sampling = sampling;
    cfg
}

struct CellOutcome {
    record: RunRecord,
    discovery_seconds: f64,
    fit_seconds: f64,
    accuracy: f64,
    sampled: usize,
    pool: usize,
    table: Option<String>,
}

/// Identity of one frontier cell.
struct Cell<'a> {
    method: &'a str,
    dataset: &'a str,
    factor: usize,
    /// Human-readable budget ("dense", "f0.05", "ens3xf0.10").
    budget: &'a str,
    threads: usize,
}

fn finish(
    cell: &Cell<'_>,
    metrics: &MetricsRegistry,
    discovery_ns: u64,
    fit_ns: u64,
    accuracy: f64,
) -> RunRecord {
    metrics.observe_ns("discovery.total", discovery_ns);
    metrics.observe_ns("fit.total", fit_ns);
    metrics.set_gauge("accuracy", accuracy);
    // Machine-dependent by design; informational to the checker.
    metrics.set_gauge("resolved_threads", cell.threads as f64);
    let Cell {
        method,
        dataset,
        factor,
        budget,
        threads,
    } = cell;
    RunRecord::new(*method, format!("{method}/{dataset}x{factor}/t{threads}"))
        .with_param("dataset", *dataset)
        .with_param("scale", format!("{factor}"))
        .with_param("method", *method)
        .with_param("budget", *budget)
        .with_param("threads", format!("{threads}"))
        .with_metrics(metrics.snapshot())
}

fn counter(metrics: &MetricsRegistry, key: &str) -> usize {
    usize::try_from(metrics.snapshot().counters.get(key).copied().unwrap_or(0)).unwrap_or(0)
}

/// One single-model cell: dense when `sampling` is `None`, sampled
/// otherwise.
fn run_ips(
    train: &Dataset,
    test: &Dataset,
    cell: &Cell<'_>,
    sampling: Option<CandidateSampling>,
) -> Result<CellOutcome, String> {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let model = IpsClassifier::fit(train, scaling_cfg(cell.threads, sampling))
        .map_err(|e| format!("{}/{}: {e}", cell.method, cell.dataset))?;
    let fit_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    metrics.merge_snapshot(&model.discovery().metrics);
    let discovery_ns =
        u64::try_from(model.discovery().report.total().as_nanos()).unwrap_or(u64::MAX);
    let accuracy = model.accuracy(test);
    let sampled = counter(&metrics, "candidate_gen.sampled_candidates");
    let pool = counter(&metrics, "candidate_gen.candidates_out");
    let table = (cell.method == "dense").then(|| model.discovery().report.render_table());
    Ok(CellOutcome {
        record: finish(cell, &metrics, discovery_ns, fit_ns, accuracy),
        discovery_seconds: discovery_ns as f64 / 1e9,
        fit_seconds: fit_ns as f64 / 1e9,
        accuracy,
        sampled,
        pool,
        table,
    })
}

/// The sampled-ensemble cell: K members, each a sampled discovery under
/// its own derived seed, CV-weighted voting.
fn run_ensemble(train: &Dataset, test: &Dataset, cell: &Cell<'_>) -> Result<CellOutcome, String> {
    let config = SampledEnsembleConfig {
        ips: scaling_cfg(
            cell.threads,
            Some(CandidateSampling::fraction(ENSEMBLE_FRACTION)),
        ),
        members: ENSEMBLE_MEMBERS,
        cv_folds: 2,
    };
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let model = SampledIpsEnsemble::fit_recorded(train, &config, &metrics)
        .map_err(|e| format!("{}/{}: {e}", cell.method, cell.dataset))?;
    let fit_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let discovery_ns = u64::try_from(model.discovery_total().as_nanos()).unwrap_or(u64::MAX);
    let accuracy = model.accuracy(test);
    let pool = counter(&metrics, "candidate_gen.candidates_in");
    Ok(CellOutcome {
        record: finish(cell, &metrics, discovery_ns, fit_ns, accuracy),
        discovery_seconds: discovery_ns as f64 / 1e9,
        fit_seconds: fit_ns as f64 / 1e9,
        accuracy,
        sampled: model.sampled_candidates(),
        pool,
        table: None,
    })
}

fn run() -> Result<(), String> {
    println!("scaling frontier: dense vs sampled vs sampled ensemble\n");
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    let grand = Instant::now();

    for (dataset, factor) in DATASETS {
        let (train, test) =
            registry::load_scaled(dataset, factor).map_err(|e| format!("{dataset}: {e}"))?;
        println!(
            "{dataset} x{factor}: {} train / {} test instances of length {}",
            train.len(),
            test.len(),
            train.min_length()
        );
        println!(
            "  {:<14} {:>7} {:>12} {:>9} {:>9} {:>13}",
            "method", "threads", "discovery_s", "fit_s", "accuracy", "pool"
        );
        let cells: Vec<(Cell<'_>, Option<CandidateSampling>, bool)> = vec![
            (
                Cell {
                    method: "dense",
                    dataset,
                    factor,
                    budget: "dense",
                    threads: 1,
                },
                None,
                false,
            ),
            (
                Cell {
                    method: "sampled_f05",
                    dataset,
                    factor,
                    budget: "f0.05",
                    threads: 1,
                },
                Some(CandidateSampling::fraction(0.05)),
                false,
            ),
            (
                Cell {
                    method: "sampled_f05",
                    dataset,
                    factor,
                    budget: "f0.05",
                    threads: 2,
                },
                Some(CandidateSampling::fraction(0.05)),
                false,
            ),
            (
                Cell {
                    method: "sampled_f25",
                    dataset,
                    factor,
                    budget: "f0.25",
                    threads: 1,
                },
                Some(CandidateSampling::fraction(0.25)),
                false,
            ),
            (
                Cell {
                    method: "ensemble",
                    dataset,
                    factor,
                    budget: "ens3xf0.10",
                    threads: 1,
                },
                None,
                true,
            ),
        ];
        for (cell, sampling, is_ensemble) in cells {
            let outcome = if is_ensemble {
                run_ensemble(&train, &test, &cell)?
            } else {
                run_ips(&train, &test, &cell, sampling)?
            };
            println!(
                "  {:<14} {:>7} {:>12.3} {:>9.3} {:>9.4} {:>8}/{:<4}",
                cell.method,
                cell.threads,
                outcome.discovery_seconds,
                outcome.fit_seconds,
                outcome.accuracy,
                outcome.sampled,
                outcome.pool,
            );
            outcomes.push(outcome);
        }
        // The frontier headline: sampled speedup over dense discovery.
        let dense = outcomes
            .iter()
            .rev()
            .find(|o| o.record.kind == "dense")
            .ok_or("dense cell missing")?;
        for o in outcomes.iter().rev().take(4) {
            if o.record.kind != "dense" && o.record.label.ends_with("/t1") {
                println!(
                    "  -> {}: {:.1}x discovery speedup, accuracy {:+.4} vs dense",
                    o.record.kind,
                    dense.discovery_seconds / o.discovery_seconds.max(1e-9),
                    o.accuracy - dense.accuracy,
                );
            }
        }
    }

    for o in &outcomes {
        if let Some(table) = &o.table {
            println!("\n{} discovery stages:\n{table}", o.record.label);
        }
    }

    let mut doc = Json::object();
    doc.insert("bench", "scaling");
    doc.insert("build", ips_bench::build_stamp());
    doc.insert("schema_version", u64::from(SCHEMA_VERSION));
    doc.insert(
        "datasets",
        Json::Arr(
            DATASETS
                .iter()
                .map(|(d, f)| Json::Str(format!("{d}x{f}")))
                .collect(),
        ),
    );
    doc.insert(
        "runs",
        Json::Arr(outcomes.iter().map(|o| o.record.to_json()).collect()),
    );
    std::fs::create_dir_all("results").map_err(|e| format!("create results dir: {e}"))?;
    std::fs::write("results/BENCH_scaling.json", doc.to_string_pretty())
        .map_err(|e| format!("write results/BENCH_scaling.json: {e}"))?;
    println!(
        "\nwrote results/BENCH_scaling.json ({} runs) in {:.1}s",
        outcomes.len(),
        grand.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_scaling: {message}");
            ExitCode::FAILURE
        }
    }
}

//! Cross-method conformance grid: every engine-backed method × the whole
//! `tsdata::registry` synthetic suite × thread counts {1, max} × scheduler
//! chunk {Auto, Fixed(7)}, one schema-v2 [`RunRecord`] per cell.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_grid
//! ```
//!
//! Outputs:
//!
//! * `results/GRID.json` — the full cell grid plus a rank summary
//!   (average Friedman ranks, Nemenyi CD) that
//!   `scripts/check_bench.py --grid` diffs against the committed
//!   `results/GRID.baseline.json`.
//! * `results/GRID_cd.txt` — the Friedman/Nemenyi critical-difference
//!   summary rendered by `ips-stats::cd::grid_summary_text`.
//!
//! Every cell uses the registry's capped *grid spec*
//! (`registry::load_grid`), so the full 47-dataset sweep stays CI-sized
//! while every dataset keeps its identity (classes, noise, modes).
//! Everything except wall clock is deterministic by construction:
//! datasets are synthesized from fixed seeds, methods are seeded, and the
//! engine guarantees bit-identical results and counters at any thread
//! count (and, up to `sched_items`, at any chunk size). The checker
//! enforces exactly that.
//!
//! Method families (DESIGN.md §12):
//!
//! * `ips`, `ips_exact`, `ensemble`, `multivariate` — engine-routed with
//!   the scheduler knob, so they run the full threads × chunk cross.
//! * `base`, `bspcover` — engine-routed (thread knob) but their stages
//!   never touch the scheduler, so the chunk axis would only duplicate
//!   cells; they run threads × {auto}.
//! * `fast_shapelets`, `sd`, `st` — not engine-routed; one cell each
//!   pins their seeded determinism and accuracy.

use std::process::ExitCode;
use std::time::Instant;

use ips_baselines::{
    BaseClassifier, BaseConfig, BspCoverClassifier, BspCoverConfig, FastShapeletsClassifier,
    FastShapeletsConfig, SdClassifier, SdConfig, StClassifier, StConfig,
};
use ips_classify::forest::ForestParams;
use ips_core::{
    ChunkSize, CoteIpsEnsemble, EnsembleConfig, IpsClassifier, IpsConfig, MultivariateDataset,
    MultivariateIps,
};
use ips_obs::{GridCell, Json, MetricsRegistry, RunRecord, SCHEMA_VERSION};
use ips_stats::{friedman_test, grid_summary_text, CdDiagram};
use ips_tsdata::{registry, Dataset, SynthGenerator};

/// Methods in grid (and CD-diagram) order. Every method contributes the
/// `t1/cauto` cell of every dataset to the rank summary.
const METHODS: [&str; 9] = [
    "ips",
    "ips_exact",
    "base",
    "bspcover",
    "ensemble",
    "multivariate",
    "fast_shapelets",
    "sd",
    "st",
];

/// Thread-axis cases: label and the `num_threads` knob value (`0` =
/// available parallelism).
const THREAD_CASES: [(&str, usize); 2] = [("1", 1), ("max", 0)];

/// Chunk-axis cases for methods that honor the scheduler knob.
const CHUNK_CASES: [(&str, ChunkSize); 2] =
    [("auto", ChunkSize::Auto), ("fixed7", ChunkSize::Fixed(7))];

fn ips_cfg(threads: usize, chunk: ChunkSize, exact: bool) -> IpsConfig {
    let mut cfg = IpsConfig::default()
        .with_sampling(4, 2)
        .with_k(2)
        .with_threads(threads)
        .with_chunk_size(chunk);
    if exact {
        // Exact utility scoring drives Algorithm 4 through the FFT
        // distance cache, exercising kernel/cache counters end to end.
        cfg.use_dt_cr = false;
    }
    cfg
}

fn base_cfg(threads: usize) -> BaseConfig {
    BaseConfig {
        k: 2,
        length_ratios: vec![0.15, 0.3],
        num_threads: threads,
        ..Default::default()
    }
}

fn bspcover_cfg(threads: usize) -> BspCoverConfig {
    BspCoverConfig {
        k: 2,
        length_ratios: vec![0.2],
        stride_fraction: 0.25,
        max_candidates: 400,
        num_threads: threads,
        ..Default::default()
    }
}

fn ensemble_cfg(threads: usize, chunk: ChunkSize) -> EnsembleConfig {
    EnsembleConfig {
        ips: IpsConfig::default()
            .with_sampling(3, 2)
            .with_k(1)
            .with_threads(threads)
            .with_chunk_size(chunk),
        forest: ForestParams {
            num_trees: 10,
            ..Default::default()
        },
        cv_folds: 2,
    }
}

fn fs_cfg() -> FastShapeletsConfig {
    FastShapeletsConfig {
        k: 2,
        length_ratios: vec![0.2, 0.4],
        rounds: 4,
        refine_pool: 8,
        ..Default::default()
    }
}

fn sd_cfg() -> SdConfig {
    SdConfig {
        k: 2,
        length_ratios: vec![0.2, 0.4],
        samples_per_class: 40,
        ..Default::default()
    }
}

fn st_cfg() -> StConfig {
    StConfig {
        k: 2,
        length_ratios: vec![0.2],
        stride_fraction: 0.3,
        max_candidates: 400,
        ..Default::default()
    }
}

/// The two aligned dimensions of the grid's multivariate variant of a
/// registry dataset: the capped grid spec generated under two derived
/// seeds. Labels agree across dimensions by construction (the generator
/// assigns them round-robin from the geometry, not the seed).
fn load_grid_multivariate(
    name: &str,
) -> Result<(MultivariateDataset, MultivariateDataset), String> {
    let info = registry::info(name).map_err(|e| e.to_string())?;
    let mut train_dims = Vec::with_capacity(2);
    let mut test_dims = Vec::with_capacity(2);
    for d in 0..2u64 {
        let spec = info.grid_spec();
        let seed = spec
            .seed
            .wrapping_add(d.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (train, test) = SynthGenerator::new(spec.with_seed(seed))
            .generate()
            .map_err(|e| format!("{name} dim {d}: {e}"))?;
        train_dims.push(train.znormalized());
        test_dims.push(test.znormalized());
    }
    Ok((
        MultivariateDataset::new(train_dims),
        MultivariateDataset::new(test_dims),
    ))
}

/// Finishes one cell: stamps accuracy and the machine-dependent resolved
/// thread count (informational), folds in the method's own telemetry,
/// and attaches the `fit.total` span.
fn finish(
    cell: &GridCell,
    metrics: &MetricsRegistry,
    accuracy: f64,
    resolved_threads: usize,
    elapsed_ns: u64,
) -> RunRecord {
    metrics.set_gauge("accuracy", accuracy);
    metrics.set_gauge("resolved_threads", resolved_threads as f64);
    metrics.observe_ns("fit.total", elapsed_ns);
    cell.record().with_metrics(metrics.snapshot())
}

struct CellOutcome {
    record: RunRecord,
    accuracy: f64,
}

/// Runs one grid cell. `threads` is the knob value (0 = max); `chunk` is
/// ignored by methods that do not schedule.
fn run_cell(
    method: &str,
    train: &Dataset,
    test: &Dataset,
    cell: &GridCell,
    threads: usize,
    chunk: ChunkSize,
    resolved_threads: usize,
) -> Result<CellOutcome, String> {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let accuracy = match method {
        "ips" | "ips_exact" => {
            let model = IpsClassifier::fit(train, ips_cfg(threads, chunk, method == "ips_exact"))
                .map_err(|e| format!("{}: {e}", cell.label()))?;
            metrics.merge_snapshot(&model.discovery().metrics);
            model.accuracy(test)
        }
        "base" => {
            let model = BaseClassifier::fit_recorded(train, base_cfg(threads), &metrics);
            model.accuracy(test)
        }
        "bspcover" => {
            let model = BspCoverClassifier::fit_recorded(train, bspcover_cfg(threads), &metrics);
            model.accuracy(test)
        }
        "ensemble" => {
            let model = CoteIpsEnsemble::fit(train, ensemble_cfg(threads, chunk))
                .map_err(|e| format!("{}: {e}", cell.label()))?;
            if let Some(report) = model.ips_report() {
                metrics.merge_snapshot(&report.to_metrics());
            }
            model.accuracy(test)
        }
        "fast_shapelets" => FastShapeletsClassifier::fit(train, fs_cfg()).accuracy(test),
        "sd" => SdClassifier::fit(train, sd_cfg()).accuracy(test),
        "st" => StClassifier::fit(train, st_cfg()).accuracy(test),
        other => return Err(format!("unknown grid method {other:?}")),
    };
    let elapsed_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(CellOutcome {
        record: finish(cell, &metrics, accuracy, resolved_threads, elapsed_ns),
        accuracy,
    })
}

/// Runs the multivariate cells for one dataset (separate entry point:
/// the method consumes `MultivariateDataset`s, not `Dataset`s).
fn run_multivariate_cell(
    train: &MultivariateDataset,
    test: &MultivariateDataset,
    cell: &GridCell,
    threads: usize,
    chunk: ChunkSize,
    resolved_threads: usize,
) -> Result<CellOutcome, String> {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let cfg = IpsConfig::default()
        .with_sampling(3, 2)
        .with_k(1)
        .with_threads(threads)
        .with_chunk_size(chunk);
    let model = MultivariateIps::fit(train, cfg).map_err(|e| format!("{}: {e}", cell.label()))?;
    for report in model.reports() {
        metrics.merge_snapshot(&report.to_metrics());
    }
    let accuracy = model.accuracy(test);
    let elapsed_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(CellOutcome {
        record: finish(cell, &metrics, accuracy, resolved_threads, elapsed_ns),
        accuracy,
    })
}

/// The (threads, chunk) variants a method runs: the full cross for
/// scheduler-aware methods, the thread axis for engine methods without
/// the knob, one cell for methods outside the engine.
fn variants(method: &str) -> Vec<(&'static str, usize, &'static str, ChunkSize)> {
    let full_cross = matches!(method, "ips" | "ips_exact" | "ensemble" | "multivariate");
    let thread_axis = matches!(method, "base" | "bspcover");
    let mut out = Vec::new();
    for (t_label, t) in THREAD_CASES {
        for (c_label, c) in CHUNK_CASES {
            let keep = if full_cross {
                true
            } else if thread_axis {
                c_label == "auto"
            } else {
                t_label == "1" && c_label == "auto"
            };
            if keep {
                out.push((t_label, t, c_label, c));
            }
        }
    }
    out
}

fn run() -> Result<(), String> {
    let resolved_max = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "conformance grid: {} methods x {} datasets (max threads = {resolved_max})\n",
        METHODS.len(),
        registry::names().len()
    );

    let mut records: Vec<RunRecord> = Vec::new();
    // accuracy[dataset][method] from the t1/cauto cells, registry order
    let mut accuracy_rows: Vec<Vec<f64>> = Vec::new();
    let grand = Instant::now();

    for info in registry::infos() {
        let name = info.name;
        let (train, test) = registry::load_grid(name).map_err(|e| e.to_string())?;
        let (mv_train, mv_test) = load_grid_multivariate(name)?;
        let mut row = vec![f64::NAN; METHODS.len()];
        let t_dataset = Instant::now();
        for (m_idx, &method) in METHODS.iter().enumerate() {
            for (t_label, threads, c_label, chunk) in variants(method) {
                let resolved = if threads == 0 { resolved_max } else { threads };
                let cell = GridCell::new(method, name, t_label, c_label);
                let outcome = if method == "multivariate" {
                    run_multivariate_cell(&mv_train, &mv_test, &cell, threads, chunk, resolved)?
                } else {
                    run_cell(method, &train, &test, &cell, threads, chunk, resolved)?
                };
                if t_label == "1" && c_label == "auto" {
                    row[m_idx] = outcome.accuracy;
                }
                records.push(outcome.record);
            }
        }
        println!(
            "{name:<28} {:>6.2}s  acc {}",
            t_dataset.elapsed().as_secs_f64(),
            row.iter()
                .map(|a| format!("{a:.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        accuracy_rows.push(row);
    }

    // Rank summary over the t1/cauto accuracy matrix.
    let fr = friedman_test(&accuracy_rows);
    let diagram = CdDiagram::from_scores(&METHODS, &accuracy_rows);
    let cd_text = grid_summary_text(&METHODS, &accuracy_rows);

    let mut summary = Json::object();
    summary.insert("methods", METHODS.to_vec());
    summary.insert(
        "avg_ranks",
        Json::Arr(fr.avg_ranks.iter().map(|&r| Json::Num(r)).collect()),
    );
    summary.insert("cd", diagram.cd);
    summary.insert("friedman_chi2", fr.chi2);
    summary.insert("friedman_p_chi2", fr.p_chi2);

    let mut doc = Json::object();
    doc.insert("bench", "grid");
    doc.insert("build", ips_bench::build_stamp());
    doc.insert("schema_version", u64::from(SCHEMA_VERSION));
    doc.insert("datasets", registry::names());
    doc.insert("summary", summary);
    doc.insert(
        "runs",
        Json::Arr(records.iter().map(RunRecord::to_json).collect()),
    );

    std::fs::create_dir_all("results").map_err(|e| format!("create results dir: {e}"))?;
    std::fs::write("results/GRID.json", doc.to_string_pretty())
        .map_err(|e| format!("write results/GRID.json: {e}"))?;
    std::fs::write("results/GRID_cd.txt", &cd_text)
        .map_err(|e| format!("write results/GRID_cd.txt: {e}"))?;

    println!("\n{cd_text}");
    println!(
        "wrote results/GRID.json ({} cells) and results/GRID_cd.txt in {:.1}s",
        records.len(),
        grand.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_grid: {message}");
            ExitCode::FAILURE
        }
    }
}

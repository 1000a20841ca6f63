//! Chaos suite: every armed fault must surface as a **typed error** or a
//! **documented degradation** — never an abort, never poisoned sibling
//! work. Scenarios arm one [`FaultPlan`] knob at a time against the
//! staged engine and pin the exact failure contract; the final tests pin
//! that an *inert* plan is bit-identical to running with no plan at all,
//! so the fault plumbing costs nothing on production paths.

use std::time::Duration;

use ips_core::engine::Stage;
use ips_core::{DiscoveryBudget, Engine, FaultPlan, IpsConfig, IpsError};
use ips_tsdata::{Dataset, DatasetSpec, SynthGenerator};

fn synth_train() -> Dataset {
    let spec = DatasetSpec::new("Chaos", 3, 64, 15, 12).with_noise(0.2);
    SynthGenerator::new(spec).generate().unwrap().0
}

fn base_cfg() -> IpsConfig {
    IpsConfig::default()
        .with_sampling(5, 3)
        .with_k(3)
        .with_seed(42)
}

fn run_with(
    plan: FaultPlan,
    cfg: IpsConfig,
    train: &Dataset,
) -> Result<ips_core::DiscoveryResult, IpsError> {
    Engine::from_config(&cfg).with_faults(plan).run(train)
}

// ---------------------------------------------------------------------------
// Data faults → typed validation errors
// ---------------------------------------------------------------------------

#[test]
fn nan_window_is_caught_by_validation_as_typed_error() {
    let train = synth_train();
    for seed in 0..4 {
        let plan = FaultPlan {
            nan_window: true,
            ..FaultPlan::new(seed)
        };
        let err = run_with(plan, base_cfg(), &train).unwrap_err();
        assert!(
            matches!(
                err,
                IpsError::InvalidData(ips_tsdata::Error::NonFinite { .. })
            ),
            "seed {seed}: expected NonFinite, got {err}"
        );
    }
}

#[test]
fn truncated_series_is_caught_by_validation_as_typed_error() {
    let train = synth_train();
    for seed in 0..4 {
        let plan = FaultPlan {
            truncate_series: true,
            ..FaultPlan::new(seed)
        };
        let err = run_with(plan, base_cfg(), &train).unwrap_err();
        assert!(
            matches!(
                err,
                IpsError::InvalidData(ips_tsdata::Error::EmptySeries { .. })
            ),
            "seed {seed}: expected EmptySeries, got {err}"
        );
    }
}

#[test]
fn data_faults_never_mutate_the_caller_dataset() {
    let train = synth_train();
    let before: Vec<Vec<f64>> = train
        .all_series()
        .iter()
        .map(|s| s.values().to_vec())
        .collect();
    let plan = FaultPlan {
        nan_window: true,
        truncate_series: true,
        ..FaultPlan::new(11)
    };
    let _ = run_with(plan, base_cfg(), &train);
    let after: Vec<Vec<f64>> = train
        .all_series()
        .iter()
        .map(|s| s.values().to_vec())
        .collect();
    assert_eq!(before, after, "corruption must act on a private copy");
}

// ---------------------------------------------------------------------------
// Stage panics → StageFailed, siblings unpoisoned, reruns clean
// ---------------------------------------------------------------------------

#[test]
fn every_stage_panic_is_contained_as_stage_failed() {
    let train = synth_train();
    for stage in Stage::ALL {
        let plan = FaultPlan {
            stage_panic: Some(stage),
            ..FaultPlan::new(0)
        };
        let err = run_with(plan, base_cfg(), &train).unwrap_err();
        match err {
            IpsError::StageFailed {
                stage: name,
                reason,
            } => {
                assert_eq!(name, stage.name(), "wrong stage attributed");
                assert!(
                    reason.contains("injected fault"),
                    "panic payload lost: {reason}"
                );
            }
            other => panic!("{stage:?}: expected StageFailed, got {other}"),
        }
    }
}

#[test]
fn a_contained_panic_does_not_poison_subsequent_runs() {
    let train = synth_train();
    let plan = FaultPlan {
        stage_panic: Some(Stage::TopK),
        ..FaultPlan::new(0)
    };
    let armed = Engine::from_config(&base_cfg()).with_faults(plan);
    // The armed engine fails identically run after run — no lockup, no
    // abort, no state carried between failures.
    for _ in 0..2 {
        assert!(matches!(
            armed.run(&train).unwrap_err(),
            IpsError::StageFailed { stage: "top_k", .. }
        ));
    }
    // And a clean engine on the same data is entirely unaffected.
    let clean = Engine::from_config(&base_cfg()).run(&train).unwrap();
    assert!(!clean.shapelets.is_empty());
    assert!(!clean.degraded);
}

#[test]
fn stage_panics_are_contained_on_parallel_runs_too() {
    let train = synth_train();
    for threads in [2, 0] {
        let plan = FaultPlan {
            stage_panic: Some(Stage::CandidateGen),
            ..FaultPlan::new(0)
        };
        let err = run_with(plan, base_cfg().with_threads(threads), &train).unwrap_err();
        assert!(
            matches!(
                err,
                IpsError::StageFailed {
                    stage: "candidate_gen",
                    ..
                }
            ),
            "threads={threads}: got {err}"
        );
    }
}

mod scheduler_panic_props {
    use super::*;
    use ips_core::ChunkSize;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Scheduler merge-order determinism under injected stage panics:
        /// whatever (threads, chunk) decomposition the armed run used when
        /// it died, the panic surfaces as the same typed `StageFailed`, and
        /// a clean engine afterwards — same decomposition — still merges
        /// bit-identically to the sequential reference. A worker pool that
        /// leaked, reordered, or dropped sibling items on panic would
        /// diverge here.
        #[test]
        fn stage_panics_leave_every_decomposition_deterministic(
            stage_idx in 0usize..4,
            threads_idx in 0usize..4,
            chunk_idx in 0usize..4,
            fault_seed in 0u64..64,
        ) {
            let stage = Stage::ALL[stage_idx];
            let threads = [1usize, 2, 3, 0][threads_idx];
            let chunk = [
                ChunkSize::Auto,
                ChunkSize::Fixed(1),
                ChunkSize::Fixed(2),
                ChunkSize::Fixed(5),
            ][chunk_idx];
            let train = synth_train();
            let cfg = base_cfg().with_threads(threads).with_chunk_size(chunk);
            let reference = Engine::from_config(&base_cfg()).run(&train).unwrap();

            let plan = FaultPlan {
                stage_panic: Some(stage),
                ..FaultPlan::new(fault_seed)
            };
            let err = run_with(plan, cfg.clone(), &train).unwrap_err();
            match err {
                IpsError::StageFailed { stage: name, .. } => {
                    prop_assert_eq!(name, stage.name(), "panic attributed to the wrong stage")
                }
                other => prop_assert!(
                    false,
                    "threads={} chunk={:?} {:?}: expected StageFailed, got {}",
                    threads, chunk, stage, other
                ),
            }

            let clean = Engine::from_config(&cfg).run(&train).unwrap();
            prop_assert_eq!(&clean.shapelets, &reference.shapelets);
            prop_assert_eq!(clean.report.candidates_generated(), reference.report.candidates_generated());
            prop_assert_eq!(clean.report.candidates_pruned(), reference.report.candidates_pruned());
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel failure → graceful degradation to the naive scorer
// ---------------------------------------------------------------------------

#[test]
fn kernel_failure_degrades_to_naive_scoring_with_identical_results() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.use_dt_cr = false; // exact scoring draws from the distance cache
    assert!(cfg.use_fft_kernel, "scenario requires the FFT kernel path");

    let plain = Engine::from_config(&cfg).run(&train).unwrap();
    let plan = FaultPlan {
        kernel_error: true,
        ..FaultPlan::new(0)
    };
    let faulted = run_with(plan, cfg, &train).unwrap();

    // The fallback is silent at the result level...
    assert_eq!(faulted.shapelets, plain.shapelets);
    assert_eq!(
        faulted.report.candidates_pruned(),
        plain.report.candidates_pruned()
    );
    assert!(
        !faulted.degraded,
        "kernel fallback is not a budget degradation"
    );

    // ...and visible in telemetry: every kernel attempt fell back.
    let topk = faulted.report.stage(Stage::TopK).unwrap().counters;
    assert!(topk.kernel_fallbacks > 0, "fallbacks must be counted");
    assert_eq!(
        topk.kernel_fallbacks, topk.kernel_evals,
        "with the kernel always failing, every eval is a fallback"
    );
    let healthy = plain.report.stage(Stage::TopK).unwrap().counters;
    assert_eq!(healthy.kernel_fallbacks, 0);
}

// ---------------------------------------------------------------------------
// Budgets → best-so-far with degraded=true (or typed exhaustion)
// ---------------------------------------------------------------------------

#[test]
fn candidate_budget_returns_best_so_far_with_degraded_flag() {
    let train = synth_train();
    let full = Engine::from_config(&base_cfg()).run(&train).unwrap();
    let cfg = base_cfg().with_budget(DiscoveryBudget {
        max_candidates: Some(full.report.candidates_generated() / 2),
        ..DiscoveryBudget::default()
    });
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    assert!(result.degraded, "a tripped budget must be stamped");
    assert!(!result.shapelets.is_empty(), "best-so-far, not nothing");
    let pruning = result.report.stage(Stage::Pruning).unwrap().counters;
    assert_eq!(
        pruning.candidates_in,
        full.report.candidates_generated() / 2,
        "pruning must see the truncated pool"
    );
    // The flag survives serialization (RunRecord schema v2).
    let record = result
        .report
        .to_record("discovery", "chaos")
        .with_degraded(result.degraded);
    let back = ips_obs::RunRecord::from_json_str(&record.to_json_string()).unwrap();
    assert!(back.degraded);
}

#[test]
fn unreachable_candidate_budget_changes_nothing() {
    let train = synth_train();
    let full = Engine::from_config(&base_cfg()).run(&train).unwrap();
    let cfg = base_cfg().with_budget(DiscoveryBudget {
        max_candidates: Some(full.report.candidates_generated()),
        ..DiscoveryBudget::default()
    });
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    assert!(!result.degraded);
    assert_eq!(result.shapelets, full.shapelets);
}

#[test]
fn expired_wall_clock_budget_still_yields_a_result_or_typed_exhaustion() {
    let train = synth_train();
    let cfg = base_cfg().with_budget(DiscoveryBudget {
        max_wall_clock: Some(Duration::from_nanos(1)),
        ..DiscoveryBudget::default()
    });
    // An already-expired deadline skips pruning and stops scoring after
    // the first class: either a degraded best-so-far result or — if even
    // that produced nothing — a typed BudgetExhausted. Never a panic.
    match Engine::from_config(&cfg).run(&train) {
        Ok(result) => {
            assert!(result.degraded);
            assert!(!result.shapelets.is_empty());
        }
        Err(IpsError::BudgetExhausted { budget, .. }) => {
            assert_eq!(budget, "max_wall_clock");
        }
        Err(other) => panic!("expected degradation or BudgetExhausted, got {other}"),
    }
}

#[test]
fn generous_wall_clock_budget_matches_unbudgeted_selection() {
    let train = synth_train();
    let full = Engine::from_config(&base_cfg()).run(&train).unwrap();
    let cfg = base_cfg().with_budget(DiscoveryBudget {
        max_wall_clock: Some(Duration::from_secs(3600)),
        ..DiscoveryBudget::default()
    });
    let result = Engine::from_config(&cfg).run(&train).unwrap();
    assert!(!result.degraded);
    assert_eq!(result.shapelets, full.shapelets);
}

// ---------------------------------------------------------------------------
// The inert plan is free
// ---------------------------------------------------------------------------

#[test]
fn inert_fault_plan_is_bit_identical_to_no_plan() {
    let train = synth_train();
    for threads in [1, 2] {
        let cfg = base_cfg().with_threads(threads);
        let plain = Engine::from_config(&cfg).run(&train).unwrap();
        let inert = run_with(FaultPlan::default(), cfg, &train).unwrap();
        assert_eq!(inert.shapelets, plain.shapelets, "threads={threads}");
        assert_eq!(
            inert.report.candidates_generated(),
            plain.report.candidates_generated()
        );
        assert_eq!(
            inert.report.candidates_pruned(),
            plain.report.candidates_pruned()
        );
        assert_eq!(inert.degraded, plain.degraded);
        for stage in Stage::ALL {
            assert_eq!(
                inert.report.stage(stage).unwrap().counters,
                plain.report.stage(stage).unwrap().counters,
                "{stage:?} counters diverge under an inert plan"
            );
        }
    }
}

#[test]
fn invalid_config_is_rejected_before_any_fault_or_stage_runs() {
    let train = synth_train();
    let mut cfg = base_cfg();
    cfg.k = 0;
    let plan = FaultPlan {
        stage_panic: Some(Stage::CandidateGen),
        ..FaultPlan::new(0)
    };
    // Validation comes first: the armed panic never fires.
    let err = run_with(plan, cfg, &train).unwrap_err();
    assert!(
        matches!(err, IpsError::InvalidConfig { field: "k", .. }),
        "got {err}"
    );
}

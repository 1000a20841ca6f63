//! Property-based tests of the sampled candidate source (DESIGN.md §13):
//! the subsample is always a subsequence of the inner source's pool,
//! bit-identical across repeated calls and across threads × chunk sizes,
//! and stratified draws keep at least one candidate in every class the
//! inner source populated. Case count follows the workspace convention:
//! `PROPTEST_CASES` (CI runs 256), defaulting to the vendored stub's 64.

use ips_core::engine::Stage;
use ips_core::{
    sample_pool, Candidate, CandidateKind, CandidatePool, CandidateSampling, ChunkSize, Engine,
    IpsConfig, SampleBudget,
};
use ips_tsdata::{DatasetSpec, SynthGenerator};
use proptest::prelude::*;

/// Pool shapes: up to 4 classes with 0–30 candidates each.
fn pool_strategy() -> impl Strategy<Value = CandidatePool> {
    prop::collection::vec(0usize..30, 1..5).prop_map(|sizes| {
        let mut pool = CandidatePool::default();
        for (class, n) in sizes.into_iter().enumerate() {
            for i in 0..n {
                pool.push(Candidate {
                    values: vec![i as f64, class as f64, 0.5],
                    class: class as u32,
                    kind: if i % 2 == 0 {
                        CandidateKind::Motif
                    } else {
                        CandidateKind::Discord
                    },
                    ip_value: i as f64,
                    source_instance: i,
                    source_offset: 2 * i,
                    embedded: vec![i as f64],
                });
            }
        }
        pool
    })
}

/// Either budget kind: `use_fraction` picks which of the two sampled
/// parameters applies (the vendored proptest stub has no `prop_oneof`).
fn budget_strategy() -> impl Strategy<Value = SampleBudget> {
    (any::<bool>(), 1u64..=100, 1usize..40).prop_map(|(use_fraction, percent, count)| {
        if use_fraction {
            SampleBudget::Fraction(percent as f64 / 100.0)
        } else {
            SampleBudget::Count(count)
        }
    })
}

/// True when `sub`'s candidates appear in `sup` in the same order,
/// class by class.
fn is_subsequence_of(sub: &CandidatePool, sup: &CandidatePool) -> bool {
    sub.classes().iter().all(|&c| {
        let mut it = sub.of_class(c).iter().peekable();
        for cand in sup.of_class(c) {
            if it.peek() == Some(&cand) {
                it.next();
            }
        }
        it.peek().is_none()
    })
}

proptest! {
    /// The draw is a subsequence of the inner pool and repeated draws are
    /// bit-identical.
    #[test]
    fn sample_is_a_deterministic_subsequence(
        pool in pool_strategy(),
        budget in budget_strategy(),
        stratified in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let sampling = CandidateSampling { budget, stratified };
        let a = sample_pool(&pool, sampling, seed);
        prop_assert!(a.len() <= pool.len());
        prop_assert!(is_subsequence_of(&a, &pool));
        let b = sample_pool(&pool, sampling, seed);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Stratified sampling keeps ≥ 1 candidate in every class the inner
    /// source populated (and never invents a class).
    #[test]
    fn stratified_keeps_every_populated_class(
        pool in pool_strategy(),
        budget in budget_strategy(),
        seed in any::<u64>(),
    ) {
        let sampling = CandidateSampling { budget, stratified: true };
        let sampled = sample_pool(&pool, sampling, seed);
        prop_assert_eq!(sampled.classes(), pool.classes());
        for class in pool.classes() {
            prop_assert!(
                !sampled.of_class(class).is_empty(),
                "class {} lost all candidates", class
            );
        }
    }
}

/// End to end through the engine: sampled discovery is bit-identical
/// across repeated calls and threads {1, 4} × chunk {Auto, Fixed(7)},
/// and the sampled pool is never larger than the dense pool. Plain test
/// over fixed combos — each combo runs five full discoveries, so
/// proptest-scale case counts would swamp the suite; the pure-function
/// properties above carry the case volume.
#[test]
fn sampled_discovery_is_pure_in_workload_and_seed() {
    let spec = DatasetSpec::new("SampledProps", 3, 48, 12, 6).with_noise(0.2);
    let (train, _) = SynthGenerator::new(spec).generate().unwrap();
    for (seed, fraction, stratified) in [(5, 0.3, true), (17, 0.5, false), (901, 0.15, true)] {
        let sampling = CandidateSampling::fraction(fraction).with_stratified(stratified);
        let cfg = IpsConfig::default()
            .with_sampling(4, 3)
            .with_k(2)
            .with_seed(seed)
            .with_candidate_sampling(sampling);
        let dense = Engine::from_config(&{
            let mut c = cfg.clone();
            c.candidate_sampling = None;
            c
        })
        .run(&train)
        .unwrap();
        let reference = Engine::from_config(&cfg).run(&train).unwrap();
        assert!(reference.report.candidates_generated() <= dense.report.candidates_generated());
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
        for (threads, chunk) in [
            (1, ChunkSize::Auto),
            (4, ChunkSize::Auto),
            (1, ChunkSize::Fixed(7)),
            (4, ChunkSize::Fixed(7)),
        ] {
            let run =
                Engine::from_config(&cfg.clone().with_threads(threads).with_chunk_size(chunk))
                    .run(&train)
                    .unwrap();
            let tag = format!("seed={seed} threads={threads} chunk={chunk:?}");
            assert_eq!(run.shapelets, reference.shapelets, "{tag}");
            assert_eq!(
                run.report.candidates_generated(),
                reference.report.candidates_generated(),
                "{tag}"
            );
            let counters = run.report.stage(Stage::CandidateGen).unwrap().counters;
            assert_eq!(counters.sampled_candidates, gen.sampled_candidates, "{tag}");
        }
    }
}

//! Algorithm 1 scaling benchmarks: candidate generation vs sample count
//! and sample size, plus the sequential-vs-parallel ablation (the
//! future-work extension).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ips_core::engine::ProfileCandidateSource;
use ips_core::{generate_candidates, CandidateSource, ExecContext, IpsConfig, WorkerPool};
use ips_tsdata::{DatasetSpec, SynthGenerator};

fn train(classes: usize, len: usize, size: usize) -> ips_tsdata::Dataset {
    SynthGenerator::new(DatasetSpec::new("BenchGen", classes, len, size, 4))
        .generate()
        .expect("generation")
        .0
}

fn bench_qn_scaling(c: &mut Criterion) {
    let data = train(2, 128, 24);
    let mut g = c.benchmark_group("candidate_gen_qn");
    g.sample_size(10);
    for &qn in &[5usize, 10, 20] {
        let cfg = IpsConfig::default().with_sampling(qn, 5);
        g.bench_with_input(BenchmarkId::from_parameter(qn), &qn, |b, _| {
            b.iter(|| black_box(generate_candidates(&data, &cfg)))
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let data = train(4, 128, 48);
    let source = ProfileCandidateSource::new(IpsConfig::default().with_sampling(10, 5));
    let mut g = c.benchmark_group("candidate_gen_parallel");
    g.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let mut ctx = ExecContext::new(WorkerPool::new(t));
                black_box(source.generate(&data, &mut ctx).expect("generation"))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_qn_scaling, bench_parallel);
criterion_main!(benches);

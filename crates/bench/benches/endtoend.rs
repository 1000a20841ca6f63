//! End-to-end discovery benchmarks: IPS vs BASE vs BSPCOVER* on one
//! mid-sized dataset — the Table IV contrast as a tracked microbenchmark.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ips_baselines::{
    discover_base_shapelets, discover_bspcover_shapelets, BaseConfig, BspCoverConfig,
};
use ips_core::{Engine, IpsConfig};
use ips_tsdata::registry;

fn bench_endtoend(c: &mut Criterion) {
    let (train, _) = registry::load("ItalyPowerDemand").expect("registry dataset");
    let mut g = c.benchmark_group("discovery_italy");
    g.sample_size(10);
    g.bench_function("ips", |b| {
        let engine = Engine::from_config(&IpsConfig::default().with_sampling(10, 5));
        b.iter(|| black_box(engine.run(&train).expect("discovery")))
    });
    g.bench_function("base", |b| {
        let cfg = BaseConfig::default();
        b.iter(|| black_box(discover_base_shapelets(&train, &cfg)))
    });
    g.bench_function("bspcover", |b| {
        let cfg = BspCoverConfig::default();
        b.iter(|| black_box(discover_bspcover_shapelets(&train, &cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench_endtoend);
criterion_main!(benches);

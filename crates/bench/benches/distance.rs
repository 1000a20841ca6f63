//! Distance-kernel microbenchmarks: the naive O(n·m) sliding distance vs
//! the rolling-dot z-normalized profile vs the FFT-based MASS kernel
//! (through a fresh `DistCache` forced onto the kernel, the path every fit
//! and served request takes).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ips_distance::{
    dist_profile, dist_profile_znorm, dtw_banded, sliding_min_dist, DistCache, KernelPolicy, Metric,
};

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.011).cos())
        .collect()
}

fn bench_profiles(c: &mut Criterion) {
    let mut g = c.benchmark_group("distance_profile");
    for &n in &[512usize, 2048, 8192] {
        let s = series(n);
        let q: Vec<f64> = s[7..7 + 64].to_vec();
        g.bench_with_input(BenchmarkId::new("raw", n), &n, |b, _| {
            b.iter(|| black_box(dist_profile(&q, &s)))
        });
        g.bench_with_input(BenchmarkId::new("znorm_rolling", n), &n, |b, _| {
            b.iter(|| black_box(dist_profile_znorm(&q, &s)))
        });
        g.bench_with_input(BenchmarkId::new("mass_fft_cache", n), &n, |b, _| {
            b.iter(|| {
                black_box(DistCache::with_policy(KernelPolicy::ForceKernel).min_dist(
                    &q,
                    &s,
                    Metric::ZNormEuclidean,
                ))
            })
        });
    }
    g.finish();
}

fn bench_sliding_and_dtw(c: &mut Criterion) {
    let s = series(1024);
    let q: Vec<f64> = s[100..180].to_vec();
    c.bench_function("sliding_min_dist_1024x80", |b| {
        b.iter(|| black_box(sliding_min_dist(&q, &s)))
    });
    let a = series(256);
    let b2: Vec<f64> = (0..256).map(|i| (i as f64 * 0.21).cos()).collect();
    let mut g = c.benchmark_group("dtw_256");
    for &band in &[8usize, 32, usize::MAX] {
        g.bench_with_input(
            BenchmarkId::new("band", if band == usize::MAX { 0 } else { band }),
            &band,
            |bch, &band| bch.iter(|| black_box(dtw_banded(&a, &b2, band))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_profiles, bench_sliding_and_dtw);
criterion_main!(benches);

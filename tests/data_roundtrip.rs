//! Integration tests of the data layer: UCR file round-trips through the
//! real on-disk format, registry determinism, and profile invariants over
//! generated data.

use ips::distance::{argmin, dist_profile_znorm, DistCache, KernelPolicy};
use ips::profile::{InstanceProfile, MatrixProfile, Metric};
use ips::tsdata::{registry, ucr};

#[test]
fn registry_dataset_round_trips_through_ucr_files() {
    let (train, _) = registry::load("ItalyPowerDemand").expect("registry dataset");
    let dir = std::env::temp_dir().join("ips_ucr_roundtrip_test");
    let ds_dir = dir.join("ItalyPowerDemand");
    std::fs::create_dir_all(&ds_dir).expect("mkdir");
    ucr::write_file(ds_dir.join("ItalyPowerDemand_TRAIN.tsv"), &train).expect("write train");
    ucr::write_file(ds_dir.join("ItalyPowerDemand_TEST.tsv"), &train).expect("write test");
    let (train2, _) = registry::load_real(&dir, "ItalyPowerDemand").expect("load real");
    assert_eq!(train.len(), train2.len());
    for i in 0..train.len() {
        assert_eq!(train.label(i), train2.label(i));
        for (a, b) in train
            .series(i)
            .values()
            .iter()
            .zip(train2.series(i).values())
        {
            assert!((a - b).abs() < 1e-9);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_registry_dataset_synthesizes() {
    for name in registry::names() {
        let (train, test) = registry::load(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(train.num_classes() >= 2, "{name}");
        assert!(!test.is_empty(), "{name}");
        assert_eq!(train.uniform_length(), test.uniform_length(), "{name}");
        // registry data is z-normalized per instance
        let s = train.series(0);
        assert!(s.mean().abs() < 1e-9, "{name}");
        assert!((s.std() - 1.0).abs() < 1e-9, "{name}");
    }
}

#[test]
fn profile_invariants_on_generated_data() {
    let (train, _) = registry::load("GunPoint").expect("registry dataset");
    let concat = train.concat_class(0);
    let window = 30;
    // matrix profile of the concatenation is an elementwise lower bound of
    // the instance profile (more candidate neighbors can only shrink NN
    // distances)
    let mp = MatrixProfile::self_join(concat.values(), window, Metric::ZNormEuclidean);
    let ip = InstanceProfile::compute(&concat, window, Metric::ZNormEuclidean);
    for e in ip.entries() {
        let mp_val = mp.values()[e.start];
        assert!(
            mp_val <= e.value + 1e-6,
            "at {}: mp {mp_val} > ip {}",
            e.start,
            e.value
        );
    }
}

#[test]
fn mass_agrees_with_reference_on_real_generated_series() {
    let (train, _) = registry::load("ECG200").expect("registry dataset");
    let s = train.series(0).values();
    let q = &train.series(1).values()[10..40];
    let (d, at) =
        DistCache::with_policy(KernelPolicy::ForceKernel).min_dist(q, s, Metric::ZNormEuclidean);
    let (want_at, want) = argmin(&dist_profile_znorm(q, s)).expect("a finite window");
    // the kernel reports the mean-squared scale: z-ED² / m
    let want = want * want / q.len() as f64;
    assert!((d - want).abs() < 1e-9 * (1.0 + want), "{d} vs {want}");
    assert_eq!(at, want_at);
}

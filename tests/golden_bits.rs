//! Golden bits: a default fit on CBF and a handful of distance and
//! instance-profile values, pinned to committed constants bit for bit.
//!
//! The release build targets x86-64-v3 (`.cargo/config.toml`); every
//! figure here must come out the same on the baseline x86-64 target. A
//! build-target or compiler-flag change that moves a single bit — an
//! FMA contraction, a reassociated reduction — fails `cargo test` here,
//! not only the benchmark gates. The constants were taken on x86_64
//! with glibc's `exp`, which the utility sigmoid and the SVM call, so
//! the pins are checked on x86_64 only.
#![cfg(target_arch = "x86_64")]

use ips::core::{IpsClassifier, IpsConfig};
use ips::distance::{sliding_min_dist, sliding_min_dist_znorm};
use ips::profile::{InstanceProfile, Metric};
use ips::tsdata::{registry, Dataset};

/// FNV-1a over 64-bit words: a stable digest of bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }
}

fn cbf() -> (Dataset, Dataset) {
    registry::load("CBF").expect("registry dataset")
}

/// The default fit at seed 1: its shapelets' values and scores, and its
/// test-set predictions.
#[test]
fn default_fit_on_cbf_is_bit_identical() {
    let (train, test) = cbf();
    let model = IpsClassifier::fit(&train, IpsConfig::default().with_seed(1)).expect("fit");
    let shapelets = model.shapelets();
    let mut values = Fnv::new();
    for s in shapelets {
        values
            .word(s.class.into())
            .word(s.source_instance as u64)
            .word(s.source_offset as u64)
            .word(s.values.len() as u64);
        s.values.iter().for_each(|&v| {
            values.f64(v);
        });
    }
    let scores: Vec<u64> = shapelets.iter().map(|s| s.score.to_bits()).collect();
    let predictions = model.predict_all(&test);
    let mut labels = Fnv::new();
    predictions.iter().for_each(|&l| {
        labels.word(l.into());
    });
    println!(
        "shapelets {} values {:#018x} scores {:#018x?} predictions {:#018x}",
        shapelets.len(),
        values.0,
        scores,
        labels.0
    );
    assert_eq!(shapelets.len(), SHAPELETS);
    assert_eq!(values.0, SHAPELET_VALUES_DIGEST);
    assert_eq!(scores, SHAPELET_SCORE_BITS);
    assert_eq!(predictions.len(), test.len());
    assert_eq!(labels.0, PREDICTIONS_DIGEST);
}

/// Sliding minimum distances, z-normalized and mean squared, of a few
/// training subsequences against other training series: `(query series,
/// offset, length, target series)`.
const DIST_CASES: [(usize, usize, usize, usize); 6] = [
    (0, 10, 7, 1),
    (0, 40, 13, 5),
    (3, 0, 32, 20),
    (7, 60, 26, 11),
    (12, 5, 64, 2),
    (25, 30, 97, 29),
];

#[test]
fn sliding_min_distances_are_bit_identical() {
    let (train, _) = cbf();
    let got: Vec<(u64, usize, u64, usize)> = DIST_CASES
        .iter()
        .map(|&(q, at, m, t)| {
            let query = train.series(q).subsequence(at, m);
            let target = train.series(t).values();
            let (z, zi) = sliding_min_dist_znorm(query, target);
            let (d, di) = sliding_min_dist(query, target);
            (z.to_bits(), zi, d.to_bits(), di)
        })
        .collect();
    println!("{got:#018x?}");
    assert_eq!(got, SLIDING_MIN_DISTS);

    // A digest over a grid of queries and targets, so a last-bit change
    // that the six cases above happen to round away still shows.
    let mut grid = Fnv::new();
    for q in 0..12 {
        for m in [5, 11, 20, 33, 48] {
            let query = train.series(q).subsequence(3 * q, m);
            for t in 0..12 {
                let target = train.series(12 + t).values();
                let (z, zi) = sliding_min_dist_znorm(query, target);
                let (d, di) = sliding_min_dist(query, target);
                grid.f64(z).word(zi as u64).f64(d).word(di as u64);
            }
        }
    }
    println!("grid {:#018x}", grid.0);
    assert_eq!(grid.0, SLIDING_GRID_DIGEST);
}

/// Instance profiles of each class's concatenation at three window
/// lengths, both metrics: a digest of every entry's value bits and
/// nearest-neighbour start.
#[test]
fn instance_profiles_are_bit_identical() {
    let (train, _) = cbf();
    let mut got = Vec::new();
    for class in train.classes() {
        let concat = train.concat_class(class);
        for window in [8, 25, 64] {
            for metric in [Metric::ZNormEuclidean, Metric::MeanSquared] {
                let profile = InstanceProfile::compute(&concat, window, metric);
                let mut d = Fnv::new();
                for e in profile.entries() {
                    d.f64(e.value).word(e.nn_start as u64);
                }
                got.push(d.0);
            }
        }
    }
    println!("{got:#018x?}");
    assert_eq!(got, INSTANCE_PROFILE_DIGESTS);
}

// The pins. A deliberate value change re-pins them from the figures the
// failing test prints (`cargo test --release --test golden_bits --
// --nocapture`), and says why in the change's record.

const SHAPELETS: usize = 15;
const SHAPELET_VALUES_DIGEST: u64 = 0xc6bc_d757_e647_9cd2;
const SHAPELET_SCORE_BITS: [u64; SHAPELETS] = [
    0xbfe1_9617_9cac_e1b0,
    0xbfe1_98d5_6d73_f7d2,
    0xbfe1_9b35_cc07_b71f,
    0xbfe1_9b9b_61f5_0923,
    0xbfe1_9c58_a2d2_8592,
    0xbfe0_656a_c6bb_d4a3,
    0xbfe0_6d8e_5787_2f07,
    0xbfe0_710e_476c_24e4,
    0xbfe0_7163_0acd_fd88,
    0xbfe0_8ca6_039d_998a,
    0xbfe1_dd7e_89ab_01af,
    0xbfe1_dfc5_9791_7e44,
    0xbfe1_e0c4_dc52_5d29,
    0xbfe1_e19b_1153_f2ee,
    0xbfe1_e3da_7883_f925,
];
const PREDICTIONS_DIGEST: u64 = 0xd81b_accd_e990_bc46;
const SLIDING_MIN_DISTS: [(u64, usize, u64, usize); DIST_CASES.len()] = [
    (0x3fd4_c549_1909_d02d, 60, 0x3fcd_ab44_c11e_f3de, 47),
    (0x3fee_c250_fb2f_012e, 82, 0x3fdb_cfcc_ef3d_4280, 71),
    (0x3fe4_d660_4e0a_3601, 44, 0x3fe4_803f_886d_7172, 13),
    (0x3fdb_870b_ea1d_6a9c, 62, 0x3fe2_c6d7_c424_7a51, 62),
    (0x3fe9_9d6e_a037_942b, 10, 0x3ff0_37a1_b3fc_f786, 8),
    (0x3ff7_7fcb_8371_4cf0, 31, 0x3ffb_ba09_553e_25c3, 31),
];
const SLIDING_GRID_DIGEST: u64 = 0xba2b_2701_da31_169c;
const INSTANCE_PROFILE_DIGESTS: [u64; 18] = [
    0x3a37_6b26_83be_f6bd,
    0x5bae_60cb_bbc9_5c33,
    0x9710_ffff_7b40_488f,
    0x8d04_10ad_ef30_8b65,
    0x6edc_f200_078b_b299,
    0x73df_5731_0bcf_d98c,
    0xd150_ce02_334e_45c2,
    0x0fe6_0354_1cae_d234,
    0x6988_0008_c451_c7f8,
    0x849b_7594_18af_8daa,
    0x90cd_1606_82f5_e3bd,
    0xbdaa_ee77_a72c_c046,
    0x382c_f9ed_9240_c445,
    0xefd1_2078_4b24_2853,
    0xbef1_9ba8_9f85_8638,
    0x82ad_35b4_4cee_8782,
    0xec6a_4a04_06a9_edbb,
    0xbc84_1bda_4421_a0f2,
];

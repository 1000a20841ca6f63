//! The three LSH families evaluated in Table VII.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which hash family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LshKind {
    /// p-stable L2 hashing (Datar et al.): `h(v) = ⌊(a·v + b) / w⌋` with
    /// Gaussian `a`. The paper's default and the most accurate (Table VII).
    L2,
    /// Random-hyperplane cosine hashing (SimHash): `h(v) = sign(a·v)`.
    Cosine,
    /// Hamming bit sampling over a unary quantization of each coordinate.
    Hamming,
}

/// Parameters of an [`Lsh`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshParams {
    /// Hash family.
    pub kind: LshKind,
    /// Input dimension (candidates are embedded to this; see
    /// [`crate::embed`](mod@crate::embed)).
    pub dim: usize,
    /// Number of concatenated hash functions per signature.
    pub num_hashes: usize,
    /// Quantization width `w` for the L2 family.
    pub bucket_width: f64,
    /// Quantization levels per coordinate for the Hamming family.
    pub hamming_levels: usize,
    /// RNG seed; fixed seeds make the whole pipeline reproducible.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        Self {
            kind: LshKind::L2,
            dim: 32,
            num_hashes: 8,
            bucket_width: 2.0,
            hamming_levels: 8,
            seed: 0x05ee_d1b5,
        }
    }
}

/// A hash signature: the concatenation of `num_hashes` discrete hash
/// values. Signatures are the bucket keys of [`crate::BucketTable`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature(pub Vec<i32>);

/// An instantiated LSH family: `num_hashes` random projections plus the
/// discretization rule of the chosen [`LshKind`].
#[derive(Debug, Clone)]
pub struct Lsh {
    params: LshParams,
    /// Row-major `num_hashes × dim` Gaussian projection matrix.
    projections: Vec<f64>,
    /// Offsets `b ~ U[0, w)` (L2 family only).
    offsets: Vec<f64>,
    /// Sampled coordinate/level pairs (Hamming family only).
    bit_samples: Vec<(usize, usize)>,
}

impl Lsh {
    /// Instantiates the family from parameters (deterministic in
    /// `params.seed`).
    pub fn new(params: LshParams) -> Self {
        assert!(
            params.dim > 0 && params.num_hashes > 0,
            "dim and num_hashes must be positive"
        );
        assert!(params.bucket_width > 0.0, "bucket_width must be positive");
        assert!(
            params.hamming_levels >= 2,
            "need at least 2 quantization levels"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let projections = (0..params.num_hashes * params.dim)
            .map(|_| gauss(&mut rng))
            .collect();
        let offsets = (0..params.num_hashes)
            .map(|_| rng.random_range(0.0..params.bucket_width))
            .collect();
        let bit_samples = (0..params.num_hashes)
            .map(|_| {
                (
                    rng.random_range(0..params.dim),
                    rng.random_range(0..params.hamming_levels),
                )
            })
            .collect();
        Self {
            params,
            projections,
            offsets,
            bit_samples,
        }
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// The real-valued projection of `v` before discretization — for the
    /// L2 family this is `(a_i·v + b_i)/w` per hash; for cosine the raw
    /// dot products; for Hamming the per-sample quantized levels as reals.
    /// The DABF's distance-to-origin and the DT lower bound (Formula 15)
    /// operate in this space.
    ///
    /// # Panics
    /// Panics when `v.len() != params.dim`.
    pub fn project(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.params.dim, "input dimension mismatch");
        match self.params.kind {
            LshKind::L2 => (0..self.params.num_hashes)
                .map(|h| (self.dot(h, v) + self.offsets[h]) / self.params.bucket_width)
                .collect(),
            LshKind::Cosine => (0..self.params.num_hashes)
                .map(|h| self.dot(h, v))
                .collect(),
            LshKind::Hamming => {
                let q = self.quantize(v);
                self.bit_samples
                    .iter()
                    .map(|&(coord, level)| if q[coord] > level { 1.0 } else { 0.0 })
                    .collect()
            }
        }
    }

    /// The discrete signature of `v` — the bucket key.
    ///
    /// # Panics
    /// Panics when `v.len() != params.dim`.
    pub fn signature(&self, v: &[f64]) -> Signature {
        self.signature_of(&self.project(v))
    }

    /// The signature of an already computed [`Lsh::project`] output, so a
    /// caller that also needs the projection pays for it once: L2 floors
    /// each coordinate, cosine takes its sign, Hamming reads its bit.
    pub(crate) fn signature_of(&self, proj: &[f64]) -> Signature {
        let sig = match self.params.kind {
            LshKind::L2 => proj.iter().map(|x| x.floor() as i32).collect(),
            LshKind::Cosine => proj.iter().map(|&x| i32::from(x >= 0.0)).collect(),
            LshKind::Hamming => proj.iter().map(|&x| x as i32).collect(),
        };
        Signature(sig)
    }

    #[inline]
    fn dot(&self, h: usize, v: &[f64]) -> f64 {
        let row = &self.projections[h * self.params.dim..(h + 1) * self.params.dim];
        row.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    /// Quantizes each coordinate into `hamming_levels` levels over a fixed
    /// range (±3, adequate for z-normalized embeddings).
    fn quantize(&self, v: &[f64]) -> Vec<usize> {
        let levels = self.params.hamming_levels;
        v.iter()
            .map(|&x| {
                let t = ((x + 3.0) / 6.0).clamp(0.0, 1.0);
                ((t * levels as f64) as usize).min(levels - 1)
            })
            .collect()
    }
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_unit(rng: &mut StdRng, dim: usize) -> Vec<f64> {
        let v: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        v.into_iter().map(|x| x / norm).collect()
    }

    fn collision_rate(kind: LshKind, scale: f64, trials: usize) -> f64 {
        let lsh = Lsh::new(LshParams {
            kind,
            dim: 16,
            num_hashes: 4,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = 0;
        for _ in 0..trials {
            let a = random_unit(&mut rng, 16);
            // perturb by `scale`
            let b: Vec<f64> = a
                .iter()
                .map(|x| x + scale * rng.random_range(-1.0..1.0))
                .collect();
            if lsh.signature(&a) == lsh.signature(&b) {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    }

    #[test]
    fn close_points_collide_more_than_far_points() {
        for kind in [LshKind::L2, LshKind::Cosine, LshKind::Hamming] {
            let near = collision_rate(kind, 0.02, 300);
            let far = collision_rate(kind, 2.0, 300);
            assert!(
                near > far + 0.1,
                "{kind:?}: near {near} should beat far {far} clearly"
            );
        }
    }

    #[test]
    fn identical_inputs_always_collide() {
        for kind in [LshKind::L2, LshKind::Cosine, LshKind::Hamming] {
            let lsh = Lsh::new(LshParams {
                kind,
                dim: 8,
                ..Default::default()
            });
            let v = [0.3, -1.0, 0.5, 2.0, -0.2, 0.0, 1.0, -1.5];
            assert_eq!(lsh.signature(&v), lsh.signature(&v));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let p = LshParams {
            seed: 99,
            ..Default::default()
        };
        let (a, b) = (Lsh::new(p), Lsh::new(p));
        let v: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        assert_eq!(a.signature(&v), b.signature(&v));
        let c = Lsh::new(LshParams {
            seed: 100,
            ..Default::default()
        });
        // different seed → different projections → (almost surely) different signature
        assert_ne!(a.signature(&v), c.signature(&v));
    }

    #[test]
    fn projection_has_expected_arity() {
        let lsh = Lsh::new(LshParams {
            num_hashes: 6,
            dim: 8,
            ..Default::default()
        });
        let v = [0.5; 8];
        assert_eq!(lsh.project(&v).len(), 6);
        assert_eq!(lsh.signature(&v).0.len(), 6);
    }

    #[test]
    fn l2_signature_is_floor_of_projection() {
        let lsh = Lsh::new(LshParams::default());
        let v: Vec<f64> = (0..32).map(|i| (i as f64 * 0.21).cos()).collect();
        let proj = lsh.project(&v);
        let sig = lsh.signature(&v);
        for (p, s) in proj.iter().zip(&sig.0) {
            assert_eq!(p.floor() as i32, *s);
        }
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let lsh = Lsh::new(LshParams {
            kind: LshKind::Cosine,
            dim: 8,
            ..Default::default()
        });
        let v = [0.3, -1.0, 0.5, 2.0, -0.2, 0.0, 1.0, -1.5];
        let scaled: Vec<f64> = v.iter().map(|x| x * 42.0).collect();
        assert_eq!(lsh.signature(&v), lsh.signature(&scaled));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let lsh = Lsh::new(LshParams::default());
        lsh.signature(&[1.0, 2.0]);
    }
}

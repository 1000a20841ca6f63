//! The classic Bloom filter (Bloom, 1970).

use std::hash::{Hash, Hasher};

/// A space-efficient probabilistic set-membership filter. `contains` may
/// return false positives but never false negatives.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_items` at the given target
    /// false-positive rate, using the standard optimal sizing
    /// `m = −n·ln p / (ln 2)²`, `k = (m/n)·ln 2`.
    pub fn with_rate(expected_items: usize, fp_rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fp_rate) && fp_rate > 0.0,
            "fp_rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * fp_rate.ln()) / (ln2 * ln2)).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * ln2).round().clamp(1.0, 30.0) as u32;
        Self::new(m, k)
    }

    /// Creates a filter with exactly `num_bits` bits and `num_hashes` hash
    /// functions.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        let num_bits = num_bits.max(64);
        Self {
            bits: vec![0u64; num_bits.div_ceil(64)],
            num_bits,
            num_hashes: num_hashes.max(1),
            items: 0,
        }
    }

    /// Inserts an item.
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) {
        let (h1, h2) = self.base_hashes(item);
        for i in 0..self.num_hashes {
            let bit = self.index(h1, h2, i);
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.items += 1;
    }

    /// True when the item is *possibly* in the set; false means
    /// *definitely not*.
    pub fn contains<T: Hash + ?Sized>(&self, item: &T) -> bool {
        let (h1, h2) = self.base_hashes(item);
        (0..self.num_hashes).all(|i| {
            let bit = self.index(h1, h2, i);
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of inserted items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when nothing has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Capacity in bits.
    #[inline]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Estimated false-positive rate at the current fill:
    /// `(1 − e^{−kn/m})^k`.
    pub fn estimated_fp_rate(&self) -> f64 {
        let k = self.num_hashes as f64;
        let n = self.items as f64;
        let m = self.num_bits as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Double hashing: index_i = h1 + i·h2 (Kirsch–Mitzenmacher).
    #[inline]
    fn index(&self, h1: u64, h2: u64, i: u32) -> usize {
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits as u64) as usize
    }

    fn base_hashes<T: Hash + ?Sized>(&self, item: &T) -> (u64, u64) {
        let mut hasher = Fnv1a::default();
        item.hash(&mut hasher);
        let h1 = hasher.finish();
        // derive the second hash by re-mixing (splitmix64 finalizer)
        let h2 = splitmix(h1) | 1; // odd so it spans the table
        (h1, h2)
    }
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// FNV-1a `Hasher` — dependency-free and deterministic across runs, which
/// the reproducibility-sensitive benches rely on (`DefaultHasher` seeds
/// per-process).
#[derive(Default)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf29ce484222325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(500, 0.01);
        for i in 0..500u32 {
            bf.insert(&i);
        }
        for i in 0..500u32 {
            assert!(bf.contains(&i), "lost item {i}");
        }
        assert_eq!(bf.len(), 500);
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let mut bf = BloomFilter::with_rate(2000, 0.01);
        for i in 0..2000u32 {
            bf.insert(&i);
        }
        let fps = (10_000u32..20_000).filter(|i| bf.contains(i)).count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.05, "fp rate {rate}");
        assert!(bf.estimated_fp_rate() < 0.05);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_rate(100, 0.01);
        assert!(bf.is_empty());
        assert!(!bf.contains(&42u32));
        assert_eq!(bf.estimated_fp_rate(), 0.0);
    }

    #[test]
    fn works_with_string_and_slice_keys() {
        let mut bf = BloomFilter::new(1024, 4);
        bf.insert("hello");
        bf.insert(&[1i32, 2, 3][..]);
        assert!(bf.contains("hello"));
        assert!(bf.contains(&[1i32, 2, 3][..]));
        assert!(!bf.contains("world"));
    }

    #[test]
    fn sizing_parameters_are_sane() {
        let bf = BloomFilter::with_rate(1000, 0.01);
        // optimal: m ≈ 9585 bits, k ≈ 7
        assert!(bf.num_bits() > 9000 && bf.num_bits() < 11000);
        assert!(bf.num_hashes() >= 6 && bf.num_hashes() <= 8);
    }

    #[test]
    fn fnv_hasher_is_deterministic() {
        let mut a = Fnv1a::default();
        let mut b = Fnv1a::default();
        42u64.hash(&mut a);
        42u64.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }
}

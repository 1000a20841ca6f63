//! A self-contained iterative radix-2 FFT.
//!
//! Built from scratch (no external DSP crates are available offline) to
//! power the MASS sliding-dot-product kernel. Supports power-of-two sizes;
//! the kernel's series plan zero-pads its inputs to one.

/// A complex number. Minimal on purpose — only what the FFT needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Complex {
    /// Real part.
    pub(crate) re: f64,
    /// Imaginary part.
    pub(crate) im: f64,
}

impl Complex {
    /// Constructs `re + im·i`.
    #[inline]
    pub(crate) fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    #[inline]
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }

    /// Complex conjugate.
    #[inline]
    fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
}

/// Radix-2 FFT plan for a fixed power-of-two size. Twiddle factors are
/// precomputed once so repeated transforms (as in MASS over many queries)
/// avoid redundant trigonometry.
#[derive(Debug, Clone)]
pub(crate) struct Fft {
    n: usize,
    // twiddles[k] = exp(-2πik/n) for k in 0..n/2
    twiddles: Vec<Complex>,
}

impl Fft {
    /// Creates a plan for size `n`.
    ///
    /// # Panics
    /// Panics when `n` is zero or not a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Complex::new(ang.cos(), ang.sin())
            })
            .collect();
        Self { n, twiddles }
    }

    /// The transform size.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    /// Panics when `data.len() != self.len()`.
    pub(crate) fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n);
        self.transform(data);
    }

    /// In-place inverse FFT (including the 1/n scaling).
    pub(crate) fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n);
        for x in data.iter_mut() {
            *x = x.conj();
        }
        self.transform(data);
        let inv = 1.0 / self.n as f64;
        for x in data.iter_mut() {
            *x = Complex::new(x.re * inv, -x.im * inv);
        }
    }

    fn transform(&self, data: &mut [Complex]) {
        let n = self.n;
        // bit-reversal permutation
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        // butterflies
        let mut len = 2;
        while len <= n {
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let w = self.twiddles[k * stride];
                    let u = data[start + k];
                    let v = data[start + k + len / 2].mul(w);
                    data[start + k] = u.add(v);
                    data[start + k + len / 2] = u.sub(v);
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear convolution through the transform, the way the kernel uses
    /// it: zero-pad both signals to a power of two, multiply the spectra,
    /// invert.
    fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let out_len = a.len() + b.len() - 1;
        let fft = Fft::new(out_len.next_power_of_two());
        let spectrum = |xs: &[f64]| {
            let mut buf: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, 0.0)).collect();
            buf.resize(fft.len(), Complex::default());
            fft.forward(&mut buf);
            buf
        };
        let mut prod: Vec<Complex> = spectrum(a)
            .iter()
            .zip(&spectrum(b))
            .map(|(x, y)| x.mul(*y))
            .collect();
        fft.inverse(&mut prod);
        prod[..out_len].iter().map(|c| c.re).collect()
    }

    fn naive_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
    }

    #[test]
    fn forward_of_impulse_is_flat() {
        let fft = Fft::new(8);
        let mut d = vec![Complex::default(); 8];
        d[0] = Complex::new(1.0, 0.0);
        fft.forward(&mut d);
        for c in d {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let fft = Fft::new(16);
        let orig: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut d = orig.clone();
        fft.forward(&mut d);
        fft.inverse(&mut d);
        for (a, b) in d.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_holds() {
        let fft = Fft::new(32);
        let sig: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), 0.0))
            .collect();
        let time_energy: f64 = sig.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        let mut d = sig;
        fft.forward(&mut d);
        let freq_energy: f64 = d.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Fft::new(12);
    }

    #[test]
    fn convolution_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| (i as f64 * 0.31).sin()).collect();
        let b: Vec<f64> = (0..7).map(|i| (i as f64 * 0.17).cos()).collect();
        let fast = convolve(&a, &b);
        let slow = naive_convolve(&a, &b);
        assert_eq!(fast.len(), slow.len());
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn convolution_identity() {
        let a = [1.0, 2.0, 3.0];
        let out = convolve(&a, &[1.0]);
        for (x, y) in out.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

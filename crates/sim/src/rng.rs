//! A deterministic random-number generator.

/// A seedable xorshift64* generator.
///
/// Every workload, fault plan, and network-delay draw in the repository flows
/// through this generator, so a single `u64` seed pins down an entire run.
/// The generator is intentionally not cryptographic; it only has to be fast
/// and well-distributed for workload synthesis.
///
/// # Examples
///
/// ```
/// use argus_sim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        let state = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        Self { state }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna). Period 2^64 - 1.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a value uniform in `[0, bound)`. Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Multiply-shift bounded draw (Lemire); bias is negligible for the
        // bounds used by workloads and acceptable for simulation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a value uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn gen_between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_between range must be non-empty");
        lo + self.gen_range(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Returns a uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A zipfian index sampler over `[0, n)` with exponent `theta`.
///
/// Precomputes the harmonic normalizer once, then samples by inverse CDF
/// walk over a cached prefix plus rejection for the tail — adequate for the
/// `n` used in workloads (up to a few hundred thousand).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `[0, n)`. `theta = 0` is uniform; `theta ~ 1`
    /// is the classic web-like skew. Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating-point shortfall at the end.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Self { cdf: weights }
    }

    /// Draws an index using `rng`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl DetRng {
    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = DetRng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = DetRng::new(5);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.gen_range(4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = DetRng::new(11);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn gen_bool_rate_is_roughly_right() {
        let mut r = DetRng::new(13);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = DetRng::new(21);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "count = {c}");
        }
    }

    #[test]
    fn zipf_skews_toward_head() {
        let z = Zipf::new(100, 0.99);
        let mut r = DetRng::new(22);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With theta ~1 the first 10% of keys should draw well over half.
        assert!(head > 5_000, "head = {head}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(31);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

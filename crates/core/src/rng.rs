//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the workspace (graph generators,
//! partitioner hash functions, workload shufflers) draws randomness from the
//! generators in this module so that a fixed seed yields bit-identical
//! results on every platform. This matters for the reproduction harness: the
//! paper's figures are regenerated from fixed seeds and must not drift.
//!
//! Two generators are provided:
//!
//! - [`SplitMix64`] — tiny state, used for seeding and for cheap stateless
//!   streams.
//! - [`Xoshiro256`] (xoshiro256**) — the workhorse generator with strong
//!   statistical quality and 2^256 − 1 period.
//!
//! Plus [`hash64`], an avalanche (fmix64) hash used wherever PowerGraph
//! would use a "random hash of an edge" — hashing is preferable to stateful
//! RNG there because the assignment of an edge must be a pure function of
//! the edge, independent of stream position.

/// Finalization/avalanche step of MurmurHash3 (fmix64).
///
/// Maps `u64 -> u64` bijectively with good avalanche behaviour: flipping any
/// input bit flips each output bit with probability ~1/2. Used as the "random
/// hash" primitive of the partitioners.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Combine two 64-bit values into one well-mixed hash.
///
/// Used to hash (source, target) edge pairs. The constant is the 64-bit
/// golden ratio, as in `boost::hash_combine`.
#[inline]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash64(a ^ (b.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)))
}

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Extremely fast, 64-bit state; its main role here is expanding a user seed
/// into the larger state of [`Xoshiro256`] and providing cheap independent
/// sub-streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. All seeds, including 0, are valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna 2018).
///
/// The default generator for everything that needs a stream of random
/// numbers (graph generation, shuffling, noise terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator by expanding `seed` through SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway for clarity.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Xoshiro256 { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded requires a positive bound");
        // Lemire 2018: multiply the random word by the bound and keep the
        // high half; reject the short tail that would bias low values.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_bounded(span + 1)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Sample an index from a discrete cumulative distribution.
    ///
    /// `cdf` must be non-decreasing with `cdf.last() > 0`; values are not
    /// required to be normalized. Returns the smallest `i` such that
    /// `u * cdf.last() <= cdf[i]` for a uniform `u`.
    pub fn sample_cdf(&mut self, cdf: &[f64]) -> usize {
        assert!(!cdf.is_empty(), "sample_cdf requires a non-empty cdf");
        let total = *cdf.last().expect("non-empty");
        assert!(total > 0.0, "sample_cdf requires positive total mass");
        let u = self.next_f64() * total;
        // Binary search for the first entry >= u.
        match cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf values must not be NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values from the public-domain C implementation
        // (seed = 1234567).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_streams_differ_by_seed() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bounded_respects_bound() {
        let mut rng = Xoshiro256::new(99);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn next_bounded_is_roughly_uniform() {
        let mut rng = Xoshiro256::new(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_bounded(10) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        for &c in &counts {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket deviates {rel:.3} from uniform");
        }
    }

    #[test]
    fn range_u64_inclusive_endpoints_reachable() {
        let mut rng = Xoshiro256::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.range_u64(5, 7) {
                5 => saw_lo = true,
                7 => saw_hi = true,
                6 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_cdf_matches_weights() {
        let mut rng = Xoshiro256::new(17);
        // pdf = [0.1, 0.0, 0.9]
        let cdf = [0.1, 0.1, 1.0];
        let mut counts = [0u32; 3];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.sample_cdf(&cdf)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-mass bucket must never be drawn");
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - 0.1).abs() < 0.01, "p0 = {p0}");
    }

    #[test]
    fn hash64_is_bijective_on_samples() {
        // Not a proof of bijectivity, but collisions over a sample would
        // indicate a transcription bug in the constants.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash64(i)));
        }
    }

    #[test]
    fn hash_combine_order_sensitive() {
        assert_ne!(hash_combine(1, 2), hash_combine(2, 1));
    }
}

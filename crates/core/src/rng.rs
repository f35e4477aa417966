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
//!   statistical quality and 2^256 − 1 period. Its state transition is
//!   linear over GF(2), so [`Xoshiro256::jump`] can skip any number of
//!   draws at a fixed cost, which lets a serial stream be cut into
//!   independently generated pieces without changing a value.
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

    /// The polynomial `x^steps mod p(x)` that makes [`Xoshiro256::jump`]
    /// advance the generator by `steps` draws, computed by
    /// square-and-multiply over GF(2) in `O(log steps)` polynomial
    /// products.
    pub fn jump_polynomial(steps: u64) -> [u64; 4] {
        let mut acc = [1, 0, 0, 0];
        for bit in (0..u64::BITS - steps.leading_zeros()).rev() {
            acc = gf2_mul_mod(&acc, &acc);
            if (steps >> bit) & 1 == 1 {
                acc = gf2_times_x(acc);
            }
        }
        acc
    }

    /// Jump ahead: replace the state `s` with `r(T)·s`, where `T` is the
    /// one-draw state transition and `r` is `poly` (coefficient of `x^i`
    /// at bit `i % 64` of word `i / 64`), as in the reference `jump()`.
    /// With `poly = jump_polynomial(k)` the generator ends exactly where
    /// `k` calls to [`Xoshiro256::next_u64`] would have left it, at the
    /// cost of 256 draws whatever `k` is.
    pub fn jump(&mut self, poly: &[u64; 4]) {
        let mut acc = [0u64; 4];
        for &word in poly {
            for bit in 0..64 {
                if (word >> bit) & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
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

/// The characteristic polynomial `p(x)` of xoshiro256's GF(2)-linear
/// state transition, coefficient of `x^i` at bit `i % 64` of word
/// `i / 64`; the leading `x^256` term is implicit. By Cayley–Hamilton,
/// `T^k = (x^k mod p)(T)`, which is what [`Xoshiro256::jump`] evaluates.
const XOSHIRO_CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `a·x mod p(x)` over GF(2).
fn gf2_times_x(a: [u64; 4]) -> [u64; 4] {
    let carry = a[3] >> 63;
    let mut r = [
        a[0] << 1,
        (a[1] << 1) | (a[0] >> 63),
        (a[2] << 1) | (a[1] >> 63),
        (a[3] << 1) | (a[2] >> 63),
    ];
    if carry == 1 {
        for (r, p) in r.iter_mut().zip(XOSHIRO_CHAR_POLY) {
            *r ^= p;
        }
    }
    r
}

/// `a·b mod p(x)` over GF(2), Horner-style over the bits of `a`.
fn gf2_mul_mod(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    for i in (0..256).rev() {
        acc = gf2_times_x(acc);
        if (a[i / 64] >> (i % 64)) & 1 == 1 {
            for (r, b) in acc.iter_mut().zip(b) {
                *r ^= b;
            }
        }
    }
    acc
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

    /// Berlekamp–Massey over GF(2): the shortest LFSR generating `bits`,
    /// as connection coefficients `c[0..=len]` with `c[0] = 1` and
    /// `bits[n] = Σ_{i=1..=len} c[i]·bits[n−i]`.
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let mut c = vec![0u8; bits.len() + 1];
        let mut b = c.clone();
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut m) = (0usize, 1usize);
        for n in 0..bits.len() {
            let d = (0..=len).fold(0, |d, i| d ^ (c[i] & bits[n - i]));
            if d == 0 {
                m += 1;
                continue;
            }
            let prev = c.clone();
            for i in m..c.len() {
                c[i] ^= b[i - m];
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = prev;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    #[test]
    fn char_poly_rederived_by_berlekamp_massey() {
        // Bit 0 of s[0] over more than 2·256 steps determines the minimal
        // polynomial; xoshiro256's is irreducible of degree 256, so it is
        // the characteristic polynomial (reversed connection polynomial).
        let mut rng = Xoshiro256::new(2024);
        let bits: Vec<u8> = (0..600)
            .map(|_| {
                let bit = (rng.s[0] & 1) as u8;
                rng.next_u64();
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len(), 257, "linear complexity must be 256");
        let mut poly = [0u64; 4];
        for j in 0..256 {
            poly[j / 64] |= u64::from(c[256 - j]) << (j % 64);
        }
        assert_eq!(poly, XOSHIRO_CHAR_POLY);
    }

    #[test]
    fn jump_polynomial_matches_single_steps() {
        let mut pick = SplitMix64::new(36);
        let random = (0..6).map(|_| pick.next_u64() % 100_001);
        for (seed, k) in [0, 1, 2, 255, 256, 257]
            .into_iter()
            .chain(random)
            .enumerate()
        {
            let mut stepped = Xoshiro256::new(seed as u64);
            for _ in 0..k {
                stepped.next_u64();
            }
            let mut jumped = Xoshiro256::new(seed as u64);
            jumped.jump(&Xoshiro256::jump_polynomial(k));
            assert_eq!(jumped, stepped, "k = {k}");
        }
    }

    #[test]
    fn jump_polynomials_reproduce_reference_constants() {
        // `JUMP` (2^128 draws) and `LONG_JUMP` (2^192 draws) from the
        // public-domain xoshiro256** reference implementation.
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: [u64; 4] = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        // x^(2^e) is x squared e times.
        let mut poly = [2, 0, 0, 0];
        for e in 1..=192 {
            poly = gf2_mul_mod(&poly, &poly);
            match e {
                128 => assert_eq!(poly, JUMP),
                192 => assert_eq!(poly, LONG_JUMP),
                _ => {}
            }
        }
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

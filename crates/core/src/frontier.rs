//! Hybrid frontier set for the superstep kernel.
//!
//! The engine's scatter phase inserts activated vertices (possibly many
//! times — set semantics) and the next gather phase needs them back as a
//! sorted, deduplicated `Vec<u32>`. A plain bitmap makes the insert cheap
//! but charges O(n/64) per step for both the clear and the extraction
//! scan, even when almost nothing is active — the dominant cost in the
//! long sparse tail of SSSP/k-core runs.
//!
//! `FrontierSet` keeps the bitmap but tracks the list of *dirty words*
//! (word indices whose value is nonzero). Extraction then picks a
//! representation by occupancy:
//!
//! - **dense** (many dirty words): one linear scan over the word array,
//!   skipping and zeroing only nonzero words — the cache-friendly path
//!   when the frontier is broad;
//! - **sparse** (few dirty words): sort the dirty list and decode only
//!   those words — O(d log d) in dirty words, independent of n.
//!
//! Both paths produce the identical ascending vertex list, so the choice
//! is invisible to the determinism contract (proptested in
//! `tests/proptests.rs`). Clearing happens as a side effect of
//! extraction and touches only words that were actually set, so a step
//! that activates nothing performs no O(n) work (see
//! [`FrontierSet::words_cleared_total`] and the regression test below).

/// Dense extraction wins once at least `1/DENSE_EXTRACT_DIVISOR` of the
/// words are dirty. At 1/8 the full scan reads 8 words per useful one —
/// about the break-even point against sort + random decode on the sparse
/// path (threshold behavior pinned by `threshold_switches_representation`).
const DENSE_EXTRACT_DIVISOR: usize = 8;

/// A clearable bitmap over `0..capacity` with dirty-word tracking and
/// hybrid sparse/dense extraction. Insert-only between extractions.
#[derive(Debug)]
pub struct FrontierSet {
    words: Vec<u64>,
    capacity: usize,
    /// Indices of words currently nonzero; no duplicates (a word is
    /// pushed only on its 0 → nonzero transition).
    dirty: Vec<u32>,
    cleared_words: u64,
}

impl FrontierSet {
    /// An empty frontier over the domain `0..capacity`. Both buffers are
    /// sized for a full set up front, so inserting never allocates — not
    /// even on the first dense step after a run of sparse ones.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        FrontierSet {
            words: vec![0u64; words],
            capacity,
            dirty: Vec::with_capacity(words),
            cleared_words: 0,
        }
    }

    /// Domain size this frontier was built for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `i` (idempotent). Panics in debug builds if out of range.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!((i as usize) < self.capacity, "frontier insert out of range");
        let w = (i >> 6) as usize;
        let bit = 1u64 << (i & 63);
        let old = self.words[w];
        if old == 0 {
            self.dirty.push(w as u32);
        }
        self.words[w] = old | bit;
    }

    /// True when nothing has been inserted since the last extraction.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Number of set bits (O(dirty words)).
    pub fn len(&self) -> usize {
        self.dirty
            .iter()
            .map(|&w| self.words[w as usize].count_ones() as usize)
            .sum()
    }

    /// Whether the next [`extract_into`](Self::extract_into) would take
    /// the dense path at the current occupancy.
    pub fn would_extract_dense(&self) -> bool {
        !self.words.is_empty() && self.dirty.len() >= self.words.len() / DENSE_EXTRACT_DIVISOR
    }

    /// Cumulative count of words zeroed by extractions — the kernel's
    /// clear cost. An all-inactive step adds exactly 0.
    pub fn words_cleared_total(&self) -> u64 {
        self.cleared_words
    }

    /// Drain the set into `out` (cleared first) in ascending order,
    /// zeroing every touched word. Picks sparse or dense by occupancy.
    pub fn extract_into(&mut self, out: &mut Vec<u32>) {
        let dense = self.would_extract_dense();
        self.extract_into_forced(out, dense);
    }

    /// [`extract_into`](Self::extract_into) with the representation
    /// choice forced — public so tests can pin both paths to identical
    /// output on either side of the threshold.
    pub fn extract_into_forced(&mut self, out: &mut Vec<u32>, dense: bool) {
        out.clear();
        if self.dirty.is_empty() {
            return;
        }
        self.cleared_words += self.dirty.len() as u64;
        if dense {
            // One pass over the word array; only nonzero words are
            // decoded and written back.
            for w in 0..self.words.len() {
                let mut bits = self.words[w];
                if bits == 0 {
                    continue;
                }
                self.words[w] = 0;
                let base = (w as u32) << 6;
                while bits != 0 {
                    out.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            self.dirty.clear();
        } else {
            // Decode only the words we know are dirty, in index order.
            self.dirty.sort_unstable();
            for &w in &self.dirty {
                let mut bits = std::mem::take(&mut self.words[w as usize]);
                debug_assert!(bits != 0, "dirty list held a zero word");
                let base = w << 6;
                while bits != 0 {
                    out.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            self.dirty.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(fs: &mut FrontierSet) -> Vec<u32> {
        let mut out = Vec::new();
        fs.extract_into(&mut out);
        out
    }

    #[test]
    fn extraction_is_sorted_and_deduplicated() {
        let mut fs = FrontierSet::new(1000);
        for &v in &[999u32, 3, 64, 3, 0, 511, 64, 999] {
            fs.insert(v);
        }
        assert_eq!(fs.len(), 5);
        assert_eq!(extract(&mut fs), vec![0, 3, 64, 511, 999]);
        assert!(fs.is_empty());
        // The set is fully reusable after extraction.
        fs.insert(7);
        assert_eq!(extract(&mut fs), vec![7]);
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        let mut a = FrontierSet::new(4096);
        let mut b = FrontierSet::new(4096);
        // Pseudo-random spray via an LCG (keeps the test seed-free).
        let mut x = 12345u64;
        let mut want: Vec<u32> = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (x >> 33) as u32 % 4096;
            a.insert(v);
            b.insert(v);
            want.push(v);
        }
        want.sort_unstable();
        want.dedup();
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.extract_into_forced(&mut oa, false);
        b.extract_into_forced(&mut ob, true);
        assert_eq!(oa, want);
        assert_eq!(ob, want);
    }

    #[test]
    fn threshold_switches_representation() {
        // 4096 bits = 64 words; the divisor-8 threshold flips at 8 dirty
        // words.
        let mut fs = FrontierSet::new(4096);
        for w in 0..7u32 {
            fs.insert(w * 64);
        }
        assert!(!fs.would_extract_dense(), "7/64 dirty words must be sparse");
        fs.insert(7 * 64);
        assert!(fs.would_extract_dense(), "8/64 dirty words must be dense");
    }

    #[test]
    fn all_inactive_step_clears_no_words() {
        // Satellite regression: a step that activates nothing must do no
        // O(n) clearing work.
        let mut fs = FrontierSet::new(1 << 20);
        fs.insert(5);
        fs.insert(100_000);
        let mut out = Vec::new();
        fs.extract_into(&mut out);
        assert_eq!(fs.words_cleared_total(), 2, "only touched words cleared");
        // The empty step: nothing inserted, extraction is free.
        fs.extract_into(&mut out);
        assert!(out.is_empty());
        assert_eq!(
            fs.words_cleared_total(),
            2,
            "empty extraction cleared nothing"
        );
    }

    #[test]
    fn boundary_bits_round_trip() {
        let mut fs = FrontierSet::new(129);
        for v in [0u32, 63, 64, 127, 128] {
            fs.insert(v);
        }
        assert_eq!(extract(&mut fs), vec![0, 63, 64, 127, 128]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut fs = FrontierSet::new(0);
        assert!(fs.is_empty());
        assert!(!fs.would_extract_dense());
        let mut out = vec![9u32];
        fs.extract_into(&mut out);
        assert!(out.is_empty());
    }
}

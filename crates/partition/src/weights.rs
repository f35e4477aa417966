//! Machine weights: the heterogeneity-awareness knob.
//!
//! Every partitioner in this crate distributes edges *proportionally to a
//! weight vector*. The three policies of the paper's evaluation are three
//! ways of building that vector:
//!
//! - **default / homogeneous** — [`MachineWeights::uniform`]: the original
//!   PowerGraph behaviour;
//! - **prior work** — [`MachineWeights::from_thread_counts`]: computing
//!   threads read from the hardware configuration (LeBeane et al.);
//! - **this paper** — [`MachineWeights::from_ccr`]: proxy-profiled
//!   Computation Capability Ratios.

use hetgraph_cluster::Cluster;
use hetgraph_core::MachineId;

/// Maximum machines per cluster (replica sets are stored as `u64` masks).
pub const MAX_MACHINES: usize = 64;

/// Assert that `num_machines` fits the `u64` replica bitmasks used
/// throughout this crate (`1u64 << machine` would silently alias — or be
/// outright UB-flavored — for machine ids ≥ 64).
///
/// Every bitmask-based partitioner calls this on entry, so a cluster that
/// outgrows the mask width fails loudly at partition time instead of
/// corrupting replica sets. [`MachineWeights::new`] enforces the same
/// bound at construction, making this a defense-in-depth check for
/// weights reaching a partitioner through any future constructor.
///
/// # Panics
/// Panics if `num_machines > MAX_MACHINES`.
#[inline]
pub fn assert_bitmask_capacity(num_machines: usize) {
    assert!(
        num_machines <= MAX_MACHINES,
        "{num_machines} machines exceed the u64 replica bitmask capacity of {MAX_MACHINES}; \
         shifts past bit 63 would alias machines"
    );
}

/// A normalized positive weight per machine.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MachineWeights {
    weights: Vec<f64>,
    /// Cumulative thresholds scaled to the full `u64` range, so a uniform
    /// 64-bit hash can be mapped to a machine without floating-point
    /// comparisons on the hot path.
    thresholds: Vec<u64>,
}

impl MachineWeights {
    /// Build from raw positive weights (normalized internally).
    ///
    /// # Panics
    /// Panics if empty, longer than [`MAX_MACHINES`], any weight is not
    /// strictly positive and finite, or the weights span so wide a range
    /// that the smallest normalized share falls below `f64::MIN_POSITIVE`
    /// (zero or subnormal, where `load / weight` overflows).
    pub fn new(raw: &[f64]) -> Self {
        assert!(!raw.is_empty(), "weights must be non-empty");
        assert!(
            raw.len() <= MAX_MACHINES,
            "at most {MAX_MACHINES} machines supported"
        );
        for &w in raw {
            assert!(
                w.is_finite() && w > 0.0,
                "weights must be positive and finite, got {w}"
            );
        }
        // Finite weights can still sum past `f64::MAX`; dividing by an
        // infinite sum would zero them all. Rescaling by the maximum first
        // (only then, so every finite-sum vector keeps its bits) brings the
        // sum to at most 64.
        let sum: f64 = raw.iter().sum();
        let weights: Vec<f64> = if sum.is_finite() {
            raw.iter().map(|&w| w / sum).collect()
        } else {
            let max = raw.iter().copied().fold(0.0, f64::max);
            let scaled: Vec<f64> = raw.iter().map(|&w| w / max).collect();
            let sum: f64 = scaled.iter().sum();
            scaled.iter().map(|&w| w / sum).collect()
        };
        let smallest = weights.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            smallest >= f64::MIN_POSITIVE,
            "weights span too wide a range: the smallest normalized share \
             {smallest:e} is below f64::MIN_POSITIVE"
        );
        let mut thresholds = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            let t = if i + 1 == weights.len() {
                u64::MAX // guard against rounding leaving a gap at the top
            } else {
                (acc * u64::MAX as f64) as u64
            };
            thresholds.push(t);
        }
        MachineWeights {
            weights,
            thresholds,
        }
    }

    /// Uniform weights over `n` machines (the homogeneous default).
    pub fn uniform(n: usize) -> Self {
        MachineWeights::new(&vec![1.0; n])
    }

    /// Prior-work weights: computing threads per machine.
    pub fn from_thread_counts(cluster: &Cluster) -> Self {
        MachineWeights::new(&cluster.thread_count_weights())
    }

    /// CCR weights: one capability ratio per machine (any positive scale).
    pub fn from_ccr(ccr: &[f64]) -> Self {
        MachineWeights::new(ccr)
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Normalized weight of machine `i`.
    pub fn weight(&self, i: MachineId) -> f64 {
        self.weights[i.index()]
    }

    /// The normalized weight vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.weights
    }

    /// Map a uniform 64-bit hash to a machine, with probability equal to
    /// each machine's weight. Deterministic: the same hash always maps to
    /// the same machine for a given weight vector.
    #[inline]
    pub fn pick(&self, hash: u64) -> MachineId {
        // Linear scan: clusters are small (2–64 machines) and the scan is
        // branch-predictable; a binary search would not pay off below ~32.
        for (i, &t) in self.thresholds.iter().enumerate() {
            if hash <= t {
                return MachineId::from(i);
            }
        }
        MachineId::from(self.weights.len() - 1)
    }

    /// `load[i] / weight[i]` — the *normalized load*: how full machine `i`
    /// is relative to its capability share. Balancing normalized load is
    /// how every greedy partitioner here becomes heterogeneity-aware.
    pub fn normalized_load(&self, loads: &[f64], i: MachineId) -> f64 {
        assert_eq!(loads.len(), self.weights.len(), "one load per machine");
        loads[i.index()] / self.weights[i.index()]
    }

    /// Among `candidates`, the machine with the smallest normalized load
    /// (ties break to the lower id for determinism).
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn least_loaded(
        &self,
        loads: &[f64],
        candidates: impl Iterator<Item = MachineId>,
    ) -> MachineId {
        let mut best: Option<(f64, MachineId)> = None;
        for c in candidates {
            let nl = self.normalized_load(loads, c);
            let better = match best {
                None => true,
                Some((b, id)) => nl < b || (nl == b && c < id),
            };
            if better {
                best = Some((nl, c));
            }
        }
        best.expect("least_loaded requires at least one candidate")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::rng::Xoshiro256;

    #[test]
    fn normalization() {
        let w = MachineWeights::new(&[1.0, 3.0]);
        assert!((w.weight(MachineId(0)) - 0.25).abs() < 1e-12);
        assert!((w.weight(MachineId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uniform_is_equal() {
        let w = MachineWeights::uniform(4);
        for i in 0..4 {
            assert!((w.weight(MachineId(i)) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pick_follows_weights_statistically() {
        let w = MachineWeights::new(&[1.0, 2.0, 7.0]);
        let mut rng = Xoshiro256::new(42);
        let mut counts = [0u32; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[w.pick(rng.next_u64()).index()] += 1;
        }
        for (i, &target) in [0.1, 0.2, 0.7].iter().enumerate() {
            let p = counts[i] as f64 / n as f64;
            assert!(
                (p - target).abs() < 0.01,
                "machine {i}: {p} vs target {target}"
            );
        }
    }

    #[test]
    fn pick_is_deterministic() {
        let w = MachineWeights::new(&[1.0, 2.0]);
        assert_eq!(w.pick(12345), w.pick(12345));
    }

    #[test]
    fn pick_extremes_covered() {
        let w = MachineWeights::new(&[1.0, 1.0]);
        assert_eq!(w.pick(0).index(), 0);
        assert_eq!(w.pick(u64::MAX).index(), 1);
    }

    #[test]
    fn thread_count_weights_from_cluster() {
        let c = Cluster::case2(); // 2 and 10 computing threads
        let w = MachineWeights::from_thread_counts(&c);
        assert!((w.weight(MachineId(1)) / w.weight(MachineId(0)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn least_loaded_uses_normalized_load() {
        // Machine 1 has 3x the capability; with equal raw loads it is the
        // less (normalized-)loaded one.
        let w = MachineWeights::new(&[1.0, 3.0]);
        let loads = [10.0, 10.0];
        let got = w.least_loaded(&loads, [MachineId(0), MachineId(1)].into_iter());
        assert_eq!(got, MachineId(1));
    }

    #[test]
    fn least_loaded_tie_breaks_low_id() {
        let w = MachineWeights::uniform(3);
        let loads = [5.0, 5.0, 9.0];
        let got = w.least_loaded(&loads, (0..3).map(MachineId::from));
        assert_eq!(got, MachineId(0));
    }

    #[test]
    fn weights_whose_sum_overflows_normalize() {
        assert_eq!(
            MachineWeights::new(&[1e308, 1e308]),
            MachineWeights::uniform(2)
        );
        assert_eq!(
            MachineWeights::new(&[f64::MAX; 3]),
            MachineWeights::uniform(3)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        MachineWeights::new(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "too wide a range")]
    fn share_underflow_rejected() {
        // 1e-320 / 1e308 rounds to exactly 0.0.
        MachineWeights::new(&[1e308, 1e-320]);
    }

    #[test]
    #[should_panic(expected = "too wide a range")]
    fn subnormal_share_rejected() {
        MachineWeights::new(&[1.0, 1e-310]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        MachineWeights::new(&[]);
    }

    #[test]
    fn bitmask_capacity_accepts_max() {
        assert_bitmask_capacity(MAX_MACHINES);
        let w = MachineWeights::uniform(MAX_MACHINES);
        assert_eq!(w.len(), 64);
    }

    #[test]
    #[should_panic(expected = "bitmask capacity")]
    fn bitmask_capacity_rejects_65() {
        assert_bitmask_capacity(65);
    }
}

//! Oblivious (greedy) partitioning (Section II-B-2).
//!
//! PowerGraph's greedy heuristic scores every machine for every incoming
//! edge by combining *locality* (does the machine already hold a replica of
//! an endpoint?) with *balance* (how loaded is it?):
//!
//! ```text
//! score(i) = bal(i) + [src has replica on i] + [dst has replica on i]
//! bal(i)   = (max_load − load_i) / (max_load − min_load + ε)
//! ```
//!
//! and assigns the edge to the highest-scoring machine. The
//! heterogeneity-aware variant (paper: "weights of different machines to be
//! incorporated to guide the assignment of each edge") replaces raw loads
//! with *normalized* loads `load / weight`, so fast machines absorb
//! proportionally more edges before their balance term decays. As the
//! paper notes, the "heuristics combined with CCR-guided weight assignment
//! do not guarantee an exact balance" — locality pulls against the target
//! ratio.

use std::collections::VecDeque;

use hetgraph_core::rng::hash64;
use hetgraph_core::{obs::Telemetry, Edge, EdgeSource};

use crate::assignment::PartitionAssignment;
use crate::traits::{observed, Partitioner};
use crate::weights::{assert_bitmask_capacity, MachineWeights};

/// `f64::max` restricted to non-NaN inputs: the bare compare-select maps
/// to a single `maxsd`, where `f64::max` pays a 7-instruction NaN-
/// propagation sequence. Scores and normalized loads are always finite
/// (never NaN), so the value is identical.
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Non-NaN `f64::min`; see [`fmax`].
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Greedy history-based partitioner.
#[derive(Debug, Clone, Default)]
pub struct Oblivious {}

impl Oblivious {
    /// Default construction.
    pub fn new() -> Self {
        Oblivious {}
    }
}

impl Partitioner for Oblivious {
    fn name(&self) -> &'static str {
        "oblivious"
    }

    /// One greedy candidate-machine scan per placed edge.
    fn greedy_scans(&self, source: &dyn EdgeSource) -> Option<u64> {
        Some(source.num_edges() as u64)
    }

    fn partition(
        &self,
        source: &dyn EdgeSource,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment {
        observed(self, source, threads, telemetry, || {
            let (n, m) = (source.num_vertices() as usize, source.num_edges());
            match source.graph() {
                Some(g) => self.stream_impl(n, weights, g.edges().iter().copied(), m),
                None => self.stream_impl(n, weights, source.edges(), m),
            }
        })
    }
}

impl Oblivious {
    /// The single greedy pass every source shares: scores arrive from
    /// whatever produces the edges — a graph's edge slice or a shard
    /// reader — and the per-edge state (replica masks, loads, balance
    /// cache) never depends on anything but the edges already seen, so
    /// the two sources are byte-identical by construction.
    fn stream_impl(
        &self,
        n: usize,
        weights: &MachineWeights,
        mut edges: impl Iterator<Item = Edge>,
        capacity: usize,
    ) -> PartitionAssignment {
        let p = weights.len();
        assert_bitmask_capacity(p);
        let mut assignment: Vec<u16> = Vec::with_capacity(capacity);

        // Streaming fast path. The reference loop recomputes every
        // machine's normalized load `load / weight`, its min/max, and the
        // balance term `(max_nl - nl) / range` for all `p` machines on
        // every edge. This implementation produces byte-identical
        // assignments with far less work per edge:
        //
        // * `nl[i] = loads[i] / ws[i]` changes for exactly one machine per
        //   edge, so it is cached and recomputed — with the same division
        //   expression, keeping every value bit-identical — only for the
        //   chosen machine. The balance terms `bal[i] = (max_nl - nl[i]) /
        //   range` are likewise cached: loads only grow, so the max is a
        //   one-comparison update, the min needs a rescan only when the
        //   bitmask of minimum holders empties, and `bal` is refreshed in
        //   full only when the min or max actually moves (a few percent of
        //   edges) — otherwise only the chosen machine's entry changes.
        // * The scoring scan is split into two branchless, auto-
        //   vectorizable passes (score fill + running max, then a
        //   ≥ threshold filter mask) feeding the reference's sequential
        //   tie logic with only the machines within 2e-9 of the max —
        //   usually exactly one. This preserves the reference tie lists:
        //   the reference running best `B` ends at `B = s_{i*} ≥ max_i s_i
        //   − 1e-9` (a machine can only fail to raise the running best to
        //   its own score if it is within 1e-9 of it), and its final list
        //   is `{i*} ∪ {i > i* : |s_i − B| ≤ 1e-9}`. Machines below
        //   `max − 2e-9` are therefore below `B − 1e-9`: they can neither
        //   update the running best after `i*`, nor survive the clear at
        //   `i*`, nor append afterwards — dropping them before the tie
        //   logic leaves its result unchanged, while `i*` itself (with
        //   `s = B`) always survives the filter.
        //
        // Fixed 64-wide arrays (the replica masks cap `p` at 64) let the
        // `& 63` index masking elide bounds checks in the tie loop.
        let ws = weights.as_slice();
        let mut weight = [1f64; 64];
        weight[..p].copy_from_slice(ws);
        let mut loads = [0f64; 64]; // raw edge counts per machine
        let mut nl = [0f64; 64];
        for i in 0..p {
            nl[i] = loads[i] / weight[i];
        }
        // The scoring pass reads `baltab[loc * 64 + i] = bal(i) + loc` for
        // integer locality `loc ∈ {0, 1, 2}` — pre-adding the three
        // possible locality terms to the cached balance values replaces
        // two int→float conversions and two additions per lane with one
        // indexed load. `bal + 0.0`, `bal + 1.0`, `bal + 2.0` are the
        // exact sums the reference computes (its locality is
        // `0.0/1.0/2.0` exactly), so scores stay bit-identical. The table
        // is 256 wide so `(loc << 6) | lane` provably stays in bounds.
        //
        // Initial state: every load is 0, so min = max = 0, every machine
        // holds the minimum, the range is flat, and every balance term is
        // exactly 1. Padding lanes `p..` hold 0.0 in the loc-0 plane (the
        // only one they ever select, as no replica mask has bits >= p);
        // they can never win: some machine always holds the minimum with
        // `bal = 1`, so `max score >= 1` and the filter threshold stays
        // above `1 - 2e-9 > 0`.
        let mut baltab = [0f64; 256];
        for i in 0..p {
            baltab[i] = 1.0;
            baltab[64 + i] = 2.0;
            baltab[128 + i] = 3.0;
        }
        let p4 = (p + 3) & !3;
        let mut min_nl = 0.0f64;
        let mut max_nl = 0.0f64;
        let mut min_mask: u64 = if p == 64 { !0 } else { (1u64 << p) - 1 };
        let mut score = [0f64; 64];
        let mut best = [0u16; 64]; // reusable tie-list scratch

        // Refresh the cached balance terms after `min_nl`/`max_nl` moved.
        // `bal` is exactly 1 for the least-loaded machine(s) so that
        // "empty machine" ties "machine with one endpoint" and the hash
        // tie-break lets hubs spread (PowerGraph breaks these ties
        // randomly for the same reason).
        macro_rules! set_bal {
            ($i:expr, $v:expr) => {{
                let b = $v;
                baltab[$i] = b;
                baltab[64 + $i] = b + 1.0;
                baltab[128 + $i] = b + 2.0;
            }};
        }
        macro_rules! refresh_bal {
            () => {{
                let range = max_nl - min_nl;
                if range <= f64::EPSILON {
                    for i in 0..p {
                        set_bal!(i, 1.0);
                    }
                } else {
                    for i in 0..p {
                        set_bal!(i, (max_nl - nl[i]) / range);
                    }
                }
            }};
        }

        // The replica array is the loop's only random-access state: two
        // loads and two read-modify-write stores per edge, at
        // hash-scattered vertex indices. Monomorphizing its integer width
        // to the smallest type that holds `p` bits shrinks the working set
        // (4x for p <= 16), keeping it cache-resident on graphs where the
        // full u64 array would thrash.
        macro_rules! stream {
            ($mask:ty) => {{
                let mut replicas = vec![0 as $mask; n]; // running replica sets
                // An 8-deep lookahead ring stands in for slice indexing:
                // the back of the ring is the edge 8 ahead of the one being
                // placed (or the last edge once the source dries up).
                let mut ring: VecDeque<Edge> = VecDeque::with_capacity(8);
                while ring.len() < 8 {
                    match edges.next() {
                        Some(e) => ring.push_back(e),
                        None => break,
                    }
                }
                while let Some(cur) = ring.pop_front() {
                    if let Some(nx) = edges.next() {
                        ring.push_back(nx);
                    }
                    // Software prefetch: touch the replica entries a few
                    // edges ahead so their (hash-scattered) cache lines and
                    // TLB entries are resolved before the dependent scoring
                    // chain needs them. `black_box` keeps the otherwise
                    // dead loads alive; the values are discarded, so
                    // assignments are unaffected.
                    let pf = ring.back().copied().unwrap_or(cur);
                    std::hint::black_box(replicas[pf.src as usize]);
                    std::hint::black_box(replicas[pf.dst as usize]);
                    let e = &cur;
                    let mu = replicas[e.src as usize] as u64;
                    let mv = replicas[e.dst as usize] as u64;

                    // Pass 1 (branchless): scores from the locality-offset
                    // balance table, with running max, argmax, and second
                    // max. Four independent accumulator sets over the
                    // padded width break the serial `maxsd` latency chain;
                    // max over a set is order-independent for non-NaN
                    // inputs, so the combined value is bit-identical to a
                    // sequential fold. Strict `>` updates keep each
                    // accumulator's argmax at the first lane attaining its
                    // max, and a second-max that ties the max (exactly)
                    // routes to the slow path below, so the fast path only
                    // ever fires with a globally unique argmax.
                    let mut m0 = f64::NEG_INFINITY;
                    let mut m1 = f64::NEG_INFINITY;
                    let mut m2 = f64::NEG_INFINITY;
                    let mut m3 = f64::NEG_INFINITY;
                    let mut b0 = f64::NEG_INFINITY;
                    let mut b1 = f64::NEG_INFINITY;
                    let mut b2 = f64::NEG_INFINITY;
                    let mut b3 = f64::NEG_INFINITY;
                    let mut a0 = 0usize;
                    let mut a1 = 0usize;
                    let mut a2 = 0usize;
                    let mut a3 = 0usize;
                    let mut i = 0usize;
                    while i < p4 {
                        let j0 = i & 63;
                        let j1 = (i + 1) & 63;
                        let j2 = (i + 2) & 63;
                        let j3 = (i + 3) & 63;
                        let l0 = (((mu >> j0) & 1) + ((mv >> j0) & 1)) as usize;
                        let l1 = (((mu >> j1) & 1) + ((mv >> j1) & 1)) as usize;
                        let l2 = (((mu >> j2) & 1) + ((mv >> j2) & 1)) as usize;
                        let l3 = (((mu >> j3) & 1) + ((mv >> j3) & 1)) as usize;
                        let s0 = baltab[((l0 << 6) | j0) & 255];
                        let s1 = baltab[((l1 << 6) | j1) & 255];
                        let s2 = baltab[((l2 << 6) | j2) & 255];
                        let s3 = baltab[((l3 << 6) | j3) & 255];
                        score[j0] = s0;
                        score[j1] = s1;
                        score[j2] = s2;
                        score[j3] = s3;
                        // Two-max recurrence without data-dependent
                        // branches: the new second-best is
                        // `max(second, min(s, best_old))` — `min(s, best)`
                        // is whichever of the incoming score and the old
                        // best loses, exactly the value displaced into
                        // second place.
                        b0 = fmax(b0, fmin(s0, m0));
                        b1 = fmax(b1, fmin(s1, m1));
                        b2 = fmax(b2, fmin(s2, m2));
                        b3 = fmax(b3, fmin(s3, m3));
                        a0 = if s0 > m0 { j0 } else { a0 };
                        a1 = if s1 > m1 { j1 } else { a1 };
                        a2 = if s2 > m2 { j2 } else { a2 };
                        a3 = if s3 > m3 { j3 } else { a3 };
                        m0 = fmax(m0, s0);
                        m1 = fmax(m1, s1);
                        m2 = fmax(m2, s2);
                        m3 = fmax(m3, s3);
                        i += 4;
                    }
                    // Combine the four accumulator sets. An exact cross-
                    // accumulator tie leaves `mx2 == mx`, forcing the slow
                    // path, so `ax` is only consumed when it is the unique
                    // global argmax.
                    let mut mx = m0;
                    let mut ax = a0;
                    let mut mx2 = b0;
                    if m1 > mx {
                        mx2 = fmax(mx, b1);
                        mx = m1;
                        ax = a1;
                    } else {
                        mx2 = fmax(mx2, m1);
                    }
                    if m2 > mx {
                        mx2 = fmax(mx, b2);
                        mx = m2;
                        ax = a2;
                    } else {
                        mx2 = fmax(mx2, m2);
                    }
                    if m3 > mx {
                        mx2 = fmax(mx, b3);
                        mx = m3;
                        ax = a3;
                    } else {
                        mx2 = fmax(mx2, m3);
                    }
                    let thr = mx - 2e-9;
                    let chosen = if mx2 < thr {
                        // Unique max with margin: every other machine sits
                        // below `B - 1e-9`, so the reference tie list is
                        // exactly `{argmax}` and the hash tie-break
                        // degenerates to index 0. No filter, no tie scan,
                        // no hash.
                        ax as u16
                    } else {
                        // Pass 2 (branchless): bitmask of machines within
                        // 2e-9 of the max — the only ones that can appear
                        // in or perturb the reference tie list. Padding
                        // lanes hold 0.0 and never pass (the threshold
                        // stays above 1 - 2e-9).
                        let mut f0 = 0u64;
                        let mut f1 = 0u64;
                        let mut f2 = 0u64;
                        let mut f3 = 0u64;
                        let mut i = 0usize;
                        while i < p4 {
                            f0 |= ((score[i & 63] >= thr) as u64) << i;
                            f1 |= ((score[(i + 1) & 63] >= thr) as u64) << (i + 1);
                            f2 |= ((score[(i + 2) & 63] >= thr) as u64) << (i + 2);
                            f3 |= ((score[(i + 3) & 63] >= thr) as u64) << (i + 3);
                            i += 4;
                        }
                        let mut flt = f0 | f1 | f2 | f3;
                        // Pass 3: the reference sequential running-best tie
                        // logic, over the surviving machines in ascending
                        // id order.
                        let mut best_score = f64::NEG_INFINITY;
                        let mut blen = 0usize;
                        while flt != 0 {
                            let i = flt.trailing_zeros() as usize & 63;
                            flt &= flt - 1;
                            let s = score[i];
                            if s > best_score + 1e-9 {
                                best_score = s;
                                best[0] = i as u16;
                                blen = 1;
                            } else if (s - best_score).abs() <= 1e-9 {
                                best[blen & 63] = i as u16;
                                blen += 1;
                            }
                        }
                        // Unbiased deterministic tie-break: hash of the
                        // edge.
                        best[(hash64(e.key()) % blen as u64) as usize & 63]
                    };
                    let c = chosen as usize & 63;
                    let rbit = (1 as $mask) << (c as u32 & (<$mask>::BITS - 1));
                    replicas[e.src as usize] |= rbit;
                    replicas[e.dst as usize] |= rbit;
                    loads[c] += 1.0;
                    nl[c] = loads[c] / weight[c];
                    assignment.push(chosen);

                    // Incremental min/max/bal maintenance. Clearing the
                    // chosen machine's minimum bit is a no-op when it was
                    // not a minimum holder, so it runs unconditionally —
                    // the single branch that remains separates the common
                    // case (only the chosen machine's balance terms move)
                    // from the rare full refresh (new maximum, or the
                    // minimum set emptied: ~15% of edges combined).
                    let bit = 1u64 << c;
                    min_mask &= !bit;
                    let new_max = nl[c] > max_nl;
                    if new_max || min_mask == 0 {
                        if new_max {
                            max_nl = nl[c];
                        }
                        if min_mask == 0 {
                            min_nl = nl[..p].iter().copied().fold(f64::INFINITY, fmin);
                            for (i, &v) in nl[..p].iter().enumerate() {
                                if v == min_nl {
                                    min_mask |= 1u64 << i;
                                }
                            }
                        }
                        refresh_bal!();
                    } else {
                        // Min and max both survive elsewhere; only the
                        // chosen machine's balance terms changed. Select
                        // rather than branch on the flat-range case — it
                        // recurs every time the loads realign, which would
                        // make a branch here chronically mispredicted.
                        let range = max_nl - min_nl;
                        let b = (max_nl - nl[c]) / range;
                        set_bal!(c, if range <= f64::EPSILON { 1.0 } else { b });
                    }
                }
                replicas.iter().map(|&m| m as u64).collect::<Vec<u64>>()
            }};
        }
        let replicas: Vec<u64> = if p <= 16 {
            stream!(u16)
        } else if p <= 32 {
            stream!(u32)
        } else {
            stream!(u64)
        };

        // The loop's replica masks and load counts *are* the assignment's
        // replication structure — hand them over instead of replaying the
        // edges.
        let edges_per_machine: Vec<usize> = loads[..p].iter().map(|&l| l as usize).collect();
        PartitionAssignment::from_parts(p, assignment, replicas, edges_per_machine, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_hash::RandomHash;
    use hetgraph_core::{obs::OFF, EdgeList, Graph};

    fn skewed_graph() -> Graph {
        let n = 3_000u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(Edge::new(0, v));
            edges.push(Edge::new(v, (v * 13 + 7) % n));
            if v % 3 == 0 {
                edges.push(Edge::new(v, (v * 31 + 1) % n));
            }
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    #[test]
    fn lower_replication_than_random_hash() {
        // The whole point of the greedy heuristic.
        let g = skewed_graph();
        let w = MachineWeights::uniform(4);
        let greedy = Oblivious::new().partition(&g, &w, 1, &OFF);
        let random = RandomHash::new().partition(&g, &w, 1, &OFF);
        assert!(
            greedy.replication_factor() < random.replication_factor(),
            "greedy {} !< random {}",
            greedy.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn uniform_weights_balance_loads() {
        let g = skewed_graph();
        let a = Oblivious::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        for &s in &a.edge_shares() {
            assert!((s - 0.25).abs() < 0.05, "share {s}");
        }
    }

    #[test]
    fn weighted_loads_track_ccr_approximately() {
        let g = skewed_graph();
        let w = MachineWeights::from_ccr(&[1.0, 3.0]);
        let a = Oblivious::new().partition(&g, &w, 1, &OFF);
        let shares = a.edge_shares();
        // The paper notes the heuristic does not guarantee exact CCR
        // balance; allow a loose band around 0.75.
        assert!(
            shares[1] > 0.60 && shares[1] < 0.90,
            "fast machine share {} not tracking weight 0.75",
            shares[1]
        );
        assert!(shares[1] > shares[0]);
    }

    #[test]
    fn deterministic() {
        let g = skewed_graph();
        let w = MachineWeights::uniform(3);
        assert_eq!(
            Oblivious::new().partition(&g, &w, 1, &OFF),
            Oblivious::new().partition(&g, &w, 1, &OFF)
        );
    }

    #[test]
    fn all_edges_assigned() {
        let g = skewed_graph();
        let a = Oblivious::new().partition(&g, &MachineWeights::uniform(5), 1, &OFF);
        assert_eq!(a.edge_machines().len(), g.num_edges());
    }

    #[test]
    fn double_locality_beats_balance() {
        // Once both endpoints of an edge live on a machine, that machine
        // scores locality 2 vs at most bal 1 elsewhere: the closing edge of
        // a wedge joins its endpoints if they are colocated.
        let g = Graph::from_edge_list(EdgeList::from_edges(
            4,
            vec![Edge::new(0, 1), Edge::new(2, 3), Edge::new(0, 1)],
        ));
        let a = Oblivious::new().partition(&g, &MachineWeights::uniform(4), 1, &OFF);
        // Both (0,1) edges must colocate.
        assert_eq!(a.edge_machines()[0], a.edge_machines()[2]);
    }
}

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

/// Start pulling `slot`'s cache line toward L1 without waiting for it.
/// On x86-64 this is a prefetch instruction, which retires at once; the
/// fallback elsewhere is a discarded load, which holds up retirement
/// until the line arrives (Oblivious's partition of a 5M-edge graph at
/// P = 48 took 0.78–1.0 s with the load on x86-64, 0.48–0.55 s with the
/// prefetch).
#[inline(always)]
fn prefetch<T: Copy>(slot: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, and a prefetch never
    // faults; the address comes from a live reference besides.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((slot as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::hint::black_box(*slot);
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

        // Streaming fast path, byte-equal to `spec::oblivious` (the
        // seed's loop, which recomputes every machine's normalized load,
        // their min/max and every balance term on every edge, then runs a
        // running-best tie scan over all `p` machines):
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
        // * Only machines that can win are scored. Split the lanes by
        //   locality class — `C2 = mu & mv`, `C1 = mu ^ mv`, `C0` the rest
        //   — and let `L*` be the highest class holding a minimum-load
        //   machine (`min_mask`). A min holder has `bal` exactly 1.0
        //   (`range / range`, or the flat case), so the max score is
        //   `mx >= L* + 1`. A lane of a lower class scores at most `L*`;
        //   a lane of `C_{L*}` with `bal < 1 - 1e-6` scores below
        //   `L* + 1 - 1e-6`. Both are more than 1e-6 below `mx`. The
        //   candidates are therefore every lane of the classes above `L*`
        //   plus the lanes of `C_{L*}` in `near = {i : bal(i) >= 1 -
        //   1e-6}`, kept current by `set_bal!`.
        // * The excluded lanes cannot change the seed's tie list. Its scan
        //   sets the running best `B` to a score `s` only when `s > B +
        //   1e-9`, and appends lanes within 1e-9 of `B`. Take the lanes
        //   reachable from `mx` by steps of at most 2e-9 between scores
        //   (at most 64 lanes, so they span less than 1.3e-7) and call
        //   their lowest score `lo`. Every other lane sits below `lo -
        //   2e-9`: the first reachable lane in id order replaces whatever
        //   `B` such a lane set, and after it `B >= lo`, so no such lane
        //   updates or joins the list. Excluded lanes are more than 1e-6
        //   below `mx`, so the scan over the candidates alone, in ascending
        //   id, returns the seed's list. When the second-best candidate is
        //   below `mx - 2e-9` that list is `{argmax}` and the scan is
        //   skipped (the common case; 1e-9 would be the exact bound, the
        //   second 1e-9 keeps rounding in `B + 1e-9` out of play).
        //
        // Fixed 64-wide arrays (the replica masks cap `p` at 64) let the
        // `& 63` index masking elide bounds checks in the candidate walks.
        let ws = weights.as_slice();
        let mut weight = [1f64; 64];
        weight[..p].copy_from_slice(ws);
        let mut loads = [0f64; 64]; // raw edge counts per machine
        let mut nl = [0f64; 64];
        for i in 0..p {
            nl[i] = loads[i] / weight[i];
        }
        // Scoring reads `baltab[loc * 64 + i] = bal(i) + loc` for integer
        // locality `loc ∈ {0, 1, 2}` — pre-adding the three possible
        // locality terms to the cached balance values replaces two
        // int→float conversions and two additions per lane with one
        // indexed load. `bal + 0.0`, `bal + 1.0`, `bal + 2.0` are the
        // exact sums the spec computes (its locality is `0.0/1.0/2.0`
        // exactly), so scores stay bit-identical. The table is 256 wide so
        // `(loc << 6) | lane` provably stays in bounds.
        //
        // Initial state: every load is 0, so min = max = 0, every machine
        // holds the minimum, the range is flat, and every balance term is
        // exactly 1. Lanes `p..` are never candidates: `mu`, `mv`, `near`
        // and `min_mask` have no bits there.
        let mut baltab = [0f64; 256];
        for i in 0..p {
            baltab[i] = 1.0;
            baltab[64 + i] = 2.0;
            baltab[128 + i] = 3.0;
        }
        let lanes: u64 = if p == 64 { !0 } else { (1u64 << p) - 1 };
        let mut min_nl = 0.0f64;
        let mut max_nl = 0.0f64;
        let mut min_mask = lanes;
        let mut near = lanes;
        let mut score = [0f64; 64];
        let mut best = [0u16; 64]; // reusable tie-list scratch

        // Refresh the cached balance terms after `min_nl`/`max_nl` moved.
        // `bal` is exactly 1 for the least-loaded machine(s) so that
        // "empty machine" ties "machine with one endpoint" and the hash
        // tie-break lets hubs spread (PowerGraph breaks these ties
        // randomly for the same reason).
        macro_rules! set_bal {
            ($i:expr, $v:expr) => {{
                let (i, b) = ($i, $v);
                baltab[i] = b;
                baltab[64 + i] = b + 1.0;
                baltab[128 + i] = b + 2.0;
                near = (near & !(1u64 << i)) | (((b >= 1.0 - 1e-6) as u64) << i);
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
                    // Software prefetch: request the replica entries a few
                    // edges ahead so their (hash-scattered) cache lines and
                    // TLB entries are resolved before the dependent scoring
                    // chain needs them. Nothing is read, so assignments are
                    // unaffected.
                    let pf = ring.back().copied().unwrap_or(cur);
                    prefetch(&replicas[pf.src as usize]);
                    prefetch(&replicas[pf.dst as usize]);
                    let e = &cur;
                    let mu = replicas[e.src as usize] as u64;
                    let mv = replicas[e.dst as usize] as u64;
                    let (c2, c1) = (mu & mv, mu ^ mv);
                    let cand = if min_mask & c2 != 0 {
                        c2 & near
                    } else if min_mask & c1 != 0 {
                        c2 | (c1 & near)
                    } else {
                        mu | mv | near
                    };

                    // Candidate walk in ascending id: scores from the
                    // locality-offset balance table, with running max,
                    // argmax and second max. The two-max recurrence has no
                    // data-dependent branch: the new second-best is
                    // `max(second, min(s, best_old))` — whichever of the
                    // incoming score and the old best loses. Strict `>`
                    // keeps the argmax at the first lane attaining the max;
                    // an exact tie leaves `mx2 == mx` and takes the scan.
                    let (mut mx, mut mx2, mut ax) = (f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
                    let mut rest = cand;
                    while rest != 0 {
                        let j = rest.trailing_zeros() as usize & 63;
                        rest &= rest - 1;
                        let loc = (((mu >> j) & 1) + ((mv >> j) & 1)) as usize;
                        let s = baltab[((loc << 6) | j) & 255];
                        score[j] = s;
                        mx2 = fmax(mx2, fmin(s, mx));
                        ax = if s > mx { j } else { ax };
                        mx = fmax(mx, s);
                    }
                    let chosen = if mx2 < mx - 2e-9 {
                        ax as u16
                    } else {
                        // The spec's running-best tie scan over the
                        // candidates, then the hash of the edge picks.
                        let mut best_score = f64::NEG_INFINITY;
                        let mut blen = 0usize;
                        let mut rest = cand;
                        while rest != 0 {
                            let i = rest.trailing_zeros() as usize & 63;
                            rest &= rest - 1;
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

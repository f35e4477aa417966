//! Pinned R-MAT edge streams: `(edge count, order-sensitive fold)` of the
//! natural-graph stand-ins and two plain `RmatConfig::natural` recipes,
//! recorded from the original single-threaded draw loop and checked at
//! several generator thread counts.
//!
//! These constants are the oracle that is independent of the generator's
//! implementation: the benchmark's shard check and the crate's own
//! equivalence test both compare the generator against itself (or a copy
//! of it), so only a pinned value catches a stream that changed
//! everywhere at once. A deliberate change to the R-MAT edge stream must
//! re-record them.
//!
//! The thread count reaches the generator through `HETGRAPH_THREADS`,
//! which is process-global, so this file holds exactly one test.

use hetgraph_core::rng::hash_combine;
use hetgraph_core::Edge;
use hetgraph_gen::{NaturalGraph, RmatConfig, StreamingGenerator};

/// Fold an edge sequence into `(count, hash)`; swapping any two distinct
/// edges changes the hash.
fn digest<'a>(edges: impl IntoIterator<Item = &'a Edge>) -> (usize, u64) {
    edges.into_iter().fold((0, 0), |(n, h), e| {
        (
            n + 1,
            hash_combine(h, (u64::from(e.src) << 32) | u64::from(e.dst)),
        )
    })
}

const NATURAL_AT_256: [(NaturalGraph, (usize, u64)); 4] = [
    (NaturalGraph::Amazon, (13_231, 415_808_846_962_901_526)),
    (NaturalGraph::Citation, (64_527, 5_709_954_574_546_519_548)),
    (
        NaturalGraph::SocialNetwork,
        (269_506, 12_234_913_886_036_845_998),
    ),
    (NaturalGraph::Wiki, (19_614, 16_834_882_277_751_366_800)),
];

/// `RmatConfig::natural(20_000, 160_000)` at seeds 7 and 11.
const NATURAL_20K: [(u64, (usize, u64)); 2] = [
    (7, (160_000, 11_899_712_445_802_511_970)),
    (11, (160_000, 7_781_104_187_096_412_045)),
];

#[test]
fn rmat_streams_match_pinned_digests_at_any_thread_count() {
    for threads in [1, 2, 3] {
        std::env::set_var("HETGRAPH_THREADS", threads.to_string());
        for (graph, expected) in NATURAL_AT_256 {
            let got = digest(graph.generate(256).edges());
            assert_eq!(got, expected, "{graph:?} at {threads} threads");
        }
        let cfg = RmatConfig::natural(20_000, 160_000);
        for (seed, expected) in NATURAL_20K {
            let mut edges = Vec::new();
            cfg.for_each_edge(seed, &mut |e| edges.push(e));
            let got = digest(&edges);
            assert_eq!(got, expected, "seed {seed} at {threads} threads");
        }
    }
    std::env::remove_var("HETGRAPH_THREADS");
}

//! Integration tests for the query-serving layer: the per-lane identity
//! contract of merged multi-source waves (across partitioners and host
//! thread counts), admission-control behavior under overload, and
//! weighted-fair service under skewed offered load.

use hetgraph::engine::DistributedGraph;
use hetgraph::prelude::*;
use hetgraph::serve::{
    block_width, LoadGenConfig, MultiPpr, MultiSssp, PprLanes, QueryKind, Request, ServeConfig,
    ServeError, ServeQueue, Server, SsspLanes, MAX_LANES,
};
use proptest::prelude::*;

/// Lane counts on both sides of every lane-block boundary.
const LANE_COUNTS: [usize; 11] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64];

/// Evaluate `$body` with the const `$W` bound to the block width `$width`.
macro_rules! at_width {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            1 => {
                const $W: usize = 1;
                $body
            }
            2 => {
                const $W: usize = 2;
                $body
            }
            4 => {
                const $W: usize = 4;
                $body
            }
            8 => {
                const $W: usize = 8;
                $body
            }
            16 => {
                const $W: usize = 16;
                $body
            }
            32 => {
                const $W: usize = 32;
                $body
            }
            64 => {
                const $W: usize = 64;
                $body
            }
            w => panic!("no {w}-wide lane block"),
        }
    };
}

/// Run a lane program; returns each vertex's first `lanes` lanes (the
/// padding cut off) and the kernel report.
fn run_block<T: Copy, const W: usize, P: GasProgram<VertexData = [T; W]>>(
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    program: &P,
    lanes: usize,
    threads: usize,
) -> (Vec<Vec<T>>, SimReport) {
    let out = engine.run(dist, program, threads);
    let data = out.data.iter().map(|b| b[..lanes].to_vec()).collect();
    (data, out.report)
}

/// `sources` as one SSSP wave on `width`-wide lane blocks.
fn sssp_wave(
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    sources: &[VertexId],
    width: usize,
    threads: usize,
) -> (Vec<Vec<u32>>, SimReport) {
    at_width!(width, W => {
        let program = SsspLanes::<W>::new(sources.to_vec());
        run_block(engine, dist, &program, sources.len(), threads)
    })
}

/// `seeds` as one 8-iteration PPR wave on `width`-wide lane blocks, the
/// ranks as bit patterns.
fn ppr_wave(
    engine: &SimEngine<'_>,
    dist: &DistributedGraph<'_>,
    seeds: &[VertexId],
    width: usize,
    threads: usize,
) -> (Vec<Vec<u64>>, SimReport) {
    let (data, report) = at_width!(width, W => {
        let program = PprLanes::<W>::new(seeds.to_vec(), 8);
        run_block(engine, dist, &program, seeds.len(), threads)
    });
    (rank_bits(data), report)
}

fn rank_bits(data: Vec<Vec<f64>>) -> Vec<Vec<u64>> {
    let bits = |lanes: Vec<f64>| lanes.into_iter().map(f64::to_bits).collect();
    data.into_iter().map(bits).collect()
}

/// Strategy: a random directed graph plus SSSP sources and PPR seeds
/// drawn from its vertex range, duplicates included, at lane counts
/// drawn from [`LANE_COUNTS`].
fn arb_case() -> impl Strategy<Value = (Graph, Vec<VertexId>, Vec<VertexId>)> {
    (
        2u32..120,
        proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..250),
        (0..LANE_COUNTS.len(), 0..LANE_COUNTS.len()),
        proptest::collection::vec(0u64..10_000, MAX_LANES),
        proptest::collection::vec(0u64..10_000, MAX_LANES),
    )
        .prop_map(
            |(n, pairs, (sssp_pick, ppr_pick), raw_sources, raw_seeds)| {
                let edges: Vec<Edge> = pairs
                    .into_iter()
                    .map(|(a, b)| Edge::new((a % n as u64) as u32, (b % n as u64) as u32))
                    .collect();
                let graph = Graph::from_edge_list(EdgeList::from_edges(n, edges));
                let in_range = |raw: Vec<u64>, lanes: usize| {
                    raw.into_iter()
                        .take(lanes)
                        .map(|s| (s % n as u64) as u32)
                        .collect()
                };
                let sources = in_range(raw_sources, LANE_COUNTS[sssp_pick]);
                let seeds = in_range(raw_seeds, LANE_COUNTS[ppr_pick]);
                (graph, sources, seeds)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batcher's determinism core: each lane of a merged
    /// multi-source wave is bitwise-identical to running that query
    /// solo, for every partitioner family and any host thread count.
    #[test]
    fn merged_wave_lanes_match_solo_runs((graph, sources, seeds) in arb_case()) {
        let cluster = Cluster::case2();
        let engine = SimEngine::new(&cluster);
        for kind in [
            PartitionerKind::RandomHash,
            PartitionerKind::Hybrid,
            PartitionerKind::Grid,
        ] {
            let assignment = kind.build().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
            for threads in [1usize, 2, 4] {
                let dist = DistributedGraph::new(&graph, &assignment, threads)
                    .expect("assignment covers the graph");
                let (multi, _) =
                    sssp_wave(&engine, &dist, &sources, block_width(sources.len()), threads);
                for (lane, &s) in sources.iter().enumerate() {
                    let solo = engine
                        .run(&dist, &Sssp::new(s), threads)
                        .data;
                    for v in 0..graph.num_vertices() as usize {
                        prop_assert!(
                            multi[v][lane] == solo[v],
                            "sssp lane {} of {} (source {}) diverged at vertex {} \
                             ({:?}, {} threads)",
                            lane, sources.len(), s, v, kind, threads
                        );
                    }
                }
                let (multi_ppr, _) =
                    ppr_wave(&engine, &dist, &seeds, block_width(seeds.len()), threads);
                for (lane, &s) in seeds.iter().enumerate() {
                    let (solo, _) = ppr_wave(&engine, &dist, &[s], 1, threads);
                    for v in 0..graph.num_vertices() as usize {
                        prop_assert!(
                            multi_ppr[v][lane] == solo[v][0],
                            "ppr lane {} of {} (seed {}) diverged at vertex {} \
                             ({:?}, {} threads)",
                            lane, seeds.len(), s, v, kind, threads
                        );
                    }
                }
            }
        }
    }
}

/// Width invariance at every block boundary: a wave's lane data and its
/// whole `SimReport` do not depend on the block it ran on. Charging work
/// by the block width instead of the lane count, or a padding lane that
/// flips a `changed` bit, fails here.
#[test]
fn lane_data_and_report_are_independent_of_block_width() {
    let graph = PowerLawConfig::new(300, 2.1).generate(5);
    let n = graph.num_vertices();
    let cluster = Cluster::case2();
    let engine = SimEngine::new(&cluster);
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist = distribute(&graph, &assignment);
    for lanes in LANE_COUNTS {
        let mut ids: Vec<VertexId> = (0..lanes as u32).map(|l| (l * 37 + 11) % n).collect();
        ids[lanes - 1] = ids[0]; // a duplicate lane wherever there is room for one
        let width = block_width(lanes);
        let sssp = sssp_wave(&engine, &dist, &ids, width, 2);
        let ppr = ppr_wave(&engine, &dist, &ids, width, 2);
        // Lanes against independent scalar runs, at the dispatched width.
        for (lane, &s) in ids.iter().enumerate() {
            let solo = engine.run(&dist, &Sssp::new(s), 1).data;
            assert!(
                sssp.0.iter().zip(&solo).all(|(block, &d)| block[lane] == d),
                "sssp lane {lane} of {lanes} diverged from its solo run"
            );
        }
        if width < MAX_LANES {
            let wider = 2 * width;
            assert!(
                sssp == sssp_wave(&engine, &dist, &ids, wider, 2),
                "{lanes} sssp lanes differ between the {width}- and {wider}-wide block"
            );
            assert!(
                ppr == ppr_wave(&engine, &dist, &ids, wider, 2),
                "{lanes} ppr lanes differ between the {width}- and {wider}-wide block"
            );
        }
    }
    // The public aliases are the 16-wide block.
    let ids = [3, 250, 3];
    let (alias, _) = run_block(&engine, &dist, &MultiSssp::new(ids.to_vec()), 3, 1);
    assert_eq!(alias, sssp_wave(&engine, &dist, &ids, 16, 1).0);
    let (alias, _) = run_block(&engine, &dist, &MultiPpr::new(ids.to_vec(), 8), 3, 1);
    assert_eq!(rank_bits(alias), ppr_wave(&engine, &dist, &ids, 16, 1).0);
}

/// Whole serving runs against values captured with the `Vec`-valued lane
/// programs at `2d0fc40`: (max_batch, composition digest,
/// `sim_duration_s` bits, waves). The widest waves of the three runs
/// have 5, 16 and 62 lanes.
#[test]
fn served_stream_matches_goldens_from_before_lane_blocks() {
    const GOLDEN: [(usize, u64, u64, usize); 3] = [
        (5, 0xdce17c927618dd07, 0x3ff4dc8f89e41ad8, 80),
        (16, 0xb70c6f028bd4d533, 0x3fe2516922381b57, 27),
        (64, 0xf3a6d7fa0ca82ed9, 0x3fd392e369c61e12, 11),
    ];
    let (graph, cluster) = serving_fixture();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist = distribute(&graph, &assignment);
    let stream = LoadGenConfig::standard(29, 400, 0.0005).generate(graph.num_vertices());
    for (max_batch, digest, duration_bits, waves) in GOLDEN {
        let mut cfg = ServeConfig::standard(2);
        cfg.queue_budget = 1000;
        cfg.max_batch = max_batch;
        let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
        assert_eq!(report.served(), 400);
        assert_eq!(
            (
                report.composition_digest,
                report.sim_duration_s.to_bits(),
                report.waves.len()
            ),
            (digest, duration_bits, waves),
            "max_batch {max_batch}"
        );
    }
}

fn serving_fixture() -> (Graph, Cluster) {
    (PowerLawConfig::new(800, 2.1).generate(21), Cluster::case2())
}

fn distribute<'a>(
    graph: &'a Graph,
    assignment: &'a hetgraph::partition::PartitionAssignment,
) -> DistributedGraph<'a> {
    DistributedGraph::new(graph, assignment, 1).expect("assignment covers the graph")
}

#[test]
fn queue_full_shed_is_typed_and_leaves_batches_intact() {
    // Unit level: the typed error carries the shed context and the
    // queued requests are untouched by the rejection.
    let mut queue = ServeQueue::new(vec![1, 1], 2);
    for id in 0..2 {
        queue
            .admit(Request {
                id,
                tenant: 0,
                kind: QueryKind::Sssp { source: id as u32 },
                arrival_s: 0.0,
            })
            .unwrap();
    }
    let err = queue
        .admit(Request {
            id: 2,
            tenant: 0,
            kind: QueryKind::Sssp { source: 2 },
            arrival_s: 0.0,
        })
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::QueueFull {
            tenant: 0,
            depth: 2,
            budget: 2
        }
    );
    let batch = queue.next_batch(8).expect("two requests queued");
    let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
    assert_eq!(ids, [0, 1], "the shed request must not leak into a batch");

    // End to end: under a tiny budget the server sheds, yet every
    // request it did serve returns exactly the answer a solo, unshed
    // run produces for the same query.
    let (graph, cluster) = serving_fixture();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist = distribute(&graph, &assignment);
    let stream = LoadGenConfig::standard(13, 120, 0.0005).generate(graph.num_vertices());
    let mut cfg = ServeConfig::standard(2);
    cfg.queue_budget = 3;
    cfg.max_batch = 4;
    let server = Server::new(&cluster);
    let report = server.serve(&dist, &cfg, &stream);
    assert!(!report.shed.is_empty(), "a tiny budget must shed");
    assert_eq!(report.served() + report.shed.len(), 120);
    let solo_cfg = ServeConfig::standard(2);
    for completion in report.completions.iter().take(5) {
        let original = stream
            .iter()
            .find(|r| r.id == completion.id)
            .expect("completion ids come from the stream");
        let mut solo_request = original.clone();
        solo_request.arrival_s = 0.0;
        let solo = server.serve(&dist, &solo_cfg, &[solo_request]);
        assert_eq!(
            solo.completions[0].result, completion.result,
            "request {} answered differently under shedding pressure",
            completion.id
        );
    }
}

#[test]
fn skewed_offered_load_is_served_within_weight_tolerance() {
    // Two equal-weight tenants offering load 9:1. The fair scheduler
    // must serve both proportionally to what they offer — no
    // starvation, no amplification.
    let (graph, cluster) = serving_fixture();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist = distribute(&graph, &assignment);
    let mut load = LoadGenConfig::standard(17, 2000, 0.002);
    load.tenant_shares = vec![9, 1];
    let stream = load.generate(graph.num_vertices());
    let offered: Vec<usize> = (0..2)
        .map(|t| stream.iter().filter(|r| r.tenant == t).count())
        .collect();
    let offered_frac = offered[0] as f64 / stream.len() as f64;
    assert!(
        (offered_frac - 0.9).abs() < 0.03,
        "load generator drifted from the 9:1 draw: {offered:?}"
    );
    let mut cfg = ServeConfig::standard(2);
    cfg.queue_budget = 4000; // admission out of the picture: pure scheduling
    let report = Server::new(&cluster).serve(&dist, &cfg, &stream);
    assert_eq!(report.served(), 2000, "nothing sheds under an open budget");
    let served_frac = report.per_tenant_served[0] as f64 / report.served() as f64;
    assert!(
        (served_frac - offered_frac).abs() < 0.01,
        "served share {served_frac:.3} drifted from offered share {offered_frac:.3}"
    );
}

#[test]
fn weighted_tenants_split_a_contended_backlog_by_stride() {
    // 9:1 *weights* under a full backlog: every batch of 10 must hand
    // nine lanes to the heavy tenant and one to the light tenant.
    let mut queue = ServeQueue::new(vec![9, 1], 400);
    for id in 0..400u64 {
        queue
            .admit(Request {
                id,
                tenant: (id % 2) as usize,
                kind: QueryKind::Sssp { source: id as u32 },
                arrival_s: 0.0,
            })
            .unwrap();
    }
    let mut served = [0u64; 2];
    while let Some(batch) = queue.next_batch(10) {
        for r in &batch.requests {
            served[r.tenant] += 1;
        }
        // While both tenants still have backlog, the cumulative split
        // tracks the 9:1 stride exactly (within one batch of rounding).
        if queue.depth(0) > 0 && queue.depth(1) > 0 {
            let ratio = served[0] as f64 / served[1].max(1) as f64;
            assert!(
                (6.0..=12.0).contains(&ratio),
                "stride drifted: served {served:?}"
            );
        }
    }
    assert_eq!(served[0] + served[1], 400, "the queue must drain fully");
}

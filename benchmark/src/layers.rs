//! Every call into `hetgraph`, one function per layer boundary.
//!
//! Nothing else in this package names a `hetgraph` path: the workloads
//! compose these functions and the types re-exported here. When the
//! library's API changes (ROADMAP direction 2 collapses the `run*`,
//! `partition*` and `profile*` families), this file is the follow-up.
//!
//! Each timed function opens one span named after the per-layer metric
//! it feeds (`partition.hybrid` → `partition.hybrid_s`) and attaches the
//! counts measured at that boundary. The reference implementations at
//! the bottom are used only by the output checks, outside timed regions.

use std::path::Path;

use hetgraph::apps::reference;
use hetgraph::cluster::catalog;
use hetgraph::engine::GasProgram;
use hetgraph::gen::StreamingGenerator;
use hetgraph::profile::accuracy::AccuracyReport;
use hetgraph::profile::runner::profiling_set_time;
use hetgraph::serve::{MultiPpr, MultiSssp};

pub use hetgraph::cluster::Cluster;
pub use hetgraph::core::{Graph, ShardSet};
pub use hetgraph::engine::{CompactDistGraph, DistributedGraph, SimOutcome, SimReport};
pub use hetgraph::gen::{ProxySet, RmatConfig};
pub use hetgraph::partition::{
    MachineWeights, PartitionAssignment, PartitionMetrics, PartitionerKind,
};
pub use hetgraph::profile::CcrPool;
pub use hetgraph::serve::{QueryKind, Request, ServeConfig, ServeReport};
pub use hetgraph::Framework;

use crate::trace::Tracer;

/// SSSP's distance for a vertex the source cannot reach.
pub const UNREACHABLE: u32 = hetgraph::apps::sssp::UNREACHABLE;

// ---------------------------------------------------------------- cluster

/// The paper's Case 2 cluster (Xeon S + Xeon L).
pub fn case2() -> Cluster {
    Cluster::case2()
}

/// A `p`-machine cluster dealt round-robin from the eight Table I types.
pub fn wide_cluster(p: usize) -> Cluster {
    let table = catalog::table1();
    Cluster::new((0..p).map(|i| table[i % table.len()].clone()).collect())
}

// -------------------------------------------------------------------- gen

/// Algorithm 1: a power-law graph of `n` vertices with exponent `alpha`.
pub fn powerlaw(tr: &Tracer, n: u32, alpha: f64, seed: u64) -> Graph {
    let s = tr.begin("gen", "gen.powerlaw");
    let g = hetgraph::gen::PowerLawConfig::new(n, alpha).generate(seed);
    tr.end(s, &[("edges", g.num_edges() as f64)]);
    g
}

/// The R-MAT recipe of the social-network stand-in at `1/scale`.
pub fn social_network_config(scale: u32) -> RmatConfig {
    hetgraph::gen::NaturalGraph::SocialNetwork
        .spec()
        .scaled_config(scale)
}

/// Edge count and order-sensitive hash of an edge stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest {
    /// Edges in the stream.
    pub edges: u64,
    /// Hash folded over `(src, dst)` in stream order.
    pub hash: u64,
}

impl StreamDigest {
    fn of(mut for_each: impl FnMut(&mut dyn FnMut(hetgraph::core::Edge))) -> Self {
        let mut digest = StreamDigest { edges: 0, hash: 0 };
        for_each(&mut |e| {
            let pair = (u64::from(e.src) << 32) | u64::from(e.dst);
            digest.hash = hetgraph::core::rng::hash_combine(digest.hash, pair);
            digest.edges += 1;
        });
        digest
    }
}

/// Digest of the R-MAT generator's edge stream, with no shard I/O and no
/// graph in memory.
pub fn rmat_digest(tr: &Tracer, config: &RmatConfig, seed: u64) -> StreamDigest {
    let s = tr.begin("gen", "gen.rmat_stream");
    let digest = StreamDigest::of(|f| config.for_each_edge(seed, f));
    tr.end(s, &[("edges", digest.edges as f64)]);
    digest
}

/// Digest of a shard directory's replay.
pub fn shard_digest(set: &ShardSet) -> StreamDigest {
    StreamDigest::of(|f| set.for_each_edge(f))
}

/// The in-memory twin of [`rmat_shards`]: same recipe, same seed, same
/// edge sequence.
pub fn rmat_graph(tr: &Tracer, config: &RmatConfig, seed: u64) -> Graph {
    let s = tr.begin("gen", "gen.rmat_plain");
    let g = config.generate(seed);
    tr.end(s, &[("edges", g.num_edges() as f64)]);
    g
}

/// Stream the R-MAT edge sequence into binary shards under `dir`.
pub fn rmat_shards(tr: &Tracer, config: &RmatConfig, seed: u64, dir: &Path) -> ShardSet {
    let s = tr.begin("gen", "gen.shards");
    let set = config
        .generate_shards(seed, dir)
        .expect("shard emission into the scratch directory");
    let bytes: u64 = std::fs::read_dir(dir)
        .expect("the shard directory was just written")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    tr.end(
        s,
        &[("edges", set.num_edges() as f64), ("bytes", bytes as f64)],
    );
    set
}

/// The paper's three proxies at `1/scale` (definitions only; cheap).
pub fn proxy_set(scale: u32) -> ProxySet {
    ProxySet::standard(scale)
}

/// Generate every proxy graph of `proxies` (what profiling does first).
pub fn proxy_graphs(tr: &Tracer, proxies: &ProxySet) -> Vec<Graph> {
    let s = tr.begin("gen", "gen.proxy");
    let graphs: Vec<Graph> = proxies.proxies().iter().map(|p| p.generate()).collect();
    let edges: usize = graphs.iter().map(Graph::num_edges).sum();
    tr.end(s, &[("edges", edges as f64)]);
    graphs
}

/// Eq. 7: fit α for each of the four Table II graphs from |V| and |E|.
pub fn alpha_fits(tr: &Tracer) -> Vec<f64> {
    let s = tr.begin("gen", "gen.alpha_fit");
    let mut iters = 0u32;
    let alphas = hetgraph::gen::NaturalGraph::ALL
        .iter()
        .map(|g| {
            let spec = g.spec();
            let fit = hetgraph::gen::fit_alpha(spec.vertices, spec.edges)
                .expect("Table II shapes are fittable");
            iters += fit.iterations;
            fit.alpha
        })
        .collect();
    tr.end(s, &[("iters", f64::from(iters))]);
    alphas
}

/// The amazon stand-in at `1/scale` (the held-out graph Fig 8 checks
/// proxy CCRs against).
pub fn amazon(scale: u32) -> Graph {
    hetgraph::gen::NaturalGraph::Amazon.generate(scale)
}

/// `count` vertices drawn from `seed`, uniform over `0..n`.
pub fn pick_vertices(seed: u64, n: u32, count: usize) -> Vec<u32> {
    let mut rng = hetgraph::core::SplitMix64::new(seed);
    (0..count)
        .map(|_| (rng.next_u64() % u64::from(n)) as u32)
        .collect()
}

// ---------------------------------------------------------------- profile

/// Offline CCR profiling of `cluster` with `proxies` for all six apps.
pub fn profile_pool(tr: &Tracer, cluster: &Cluster, proxies: &ProxySet, threads: usize) -> CcrPool {
    let s = tr.begin("profile", "profile.pool");
    let apps = hetgraph::apps::full_apps();
    let pool = CcrPool::profile_with_threads(cluster, proxies, &apps, threads);
    tr.end(s, &pool_counts(&pool, cluster));
    pool
}

/// Fig 7b deployment: proxy generation + one-time profiling, then a
/// framework that submits under `threads` host threads.
pub fn deploy(tr: &Tracer, cluster: Cluster, proxy_scale: u32, threads: usize) -> Framework {
    let s = tr.begin("profile", "profile.pool");
    let fw = Framework::deploy(cluster, proxy_scale).with_threads(threads);
    tr.end(s, &pool_counts(fw.pool(), fw.cluster()));
    fw
}

fn pool_counts(pool: &CcrPool, cluster: &Cluster) -> [(&'static str, f64); 2] {
    let spread: f64 = pool.iter().map(|set| set.spread()).sum::<f64>() / pool.len() as f64;
    [
        ("cells", (pool.len() * cluster.groups().len()) as f64),
        ("ccr_spread", spread),
    ]
}

/// Re-run the profiling cells of `cluster` app by app, one span per app,
/// so the pool's wall time splits into per-application shares.
pub fn profile_cells_by_app(tr: &Tracer, cluster: &Cluster, graphs: &[Graph]) {
    for app in hetgraph::apps::full_apps() {
        let s = tr.begin("profile", &format!("profile.app.{}", app.name()));
        for rep in cluster.group_representatives() {
            std::hint::black_box(profiling_set_time(cluster.machine(rep), &app, graphs));
        }
        tr.end(s, &[]);
    }
}

/// Fig 8a: mean relative error (percent) of proxy-profiled speedups of
/// the c4 family over c4.xlarge against speedups measured on `real`.
pub fn ccr_error_pct(tr: &Tracer, proxies: &ProxySet, real: &[Graph]) -> f64 {
    let s = tr.begin("profile", "profile.accuracy");
    let report = AccuracyReport::evaluate(
        &catalog::c4_xlarge(),
        &[
            catalog::c4_2xlarge(),
            catalog::c4_4xlarge(),
            catalog::c4_8xlarge(),
        ],
        &hetgraph::apps::standard_apps(),
        proxies,
        real,
    );
    let pct = report.proxy_error_pct();
    tr.end(s, &[("ccr_error_pct", pct)]);
    pct
}

/// CCR-proportional machine weights for `app` from a profiled pool.
pub fn ccr_weights(pool: &CcrPool, app: &str) -> MachineWeights {
    let set = pool
        .ccr(app)
        .expect("the pool profiles every registered app");
    MachineWeights::from_ccr(set.ratios())
}

/// Uniform weights (the homogeneous PowerGraph default).
pub fn uniform_weights(machines: usize) -> MachineWeights {
    MachineWeights::uniform(machines)
}

/// Thread-count weights (the prior-work baseline; what `serve` uses).
pub fn thread_weights(cluster: &Cluster) -> MachineWeights {
    MachineWeights::from_thread_counts(cluster)
}

// -------------------------------------------------------------- partition

/// Partition `graph` with `kind` under `weights`.
pub fn partition(
    tr: &Tracer,
    kind: PartitionerKind,
    graph: &Graph,
    weights: &MachineWeights,
    threads: usize,
) -> PartitionAssignment {
    let s = tr.begin("partition", &format!("partition.{}", kind.name()));
    let a = kind.build().partition_with_threads(graph, weights, threads);
    tr.end(s, &[("edges", graph.num_edges() as f64)]);
    a
}

/// Quality of `assignment` against `weights`. The exact values are
/// attached under `kind`'s name so Hybrid's can be read back alone.
pub fn partition_metrics(
    tr: &Tracer,
    kind: PartitionerKind,
    assignment: &PartitionAssignment,
    weights: &MachineWeights,
    threads: usize,
) -> PartitionMetrics {
    let s = tr.begin("partition", "partition.metrics");
    let m = PartitionMetrics::compute_with_threads(assignment, weights, threads);
    if kind == PartitionerKind::Hybrid {
        tr.end(
            s,
            &[
                ("hybrid_replication_factor", m.replication_factor),
                ("hybrid_weighted_balance_error", m.weighted_balance_error),
            ],
        );
    } else {
        tr.end(s, &[]);
    }
    m
}

/// One streaming Oblivious pass over a shard directory.
pub fn stream_oblivious(
    tr: &Tracer,
    set: &ShardSet,
    weights: &MachineWeights,
) -> PartitionAssignment {
    let s = tr.begin("partition", "partition.stream_oblivious");
    let streamer = PartitionerKind::Oblivious
        .build_stream()
        .expect("Oblivious partitions edge-at-a-time");
    let a = streamer.partition_stream(set.num_vertices(), weights, &mut set.stream());
    tr.end(s, &[("edges", set.num_edges() as f64)]);
    a
}

// ------------------------------------------------------- engine: building

/// Build the partition-aware view the kernel runs on.
pub fn build_dist<'a>(
    tr: &Tracer,
    graph: &'a Graph,
    assignment: &'a PartitionAssignment,
    threads: usize,
) -> DistributedGraph<'a> {
    let s = tr.begin("engine", "engine.build");
    let dist = DistributedGraph::new_with_threads(graph, assignment, threads)
        .expect("the assignment was computed for this graph");
    tr.end(s, &[("edges", graph.num_edges() as f64)]);
    dist
}

/// Force the per-row machine-count tables the kernel would otherwise
/// build lazily inside its first run (P ≤ 8 only; a no-op above).
pub fn row_tables(tr: &Tracer, dist: &DistributedGraph<'_>) {
    let s = tr.begin("engine", "engine.row_tables");
    let built = dist.machine_counts().is_some();
    let edges = dist.graph().num_edges() as f64;
    tr.end(
        s,
        &[
            ("built", f64::from(u8::from(built))),
            (
                "resident_bytes_per_edge",
                dist.resident_bytes() as f64 / edges,
            ),
        ],
    );
}

/// Build the compressed view straight from a shard stream (three passes).
pub fn build_compact(
    tr: &Tracer,
    set: &ShardSet,
    assignment: &PartitionAssignment,
) -> CompactDistGraph {
    let s = tr.begin("engine", "engine.compact_build");
    let c = CompactDistGraph::from_edge_stream(set.num_vertices(), assignment, || set.stream())
        .expect("the assignment was computed from this stream");
    tr.end(
        s,
        &[
            ("edges", set.num_edges() as f64),
            (
                "bytes_per_edge",
                c.resident_bytes() as f64 / set.num_edges() as f64,
            ),
        ],
    );
    c
}

// --------------------------------------------------------- engine: kernel

/// PageRank for a fixed number of iterations.
pub fn pagerank(iterations: usize) -> hetgraph::apps::PageRank {
    hetgraph::apps::PageRank::new(iterations)
}

/// Weakly connected components.
pub fn connected_components() -> hetgraph::apps::ConnectedComponents {
    hetgraph::apps::ConnectedComponents::new()
}

/// Unit-weight SSSP from `source`.
pub fn sssp(source: u32) -> hetgraph::apps::Sssp {
    hetgraph::apps::Sssp::new(source)
}

/// `k`-core peeling.
pub fn kcore(k: u32) -> hetgraph::apps::KCore {
    hetgraph::apps::KCore::new(k)
}

fn report_counts(r: &SimReport) -> [(&'static str, f64); 8] {
    let p = r.per_machine_busy_s.len() as f64;
    let busy_max = r.per_machine_busy_s.iter().copied().fold(0.0, f64::max);
    let busy_sum: f64 = r.per_machine_busy_s.iter().sum();
    [
        ("supersteps", r.supersteps as f64),
        (
            "edge_units",
            r.per_machine_work.iter().map(|w| w.edge_units).sum(),
        ),
        ("sim_makespan_s", r.makespan_s),
        ("sim_energy_j", r.total_energy_j()),
        ("sim_wait_s", r.total_barrier_wait_s()),
        ("sim_machine_s", r.compute_s * p),
        ("sim_busy_max_s", busy_max),
        ("sim_busy_mean_s", busy_sum / p),
    ]
}

/// One kernel run of `program` on the plain view. `family` is the span
/// prefix: `engine.run` in repetitions, `engine.run_1t` for the
/// single-thread baseline, `engine.run_uniform` for uniform weights.
pub fn run<P: GasProgram>(
    tr: &Tracer,
    family: &str,
    app: &str,
    cluster: &Cluster,
    dist: &DistributedGraph<'_>,
    program: &P,
    threads: usize,
) -> SimOutcome<P::VertexData> {
    let s = tr.begin("engine", &format!("{family}.{app}"));
    let outcome =
        hetgraph::engine::SimEngine::new(cluster).run_on_with_threads(dist, program, threads);
    tr.end(s, &report_counts(&outcome.report));
    outcome
}

/// [`run`] on the compressed view (decode-on-iterate kernel).
pub fn run_compact<P: GasProgram>(
    tr: &Tracer,
    family: &str,
    app: &str,
    cluster: &Cluster,
    dist: &CompactDistGraph,
    program: &P,
    threads: usize,
) -> SimOutcome<P::VertexData> {
    let s = tr.begin("engine", &format!("{family}.{app}"));
    let outcome = hetgraph::engine::SimEngine::new(cluster)
        .run_compact_on_with_threads(dist, program, threads);
    tr.end(s, &report_counts(&outcome.report));
    outcome
}

/// The library's own Fig 7b entry point, for checking that the
/// benchmark's stage-by-stage job is the same job.
pub fn submit_connected_components(fw: &Framework, graph: &Graph) -> (SimReport, PartitionMetrics) {
    let job = fw.submit(graph, &hetgraph::apps::AnyApp::connected_components());
    (job.report, job.partition)
}

// ------------------------------------------------------------------ serve

/// The standard mixed request stream (SSSP : PPR : k-core = 6 : 3 : 1,
/// two tenants) at one arrival per `mean_gap_s` simulated seconds.
/// Arrival times, tenants and classes come from `schedule_seed`; the
/// vertex each query asks about is then re-drawn from `query_seed`.
pub fn request_stream(
    tr: &Tracer,
    schedule_seed: u64,
    query_seed: u64,
    requests: usize,
    mean_gap_s: f64,
    vertices: u32,
) -> Vec<Request> {
    let s = tr.begin("serve", "serve.loadgen");
    let mut stream = hetgraph::serve::LoadGenConfig::standard(schedule_seed, requests, mean_gap_s)
        .generate(vertices);
    let queried = pick_vertices(query_seed, vertices, stream.len());
    for (request, v) in stream.iter_mut().zip(queried) {
        match &mut request.kind {
            QueryKind::Sssp { source } => *source = v,
            QueryKind::Ppr { seed } => *seed = v,
            QueryKind::KCoreMember { vertex, .. } => *vertex = v,
        }
    }
    tr.end(s, &[("requests", stream.len() as f64)]);
    stream
}

/// Standard serving configuration with tenants weighted 2 : 1.
pub fn serve_config(threads: usize) -> ServeConfig {
    let mut cfg = ServeConfig::standard(2);
    cfg.tenant_weights = vec![2, 1];
    cfg.threads = threads;
    cfg
}

/// Serve `stream` once over `dist`.
pub fn serve(
    tr: &Tracer,
    cluster: &Cluster,
    dist: &DistributedGraph<'_>,
    cfg: &ServeConfig,
    stream: &[Request],
) -> ServeReport {
    let s = tr.begin("serve", "serve.serve");
    let report = hetgraph::serve::Server::new(cluster).serve(dist, cfg, stream);
    let mut waits: Vec<f64> = report
        .completions
        .iter()
        .map(|c| c.wave_start_s - c.arrival_s)
        .collect();
    waits.sort_by(f64::total_cmp);
    let mut makespans: Vec<f64> = report.waves.iter().map(|w| w.makespan_s).collect();
    makespans.sort_by(f64::total_cmp);
    let quantile = |sorted: &[f64], q| {
        if sorted.is_empty() {
            0.0
        } else {
            crate::stats::nearest_rank(sorted, q)
        }
    };
    tr.end(
        s,
        &[
            ("waves", report.waves.len() as f64),
            (
                "lanes",
                report.waves.iter().map(|w| w.lanes).sum::<usize>() as f64,
            ),
            ("served", report.served() as f64),
            ("shed", report.shed.len() as f64),
            ("sim_rps", report.throughput_rps()),
            ("sim_queue_wait_p50_s", quantile(&waits, 0.5)),
            ("sim_queue_wait_p99_s", quantile(&waits, 0.99)),
            ("sim_wave_makespan_p50_s", quantile(&makespans, 0.5)),
            (
                "sim_p99_latency_s",
                report.latency_quantile_s(0.99).unwrap_or(0.0),
            ),
        ],
    );
    report
}

/// The multi-source SSSP lane program: one lane per source.
pub fn multi_sssp(sources: &[u32]) -> MultiSssp {
    MultiSssp::new(sources.to_vec())
}

/// The personalized-PageRank lane program: one lane per seed.
pub fn multi_ppr(seeds: &[u32], iterations: usize) -> MultiPpr {
    MultiPpr::new(seeds.to_vec(), iterations)
}

// ------------------------------------------------------------------- core

/// One full replay of a shard directory (the read side of `gen.shards`).
pub fn shard_replay(tr: &Tracer, set: &ShardSet) {
    let s = tr.begin("core", "core.shard_replay");
    let edges = set.stream().count();
    tr.end(s, &[("edges", edges as f64)]);
}

// ------------------------------------------------- sequential references

/// Jacobi PageRank, the engine's exact iteration.
pub fn pagerank_ref(graph: &Graph, iterations: usize) -> Vec<f64> {
    reference::pagerank_ref(graph, iterations, hetgraph::apps::pagerank::DAMPING)
}

/// Component labels (minimum vertex id per component).
pub fn connected_components_ref(graph: &Graph) -> Vec<u32> {
    reference::connected_components_ref(graph)
}

/// BFS distances from `source`.
pub fn sssp_ref(graph: &Graph, source: u32) -> Vec<u32> {
    reference::sssp_ref(graph, source)
}

/// `k`-core membership by global peeling.
pub fn kcore_ref(graph: &Graph, k: u32) -> Vec<bool> {
    reference::kcore_ref(graph, k)
}

//! Criterion micro-benchmarks: GAS engine superstep throughput.
//!
//! Measures the real execution cost (host time, not simulated time) of the
//! engine, which bounds how large an experiment a given machine can drive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use hetgraph_apps::{AnyApp, ConnectedComponents, PageRank, TriangleCount};
use hetgraph_cluster::Cluster;
use hetgraph_core::obs::{Telemetry, OFF};
use hetgraph_engine::{DistributedGraph, SimEngine};
use hetgraph_gen::{ProxySet, RmatConfig};
use hetgraph_partition::{Hybrid, MachineWeights, Partitioner};

fn bench_engine(c: &mut Criterion) {
    let graph = RmatConfig::natural(10_000, 80_000).generate(11);
    let cluster = Cluster::case2();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    // This group has always timed the O(edges) view build with the run.
    let view =
        || DistributedGraph::new(&graph, &assignment, 1).expect("assignment must cover the graph");

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.num_edges() as u64));

    group.bench_function("pagerank_5_iters", |b| {
        let engine = SimEngine::new(&cluster);
        b.iter(|| black_box(engine.run(&view(), &PageRank::new(5), 1).report.makespan_s));
    });
    group.bench_function("connected_components", |b| {
        let engine = SimEngine::new(&cluster);
        b.iter(|| {
            black_box(
                engine
                    .run(&view(), &ConnectedComponents::new(), 1)
                    .report
                    .supersteps,
            )
        });
    });
    group.bench_function("triangle_count", |b| {
        let engine = SimEngine::new(&cluster);
        let tc = TriangleCount::for_graph(&graph);
        b.iter(|| black_box(engine.run(&view(), &tc, 1).data[0]));
    });
    group.bench_function("registry_dispatch", |b| {
        let engine = SimEngine::new(&cluster);
        let coloring = AnyApp::coloring();
        b.iter(|| black_box(coloring.run(&engine, &view(), 1).makespan_s));
    });
    group.finish();
}

fn bench_engine_telemetry(c: &mut Criterion) {
    // The telemetry overhead gate. `pagerank_5_iters` above runs on the
    // default (OFF) handle and is the cross-PR criterion baseline: its
    // regression report against the committed numbers IS the "<2% when
    // disabled" check. This group isolates the same workload with (a) an
    // explicit OFF handle — must be indistinguishable from the default
    // path — and (b) a live handle, event log and metrics both on, which
    // is allowed to cost more (events per superstep, atomic counter and
    // histogram updates per superstep and per machine).
    let graph = RmatConfig::natural(10_000, 80_000).generate(11);
    let cluster = Cluster::case2();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist =
        DistributedGraph::new(&graph, &assignment, 1).expect("assignment must cover the graph");

    let mut group = c.benchmark_group("engine_telemetry");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.bench_function("pagerank_off", |b| {
        let engine = SimEngine::new(&cluster).with_telemetry(&OFF);
        let pagerank = AnyApp::pagerank();
        b.iter(|| black_box(pagerank.run(&engine, &dist, 1).makespan_s));
    });
    group.bench_function("pagerank_live", |b| {
        let pagerank = AnyApp::pagerank();
        b.iter(|| {
            let telemetry = Telemetry::live();
            let engine = SimEngine::new(&cluster).with_telemetry(&telemetry);
            let makespan = pagerank.run(&engine, &dist, 1).makespan_s;
            let events = telemetry.take_events().len();
            black_box((makespan, events, telemetry.snapshot_sim().counters.len()))
        });
    });
    group.finish();
}

fn bench_engine_threads(c: &mut Criterion) {
    // Thread-scaling reference: PageRank on the largest standard proxy at
    // the default experiment scale (64), over a shared distributed view,
    // at increasing engine thread budgets. This is the host-parallelism
    // trajectory future scaling PRs regress against.
    let proxies = ProxySet::standard(64);
    let spec = &proxies.proxies()[0];
    let graph = spec.generate();
    let cluster = Cluster::case2();
    let assignment = Hybrid::new().partition(&graph, &MachineWeights::uniform(2), 1, &OFF);
    let dist =
        DistributedGraph::new(&graph, &assignment, 1).expect("assignment must cover the graph");
    let engine = SimEngine::new(&cluster);

    let mut group = c.benchmark_group("engine_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pagerank_scale64_proxy", threads),
            &threads,
            |b, &t| {
                let pagerank = AnyApp::pagerank();
                b.iter(|| black_box(pagerank.run(&engine, &dist, t).makespan_s))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_engine_telemetry,
    bench_engine_threads
);
criterion_main!(benches);

//! Criterion micro-benchmarks: streaming partitioner ingest throughput.
//!
//! Partitioning happens on the critical path of every job submission
//! (PowerGraph's "ingress" phase), so its throughput matters in practice
//! even though the paper focuses on post-ingress runtime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use hetgraph_core::obs::OFF;
use hetgraph_gen::{PowerLawConfig, RmatConfig};
use hetgraph_partition::{MachineWeights, PartitionerKind};

fn bench_partitioners(c: &mut Criterion) {
    let graph = RmatConfig::natural(20_000, 160_000).generate(7);
    let uniform = MachineWeights::uniform(4);
    let weighted = MachineWeights::from_ccr(&[1.0, 2.0, 3.0, 3.5]);

    let mut group = c.benchmark_group("partition_ingest");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    for kind in PartitionerKind::ALL {
        let p = kind.build();
        group.bench_with_input(BenchmarkId::new("uniform", kind.name()), &graph, |b, g| {
            b.iter(|| black_box(p.partition(g, &uniform, 1, &OFF)));
        });
        group.bench_with_input(BenchmarkId::new("ccr", kind.name()), &graph, |b, g| {
            b.iter(|| black_box(p.partition(g, &weighted, 1, &OFF)));
        });
    }
    group.finish();
}

/// Machine-count sweep over the streaming fast path: P ∈ {4, 16, 48}
/// spans the u16/u16/u64 replica-mask monomorphizations, so regressions
/// in any width class show up separately.
fn bench_machine_counts(c: &mut Criterion) {
    let graph = PowerLawConfig::new(40_000, 2.1).generate(42);
    let mut group = c.benchmark_group("partition_machine_count");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    for p in [4usize, 16, 48] {
        let weights = MachineWeights::uniform(p);
        for kind in [PartitionerKind::Oblivious, PartitionerKind::Ginger] {
            let partitioner = kind.build();
            group.bench_with_input(BenchmarkId::new(kind.name(), p), &graph, |b, g| {
                b.iter(|| black_box(partitioner.partition(g, &weights, 1, &OFF)));
            });
        }
    }
    group.finish();
}

/// Thread-count sweep: the deterministic chunked partitioners must not
/// regress at any thread budget (results are identical; only wall-clock
/// differs).
fn bench_partition_threads(c: &mut Criterion) {
    let graph = PowerLawConfig::new(40_000, 2.1).generate(42);
    let weights = MachineWeights::uniform(16);
    let mut group = c.benchmark_group("partition_threads");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        for kind in [PartitionerKind::RandomHash, PartitionerKind::Grid] {
            let partitioner = kind.build();
            group.bench_with_input(BenchmarkId::new(kind.name(), threads), &graph, |b, g| {
                b.iter(|| black_box(partitioner.partition(g, &weights, threads, &OFF)));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioners,
    bench_machine_counts,
    bench_partition_threads
);
criterion_main!(benches);

//! Steady-state allocation gate for the superstep kernel.
//!
//! The fast path pools its chunk scratch (and the serial path reuses
//! persistent per-run buffers), so once the first superstep has sized
//! everything, further supersteps must not allocate at all. This test
//! pins that with a counting global allocator: two runs that differ only
//! in iteration count must allocate the same number of times, because
//! every allocation belongs to per-run setup (buffers sized by the
//! graph, the report) — never to a superstep.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide — and so is the counter, which is why the scenarios
//! run serially inside **one** `#[test]`: two tests would run on two
//! threads and count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetgraph_apps::{Coloring, ConnectedComponents, PageRank};
use hetgraph_cluster::{AppProfile, Cluster};
use hetgraph_core::obs::OFF;
use hetgraph_core::{GraphMeta, VertexId};
use hetgraph_engine::{
    ActiveInit, CompactDistGraph, Direction, DistributedGraph, GasProgram, RunTarget, SimEngine,
};
use hetgraph_gen::PowerLawConfig;
use hetgraph_partition::{MachineWeights, Partitioner, RandomHash};
use hetgraph_serve::PprLanes;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `P` under a superstep budget of `.1`: every other method delegates.
struct Capped<P>(P, usize);

impl<P: GasProgram> GasProgram for Capped<P> {
    type VertexData = P::VertexData;
    type Accum = P::Accum;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn profile(&self) -> AppProfile {
        self.0.profile()
    }

    fn init(&self, graph: &GraphMeta<'_>, v: VertexId) -> P::VertexData {
        self.0.init(graph, v)
    }

    fn gather_direction(&self) -> Direction {
        self.0.gather_direction()
    }

    fn gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[P::VertexData],
        v: VertexId,
        u: VertexId,
    ) -> (Option<P::Accum>, f64) {
        self.0.gather(graph, data, v, u)
    }

    fn gather_by_source(&self) -> bool {
        self.0.gather_by_source()
    }

    fn source_gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[P::VertexData],
        u: VertexId,
    ) -> P::Accum {
        self.0.source_gather(graph, data, u)
    }

    fn sum(&self, a: P::Accum, b: P::Accum) -> P::Accum {
        self.0.sum(a, b)
    }

    fn apply(
        &self,
        graph: &GraphMeta<'_>,
        v: VertexId,
        old: &P::VertexData,
        acc: Option<P::Accum>,
        superstep: usize,
    ) -> (P::VertexData, bool) {
        self.0.apply(graph, v, old, acc, superstep)
    }

    fn scatter_direction(&self) -> Direction {
        self.0.scatter_direction()
    }

    fn initial_active(&self, graph: &GraphMeta<'_>) -> ActiveInit {
        self.0.initial_active(graph)
    }

    fn max_supersteps(&self) -> usize {
        self.1
    }
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations made by the extra supersteps when `program(12)` runs in
/// place of `program(2)` (its argument is the superstep budget) on a
/// `vertices`-vertex power-law graph with `threads` host threads, over the
/// plain view or (with `compact`) the delta-varint one.
fn extra_allocations_of_ten_supersteps<P: GasProgram>(
    vertices: u32,
    threads: usize,
    compact: bool,
    program: impl Fn(usize) -> P,
) -> u64 {
    let graph = PowerLawConfig::new(vertices, 2.1).generate(7);
    let cluster = Cluster::case2();
    let weights = MachineWeights::uniform(cluster.len());
    let assignment = RandomHash::new().partition(&graph, &weights, 1, &OFF);
    let dist =
        DistributedGraph::new(&graph, &assignment, 1).expect("assignment must cover the graph");
    let compact_dist = compact.then(|| {
        CompactDistGraph::from_edge_stream(graph.num_vertices(), &assignment, || {
            graph.edges().iter().copied()
        })
        .expect("assignment must cover the graph")
    });
    let target = || match &compact_dist {
        Some(c) => RunTarget::Compact(c),
        None => RunTarget::Plain(&dist),
    };
    let engine = SimEngine::new(&cluster);

    // Warm up any lazily initialized process state (thread-local RNGs,
    // stdout buffers, ...) outside the measured windows.
    engine.run(target(), &program(2), threads);

    let short = allocations_during(|| {
        engine.run(target(), &program(2), threads);
    });
    let long = allocations_during(|| {
        engine.run(target(), &program(12), threads);
    });
    println!(
        "{vertices} vertices, {threads} threads, compact {compact}: short run {short}, long run {long}"
    );
    long.saturating_sub(short)
}

#[test]
fn kernel_allocation_gates() {
    // PageRank with tolerance 0 keeps every vertex active, so all per-run
    // buffers reach their final size during superstep 1 in both runs. Ten
    // extra supersteps on the serial path must therefore be
    // allocation-free.
    let extra = extra_allocations_of_ten_supersteps(3_000, 1, false, PageRank::new);
    assert_eq!(extra, 0, "steady-state supersteps allocated");

    // The same gate over the compact view: rows decode into a persistent
    // scratch buffer that reaches the maximum degree in superstep 1.
    let extra = extra_allocations_of_ten_supersteps(3_000, 1, true, PageRank::new);
    assert_eq!(extra, 0, "steady-state compact supersteps allocated");

    // Coloring gathers into a mask of the low colors and spills only
    // colors >= 64 to the heap; a gathered `Vec` per edge made 187,655
    // allocations in the extra supersteps on this graph.
    let extra = extra_allocations_of_ten_supersteps(3_000, 1, false, |steps| {
        Capped(Coloring::new(), steps)
    });
    assert_eq!(extra, 0, "steady-state Coloring supersteps allocated");

    // Connected components scatters both ways: its dense early steps pull
    // the next frontier and its sparse tail pushes it, so the switch
    // happens inside the measured supersteps. Both rules' buffers are
    // sized per run, never per step.
    let extra = extra_allocations_of_ten_supersteps(3_000, 1, false, |steps| {
        Capped(ConnectedComponents::new(), steps)
    });
    assert_eq!(
        extra, 0,
        "steady-state ConnectedComponents supersteps allocated"
    );

    // 40k vertices = ~40 gather chunks + ~40 scatter chunks per superstep.
    // Without pooling, each chunk would cost several Vec allocations every
    // step (hundreds per superstep). With pooling, the only per-step
    // allocations left are the scoped worker spawn/join bookkeeping —
    // a small constant per phase (80 here; unpooled chunks would need
    // 300+), independent of chunk count.
    let extra = extra_allocations_of_ten_supersteps(40_000, 2, false, PageRank::new);
    assert!(extra <= 10 * 80, "pooled parallel path allocated {extra}");

    // A 3-lane personalized-PageRank wave on the block the server picks
    // for it. Lane state is an inline array, so gather and sum touch no
    // heap; `Vec`-valued lanes made ~21 000 allocations per superstep on
    // this graph. The budget covers frontier buffers that still grow.
    let wave = |iterations| PprLanes::<4>::new(vec![5, 1_400, 2_999], iterations);
    let extra = extra_allocations_of_ten_supersteps(3_000, 1, false, wave);
    assert!(extra <= 10 * 8, "lane-block wave allocated {extra}");
}

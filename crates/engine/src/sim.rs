//! The BSP superstep simulator: one kernel, any thread count.
//!
//! There is exactly **one** implementation of the gather→apply→scatter
//! superstep loop in this crate and exactly **one** way to execute a
//! program on it: [`SimEngine::run`]`(target, program, host_threads)`
//! ([`SimEngine::trace`] is the same call, also recording each
//! superstep's work). What a run executes over — the plain view, the
//! compressed view, or the plain view held exclusively with a rebalance
//! policy — is the [`RunTarget`] argument, never a method suffix.
//!
//! Each superstep phase has **one scan body**, and two drivers call it:
//! `gather_vertex` (the one gather fold, table replay or per-edge, over
//! any direction) under `gather_chunk` and the serial driver's in-place
//! table loop `gather_apply_in_place`, `scatter` (the one push scan,
//! generic over its activation sink), and `pull_range` (the one pull
//! scan). The serial driver walks chunks in order on the calling thread;
//! the pooled driver fans them out through [`scheduled`]. Cost
//! accounting — per-machine busy time, [`NetworkModel`] barrier and
//! migration time, energy, and [`crate::report::StepRecord`] tracing —
//! lives in exactly one place, the crate-private pricing accumulator
//! (`price.rs`), which the kernel feeds once per superstep (and once per
//! migration batch) and [`SimEngine::price`] feeds from a recorded
//! [`WorkTrace`].
//!
//! **Determinism is exact and thread-count-independent.** Active vertices
//! are split into fixed-size chunks (independent of the worker count),
//! workers self-schedule chunks off a shared atomic cursor (so power-law
//! work skew cannot idle threads), and [`scheduled`] hands results back in
//! chunk order, where they are merged by one serial fold. Per-vertex GAS
//! methods are pure functions of the previous superstep, so vertex data is
//! bitwise identical at any thread count; the simulated work counts are
//! sums of integer-valued `f64` contributions, so even the floating-point
//! cost accounting associates exactly. `tests/engine_snapshot.rs` pins the
//! full `SimReport` JSON against the pre-unification serial engine at 1,
//! 2, and 4 threads.
//!
//! **The hot path is engineered for raw throughput** (see DESIGN.md §3b,
//! "kernel fast path"):
//!
//! - the next frontier is pushed or pulled by the density of the changed
//!   set. Activation is purely structural (every scatter-direction
//!   neighbor of a changed vertex), so both build the same list. **Push**
//!   (sparse steps): scatter inserts into a [`FrontierSet`] — a bitmap
//!   with dirty-word tracking whose sorted frontier is extracted sparsely
//!   or densely by occupancy, clearing only the words that were actually
//!   touched. **Pull** (once the changed set's scatter edges reach ¾ of
//!   the graph's): mark the changed set in a bitmap and test each
//!   vertex's reverse-direction row for a marked neighbor, stopping at
//!   the first hit, over fixed vertex ranges that concatenate into the
//!   sorted frontier — no activation list, no serial drain, no
//!   extraction;
//! - the CSR gather and scatter scans run over raw adjacency slices
//!   ([`DistributedGraph::out_adj`]/[`in_adj`](DistributedGraph::in_adj))
//!   as tight zip loops — measured faster here than manual unrolling or
//!   software prefetch, both of which lost to the hardware prefetcher on
//!   these sequential lanes (see DESIGN.md §3b for the numbers);
//! - source-only gather programs ([`GasProgram::gather_by_source`], e.g.
//!   PageRank's `rank/out_degree`) evaluate their contribution **once per
//!   source vertex per superstep** into a dense table when the frontier
//!   is dense enough, and the scans replay table entries per edge instead
//!   of recomputing — same values, same fold order, bit-identical output;
//! - scatter's unit-per-edge work attribution charges precomputed
//!   per-row machine counts
//!   ([`DistributedGraph::machine_counts`]) — `p` adds per vertex instead
//!   of a machine-lane load and indexed add per edge; the tallies are
//!   integer-valued either way, so the `f64` sums are bit-identical;
//! - per-chunk work tallies are structure-of-arrays — a bare `f64` lane
//!   for gather edge work plus `u64` lanes for the unit-sized counts —
//!   instead of `Vec<WorkCounts>`, and integer counts convert to the
//!   identical `f64` sums the old accumulation produced;
//! - at one host thread the serial driver bypasses the scheduler: one
//!   in-order chunk walk with one persistent gather and scatter chunk, a
//!   table-mode apply committed in place, and a scatter sink that inserts
//!   straight into the frontier bitmap (no staging list — set-insert
//!   order cannot affect a set), so a steady-state superstep performs
//!   **zero heap allocations** (`tests/engine_alloc.rs` counts them); at
//!   two or more threads the chunk buffers cycle through a [`Pool`].
//!
//! None of this changes a single output bit: both drivers fold per-chunk
//! partials through the same helpers in fixed-`CHUNK` order, so even the
//! floating-point work sums associate identically.
//!
//! Note the distinction between the two kinds of time here: the thread
//! budget changes how long the *host* takes to compute the simulation; the
//! *simulated* cluster times it produces are independent of it.

use hetgraph_cluster::{
    AppProfile, Cluster, GraphShape, NetworkModel, PerturbationSchedule, WorkCounts,
};
use hetgraph_core::obs::{Telemetry, TraceEvent, OFF};
use hetgraph_core::par::{scheduled, Pool};
use hetgraph_core::{FrontierSet, GraphMeta, VertexId};

use crate::compact_dist::CompactDistGraph;
use crate::distributed::DistributedGraph;
use crate::error::EngineError;
use crate::price::{PriceAcc, StepWork, WorkTrace};
use crate::program::{ActiveInit, Direction, GasProgram};
use crate::rebalance::{RebalancePolicy, StepSignals};
use crate::report::SimReport;

/// Vertices per self-scheduled chunk. Small enough that hub-heavy chunks
/// cannot stall the tail, big enough to amortize the atomic fetch. Fixed
/// (never derived from the thread count) so chunk boundaries — and hence
/// every floating-point merge — are identical at any thread budget.
const CHUNK: usize = 1_024;

/// Minimum frontier density (as a fraction `n / SOURCE_TABLE_DIVISOR`) at
/// which a source-only gather switches to the per-source contribution
/// table. Below it, filling all `n` entries costs more than the per-edge
/// recomputation it saves. A changed set below the same density never
/// pulls the next frontier (see `pull_pays`).
const SOURCE_TABLE_DIVISOR: usize = 8;

/// The share of the graph's scatter-direction edges, as `(numerator,
/// denominator)`, that the changed set's rows must reach for the next
/// frontier to be pulled instead of pushed (see `pull_pays`). Dense
/// PageRank and CC steps sit at 0.88–1.0, SSSP and k-core below 0.5.
const PULL_EDGE_SHARE: (usize, usize) = (3, 4);

/// Vertices per range of the pull scan. Fixed (never derived from the
/// thread count), like [`CHUNK`]; the ranges concatenate in order, so the
/// pulled frontier is the same list at any thread budget.
const PULL_RANGE: usize = 4_096;

/// The execution engine: runs a [`GasProgram`] over a partitioned graph on
/// a simulated heterogeneous cluster.
pub struct SimEngine<'a> {
    cluster: &'a Cluster,
    network: NetworkModel,
    telemetry: &'a Telemetry,
    perturbations: Option<&'a PerturbationSchedule>,
}

/// What a run executes over — the one argument of [`SimEngine::run`] that
/// says *which view* and *whether placement may move*: the plain view with
/// placement frozen, the compressed view (always frozen: the structure is
/// immutable once built), or the plain view held exclusively together with
/// the [`RebalancePolicy`] that may migrate edges between supersteps.
///
/// A policy exists exactly when the view is held `&mut`, and never over
/// the compressed view — the type holds that invariant, so the kernel
/// needs no runtime check for it. `&DistributedGraph` and
/// `&CompactDistGraph` convert with `From`, so plain and compact callers
/// pass the reference itself; rebalanced callers use
/// [`RunTarget::rebalanced`].
pub enum RunTarget<'k, 'g> {
    /// Read-only plain view — placement is frozen for the whole run.
    Plain(&'k DistributedGraph<'g>),
    /// Compressed view — placement frozen, adjacency decoded on iterate.
    Compact(&'k CompactDistGraph),
    /// Mutable plain view plus the policy whose plans the
    /// between-superstep hook applies to it. The view's copy-on-write
    /// assignment is what makes placement mutable without touching the
    /// caller's `PartitionAssignment`; after the run it holds the final
    /// placement.
    Rebalanced(&'k mut DistributedGraph<'g>, &'k mut dyn RebalancePolicy),
}

impl<'k, 'g> From<&'k DistributedGraph<'g>> for RunTarget<'k, 'g> {
    fn from(dist: &'k DistributedGraph<'g>) -> Self {
        RunTarget::Plain(dist)
    }
}

impl<'k, 'g> From<&'k CompactDistGraph> for RunTarget<'k, 'g> {
    fn from(dist: &'k CompactDistGraph) -> Self {
        RunTarget::Compact(dist)
    }
}

impl<'k, 'g> RunTarget<'k, 'g> {
    /// A run with mid-run rebalancing: after each superstep the kernel
    /// hands the step's signals to `policy` (serial section), applies any
    /// planned edge migrations through
    /// [`DistributedGraph::migrate_edges`], and charges the simulated
    /// migration cost (payload bytes over the bottleneck pair NIC, plus
    /// one barrier) to the makespan and communication totals.
    ///
    /// Determinism: a deterministic policy sees only simulated,
    /// thread-count-invariant signals, so rebalanced reports are
    /// byte-identical at any host thread count.
    pub fn rebalanced(
        dist: &'k mut DistributedGraph<'g>,
        policy: &'k mut dyn RebalancePolicy,
    ) -> Self {
        RunTarget::Rebalanced(dist, policy)
    }

    /// The counts-and-degrees view programs consume. Not tied to the
    /// `&self` borrow (the underlying structures outlive the kernel), so
    /// it can be taken once before the superstep loop.
    fn meta(&self) -> GraphMeta<'k> {
        match self {
            RunTarget::Plain(d) => d.graph().meta(),
            RunTarget::Rebalanced(d, _) => d.graph().meta(),
            RunTarget::Compact(c) => c.meta(),
        }
    }

    fn num_machines(&self) -> usize {
        match self {
            RunTarget::Plain(d) => d.assignment().num_machines(),
            RunTarget::Rebalanced(d, _) => d.assignment().num_machines(),
            RunTarget::Compact(c) => c.num_machines(),
        }
    }

    /// This superstep's read-only scan view. Re-taken per superstep
    /// because the rebalance hook may mutate an exclusive view between
    /// them.
    fn step_view(&self) -> StepView<'_> {
        match self {
            RunTarget::Plain(d) => StepView::Plain(d),
            RunTarget::Rebalanced(d, _) => StepView::Plain(d),
            RunTarget::Compact(c) => StepView::Compact(c),
        }
    }
}

/// The scan surface of one superstep: adjacency rows with machine lanes,
/// per-row machine counts, and the replication structure — over either
/// representation. `Copy`, so the fan-out closures capture it by value.
///
/// Adjacency accessors take a decode scratch buffer: the compact view
/// decodes its varint row into it, the plain view ignores it and hands
/// back its own slices. Rows decode in sorted neighbor order on the
/// compact path (vs insertion order on the plain path); every fold the
/// kernel runs over a row is order-insensitive, so reports stay
/// byte-identical (asserted by `compact_paths_match_plain` below).
#[derive(Clone, Copy)]
enum StepView<'v> {
    /// Plain CSR adjacency with aligned machine lanes.
    Plain(&'v DistributedGraph<'v>),
    /// Delta-varint adjacency, decoded on iterate.
    Compact(&'v CompactDistGraph),
}

impl<'v> StepView<'v> {
    #[inline]
    fn out_adj<'s>(self, v: VertexId, scratch: &'s mut Vec<VertexId>) -> (&'s [VertexId], &'s [u16])
    where
        'v: 's,
    {
        match self {
            StepView::Plain(d) => d.out_adj(v),
            StepView::Compact(c) => c.out_adj_into(v, scratch),
        }
    }

    #[inline]
    fn in_adj<'s>(self, v: VertexId, scratch: &'s mut Vec<VertexId>) -> (&'s [VertexId], &'s [u16])
    where
        'v: 's,
    {
        match self {
            StepView::Plain(d) => d.in_adj(v),
            StepView::Compact(c) => c.in_adj_into(v, scratch),
        }
    }

    /// Machine lane of `v`'s out-row, without its targets (the compact
    /// view does not decode the row).
    #[inline]
    fn out_lanes(self, v: VertexId) -> &'v [u16] {
        match self {
            StepView::Plain(d) => d.out_adj(v).1,
            StepView::Compact(c) => c.out_lanes(v),
        }
    }

    /// Machine lane of `v`'s in-row (see [`out_lanes`](Self::out_lanes)).
    #[inline]
    fn in_lanes(self, v: VertexId) -> &'v [u16] {
        match self {
            StepView::Plain(d) => d.in_adj(v).1,
            StepView::Compact(c) => c.in_lanes(v),
        }
    }

    /// Early-exit row test: does `v`'s out-row hold a neighbor `hit`
    /// accepts? Reads targets only and stops at the first hit; the
    /// compact view decodes the row only up to it.
    #[inline]
    fn any_out(self, v: VertexId, mut hit: impl FnMut(VertexId) -> bool) -> bool {
        match self {
            StepView::Plain(d) => d.graph().out_csr().neighbors(v).iter().any(|&u| hit(u)),
            StepView::Compact(c) => c.out_neighbors(v).any(hit),
        }
    }

    /// Early-exit test of `v`'s in-row (see [`any_out`](Self::any_out)).
    #[inline]
    fn any_in(self, v: VertexId, mut hit: impl FnMut(VertexId) -> bool) -> bool {
        match self {
            StepView::Plain(d) => d.graph().in_csr().neighbors(v).iter().any(|&u| hit(u)),
            StepView::Compact(c) => c.in_neighbors(v).any(hit),
        }
    }

    fn machine_counts(self) -> Option<(&'v [u32], &'v [u32])> {
        match self {
            StepView::Plain(d) => d.machine_counts(),
            StepView::Compact(c) => c.machine_counts(),
        }
    }

    #[inline]
    fn master(self, v: VertexId) -> usize {
        match self {
            StepView::Plain(d) => d.assignment().master(v).index(),
            StepView::Compact(c) => c.master(v).index(),
        }
    }

    #[inline]
    fn replica_mask(self, v: VertexId) -> u64 {
        match self {
            StepView::Plain(d) => d.assignment().replica_mask(v),
            StepView::Compact(c) => c.replica_mask(v),
        }
    }
}

/// Result of a run: the real computed vertex data plus the simulated
/// performance report.
pub struct SimOutcome<D> {
    /// Final per-vertex data (real algorithm output).
    pub data: Vec<D>,
    /// Simulated timing/energy report.
    pub report: SimReport,
}

/// Per-chunk result of the gather/apply phase, structure-of-arrays: one
/// `f64` lane for the (possibly fractional) gather edge work and `u64`
/// lanes for the unit-sized counts, indexed by machine. The pooled driver
/// cycles these through a [`Pool`]; the serial driver keeps one for the
/// whole run.
struct GatherChunk<D> {
    changes: Vec<(VertexId, D, bool)>,
    edge_work: Vec<f64>,
    vertex_count: Vec<u64>,
    sync_counts: Vec<u64>,
    /// Compact-row decode scratch; unused (and never grown) on the plain
    /// representation. Pooled with the chunk so steady-state supersteps
    /// reuse its capacity.
    adj_scratch: Vec<VertexId>,
}

impl<D> GatherChunk<D> {
    fn new(p: usize) -> Self {
        GatherChunk {
            changes: Vec::new(),
            edge_work: vec![0.0f64; p],
            vertex_count: vec![0u64; p],
            sync_counts: vec![0u64; p],
            adj_scratch: Vec::new(),
        }
    }

    /// Fold this chunk's tallies into the step totals and zero them for
    /// reuse. Both drivers fold chunk by chunk in chunk order, so every
    /// `f64` sum associates identically at any thread count.
    fn fold_tallies(&mut self, step_work: &mut [WorkCounts], sync_counts: &mut [u64]) {
        for i in 0..step_work.len() {
            step_work[i].edge_units += self.edge_work[i];
            step_work[i].vertex_units += self.vertex_count[i] as f64;
            sync_counts[i] += self.sync_counts[i];
        }
        self.edge_work.fill(0.0);
        self.vertex_count.fill(0);
        self.sync_counts.fill(0);
    }

    /// Commit the staged applies — the Jacobi barrier — recording the
    /// vertices whose data changed.
    fn commit(&mut self, data: &mut [D], changed: &mut Vec<u32>) {
        for (v, nd, did_change) in self.changes.drain(..) {
            data[v as usize] = nd;
            if did_change {
                changed.push(v);
            }
        }
    }
}

/// Per-chunk result of the scatter phase, held like [`GatherChunk`]: a
/// chunk of changed vertices on a push step, a vertex range on a pull
/// step. Scatter edge work is always one unit per edge, so the tally is a
/// bare `u64` lane. `activations` holds a push chunk's activations or a
/// pull range's next-frontier vertices; the serial driver leaves it empty
/// and writes straight into the frontier set or list.
struct ScatterChunk {
    edge_count: Vec<u64>,
    activations: Vec<VertexId>,
    /// Compact-row decode scratch (see [`GatherChunk::adj_scratch`]).
    adj_scratch: Vec<VertexId>,
}

impl ScatterChunk {
    fn new(p: usize) -> Self {
        ScatterChunk {
            edge_count: vec![0u64; p],
            activations: Vec::new(),
            adj_scratch: Vec::new(),
        }
    }

    /// Fold the edge tally into the step totals and zero it for reuse.
    fn fold_tallies(&mut self, step_work: &mut [WorkCounts]) {
        for (w, c) in step_work.iter_mut().zip(&mut self.edge_count) {
            w.edge_units += *c as f64;
            *c = 0;
        }
    }
}

/// The scatter phase across a run's supersteps: it charges each changed
/// vertex's scatter rows and builds the next frontier by one of two rules
/// (see the module docs), which build the same list and the same tallies.
/// Every buffer is sized per run, so neither rule allocates at steady
/// state on the serial driver, and switching rules mid-run allocates
/// nothing either.
struct NextFrontier {
    /// Push: the activation set, drained by each push step's extraction.
    set: FrontierSet,
    /// Pull: the changed set as a bitmap, cleared after each pull step.
    marks: Vec<u64>,
    /// The serial driver's one chunk for the whole run.
    serial: ScatterChunk,
    /// The pooled driver's chunks.
    pool: Pool<ScatterChunk>,
    n: usize,
    p: usize,
    host_threads: usize,
}

impl NextFrontier {
    fn new(n: usize, p: usize, host_threads: usize) -> Self {
        NextFrontier {
            set: FrontierSet::new(n),
            marks: vec![0u64; n.div_ceil(64)],
            serial: ScatterChunk::new(p),
            pool: Pool::new(),
            n,
            p,
            host_threads,
        }
    }

    /// Push: scatter the changed vertices' rows — in order on one
    /// thread, in [`CHUNK`]s through [`scheduled`] on more — into the
    /// frontier set, then extract it into `frontier`. The extraction
    /// picks sparse or dense by occupancy and zeroes only the bitmap
    /// words scatter touched.
    // Out of line, like the scans (DESIGN §3b).
    #[inline(never)]
    fn push(
        &mut self,
        frontier: &mut Vec<u32>,
        step_work: &mut [WorkCounts],
        changed: &[u32],
        view: StepView<'_>,
        dir: Direction,
    ) {
        debug_assert!(self.set.is_empty(), "frontier drained last step");
        let counts = view.machine_counts();
        if self.host_threads == 1 {
            // Activations go straight into the frontier bitmap — no
            // staging list (insert order cannot affect a set). Scatter
            // tallies are integer-valued, so folding them once per scan
            // (instead of once per chunk) yields the identical exact
            // `f64` sums.
            let (c, set) = (&mut self.serial, &mut self.set);
            let (tally, adj) = (&mut c.edge_count, &mut c.adj_scratch);
            scatter(tally, adj, changed, view, dir, counts, |u| set.insert(u));
            c.fold_tallies(step_work);
        } else {
            let (p, pool) = (self.p, &self.pool);
            let scattered = scheduled(changed.len().div_ceil(CHUNK), self.host_threads, |idx| {
                let lo = idx * CHUNK;
                let hi = (lo + CHUNK).min(changed.len());
                let mut out = pool.take(|| ScatterChunk::new(p));
                let sink = |u| out.activations.push(u);
                let (tally, adj) = (&mut out.edge_count, &mut out.adj_scratch);
                scatter(tally, adj, &changed[lo..hi], view, dir, counts, sink);
                out
            });
            for mut c in scattered {
                c.fold_tallies(step_work);
                for u in c.activations.drain(..) {
                    self.set.insert(u);
                }
                pool.put(c);
            }
        }
        self.set.extract_into(frontier);
    }

    /// Pull: mark `changed`, run [`pull_range`] over the fixed
    /// [`PULL_RANGE`] vertex ranges — in order on one thread, through
    /// [`scheduled`] on more — and clear the marks. The ranges
    /// concatenate in order, so `frontier` comes out sorted and
    /// deduplicated with no set, no activation list and no drain.
    #[inline(never)]
    fn pull(
        &mut self,
        frontier: &mut Vec<u32>,
        step_work: &mut [WorkCounts],
        changed: &[u32],
        view: StepView<'_>,
        dir: Direction,
    ) {
        // One store per word: `changed` ascends, so its vertices arrive
        // in runs that share a word (any order still marks correctly).
        let (mut word, mut bits) = (0, 0u64);
        for &v in changed {
            if v as usize >> 6 != word {
                self.marks[word] |= bits;
                (word, bits) = (v as usize >> 6, 0);
            }
            bits |= 1 << (v & 63);
        }
        self.marks[word] |= bits;
        let (n, marks, counts) = (self.n, &self.marks[..], view.machine_counts());
        let n_ranges = n.div_ceil(PULL_RANGE);
        frontier.clear();
        if self.host_threads == 1 {
            let tally = &mut self.serial.edge_count;
            for idx in 0..n_ranges {
                pull_range(tally, frontier, idx, n, marks, view, dir, counts);
            }
            self.serial.fold_tallies(step_work);
        } else {
            let (p, pool) = (self.p, &self.pool);
            let pulled = scheduled(n_ranges, self.host_threads, |idx| {
                let mut out = pool.take(|| ScatterChunk::new(p));
                let (tally, next) = (&mut out.edge_count, &mut out.activations);
                pull_range(tally, next, idx, n, marks, view, dir, counts);
                out
            });
            for mut c in pulled {
                c.fold_tallies(step_work);
                frontier.extend_from_slice(&c.activations);
                c.activations.clear();
                pool.put(c);
            }
        }
        self.marks.fill(0);
    }
}

impl<'a> SimEngine<'a> {
    /// Engine with the default network model.
    pub fn new(cluster: &'a Cluster) -> Self {
        SimEngine {
            cluster,
            network: NetworkModel::default(),
            telemetry: &OFF,
            perturbations: None,
        }
    }

    /// Attach a [`PerturbationSchedule`]: at each superstep the schedule
    /// may override machine specs (e.g. a mid-run clock slowdown), and
    /// the kernel prices that step's compute and communication against
    /// the overridden specs. With no active perturbation the base specs
    /// are used untouched — an empty schedule is byte-identical to no
    /// schedule. Energy stays priced at the nominal specs (a throttled
    /// machine runs longer at its nominal power envelope).
    pub fn with_perturbations(mut self, schedule: &'a PerturbationSchedule) -> Self {
        self.perturbations = Some(schedule);
        self
    }

    /// Attach a [`Telemetry`] handle.
    ///
    /// With its event log on, the kernel records a
    /// [`crate::report::StepRecord`] per superstep and emits structured
    /// trace events: per-machine gather/apply/scatter spans, per-machine
    /// `barrier_wait` slack (`max busy − busy_i`), the cluster-wide
    /// communication barrier, and per-superstep counters (active
    /// vertices, imbalance, straggler machine) — all in simulated time,
    /// plus host wall-clock spans for the fan-out phases.
    ///
    /// With its metrics registry on, the kernel aggregates per-superstep
    /// telemetry — a makespan histogram, per-machine busy and
    /// `barrier_wait` histograms, active-vertex and superstep counters,
    /// imbalance/straggler gauges, and rebalance trigger/batch/migration
    /// counters — all in the sim domain, recorded only from the serial
    /// timing section, so [`Telemetry::snapshot_sim`] is byte-identical
    /// at any host thread count.
    ///
    /// With the default [`OFF`] handle each half costs one branch per
    /// superstep (traces grow linearly with supersteps, so both are off
    /// by default).
    pub fn with_telemetry(mut self, telemetry: &'a Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Execute `program` over `target` — **the one way into the superstep
    /// kernel**. Runs the BSP gather→apply→scatter loop fanned out across
    /// `host_threads` self-scheduling workers (`host_threads == 1` runs
    /// inline with no thread spawns); data and report are byte-identical
    /// at any `host_threads` (see the module docs).
    ///
    /// What varies is the argument, never the method: pass
    /// `&DistributedGraph` for a plain run, `&CompactDistGraph` for the
    /// delta-varint compressed view (same report bytes, only the resident
    /// representation and the host-side decode cost differ), or
    /// [`RunTarget::rebalanced`] to let a policy migrate edges between
    /// supersteps. Building the view is O(edges); sweeps that execute
    /// many programs over one partition build it once and call this per
    /// program.
    ///
    /// # Panics
    /// Panics if `host_threads == 0` or if the target's machine count
    /// differs from the cluster's.
    pub fn run<'k, 'g: 'k, P: GasProgram>(
        &self,
        target: impl Into<RunTarget<'k, 'g>>,
        program: &P,
        host_threads: usize,
    ) -> SimOutcome<P::VertexData> {
        self.kernel(target.into(), program, host_threads, None, None)
    }

    /// [`SimEngine::run`] that also records each superstep's work as a
    /// [`WorkTrace`]: the same kernel, the same outcome, plus a record
    /// [`SimEngine::price`] can re-price for any cluster with as many
    /// machines — without re-running the program. The trace grows by one
    /// entry per superstep, which is why `run` never builds one.
    ///
    /// # Errors
    /// [`EngineError::RebalancedTrace`] for [`RunTarget::Rebalanced`] (its
    /// migration charges depend on the cluster, so its work is not
    /// re-priceable), [`EngineError::ZeroThreads`] for `host_threads == 0`,
    /// and [`EngineError::MachineCountMismatch`] if the target's machine
    /// count differs from the cluster's.
    pub fn trace<'k, 'g: 'k, P: GasProgram>(
        &self,
        target: impl Into<RunTarget<'k, 'g>>,
        program: &P,
        host_threads: usize,
    ) -> Result<(SimOutcome<P::VertexData>, WorkTrace), EngineError> {
        let target = target.into();
        if matches!(target, RunTarget::Rebalanced(..)) {
            return Err(EngineError::RebalancedTrace);
        }
        if host_threads == 0 {
            return Err(EngineError::ZeroThreads);
        }
        self.check_machines(target.num_machines())?;
        let shape = GraphShape::of_meta(&target.meta());
        let mut steps = Vec::new();
        let outcome = self.kernel(target, program, host_threads, Some(&mut steps), None);
        let trace = WorkTrace {
            app: outcome.report.app.clone(),
            profile: program.profile(),
            shape,
            converged: outcome.report.converged,
            num_machines: self.cluster.len(),
            steps,
        };
        Ok((outcome, trace))
    }

    /// Price a recorded [`WorkTrace`] on this engine's cluster, network,
    /// perturbations and telemetry: the report [`SimEngine::run`] would
    /// return here for the traced program and view, bit for bit, with the
    /// same sim-domain events and metrics. Each superstep goes through
    /// the kernel's own pricing body, so there is no second copy of the
    /// arithmetic to drift.
    ///
    /// # Errors
    /// [`EngineError::MachineCountMismatch`] if the trace was recorded
    /// over a different number of machines.
    pub fn price(&self, trace: &WorkTrace) -> Result<SimReport, EngineError> {
        self.check_machines(trace.num_machines)?;
        let mut acc = self.price_acc(trace.profile.clone(), trace.shape);
        for (step, s) in trace.steps.iter().enumerate() {
            acc.step(step, s.active, &s.step_work, &s.gather_work, &s.sync_counts);
        }
        Ok(acc.finish(trace.app.clone(), trace.converged))
    }

    /// A fresh pricing accumulator over this engine's cluster.
    fn price_acc(&self, profile: AppProfile, shape: GraphShape) -> PriceAcc<'_> {
        PriceAcc::new(
            self.cluster.machines(),
            &self.network,
            self.perturbations,
            self.telemetry,
            profile,
            shape,
        )
    }

    fn check_machines(&self, work: usize) -> Result<(), EngineError> {
        if work == self.cluster.len() {
            Ok(())
        } else {
            Err(EngineError::MachineCountMismatch {
                cluster: self.cluster.len(),
                work,
            })
        }
    }

    /// [`SimEngine::run`] over a plain view. For
    /// `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    pub fn run_on_with_threads<P: GasProgram>(
        &self,
        dist: &DistributedGraph<'_>,
        program: &P,
        host_threads: usize,
    ) -> SimOutcome<P::VertexData> {
        self.run(dist, program, host_threads)
    }

    /// [`SimEngine::run`] over a compact view. For
    /// `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    pub fn run_compact_on_with_threads<P: GasProgram>(
        &self,
        dist: &CompactDistGraph,
        program: &P,
        host_threads: usize,
    ) -> SimOutcome<P::VertexData> {
        self.run(dist, program, host_threads)
    }

    /// **The superstep kernel** — the one implementation of the BSP loop
    /// ([`SimEngine::run`] and [`SimEngine::trace`] are its only callers;
    /// a guard test asserts the loop exists exactly once in this crate).
    /// With `record` given, each superstep's work is pushed to it after
    /// pricing; `run` passes `None`, which costs one branch per superstep.
    /// `force_pull` overrides the density rule that picks how the next
    /// frontier is built (tests only; `None` everywhere else).
    fn kernel<P: GasProgram>(
        &self,
        mut target: RunTarget<'_, '_>,
        program: &P,
        host_threads: usize,
        mut record: Option<&mut Vec<StepWork>>,
        force_pull: Option<bool>,
    ) -> SimOutcome<P::VertexData> {
        assert!(host_threads > 0, "need at least one host thread");
        let meta = target.meta();
        assert_eq!(
            target.num_machines(),
            self.cluster.len(),
            "assignment and cluster must have the same machine count"
        );
        let p = self.cluster.len();
        let n = meta.num_vertices() as usize;
        let profile = program.profile();
        profile.assert_valid();
        let shape = GraphShape::of_meta(&meta);
        let machines = self.cluster.machines();

        let mut data: Vec<P::VertexData> = (0..n as u32).map(|v| program.init(&meta, v)).collect();
        // The frontier lives as a sorted, deduplicated `Vec<u32>`. A push
        // step's scatter collects next-step activations in a `FrontierSet`
        // whose hybrid extraction rebuilds this list; a pull step writes
        // it directly.
        let mut frontier: Vec<u32> = match program.initial_active(&meta) {
            ActiveInit::All => (0..n as u32).collect(),
            ActiveInit::Seeds(mut seeds) => {
                for &v in &seeds {
                    assert!((v as usize) < n, "seed vertex {v} out of range");
                }
                seeds.sort_unstable();
                seeds.dedup();
                seeds
            }
        };

        let mut converged = false;

        // Buffers reused across supersteps (see module docs).
        let mut changed: Vec<u32> = Vec::new();
        let mut next = NextFrontier::new(n, p, host_threads);
        let mut step_work = vec![WorkCounts::zero(); p];
        let mut sync_counts = vec![0u64; p];
        let gather_pool: Pool<GatherChunk<P::VertexData>> = Pool::new();
        // The serial driver's persistent gather chunk stages the whole
        // frontier's applies (committed only after the full scan — the
        // Jacobi barrier). Allocated once; steady-state supersteps reuse
        // the grown capacity, decode scratch included.
        let serial = host_threads == 1;
        let mut serial_gather: GatherChunk<P::VertexData> = GatherChunk::new(p);
        // Source-contribution table for programs whose gather depends only
        // on the gathered vertex (see `GasProgram::gather_by_source`):
        // evaluated once per source per superstep on dense frontiers,
        // replayed per edge. Same values, same accumulation order — only
        // the redundant per-edge recomputation is gone.
        let by_source = program.gather_by_source() && program.gather_direction() != Direction::None;
        let mut source_table: Vec<P::Accum> = Vec::with_capacity(if by_source { n } else { 0 });
        // Observability: with the default OFF handle this one branch is
        // the entire per-superstep cost of instrumentation. Sim-domain
        // events are emitted only from the serial timing section below,
        // so their order — and the exported trace bytes — are independent
        // of `host_threads`.
        let telemetry = self.telemetry;
        let tracing = telemetry.tracing();
        // Every cost accumulator — time, energy, step records, sim-domain
        // events and metrics — lives in the one pricing body.
        let mut acc = self.price_acc(profile, shape);
        // Snapshot of `step_work` taken between gather-merge and scatter,
        // used to split each machine's busy time into per-phase spans
        // (when tracing) and recorded per step (when `record` is given).
        let mut gather_work = vec![WorkCounts::zero(); p];

        for step in 0..program.max_supersteps() {
            if frontier.is_empty() {
                converged = true;
                break;
            }
            let active_count = frontier.len();
            for w in &mut step_work {
                *w = WorkCounts::zero();
            }
            sync_counts.fill(0);

            // Shared borrow of the (possibly migrated) view for this
            // superstep's scans. Re-taken every iteration because the
            // rebalance hook at the bottom may mutate the view.
            let view = target.step_view();

            // --- Gather + Apply (reads previous-step data), fanned out ---
            let wall_gather_t0 = if tracing { telemetry.now_us() } else { 0.0 };
            changed.clear();
            let n_chunks = frontier.len().div_ceil(CHUNK);
            // Filling the table costs O(n); it pays off only when the
            // frontier is dense enough that many edges replay each entry.
            // Both paths produce identical bits, so this is purely a
            // speed heuristic.
            let use_table = by_source && active_count >= n / SOURCE_TABLE_DIVISOR;
            if use_table {
                source_table.clear();
                source_table.extend((0..n as u32).map(|u| {
                    let c = program.source_gather(&meta, &data, u);
                    debug_assert!(
                        {
                            let (pc, pw) = program.gather(&meta, &data, u, u);
                            pw == 1.0 && pc.is_some()
                        },
                        "gather_by_source contract violated for vertex {u}"
                    );
                    c
                }));
            }
            let table: Option<&[P::Accum]> = if use_table { Some(&source_table) } else { None };
            if serial {
                // One-thread driver: in-order chunk walk, no scheduler, no
                // pool round-trips, no per-step allocation.
                for idx in 0..n_chunks {
                    let lo = idx * CHUNK;
                    let chunk = &frontier[lo..(lo + CHUNK).min(frontier.len())];
                    if table.is_some() {
                        gather_apply_in_place(
                            &mut serial_gather,
                            &mut data,
                            &mut changed,
                            chunk,
                            &meta,
                            view,
                            program,
                            table,
                            step,
                        );
                    } else {
                        gather_chunk(
                            &mut serial_gather,
                            chunk,
                            &meta,
                            view,
                            program,
                            &data,
                            table,
                            step,
                        );
                    }
                    serial_gather.fold_tallies(&mut step_work, &mut sync_counts);
                }
                serial_gather.commit(&mut data, &mut changed);
            } else {
                let gathered: Vec<GatherChunk<P::VertexData>> =
                    scheduled(n_chunks, host_threads, |idx| {
                        let lo = idx * CHUNK;
                        let hi = (lo + CHUNK).min(frontier.len());
                        let mut out = gather_pool.take(|| GatherChunk::new(p));
                        gather_chunk(
                            &mut out,
                            &frontier[lo..hi],
                            &meta,
                            view,
                            program,
                            &data,
                            table,
                            step,
                        );
                        out
                    });
                // Merge in chunk order, commit applies (Jacobi barrier).
                for mut c in gathered {
                    c.fold_tallies(&mut step_work, &mut sync_counts);
                    c.commit(&mut data, &mut changed);
                    gather_pool.put(c);
                }
            }
            if tracing || record.is_some() {
                gather_work.copy_from_slice(&step_work);
            }
            if tracing {
                let t = telemetry.now_us();
                telemetry.record(TraceEvent::wall_span(
                    "gather_merge",
                    "host",
                    0,
                    wall_gather_t0,
                    t - wall_gather_t0,
                ));
            }

            // --- Scatter (sees post-apply data) and the next frontier ---
            // Pushed on sparse steps, pulled on dense ones (module docs).
            let wall_scatter_t0 = if tracing { telemetry.now_us() } else { 0.0 };
            let dir = program.scatter_direction();
            let scatters = dir != Direction::None && !changed.is_empty();
            let pull = scatters && force_pull.unwrap_or_else(|| pull_pays(&meta, &changed, dir));
            let rule = if pull {
                NextFrontier::pull
            } else {
                NextFrontier::push
            };
            let changed = if scatters { &changed[..] } else { &[] };
            rule(&mut next, &mut frontier, &mut step_work, changed, view, dir);
            if tracing {
                let t = telemetry.now_us();
                telemetry.record(TraceEvent::wall_span(
                    "scatter_fanout",
                    "host",
                    0,
                    wall_scatter_t0,
                    t - wall_scatter_t0,
                ));
            }

            // --- Timing, energy, bookkeeping: once, here, only here ---
            let timing = acc.step(step, active_count, &step_work, &gather_work, &sync_counts);
            if let Some(rec) = record.as_deref_mut() {
                rec.push(StepWork {
                    active: active_count,
                    step_work: step_work.clone(),
                    gather_work: gather_work.clone(),
                    sync_counts: sync_counts.clone(),
                });
            }
            // --- Rebalance hook: between supersteps, serial section ---
            // The policy sees only simulated quantities, so its plans —
            // and the rebalanced report — are thread-count invariant. No
            // migration on the last superstep (nothing left to speed up).
            // An empty plan migrates nothing (and copies nothing); the
            // pricing body counts the consultation either way.
            if let RunTarget::Rebalanced(dist, pol) = &mut target {
                if !frontier.is_empty() {
                    let signals = StepSignals {
                        step,
                        active: active_count,
                        busy_s: acc.busy(),
                        step_work: &step_work,
                        step_compute_s: timing.compute,
                        step_comm_s: timing.comm,
                    };
                    let plan = pol.plan(&signals, dist, machines, &self.network);
                    let pairs = dist.migrate_edges(&plan).moves_per_pair();
                    if let Some(event) = acc.charge_migration(step, !plan.is_empty(), pairs) {
                        pol.notify(event);
                    }
                }
            }
        }
        if frontier.is_empty() {
            converged = true;
        }

        SimOutcome {
            data,
            report: acc.finish(program.name().to_string(), converged),
        }
    }
}

/// Charge one unit of scatter edge work per slot of a row to its owning
/// machine: `p` adds from the precomputed row counts when the tables
/// exist, else one load and add per slot of the machine lane, which is
/// fetched only then. The tallies are integers either way, so the sums
/// are identical.
#[inline(always)]
fn charge_row<'l>(
    edge_count: &mut [u64],
    row_counts: Option<&[u32]>,
    machines: impl FnOnce() -> &'l [u16],
) {
    match row_counts {
        Some(rc) => {
            for (w, &c) in edge_count.iter_mut().zip(rc) {
                *w += c as u64;
            }
        }
        None => {
            for &m in machines() {
                edge_count[m as usize] += 1;
            }
        }
    }
}

/// Slice vertex `v`'s row out of a whole-graph machine-count table.
#[inline(always)]
fn count_row(table: Option<&[u32]>, v: VertexId, p: usize) -> Option<&[u32]> {
    table.map(|rc| &rc[v as usize * p..v as usize * p + p])
}

/// Per-active-vertex accounting shared by the staged and in-place gather
/// scans: charge the master one vertex unit, then charge mirror
/// synchronization — an active vertex exchanges one message per mirror
/// in each direction, so the master is charged once per mirror and each
/// mirror once.
#[inline(always)]
fn charge_vertex(
    view: StepView<'_>,
    v: VertexId,
    vertex_count: &mut [u64],
    sync_counts: &mut [u64],
) {
    let master = view.master(v);
    vertex_count[master] += 1;
    let mask = view.replica_mask(v);
    let replicas = mask.count_ones();
    if replicas > 1 {
        sync_counts[master] += (replicas - 1) as u64;
        let mut rest = mask;
        while rest != 0 {
            let m = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if m != master {
                sync_counts[m] += 1;
            }
        }
    }
}

/// Gather + apply for one chunk of frontier vertices, staging each apply
/// in `out.changes` and accumulating into its structure-of-arrays
/// tallies. Both drivers call it (the serial one outside table mode), so
/// both produce bit-identical per-chunk partials.
#[allow(clippy::too_many_arguments)]
// Out of line on purpose: inlined into the kernel's body, the serial
// driver's scans measured 10–35 % slower (DESIGN §3b).
#[inline(never)]
fn gather_chunk<P: GasProgram>(
    out: &mut GatherChunk<P::VertexData>,
    chunk: &[u32],
    meta: &GraphMeta<'_>,
    view: StepView<'_>,
    program: &P,
    data: &[P::VertexData],
    table: Option<&[P::Accum]>,
    step: usize,
) {
    out.changes.reserve(chunk.len());
    for &v in chunk {
        let acc = gather_vertex(
            &mut out.edge_work,
            &mut out.adj_scratch,
            v,
            meta,
            view,
            program,
            data,
            table,
        );
        let (nd, did_change) = program.apply(meta, v, &data[v as usize], acc, step);
        out.changes.push((v, nd, did_change));
        charge_vertex(view, v, &mut out.vertex_count, &mut out.sync_counts);
    }
}

/// [`gather_chunk`] for the serial driver in table mode, committing each
/// apply **in place** instead of staging it. Sound because table-mode
/// gather reads only the per-source snapshot table — never `data` — and
/// `data[v]` is written at `v`'s own turn, so no gather in this superstep
/// observes a committed value (the Jacobi barrier holds with no staging
/// pass). Every `apply` sees the same inputs and `changed` fills in the
/// same frontier order, so the output is bit-identical to staging.
#[allow(clippy::too_many_arguments)]
// Out of line on purpose: inlined into the kernel's body, the serial
// driver's scans measured 10–35 % slower (DESIGN §3b).
#[inline(never)]
fn gather_apply_in_place<P: GasProgram>(
    out: &mut GatherChunk<P::VertexData>,
    data: &mut [P::VertexData],
    changed: &mut Vec<u32>,
    chunk: &[u32],
    meta: &GraphMeta<'_>,
    view: StepView<'_>,
    program: &P,
    table: Option<&[P::Accum]>,
    step: usize,
) {
    for &v in chunk {
        let acc = gather_vertex(
            &mut out.edge_work,
            &mut out.adj_scratch,
            v,
            meta,
            view,
            program,
            data,
            table,
        );
        let (nd, did_change) = program.apply(meta, v, &data[v as usize], acc, step);
        data[v as usize] = nd;
        if did_change {
            changed.push(v);
        }
        charge_vertex(view, v, &mut out.vertex_count, &mut out.sync_counts);
    }
}

/// Gather for one vertex — **the one gather scan body**: fold every
/// contribution along the program's gather direction (in-edges before
/// out-edges) and charge each edge's work to its machine. With a
/// source table every edge replays `Some(t[u])` at exactly one work unit
/// (the source-only contract); without one each edge calls
/// [`GasProgram::gather`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather_vertex<P: GasProgram>(
    edge_work: &mut [f64],
    adj: &mut Vec<VertexId>,
    v: VertexId,
    meta: &GraphMeta<'_>,
    view: StepView<'_>,
    program: &P,
    data: &[P::VertexData],
    table: Option<&[P::Accum]>,
) -> Option<P::Accum> {
    let dir = program.gather_direction();
    let mut acc = None;
    if matches!(dir, Direction::In | Direction::Both) {
        let (t, m) = view.in_adj(v, adj);
        fold_row(program, meta, data, table, v, t, m, edge_work, &mut acc);
    }
    if matches!(dir, Direction::Out | Direction::Both) {
        let (t, m) = view.out_adj(v, adj);
        fold_row(program, meta, data, table, v, t, m, edge_work, &mut acc);
    }
    acc
}

/// Fold one adjacency row of `v` into `acc`, strictly in edge order —
/// the association the determinism contract requires. With a source
/// table every edge replays `t[u]` at one work unit, charge and fold
/// fused in a single zip loop (measured faster than separate passes over
/// short power-law rows); without one each edge calls
/// [`GasProgram::gather`] and charges the work it reports.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fold_row<P: GasProgram>(
    program: &P,
    meta: &GraphMeta<'_>,
    data: &[P::VertexData],
    table: Option<&[P::Accum]>,
    v: VertexId,
    targets: &[VertexId],
    machines: &[u16],
    edge_work: &mut [f64],
    acc: &mut Option<P::Accum>,
) {
    debug_assert_eq!(targets.len(), machines.len());
    match table {
        Some(t) => {
            for (&u, &m) in targets.iter().zip(machines) {
                edge_work[m as usize] += 1.0;
                let c = t[u as usize].clone();
                *acc = Some(match acc.take() {
                    Some(prev) => program.sum(prev, c),
                    None => c,
                });
            }
        }
        None => {
            for (&u, &m) in targets.iter().zip(machines) {
                let (contrib, w) = program.gather(meta, data, v, u);
                edge_work[m as usize] += w;
                if let Some(c) = contrib {
                    *acc = Some(match acc.take() {
                        Some(prev) => program.sum(prev, c),
                        None => c,
                    });
                }
            }
        }
    }
}

/// Charge one unit of scatter edge work per slot of `v`'s
/// scatter-direction rows to the slot's machine. Reads only the row-count
/// tables (`counts`: cached per view, so a lookup after the first step;
/// `None` on clusters too large for them) or else the machine lanes,
/// never the targets, so both frontier rules charge identical tallies.
#[inline(always)]
fn charge_scatter_rows(
    edge_count: &mut [u64],
    view: StepView<'_>,
    v: VertexId,
    dir: Direction,
    counts: Option<(&[u32], &[u32])>,
) {
    let p = edge_count.len();
    if matches!(dir, Direction::In | Direction::Both) {
        let row_counts = count_row(counts.map(|c| c.1), v, p);
        charge_row(edge_count, row_counts, || view.in_lanes(v));
    }
    if matches!(dir, Direction::Out | Direction::Both) {
        let row_counts = count_row(counts.map(|c| c.0), v, p);
        charge_row(edge_count, row_counts, || view.out_lanes(v));
    }
}

/// Push scatter over `vertices` — **the one scatter scan body**: charge
/// each vertex's scatter rows and hand every scatter neighbor to
/// `activate`. The serial driver's sink inserts into the next frontier;
/// the pooled driver's appends to its chunk's activation list.
// Out of line on purpose: inlined into the kernel's body, the serial
// driver's scans measured 10–35 % slower (DESIGN §3b).
#[inline(never)]
fn scatter(
    edge_count: &mut [u64],
    adj: &mut Vec<VertexId>,
    vertices: &[u32],
    view: StepView<'_>,
    dir: Direction,
    counts: Option<(&[u32], &[u32])>,
    mut activate: impl FnMut(VertexId),
) {
    for &v in vertices {
        charge_scatter_rows(edge_count, view, v, dir, counts);
        if matches!(dir, Direction::In | Direction::Both) {
            view.in_adj(v, adj).0.iter().for_each(|&u| activate(u));
        }
        if matches!(dir, Direction::Out | Direction::Both) {
            view.out_adj(v, adj).0.iter().for_each(|&u| activate(u));
        }
    }
}

/// Whether the next frontier is cheaper pulled than pushed: the changed
/// set's scatter-direction rows hold at least [`PULL_EDGE_SHARE`] of the
/// graph's scatter-direction edges (the sum stops once it gets there).
/// Sets below `n / SOURCE_TABLE_DIVISOR` vertices push without taking
/// the sum: a pull scans all `n` vertices, such sets reach ¾ of the
/// edges only under extreme hub skew, and on sparse steps the sum's
/// scattered degree reads cost more than the rule saves (5 ms per SSSP
/// run on a 1M-vertex graph). Both rules build the same frontier, so
/// this is purely a speed heuristic, like [`SOURCE_TABLE_DIVISOR`].
fn pull_pays(meta: &GraphMeta<'_>, changed: &[u32], dir: Direction) -> bool {
    let inn = matches!(dir, Direction::In | Direction::Both);
    let out = matches!(dir, Direction::Out | Direction::Both);
    let total = meta.num_edges() * (inn as usize + out as usize);
    let sparse = changed.len() < meta.num_vertices() as usize / SOURCE_TABLE_DIVISOR;
    if total == 0 || sparse {
        return false;
    }
    let (num, den) = PULL_EDGE_SHARE;
    let need = (num * total).div_ceil(den);
    let mut reach = 0;
    for chunk in changed.chunks(CHUNK) {
        if inn {
            reach += chunk.iter().map(|&v| meta.in_degree(v)).sum::<usize>();
        }
        if out {
            reach += chunk.iter().map(|&v| meta.out_degree(v)).sum::<usize>();
        }
        if reach >= need {
            return true;
        }
    }
    false
}

/// Pull range `idx` of the next step — **the one pull scan body**. For
/// each vertex `u` of the range, in ascending order: if `u` is marked
/// (changed this step), charge its scatter rows exactly as push would;
/// and if a neighbor along the reverse scatter direction is marked,
/// append `u` to `next` — exactly the vertices push would activate.
/// Out-scatter along `v → u` reaches `u` through `u`'s in-row,
/// in-scatter along `u → v` through its out-row, and `Both` tests
/// either; each row test stops at the first hit.
#[allow(clippy::too_many_arguments)]
// Out of line like the other scans (DESIGN §3b).
#[inline(never)]
fn pull_range(
    edge_count: &mut [u64],
    next: &mut Vec<u32>,
    idx: usize,
    n: usize,
    marks: &[u64],
    view: StepView<'_>,
    dir: Direction,
    counts: Option<(&[u32], &[u32])>,
) {
    let marked = |u: VertexId| marks[u as usize >> 6] >> (u & 63) & 1 != 0;
    let via_in = matches!(dir, Direction::Out | Direction::Both);
    let via_out = matches!(dir, Direction::In | Direction::Both);
    let lo = idx * PULL_RANGE;
    let hi = (lo + PULL_RANGE).min(n);
    for u in lo as u32..hi as u32 {
        if marked(u) {
            charge_scatter_rows(edge_count, view, u, dir, counts);
        }
        if (via_in && view.any_in(u, marked)) || (via_out && view.any_out(u, marked)) {
            next.push(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebalance::MigrationEvent;
    use hetgraph_cluster::{MachineSpec, MIGRATION_BYTES_PER_EDGE};
    use hetgraph_core::obs::Telemetry;
    use hetgraph_core::rng::Xoshiro256;
    use hetgraph_core::{Edge, EdgeList, Graph};
    use hetgraph_partition::{MachineWeights, PartitionAssignment, Partitioner, RandomHash};
    use proptest::prelude::*;

    /// Minimal label-propagation program: every vertex takes the minimum
    /// label among itself and its in+out neighbors, and scatters along the
    /// given direction ([`MIN_LABEL`]'s `Both` is connected components).
    struct MinLabel(Direction);

    const MIN_LABEL: MinLabel = MinLabel(Direction::Both);

    fn test_profile() -> AppProfile {
        AppProfile {
            name: "min_label".into(),
            edge_flops: 50.0,
            edge_bytes: 40.0,
            vertex_flops: 10.0,
            vertex_bytes: 8.0,
            serial_fraction: 0.05,
            parallel_exponent: 1.0,
            skew_sensitivity: 0.3,
            relief_floor: 0.7,
            relief_ref_degree: 10.0,
        }
    }

    impl GasProgram for MinLabel {
        type VertexData = u32;
        type Accum = u32;

        fn name(&self) -> &'static str {
            "min_label"
        }
        fn profile(&self) -> AppProfile {
            test_profile()
        }
        fn init(&self, _g: &GraphMeta<'_>, v: VertexId) -> u32 {
            v
        }
        fn gather_direction(&self) -> Direction {
            Direction::Both
        }
        fn gather(
            &self,
            _g: &GraphMeta<'_>,
            data: &[u32],
            _v: VertexId,
            u: VertexId,
        ) -> (Option<u32>, f64) {
            (Some(data[u as usize]), 1.0)
        }
        fn sum(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(
            &self,
            _g: &GraphMeta<'_>,
            _v: VertexId,
            old: &u32,
            acc: Option<u32>,
            _step: usize,
        ) -> (u32, bool) {
            let candidate = acc.map_or(*old, |a| a.min(*old));
            (candidate, candidate < *old)
        }
        fn scatter_direction(&self) -> Direction {
            self.0
        }
    }

    fn two_components() -> Graph {
        // {0,1,2} ring and {3,4} pair.
        Graph::from_edge_list(EdgeList::from_edges(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 0),
                Edge::new(3, 4),
            ],
        ))
    }

    fn big_graph() -> Graph {
        let n = 5_000u32;
        let mut edges = Vec::new();
        for v in 0..n {
            edges.push(Edge::new(v, (v * 13 + 7) % n));
            edges.push(Edge::new(v, (v * 31 + 3) % n));
        }
        Graph::from_edge_list(EdgeList::from_edges(n, edges))
    }

    fn partitioned(g: &Graph, cluster: &Cluster) -> PartitionAssignment {
        RandomHash::new().partition(g, &MachineWeights::uniform(cluster.len()), 1, &OFF)
    }

    /// Build the view of `a` over `g` and run [`MinLabel`] on it.
    fn run_min_label(
        engine: &SimEngine<'_>,
        g: &Graph,
        a: &PartitionAssignment,
        threads: usize,
    ) -> SimOutcome<u32> {
        let dist = DistributedGraph::new(g, a, threads).expect("assignment must cover the graph");
        engine.run(&dist, &MIN_LABEL, threads)
    }

    #[test]
    fn computes_correct_labels() {
        let g = two_components();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let out = run_min_label(&SimEngine::new(&cluster), &g, &a, 1);
        assert_eq!(out.data, vec![0, 0, 0, 3, 3]);
        assert!(out.report.converged);
    }

    #[test]
    fn result_independent_of_partitioning() {
        let g = two_components();
        let c2 = Cluster::case2();
        let c3 = Cluster::case3();
        let r1 = run_min_label(&SimEngine::new(&c2), &g, &partitioned(&g, &c2), 1);
        let a_skewed = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 0, 1], 1);
        let r2 = run_min_label(&SimEngine::new(&c3), &g, &a_skewed, 1);
        assert_eq!(r1.data, r2.data, "results must not depend on placement");
    }

    #[test]
    fn timing_is_positive_and_consistent() {
        let g = two_components();
        let cluster = Cluster::case2();
        let out = run_min_label(&SimEngine::new(&cluster), &g, &partitioned(&g, &cluster), 1);
        let r = &out.report;
        assert!(r.makespan_s > 0.0);
        assert!((r.makespan_s - (r.compute_s + r.comm_s)).abs() < 1e-12);
        assert!(r.supersteps >= 2);
        assert_eq!(r.per_machine_busy_s.len(), 2);
        assert!(r.energy.total_j() > 0.0);
    }

    #[test]
    fn deterministic() {
        let g = two_components();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let r1 = run_min_label(&SimEngine::new(&cluster), &g, &a, 1).report;
        let r2 = run_min_label(&SimEngine::new(&cluster), &g, &a, 1).report;
        assert_eq!(r1, r2);
    }

    #[test]
    fn compact_paths_match_plain() {
        // The compressed view must reproduce the plain run bit-for-bit:
        // same vertex data, same SimReport (work sums, timings, energy) —
        // at every host thread count. This is the contract that makes
        // `--compact` a pure representation switch.
        for g in [two_components(), big_graph()] {
            let cluster = Cluster::case3();
            let a = partitioned(&g, &cluster);
            let dist = DistributedGraph::new(&g, &a, 1).unwrap();
            let compact = crate::CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || {
                g.edges().iter().copied()
            })
            .unwrap();
            let engine = SimEngine::new(&cluster);
            let plain = engine.run(&dist, &MIN_LABEL, 1);
            for threads in [1, 2, 4] {
                let c = engine.run(&compact, &MIN_LABEL, threads);
                assert_eq!(c.data, plain.data, "data at {threads} threads");
                assert_eq!(c.report, plain.report, "report at {threads} threads");
            }
        }
    }

    #[test]
    fn compact_stream_build_runs_identically() {
        // End-to-end shard-style path: build the compact view from a
        // replayed edge stream (never materializing a DistributedGraph)
        // and get the same outcome.
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let edges: Vec<Edge> = g.edges().to_vec();
        let compact = crate::CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || {
            edges.iter().copied()
        })
        .unwrap();
        let engine = SimEngine::new(&cluster);
        let plain = run_min_label(&engine, &g, &a, 1);
        let c = engine.run(&compact, &MIN_LABEL, 1);
        assert_eq!(c.data, plain.data);
        assert_eq!(c.report, plain.report);
    }

    #[test]
    fn work_lands_on_edge_owners() {
        let g = two_components();
        let cluster = Cluster::case2();
        // All edges on machine 1: machine 0 must see zero edge work.
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![1, 1, 1, 1], 1);
        let out = run_min_label(&SimEngine::new(&cluster), &g, &a, 1);
        assert_eq!(out.report.per_machine_work[0].edge_units, 0.0);
        assert!(out.report.per_machine_work[1].edge_units > 0.0);
    }

    #[test]
    fn better_placement_reduces_makespan() {
        // A chain graph with all edges on the slow machine vs all on the
        // fast machine: the fast placement must finish sooner.
        let n = 2_000u32;
        let edges: Vec<Edge> = (0..n - 1).map(|v| Edge::new(v, v + 1)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let cluster = Cluster::case2(); // m0 slow, m1 fast
        let m = g.num_edges();
        let slow = PartitionAssignment::from_edge_machines(&g, 2, vec![0; m], 1);
        let fast = PartitionAssignment::from_edge_machines(&g, 2, vec![1; m], 1);
        let engine = SimEngine::new(&cluster);
        let t_slow = run_min_label(&engine, &g, &slow, 1).report.makespan_s;
        let t_fast = run_min_label(&engine, &g, &fast, 1).report.makespan_s;
        assert!(t_fast < t_slow, "fast {t_fast} !< slow {t_slow}");
    }

    #[test]
    fn tracing_records_every_superstep() {
        let g = two_components();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let rec = Telemetry::new(true, false);
        let traced = run_min_label(&SimEngine::new(&cluster).with_telemetry(&rec), &g, &a, 1);
        let plain = run_min_label(&SimEngine::new(&cluster), &g, &a, 1);
        assert!(plain.report.steps.is_empty(), "tracing is off by default");
        assert_eq!(traced.report.steps.len(), traced.report.supersteps);
        // The trace must tally with the aggregate report.
        let wall: f64 = traced.report.steps.iter().map(|s| s.wall_s).sum();
        assert!((wall - traced.report.makespan_s).abs() < 1e-12);
        assert_eq!(
            traced.report.steps[0].active, 5,
            "all vertices active at step 0"
        );
        for s in &traced.report.steps {
            assert!(s.imbalance() >= 1.0);
        }
        // Tracing must not change results.
        assert_eq!(traced.data, plain.data);
    }

    #[test]
    fn trace_events_cover_machines_phases_and_counters() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let rec = Telemetry::new(true, false);
        let out = run_min_label(&SimEngine::new(&cluster).with_telemetry(&rec), &g, &a, 1);
        let events = rec.take_events();
        assert!(!events.is_empty());
        let sim: Vec<_> = events
            .iter()
            .filter(|e| e.domain == hetgraph_core::obs::TimeDomain::Sim)
            .collect();
        // Per-superstep counters land on the cluster-wide track.
        let p = cluster.len() as u32;
        for name in ["active_vertices", "imbalance", "straggler_machine"] {
            let count = sim.iter().filter(|e| e.name == name).count();
            assert_eq!(count, out.report.supersteps, "{name} once per superstep");
            assert!(sim.iter().all(|e| e.name != name || e.track == p));
        }
        // Every machine gets phase spans on its own lane.
        for i in 0..p {
            assert!(
                sim.iter().any(|e| e.track == i && e.name == "gather"),
                "machine {i} has gather spans"
            );
        }
        // Wall-clock phase spans from the host coordinator exist too.
        assert!(events.iter().any(|e| e.name == "gather_merge"));
        assert!(events.iter().any(|e| e.name == "scatter_fanout"));
    }

    #[test]
    fn trace_phase_spans_sum_to_busy_time() {
        let g = big_graph();
        let cluster = Cluster::case3();
        let a = partitioned(&g, &cluster);
        let rec = Telemetry::new(true, false);
        let out = run_min_label(&SimEngine::new(&cluster).with_telemetry(&rec), &g, &a, 1);
        let events = rec.take_events();
        // Per machine: Σ (gather+apply+scatter spans) == total busy, and
        // Σ barrier_wait == compute_s − busy_i (the derived attribution).
        for i in 0..cluster.len() {
            let phase_total: f64 = events
                .iter()
                .filter(|e| {
                    e.track == i as u32 && matches!(e.name.as_str(), "gather" | "apply" | "scatter")
                })
                .map(|e| e.dur_us / 1e6)
                .sum();
            let busy = out.report.per_machine_busy_s[i];
            assert!(
                (phase_total - busy).abs() <= 1e-9 * busy.max(1.0),
                "machine {i}: phase spans {phase_total} != busy {busy}"
            );
            let wait_total: f64 = events
                .iter()
                .filter(|e| e.track == i as u32 && e.name == "barrier_wait")
                .map(|e| e.dur_us / 1e6)
                .sum();
            let slack = out.report.compute_s - busy;
            assert!(
                (wait_total - slack).abs() <= 1e-9 * slack.max(1.0),
                "machine {i}: barrier_wait {wait_total} != slack {slack}"
            );
        }
    }

    #[test]
    fn sim_trace_is_byte_identical_across_thread_counts() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let trace_at = |threads: usize| {
            let rec = Telemetry::new(true, false);
            run_min_label(
                &SimEngine::new(&cluster).with_telemetry(&rec),
                &g,
                &a,
                threads,
            );
            hetgraph_core::obs::chrome_trace_sim(&rec.take_events())
        };
        let reference = trace_at(1);
        assert!(reference.contains("barrier_wait"));
        for threads in [2, 4] {
            assert_eq!(trace_at(threads), reference, "{threads} threads");
        }
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = Graph::from_edge_list(EdgeList::new(0));
        let cluster = Cluster::case2();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![], 1);
        let out = run_min_label(&SimEngine::new(&cluster), &g, &a, 1);
        assert!(out.report.converged);
        assert_eq!(out.report.supersteps, 0);
        assert_eq!(out.report.makespan_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "same machine count")]
    fn cluster_mismatch_panics() {
        let g = two_components();
        let cluster = Cluster::case2(); // 2 machines
        let a = PartitionAssignment::from_edge_machines(&g, 3, vec![0, 1, 2, 0], 1);
        run_min_label(&SimEngine::new(&cluster), &g, &a, 1);
    }

    #[test]
    fn parallel_matches_serial_data_and_report_exactly() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        let seq = run_min_label(&engine, &g, &a, 1);
        for threads in [1, 2, 4] {
            let par = run_min_label(&engine, &g, &a, threads);
            assert_eq!(par.data, seq.data, "{threads} threads");
            // One kernel, integer-valued work contributions: the report is
            // bitwise identical at any thread count, not merely close.
            assert_eq!(par.report, seq.report, "{threads} threads");
        }
    }

    #[test]
    fn parallel_work_attribution_matches() {
        let g = big_graph();
        let cluster = Cluster::case3();
        let a = RandomHash::new().partition(&g, &MachineWeights::from_ccr(&[1.0, 4.0]), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        let seq = run_min_label(&engine, &g, &a, 1).report;
        let par = run_min_label(&engine, &g, &a, 3).report;
        for i in 0..2 {
            assert_eq!(
                seq.per_machine_work[i].edge_units, par.per_machine_work[i].edge_units,
                "machine {i} edge work"
            );
            assert_eq!(
                seq.per_machine_work[i].vertex_units, par.per_machine_work[i].vertex_units,
                "machine {i} vertex work"
            );
        }
        assert_eq!(seq.energy.busy_s.len(), par.energy.busy_s.len());
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        let r1 = run_min_label(&engine, &g, &a, 4);
        let r2 = run_min_label(&engine, &g, &a, 4);
        assert_eq!(r1.data, r2.data);
        assert_eq!(r1.report, r2.report);
    }

    #[test]
    fn shared_view_matches_fresh_view() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        let engine = SimEngine::new(&cluster);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let direct = run_min_label(&engine, &g, &a, 2);
        let shared = engine.run(&dist, &MIN_LABEL, 2);
        assert_eq!(direct.data, shared.data);
        assert_eq!(direct.report, shared.report);
        // A second, serial run over the same shared view agrees too.
        let serial = engine.run(&dist, &MIN_LABEL, 1);
        assert_eq!(serial.data, shared.data);
    }

    #[test]
    fn empty_graph_parallel() {
        let g = Graph::from_edge_list(EdgeList::new(0));
        let cluster = Cluster::case2();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![], 1);
        let out = run_min_label(&SimEngine::new(&cluster), &g, &a, 2);
        assert!(out.report.converged);
        assert_eq!(out.report.supersteps, 0);
    }

    #[test]
    #[should_panic(expected = "at least one host thread")]
    fn zero_threads_rejected() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = RandomHash::new().partition(&g, &MachineWeights::uniform(2), 1, &OFF);
        run_min_label(&SimEngine::new(&cluster), &g, &a, 0);
    }

    /// The twin-engine drift hazard must not silently return: the BSP
    /// superstep loop (identified by its `max_supersteps` driver) exists
    /// in exactly one module of this crate.
    #[test]
    fn superstep_loop_exists_in_exactly_one_module() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut hits = Vec::new();
        for entry in std::fs::read_dir(&src).expect("read engine src/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source file");
            // Split so this test's own source doesn't count as a hit.
            let marker = concat!("for step in 0..program", ".max_supersteps()");
            let count = text.matches(marker).count();
            if count > 0 {
                hits.push((
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    count,
                ));
            }
        }
        assert_eq!(
            hits,
            vec![("sim.rs".to_string(), 1)],
            "the superstep loop must exist exactly once, in sim.rs; found {hits:?}"
        );
    }

    /// The byte span of the first block whose header contains `marker`,
    /// by brace matching from the header.
    fn block_span(text: &str, marker: &str) -> Option<std::ops::Range<usize>> {
        let start = text.find(marker)?;
        let mut depth = 0usize;
        for (i, c) in text[start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(start..start + i);
                    }
                }
                _ => {}
            }
        }
        Some(start..text.len())
    }

    /// The pricing-drift hazard must not return either: every call into
    /// the performance model or the network barrier model in this crate
    /// sits inside `PriceAcc`'s impl, the one pricing body both
    /// `SimEngine::run` and `SimEngine::price` use. The one migration
    /// price is called from there and once from the greedy policy's
    /// amortization estimate; the per-pair transfer it replaced must not
    /// come back.
    #[test]
    fn pricing_calls_exist_only_inside_price_acc() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        // Split so this test's own source doesn't count as a hit.
        let calls = [
            concat!("time_seconds", "("),
            concat!("step_comm_s", "("),
            concat!("migration_cost_s", "("),
            concat!("migration_transfer_s", "("),
        ];
        let price_acc = concat!("impl<'e> PriceAcc", "<'e> {");
        let greedy = concat!("impl RebalancePolicy for ", "GreedyRebalance {");
        let mut hits = Vec::new();
        for entry in std::fs::read_dir(&src).expect("read engine src/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source file");
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let blocks = [
                ("PriceAcc", block_span(&text, price_acc)),
                ("GreedyRebalance", block_span(&text, greedy)),
            ];
            for call in calls {
                for (at, _) in text.match_indices(call) {
                    let place = blocks
                        .iter()
                        .find(|(_, span)| span.as_ref().is_some_and(|s| s.contains(&at)))
                        .map_or_else(
                            || format!("{file}:{}", text[..at].lines().count()),
                            |(name, _)| name.to_string(),
                        );
                    hits.push((call, place));
                }
            }
        }
        hits.sort();
        // The step's busy times, its barrier, the trace's phase split, one
        // migration batch, and the greedy amortization estimate.
        let want = [
            (calls[2], "GreedyRebalance"),
            (calls[2], "PriceAcc"),
            (calls[1], "PriceAcc"),
            (calls[0], "PriceAcc"),
            (calls[0], "PriceAcc"),
        ];
        assert_eq!(
            hits,
            want.map(|(c, p)| (c, p.to_string())),
            "pricing must live only in PriceAcc (migration also once in GreedyRebalance)"
        );
    }

    #[test]
    fn price_of_trace_matches_run_on_either_cluster() {
        let g = big_graph();
        let case2 = Cluster::case2();
        let swapped = Cluster::new(case2.machines().iter().rev().cloned().collect());
        let a = partitioned(&g, &case2);
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let compact =
            CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || g.edges().iter().copied())
                .expect("assignment must cover the graph");
        for threads in [1usize, 2] {
            let (out, trace) = SimEngine::new(&case2)
                .trace(&dist, &MIN_LABEL, threads)
                .expect("plain trace");
            let run = SimEngine::new(&case2).run(&dist, &MIN_LABEL, threads);
            assert_eq!(out.data, run.data);
            assert_eq!(out.report, run.report);
            assert_eq!(SimEngine::new(&case2).price(&trace).unwrap(), run.report);
            let (_, compact_trace) = SimEngine::new(&case2)
                .trace(&compact, &MIN_LABEL, threads)
                .expect("compact trace");
            assert_eq!(compact_trace, trace, "representation-independent work");
            // Same P, other specs: pricing equals running there.
            assert_eq!(
                SimEngine::new(&swapped).price(&trace).unwrap(),
                SimEngine::new(&swapped)
                    .run(&dist, &MIN_LABEL, threads)
                    .report
            );
            // A perturbation schedule is the pricing engine's, per step.
            let schedule = PerturbationSchedule::new().slowdown(1, 1, Some(3), 0.25);
            let perturbed = SimEngine::new(&swapped).with_perturbations(&schedule);
            let slowed = perturbed.run(&dist, &MIN_LABEL, threads).report;
            assert_eq!(perturbed.price(&trace).unwrap(), slowed);
            assert_ne!(slowed, SimEngine::new(&swapped).price(&trace).unwrap());
        }
    }

    #[test]
    fn trace_and_price_reject_what_they_cannot_reproduce() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let engine = SimEngine::new(&cluster);
        let mut dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let mut policy = NeverRebalance;
        let rebalanced = engine.trace(RunTarget::rebalanced(&mut dist, &mut policy), &MIN_LABEL, 1);
        assert!(matches!(rebalanced, Err(EngineError::RebalancedTrace)));
        assert!(matches!(
            engine.trace(&dist, &MIN_LABEL, 0),
            Err(EngineError::ZeroThreads)
        ));
        let one = Cluster::new(vec![cluster.machines()[0].clone()]);
        assert!(matches!(
            SimEngine::new(&one).trace(&dist, &MIN_LABEL, 1),
            Err(EngineError::MachineCountMismatch {
                cluster: 1,
                work: 2
            })
        ));
        let (_, trace) = engine.trace(&dist, &MIN_LABEL, 1).expect("plain trace");
        assert_eq!(trace.num_machines, 2);
        assert!(matches!(
            SimEngine::new(&one).price(&trace),
            Err(EngineError::MachineCountMismatch {
                cluster: 1,
                work: 2
            })
        ));
    }

    impl SimEngine<'_> {
        /// [`SimEngine::run`] with the next-frontier rule forced — every
        /// superstep pulls (`Some(true)`) or pushes (`Some(false)`) whatever
        /// the density; `None` keeps the density rule — plus each superstep's
        /// recorded work, so tests can pin both rules to identical outcomes
        /// over any target.
        fn run_forced<'k, 'g: 'k, P: GasProgram>(
            &self,
            target: impl Into<RunTarget<'k, 'g>>,
            program: &P,
            host_threads: usize,
            force_pull: Option<bool>,
        ) -> (SimOutcome<P::VertexData>, Vec<StepWork>) {
            let mut steps = Vec::new();
            let outcome = self.kernel(
                target.into(),
                program,
                host_threads,
                Some(&mut steps),
                force_pull,
            );
            (outcome, steps)
        }
    }

    /// Policy that never plans anything — the rebalanced kernel must be
    /// byte-identical to the static one.
    struct NeverRebalance;

    impl RebalancePolicy for NeverRebalance {
        fn name(&self) -> &str {
            "never"
        }
        fn plan(
            &mut self,
            _signals: &StepSignals<'_>,
            _dist: &DistributedGraph<'_>,
            _machines: &[MachineSpec],
            _network: &NetworkModel,
        ) -> Vec<(usize, u16)> {
            Vec::new()
        }
    }

    /// Policy that, exactly once, moves the first `count` edges to
    /// machine 1 — deterministic by construction, for kernel-path tests.
    struct MoveSome {
        count: usize,
        fired: bool,
        events: Vec<MigrationEvent>,
    }

    impl MoveSome {
        fn new(count: usize) -> Self {
            MoveSome {
                count,
                fired: false,
                events: Vec::new(),
            }
        }
    }

    impl RebalancePolicy for MoveSome {
        fn name(&self) -> &str {
            "move_some"
        }
        fn plan(
            &mut self,
            _signals: &StepSignals<'_>,
            dist: &DistributedGraph<'_>,
            _machines: &[MachineSpec],
            _network: &NetworkModel,
        ) -> Vec<(usize, u16)> {
            if self.fired {
                return Vec::new();
            }
            self.fired = true;
            let count = self.count.min(dist.graph().num_edges());
            (0..count).map(|e| (e, 1u16)).collect()
        }
        fn notify(&mut self, event: MigrationEvent) {
            self.events.push(event);
        }
    }

    #[test]
    fn inert_policy_matches_static_run() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let engine = SimEngine::new(&cluster);
        let static_out = run_min_label(&engine, &g, &a, 2);
        let mut dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let mut policy = NeverRebalance;
        let rebal = engine.run(RunTarget::rebalanced(&mut dist, &mut policy), &MIN_LABEL, 2);
        assert_eq!(static_out.data, rebal.data);
        assert_eq!(static_out.report, rebal.report);
        // No plan means no copy-on-write: the caller's assignment is shared.
        assert_eq!(dist.assignment(), &a);
    }

    #[test]
    fn forced_migration_is_charged_and_preserves_results() {
        let g = big_graph();
        let cluster = Cluster::case2();
        // Everything starts on machine 0, so every planned move is real.
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0; g.num_edges()], 1);
        let engine = SimEngine::new(&cluster);
        let static_out = run_min_label(&engine, &g, &a, 2);
        let mut dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let mut policy = MoveSome::new(1_000);
        let rebal = engine.run(RunTarget::rebalanced(&mut dist, &mut policy), &MIN_LABEL, 2);
        // Placement never changes answers, only time.
        assert_eq!(static_out.data, rebal.data);
        assert_eq!(static_out.report.supersteps, rebal.report.supersteps);
        let [event] = policy.events.as_slice() else {
            panic!(
                "exactly one migration expected, got {}",
                policy.events.len()
            );
        };
        assert_eq!(event.edges_moved, 1_000);
        assert_eq!(event.step, 0);
        assert!((event.bytes - 1_000.0 * MIGRATION_BYTES_PER_EDGE).abs() < 1e-9);
        assert!(event.cost_s > 0.0);
        assert_eq!(event.moves_per_pair.len(), 1);
        let (from, to, n) = event.moves_per_pair[0];
        assert_eq!((from.0, to.0, n), (0, 1, 1_000));
        // The migration cost lands in comm and therefore in the makespan,
        // and the accounting identity survives the surcharge.
        assert!(rebal.report.comm_s > static_out.report.comm_s);
        let identity = rebal.report.makespan_s - (rebal.report.compute_s + rebal.report.comm_s);
        assert!(identity.abs() < 1e-12, "makespan == compute + comm");
        // The caller's assignment is untouched; the view's copy moved on.
        assert_eq!(a.edge_machines()[0], 0);
        assert_eq!(dist.assignment().edge_machines()[0], 1);
    }

    #[test]
    fn rebalanced_run_is_thread_count_invariant() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0; g.num_edges()], 1);
        let engine = SimEngine::new(&cluster);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut dist =
                DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
            let mut policy = MoveSome::new(2_500);
            let out = engine.run(
                RunTarget::rebalanced(&mut dist, &mut policy),
                &MIN_LABEL,
                threads,
            );
            reports.push((out.data, out.report));
        }
        assert_eq!(reports[0], reports[1], "1 vs 2 threads");
        assert_eq!(reports[0], reports[2], "1 vs 4 threads");
    }

    #[test]
    fn rebalanced_trace_tallies_and_marks_migrations() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0; g.num_edges()], 1);
        let rec = Telemetry::new(true, false);
        let engine = SimEngine::new(&cluster).with_telemetry(&rec);
        let mut dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let mut policy = MoveSome::new(1_000);
        let out = engine.run(RunTarget::rebalanced(&mut dist, &mut policy), &MIN_LABEL, 2);
        // The per-step records absorb the migration surcharge, so the
        // trace still tallies with the aggregate report.
        let wall: f64 = out.report.steps.iter().map(|s| s.wall_s).sum();
        assert!((wall - out.report.makespan_s).abs() < 1e-12);
        let events = rec.take_events();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.name == "migration" && e.cat == "rebalance")
            .collect();
        assert_eq!(spans.len(), 2, "one span per machine lane of the pair");
        assert_eq!(spans[0].track, 0);
        assert_eq!(spans[1].track, 1);
        let p = cluster.len() as u32;
        for name in ["migrated_edges", "migration_bytes"] {
            let hits: Vec<_> = events.iter().filter(|e| e.name == name).collect();
            assert_eq!(hits.len(), 1, "{name} once per migration batch");
            assert_eq!(hits[0].track, p, "{name} on the cluster-wide lane");
        }
    }

    #[test]
    fn perturbation_slowdown_stretches_the_makespan() {
        let g = big_graph();
        let cluster = Cluster::case2();
        let a = partitioned(&g, &cluster);
        let base = run_min_label(&SimEngine::new(&cluster), &g, &a, 2);
        let schedule = PerturbationSchedule::new().slowdown(0, 0, None, 0.25);
        let slowed = run_min_label(
            &SimEngine::new(&cluster).with_perturbations(&schedule),
            &g,
            &a,
            2,
        );
        assert_eq!(
            base.data, slowed.data,
            "perturbations change time, not answers"
        );
        assert!(slowed.report.makespan_s > base.report.makespan_s);
        // An empty schedule is byte-identical to no schedule at all.
        let empty = PerturbationSchedule::new();
        let noop = run_min_label(
            &SimEngine::new(&cluster).with_perturbations(&empty),
            &g,
            &a,
            2,
        );
        assert_eq!(base.report, noop.report);
    }

    /// A random multigraph for the frontier-rule properties: up to 40,
    /// up to 600, or 4 097–8 896 vertices (crossing `PULL_RANGE`
    /// boundaries and ending on a partial range), with hubs, self loops,
    /// parallel edges, and a tail of isolated vertices.
    fn random_multigraph(rng: &mut Xoshiro256) -> Graph {
        let n = match rng.next_bounded(4) {
            0 => 1 + rng.next_bounded(40),
            1 | 2 => 41 + rng.next_bounded(560),
            _ => PULL_RANGE as u64 + 1 + rng.next_bounded(4_800),
        };
        let live = n - rng.next_bounded(n / 4 + 1).min(n - 1);
        let hubs = [0; 3].map(|_| rng.next_bounded(live) as u32);
        let mut edges: Vec<Edge> = Vec::new();
        for _ in 0..rng.next_bounded(2 * live + 1) {
            let mut pick = || rng.next_bounded(live) as u32;
            let (a, b, hub) = (pick(), pick(), hubs[pick() as usize % 3]);
            edges.push(match rng.next_bounded(8) {
                0 | 1 => Edge::new(hub, a),
                2 => Edge::new(a, hub),
                3 => Edge::new(a, a),
                4 if !edges.is_empty() => edges[a as usize % edges.len()],
                _ => Edge::new(a, b),
            });
        }
        Graph::from_edge_list(EdgeList::from_edges(n as u32, edges))
    }

    /// Two machines (row-count tables) or ten (the per-edge lane path).
    fn random_cluster(rng: &mut Xoshiro256) -> Cluster {
        let p = [2, 10][rng.next_bounded(2) as usize];
        Cluster::new(
            Cluster::case3()
                .machines()
                .iter()
                .cycle()
                .take(p)
                .cloned()
                .collect(),
        )
    }

    /// The next frontier and the per-machine scatter tally by definition:
    /// every scatter-direction neighbor of a changed vertex, sorted and
    /// deduplicated, and one unit per scatter-direction edge of a changed
    /// vertex on the edge's machine.
    fn scatter_spec(
        g: &Graph,
        a: &PartitionAssignment,
        changed: &[u32],
        dir: Direction,
    ) -> (Vec<u32>, Vec<f64>) {
        let mut is_changed = vec![false; g.num_vertices() as usize];
        for &v in changed {
            is_changed[v as usize] = true;
        }
        let (mut next, mut tally) = (Vec::new(), vec![0.0; a.num_machines()]);
        for (e, &m) in g.edges().iter().zip(a.edge_machines()) {
            let m = m as usize;
            if matches!(dir, Direction::Out | Direction::Both) && is_changed[e.src as usize] {
                next.push(e.dst);
                tally[m] += 1.0;
            }
            if matches!(dir, Direction::In | Direction::Both) && is_changed[e.dst as usize] {
                next.push(e.src);
                tally[m] += 1.0;
            }
        }
        next.sort_unstable();
        next.dedup();
        (next, tally)
    }

    const DIRECTIONS: [Direction; 3] = [Direction::In, Direction::Out, Direction::Both];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Push and pull build the frontier and the scatter tallies the
        /// definition gives, over both views, every scatter direction,
        /// sparse and dense changed sets, and 1, 2 and 4 threads. Each
        /// `NextFrontier` serves several steps under both rules in a
        /// random order, as a run's supersteps do.
        #[test]
        fn push_and_pull_build_the_same_frontier(seed in any::<u64>()) {
            let mut rng = Xoshiro256::new(seed);
            let g = random_multigraph(&mut rng);
            let cluster = random_cluster(&mut rng);
            let a = partitioned(&g, &cluster);
            let (n, p) = (g.num_vertices() as usize, cluster.len());
            let dist = DistributedGraph::new(&g, &a, 1).unwrap();
            let compact =
                CompactDistGraph::from_edge_stream(n as u32, &a, || g.edges().iter().copied()).unwrap();
            for view in [StepView::Plain(&dist), StepView::Compact(&compact)] {
                for dir in DIRECTIONS {
                    let threads = [1, 2, 4][rng.next_bounded(3) as usize];
                    let mut next = NextFrontier::new(n, p, threads);
                    for _ in 0..3 {
                        // About 1/64 of the vertices, half, or all.
                        let keep = [1, 32, 64][rng.next_bounded(3) as usize];
                        let changed: Vec<u32> =
                            (0..n as u32).filter(|_| rng.next_bounded(64) < keep).collect();
                        let (want, want_tally) = scatter_spec(&g, &a, &changed, dir);
                        let case = format!(
                            "seed {seed}, {n} vertices, {p} machines, {dir:?}, {} changed, {threads} threads",
                            changed.len()
                        );
                        let pull_first = rng.next_bounded(2) == 0;
                        for pull in [pull_first, !pull_first] {
                            let (mut frontier, mut work) = (vec![7], vec![WorkCounts::zero(); p]);
                            let rule = if pull { NextFrontier::pull } else { NextFrontier::push };
                            rule(&mut next, &mut frontier, &mut work, &changed, view, dir);
                            let tally: Vec<f64> = work.iter().map(|w| w.edge_units).collect();
                            prop_assert!(frontier == want, "frontier, pull {pull}: {case}");
                            prop_assert!(tally == want_tally, "tallies, pull {pull}: {case}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Forcing either rule on every superstep, or leaving the choice
        /// to the density rule, changes no outcome and no step's recorded
        /// work (active count included), over the plain, compact and
        /// rebalanced targets at 1, 2 and 4 threads.
        #[test]
        fn forced_push_and_pull_runs_match(seed in any::<u64>()) {
            let mut rng = Xoshiro256::new(seed);
            let g = random_multigraph(&mut rng);
            let cluster = random_cluster(&mut rng);
            let a = partitioned(&g, &cluster);
            let program = MinLabel(DIRECTIONS[rng.next_bounded(3) as usize]);
            let engine = SimEngine::new(&cluster);
            let dist = DistributedGraph::new(&g, &a, 1).unwrap();
            let compact = CompactDistGraph::from_edge_stream(g.num_vertices(), &a, || {
                g.edges().iter().copied()
            })
            .unwrap();
            let rebalanced = |threads, rule| {
                let (mut moved, mut policy) = (dist.clone(), MoveSome::new(g.num_edges() / 3));
                let target = RunTarget::rebalanced(&mut moved, &mut policy);
                engine.run_forced(target, &program, threads, rule)
            };
            let want = engine.run_forced(&dist, &program, 1, Some(false));
            let want_moved = rebalanced(1, Some(false));
            for threads in [1, 2, 4] {
                for rule in [Some(false), Some(true), None] {
                    let runs = [
                        ("plain", engine.run_forced(&dist, &program, threads, rule), &want),
                        ("compact", engine.run_forced(&compact, &program, threads, rule), &want),
                        ("rebalanced", rebalanced(threads, rule), &want_moved),
                    ];
                    for (target, (out, steps), (want, want_steps)) in &runs {
                        prop_assert!(
                            out.data == want.data && out.report == want.report && steps == want_steps,
                            "{target} run, rule {rule:?}: seed {seed}, {} vertices, {} machines, \
                             {:?}, {threads} threads",
                            g.num_vertices(),
                            cluster.len(),
                            program.0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pull_fires_from_three_quarters_of_the_scatter_edges() {
        // Every vertex of `big_graph` has two out- and two in-edges, so
        // the first k vertices reach k/5000 of the edges either way.
        let g = big_graph();
        let meta = g.meta();
        let all: Vec<u32> = (0..g.num_vertices()).collect();
        for dir in DIRECTIONS {
            assert!(pull_pays(&meta, &all, dir), "{dir:?}: all changed");
            assert!(pull_pays(&meta, &all[..3_750], dir), "{dir:?}: exactly 3/4");
            assert!(!pull_pays(&meta, &all[..3_749], dir), "{dir:?}: below 3/4");
        }
        assert!(!pull_pays(&meta, &all, Direction::None));
        let empty = Graph::from_edge_list(EdgeList::new(3));
        assert!(!pull_pays(&empty.meta(), &[0, 1, 2], Direction::Both));
    }

    /// The frontier rules keep their seams: the per-edge activation hook
    /// is gone from the workspace, the pull scan exists once and runs only
    /// under the pull rule, and the push set is filled only under the
    /// push rule.
    #[test]
    fn frontier_rules_keep_their_seams() {
        // Split so this test's own source doesn't count as a hit.
        let hook = concat!("scatter_", "activates");
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut stack = vec![root.join("crates"), root.join("tests")];
        let mut hook_hits = Vec::new();
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("read source dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    if path.file_name().is_some_and(|f| f != "target") {
                        stack.push(path);
                    }
                } else if path.extension().is_some_and(|e| e == "rs")
                    && std::fs::read_to_string(&path)
                        .expect("read source file")
                        .contains(hook)
                {
                    hook_hits.push(path);
                }
            }
        }
        assert!(hook_hits.is_empty(), "{hook} is back: {hook_hits:?}");

        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut scans = 0;
        for entry in std::fs::read_dir(&src).expect("read engine src/") {
            let text = std::fs::read_to_string(entry.expect("dir entry").path()).unwrap();
            scans += text.matches(concat!("fn pull", "_range(")).count();
        }
        assert_eq!(scans, 1, "the pull scan must exist exactly once");

        let text = std::fs::read_to_string(src.join("sim.rs")).expect("read sim.rs");
        let text = &text[..text.find(concat!("#[cfg(test)]\nmod ", "tests")).unwrap()];
        // Every call of `needle` (its definition aside) sits in the block
        // whose header is `header`.
        let within = |needle: &str, header: &str| {
            let span = block_span(text, header).expect("block exists");
            let calls: Vec<usize> = text
                .match_indices(needle)
                .map(|(at, _)| at)
                .filter(|&at| !text[..at].ends_with("fn "))
                .collect();
            !calls.is_empty() && calls.iter().all(|at| span.contains(at))
        };
        assert!(
            within(concat!("pull_range", "("), concat!("fn pull", "(")),
            "the pull scan runs only in NextFrontier::pull"
        );
        assert!(
            within(concat!(".insert", "("), concat!("fn push", "(")),
            "the frontier set is filled only in NextFrontier::push"
        );
    }
}

//! The partitioner interface.

use hetgraph_core::obs::{Telemetry, TimeDomain, TraceEvent, OFF};
use hetgraph_core::{Edge, Graph};

use crate::assignment::PartitionAssignment;
use crate::weights::MachineWeights;

/// A streaming edge partitioner.
///
/// Implementations must be deterministic: the same `(graph, weights)` pair
/// always yields the same assignment (experiment reproducibility depends on
/// this), at any thread count and with telemetry on or off.
pub trait Partitioner {
    /// Human-readable algorithm name (used in figures and reports).
    fn name(&self) -> &'static str;

    /// Greedy scoring scans this partitioner performs on `graph`: the
    /// number of candidate-machine scans its streaming greedy loop runs
    /// (one per placed edge for Oblivious, one per low-degree vertex for
    /// Ginger). `None` for partitioners with no greedy loop.
    fn greedy_scans(&self, _graph: &Graph) -> Option<u64> {
        None
    }

    /// Partition `graph` across `weights.len()` machines, distributing
    /// edges proportionally to the weights (uniform weights = the original
    /// homogeneous algorithm), with `threads` host threads.
    ///
    /// The determinism contract extends across thread counts: the returned
    /// assignment is byte-identical at any `threads`, so a harness may hand
    /// whatever budget is left over to the partitioner without perturbing
    /// results. Inherently sequential partitioners (history-based greedy
    /// scorers) ignore the budget; embarrassingly parallel ones (hash-based)
    /// use index-deterministic chunked fan-out.
    ///
    /// With `telemetry` on, the call is observed: to the event log, a
    /// wall-clock span plus edge-throughput (and, where the algorithm has
    /// one, greedy-scan) counters; to the metrics registry, per-algorithm
    /// edge and greedy-scan counters (sim domain: deterministic, so they
    /// belong in the byte-stable snapshot), plus a wall-clock duration
    /// histogram and an edge-throughput gauge (wall domain). Pass [`OFF`]
    /// for none; the assignment is identical either way.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    fn partition(
        &self,
        graph: &Graph,
        weights: &MachineWeights,
        threads: usize,
        telemetry: &Telemetry,
    ) -> PartitionAssignment;

    /// For `benchmark/src/layers.rs` only; deleted by the ruler's next API
    /// follow-up.
    #[doc(hidden)]
    fn partition_with_threads(
        &self,
        graph: &Graph,
        weights: &MachineWeights,
        threads: usize,
    ) -> PartitionAssignment {
        self.partition(graph, weights, threads, &OFF)
    }
}

/// The one wrapper every [`Partitioner::partition`] runs its `body` through:
/// exactly `body()` with both telemetry halves off, else observed as that
/// method describes. Panics if `threads == 0`.
pub(crate) fn observed<P: Partitioner + ?Sized>(
    p: &P,
    graph: &Graph,
    threads: usize,
    telemetry: &Telemetry,
    body: impl FnOnce() -> PartitionAssignment,
) -> PartitionAssignment {
    assert!(threads > 0, "need at least one host thread");
    if !telemetry.tracing() && !telemetry.metering() {
        return body();
    }
    let wall_t0 = std::time::Instant::now();
    let t0 = telemetry.now_us();
    let assignment = body();
    let t1 = telemetry.now_us();
    let wall_s = wall_t0.elapsed().as_secs_f64();
    let name = p.name();
    let scans = p.greedy_scans(graph);
    if telemetry.tracing() {
        telemetry.record(TraceEvent::wall_span(
            format!("partition/{name}"),
            "partition",
            0,
            t0,
            t1 - t0,
        ));
        let edges = graph.num_edges() as f64;
        telemetry.record(TraceEvent::wall_counter("partition_edges", 0, t1, edges));
        let dur_s = (t1 - t0) / 1e6;
        if dur_s > 0.0 {
            telemetry.record(TraceEvent::wall_counter(
                "partition_edges_per_sec",
                0,
                t1,
                edges / dur_s,
            ));
        }
        if let Some(scans) = scans {
            telemetry.record(TraceEvent::wall_counter(
                "partition_greedy_scans",
                0,
                t1,
                scans as f64,
            ));
        }
    }
    if telemetry.metering() {
        telemetry
            .counter(&format!("partition/{name}/edges_total"), TimeDomain::Sim)
            .add(graph.num_edges() as u64);
        if let Some(scans) = scans {
            telemetry
                .counter(
                    &format!("partition/{name}/greedy_scans_total"),
                    TimeDomain::Sim,
                )
                .add(scans);
        }
        telemetry
            .histogram(&format!("partition/{name}/wall_s"), TimeDomain::Wall)
            .observe(wall_s);
        if wall_s > 0.0 {
            telemetry
                .gauge(&format!("partition/{name}/edges_per_sec"), TimeDomain::Wall)
                .set(graph.num_edges() as f64 / wall_s);
        }
    }
    assignment
}

/// A partitioner that can consume an edge *stream* — one pass, in edge
/// order, without a materialized [`Graph`] — so ingestion RSS stays
/// bounded by the per-vertex state (replica masks) plus the assignment
/// being produced, never by the edge list.
///
/// The contract is strict equality: for the same edges in the same order,
/// `partition_stream` must return an assignment byte-identical to
/// [`Partitioner::partition`] over the materialized graph. Only the
/// single-pass algorithms implement this — Random, Grid, and Oblivious
/// already score edge-at-a-time; Hybrid and Ginger need degree counts
/// before placement and stay graph-fed.
pub trait StreamPartitioner: Partitioner {
    /// Partition `edges` (over vertices `0..num_vertices`) across
    /// `weights.len()` machines in one pass.
    ///
    /// # Panics
    /// Panics if `weights.len()` exceeds the 64-machine bitmask capacity
    /// or an edge references a vertex `>= num_vertices`.
    fn partition_stream(
        &self,
        num_vertices: u32,
        weights: &MachineWeights,
        edges: &mut dyn Iterator<Item = Edge>,
    ) -> PartitionAssignment;
}

/// The five algorithms evaluated in the paper, as a value type for
/// iteration in harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PartitionerKind {
    /// Random hash of the edge (vertex cut; PowerGraph default).
    RandomHash,
    /// Greedy history-based placement (vertex cut).
    Oblivious,
    /// Constrained row/column intersection (vertex cut).
    Grid,
    /// Two-phase low/high-degree split (mixed cut; PowerLyra).
    Hybrid,
    /// Hybrid + Fennel-style scoring for low-degree vertices (mixed cut).
    Ginger,
}

impl PartitionerKind {
    /// All five, in the paper's figure order.
    pub const ALL: [PartitionerKind; 5] = [
        PartitionerKind::RandomHash,
        PartitionerKind::Oblivious,
        PartitionerKind::Grid,
        PartitionerKind::Hybrid,
        PartitionerKind::Ginger,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::RandomHash => "random",
            PartitionerKind::Oblivious => "oblivious",
            PartitionerKind::Grid => "grid",
            PartitionerKind::Hybrid => "hybrid",
            PartitionerKind::Ginger => "ginger",
        }
    }

    /// Instantiate with default parameters.
    pub fn build(self) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::RandomHash => Box::new(crate::RandomHash::new()),
            PartitionerKind::Oblivious => Box::new(crate::Oblivious::new()),
            PartitionerKind::Grid => Box::new(crate::Grid::new()),
            PartitionerKind::Hybrid => Box::new(crate::Hybrid::new()),
            PartitionerKind::Ginger => Box::new(crate::Ginger::new()),
        }
    }

    /// Instantiate as a streaming partitioner, or `None` for the
    /// algorithms that need the whole graph before placing (Hybrid and
    /// Ginger count degrees first).
    pub fn build_stream(self) -> Option<Box<dyn StreamPartitioner>> {
        match self {
            PartitionerKind::RandomHash => Some(Box::new(crate::RandomHash::new())),
            PartitionerKind::Oblivious => Some(Box::new(crate::Oblivious::new())),
            PartitionerKind::Grid => Some(Box::new(crate::Grid::new())),
            PartitionerKind::Hybrid | PartitionerKind::Ginger => None,
        }
    }
}

impl std::fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            PartitionerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn build_matches_kind_name() {
        for kind in PartitionerKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(PartitionerKind::Hybrid.to_string(), "hybrid");
    }

    /// Every kind routes `partition` through the one `observed` wrapper:
    /// with telemetry on, each emits the span and counters, and the
    /// assignment is the one the off path returns.
    #[test]
    fn every_kind_is_observed_and_unperturbed_by_telemetry() {
        use hetgraph_core::{Edge, EdgeList};
        let n = 200u32;
        let edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v * 7 + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let w = crate::MachineWeights::uniform(4);
        for kind in PartitionerKind::ALL {
            let p = kind.build();
            let plain = p.partition(&g, &w, 1, &OFF);
            let t = Telemetry::live();
            let inst = p.partition(&g, &w, 1, &t);
            assert_eq!(plain.edge_machines(), inst.edge_machines(), "{kind}");
            let events = t.take_events();
            assert!(
                events.iter().any(|e| e.name == format!("partition/{kind}")),
                "{kind} span"
            );
            let edges_counter = events
                .iter()
                .find(|e| e.name == "partition_edges")
                .unwrap_or_else(|| panic!("{kind} edge counter"));
            assert_eq!(edges_counter.value, g.num_edges() as f64);
            let snap = t.snapshot();
            assert_eq!(
                snap.counter_value(&format!("partition/{kind}/edges_total")),
                Some(g.num_edges() as u64),
                "{kind}"
            );
            assert_eq!(
                snap.counter_value(&format!("partition/{kind}/greedy_scans_total")),
                p.greedy_scans(&g),
                "{kind}"
            );
            // The wall histogram saw exactly one partition call, and the
            // sim-domain snapshot carries only the deterministic counters.
            let h = snap.histogram(&format!("partition/{kind}/wall_s")).unwrap();
            assert_eq!(h.count(), 1, "{kind}");
            let sim = t.snapshot_sim();
            assert!(sim.histograms.is_empty(), "{kind}");
            assert!(sim
                .counter_value(&format!("partition/{kind}/edges_total"))
                .is_some());
        }
    }

    #[test]
    fn greedy_scan_counts_follow_the_algorithm() {
        use hetgraph_core::{Edge, EdgeList};
        let n = 100u32;
        let edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        // Hash partitioners have no greedy loop.
        assert_eq!(crate::RandomHash::new().greedy_scans(&g), None);
        assert_eq!(crate::Grid::new().greedy_scans(&g), None);
        assert_eq!(crate::Hybrid::new().greedy_scans(&g), None);
        // Oblivious scans once per edge.
        assert_eq!(
            crate::Oblivious::new().greedy_scans(&g),
            Some(g.num_edges() as u64)
        );
        // Every vertex of this ring has in-degree 1 ≤ threshold, so
        // Ginger scores all of them.
        assert_eq!(crate::Ginger::new().greedy_scans(&g), Some(n as u64));
    }

    #[test]
    #[should_panic(expected = "at most 64 machines")]
    fn sixty_five_machine_weights_rejected() {
        // 65 machines would shift past bit 63 of the u64 replica masks.
        // `MachineWeights` refuses to construct, so no partitioner can be
        // handed an over-capacity cluster; the per-partitioner
        // `assert_bitmask_capacity` calls are defense-in-depth behind
        // this boundary.
        crate::MachineWeights::uniform(65);
    }
}

//! The partitioner interface.

use hetgraph_core::metrics::MetricsRegistry;
use hetgraph_core::obs::{Recorder, TimeDomain, TraceEvent};
use hetgraph_core::{Edge, Graph};

use crate::assignment::PartitionAssignment;
use crate::weights::MachineWeights;

/// A streaming edge partitioner.
///
/// Implementations must be deterministic: the same `(graph, weights)` pair
/// always yields the same assignment (experiment reproducibility depends on
/// this).
pub trait Partitioner {
    /// Human-readable algorithm name (used in figures and reports).
    fn name(&self) -> &'static str;

    /// Partition `graph` across `weights.len()` machines, distributing
    /// edges proportionally to the weights (uniform weights = the original
    /// homogeneous algorithm).
    fn partition(&self, graph: &Graph, weights: &MachineWeights) -> PartitionAssignment;

    /// [`Partitioner::partition`] with a host thread budget.
    ///
    /// The determinism contract extends across thread counts: the returned
    /// assignment must be byte-identical at any `host_threads`, so the
    /// experiment harness may hand whatever budget is left over to the
    /// partitioner without perturbing results. Inherently sequential
    /// partitioners (history-based greedy scorers) default to ignoring the
    /// budget; embarrassingly parallel ones (hash-based) override this
    /// with index-deterministic chunked fan-out.
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    fn partition_with_threads(
        &self,
        graph: &Graph,
        weights: &MachineWeights,
        host_threads: usize,
    ) -> PartitionAssignment {
        assert!(host_threads > 0, "need at least one host thread");
        self.partition(graph, weights)
    }

    /// Greedy scoring scans this partitioner performs on `graph`: the
    /// number of candidate-machine scans its streaming greedy loop runs
    /// (one per placed edge for Oblivious, one per low-degree vertex for
    /// Ginger). `None` for partitioners with no greedy loop.
    fn greedy_scans(&self, _graph: &Graph) -> Option<u64> {
        None
    }

    /// [`Partitioner::partition_with_threads`] wrapped in observability.
    /// To `recorder`: a wall-clock span plus edge-throughput (and, where
    /// the algorithm has one, greedy-scan) counters. To `metrics`:
    /// per-algorithm edge and greedy-scan counters (sim domain — both are
    /// deterministic properties of the input, so they belong in the
    /// byte-stable snapshot), plus a wall-clock duration histogram and an
    /// edge-throughput gauge (wall domain — host-dependent). With both
    /// sinks disabled this is exactly `partition_with_threads`; the
    /// assignment is identical with any sink combination.
    ///
    /// # Panics
    /// Panics if `host_threads == 0`.
    fn partition_instrumented(
        &self,
        graph: &Graph,
        weights: &MachineWeights,
        host_threads: usize,
        recorder: &dyn Recorder,
        metrics: &MetricsRegistry,
    ) -> PartitionAssignment {
        if !recorder.enabled() && !metrics.enabled() {
            return self.partition_with_threads(graph, weights, host_threads);
        }
        let wall_t0 = std::time::Instant::now();
        let t0 = recorder.now_us();
        let assignment = self.partition_with_threads(graph, weights, host_threads);
        let t1 = recorder.now_us();
        let wall_s = wall_t0.elapsed().as_secs_f64();
        let name = self.name();
        let scans = self.greedy_scans(graph);
        if recorder.enabled() {
            recorder.record(TraceEvent::wall_span(
                format!("partition/{name}"),
                "partition",
                0,
                t0,
                t1 - t0,
            ));
            let edges = graph.num_edges() as f64;
            recorder.record(TraceEvent::wall_counter("partition_edges", 0, t1, edges));
            let dur_s = (t1 - t0) / 1e6;
            if dur_s > 0.0 {
                recorder.record(TraceEvent::wall_counter(
                    "partition_edges_per_sec",
                    0,
                    t1,
                    edges / dur_s,
                ));
            }
            if let Some(scans) = scans {
                recorder.record(TraceEvent::wall_counter(
                    "partition_greedy_scans",
                    0,
                    t1,
                    scans as f64,
                ));
            }
        }
        if metrics.enabled() {
            metrics
                .counter(&format!("partition/{name}/edges_total"), TimeDomain::Sim)
                .add(graph.num_edges() as u64);
            if let Some(scans) = scans {
                metrics
                    .counter(
                        &format!("partition/{name}/greedy_scans_total"),
                        TimeDomain::Sim,
                    )
                    .add(scans);
            }
            metrics
                .histogram(&format!("partition/{name}/wall_s"), TimeDomain::Wall)
                .observe(wall_s);
            if wall_s > 0.0 {
                metrics
                    .gauge(&format!("partition/{name}/edges_per_sec"), TimeDomain::Wall)
                    .set(graph.num_edges() as f64 / wall_s);
            }
        }
        assignment
    }
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

    #[test]
    fn partition_traced_matches_plain_and_emits_counters() {
        use hetgraph_core::metrics::NOOP as METRICS_NOOP;
        use hetgraph_core::obs::{TraceRecorder, NOOP};
        use hetgraph_core::{Edge, EdgeList};
        let n = 200u32;
        let edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v * 7 + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let w = crate::MachineWeights::uniform(4);
        for kind in PartitionerKind::ALL {
            let p = kind.build();
            let plain = p.partition_with_threads(&g, &w, 1);
            let noop = p.partition_instrumented(&g, &w, 1, &NOOP, &METRICS_NOOP);
            assert_eq!(plain.edge_machines(), noop.edge_machines(), "{kind}");
            let rec = TraceRecorder::new();
            let traced = p.partition_instrumented(&g, &w, 1, &rec, &METRICS_NOOP);
            assert_eq!(plain.edge_machines(), traced.edge_machines(), "{kind}");
            let events = rec.take_events();
            assert!(
                events.iter().any(|e| e.name == format!("partition/{kind}")),
                "{kind} span"
            );
            let edges_counter = events
                .iter()
                .find(|e| e.name == "partition_edges")
                .unwrap_or_else(|| panic!("{kind} edge counter"));
            assert_eq!(edges_counter.value, g.num_edges() as f64);
        }
    }

    #[test]
    fn partition_instrumented_matches_plain_and_aggregates() {
        use hetgraph_core::metrics::{MetricsRegistry, NOOP as METRICS_NOOP};
        use hetgraph_core::obs::NOOP;
        use hetgraph_core::{Edge, EdgeList};
        let n = 200u32;
        let edges: Vec<Edge> = (0..n).map(|v| Edge::new(v, (v * 7 + 1) % n)).collect();
        let g = Graph::from_edge_list(EdgeList::from_edges(n, edges));
        let w = crate::MachineWeights::uniform(4);
        for kind in PartitionerKind::ALL {
            let p = kind.build();
            let plain = p.partition_with_threads(&g, &w, 1);
            let noop = p.partition_instrumented(&g, &w, 1, &NOOP, &METRICS_NOOP);
            assert_eq!(plain.edge_machines(), noop.edge_machines(), "{kind}");
            let m = MetricsRegistry::new();
            let inst = p.partition_instrumented(&g, &w, 1, &NOOP, &m);
            assert_eq!(plain.edge_machines(), inst.edge_machines(), "{kind}");
            let snap = m.snapshot();
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
            let sim = m.snapshot_sim();
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

//! Online rebalancing: acting on the straggler signals mid-run.
//!
//! PR 5's observability layer attributes every superstep's barrier wait to
//! the machine that gated it; this module closes the loop. Between two
//! supersteps the kernel hands the step's signals (per-machine busy time,
//! work counts, imbalance) to a [`RebalancePolicy`]; the policy may answer
//! with a batch of edge migrations, which the kernel applies through
//! [`DistributedGraph::migrate_edges`] and charges as simulated
//! communication time (bytes over the bottleneck NIC, plus one barrier).
//!
//! **Determinism contract.** A policy sees only simulated quantities —
//! busy seconds, work counts, the assignment, the graph — all of which are
//! thread-count invariant, and the kernel invokes it from the serial
//! between-superstep section. A deterministic policy therefore yields
//! byte-identical rebalanced [`crate::SimReport`]s at any host thread
//! count, the same contract the rest of the kernel honors.
//!
//! **Amortization rule** (the greedy policy): migration is worth it only
//! if the projected per-step barrier savings, summed over an assumed
//! horizon of future supersteps, exceed the one-time simulated migration
//! cost. Both sides are computed from the same models the kernel charges
//! with, so the policy cannot talk itself into a move the report will not
//! reward.

use hetgraph_cluster::{MachineSpec, NetworkModel, WorkCounts};
use hetgraph_core::MachineId;

use crate::distributed::DistributedGraph;

/// One superstep's rebalancing signals, borrowed from the kernel's serial
/// timing section. Everything here is simulated (thread-count invariant).
pub struct StepSignals<'s> {
    /// Superstep index (0-based).
    pub step: usize,
    /// Active vertices this superstep.
    pub active: usize,
    /// Per-machine busy seconds this superstep.
    pub busy_s: &'s [f64],
    /// Per-machine work counts this superstep.
    pub step_work: &'s [WorkCounts],
    /// The step's compute wall-clock (max busy — what the barrier waits
    /// for).
    pub step_compute_s: f64,
    /// The step's communication time.
    pub step_comm_s: f64,
}

impl StepSignals<'_> {
    /// Barrier imbalance: `max busy / mean busy` (1.0 = perfectly
    /// balanced; the same definition the trace gauges use).
    pub fn imbalance(&self) -> f64 {
        let mean = self.busy_s.iter().sum::<f64>() / self.busy_s.len() as f64;
        if mean > 0.0 {
            self.step_compute_s / mean
        } else {
            1.0
        }
    }

    /// The machine gating the barrier (lowest index on ties).
    pub fn straggler(&self) -> usize {
        self.busy_s
            .iter()
            .position(|&b| b == self.step_compute_s)
            .unwrap_or(0)
    }
}

/// A migration the kernel applied on a policy's plan, with its simulated
/// price.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEvent {
    /// Superstep after which the migration ran.
    pub step: usize,
    /// Edges actually moved.
    pub edges_moved: usize,
    /// Total migration payload in bytes.
    pub bytes: f64,
    /// Simulated wall-clock charged for the migration.
    pub cost_s: f64,
    /// Moved-edge counts per `(src, dst)` machine pair.
    pub moves_per_pair: Vec<(MachineId, MachineId, usize)>,
}

/// A mid-run placement policy: watches each superstep's signals and
/// proposes edge migrations.
pub trait RebalancePolicy {
    /// Short name for reports and traces (e.g. `"greedy"`).
    fn name(&self) -> &str;

    /// Called by the kernel between supersteps (serial section). Returns
    /// the edges to move as `(edge index, destination machine)` pairs;
    /// empty means leave the placement alone. Implementations must be
    /// deterministic functions of their own state and the arguments.
    fn plan(
        &mut self,
        signals: &StepSignals<'_>,
        dist: &DistributedGraph<'_>,
        machines: &[MachineSpec],
        network: &NetworkModel,
    ) -> Vec<(usize, u16)>;

    /// Called by the kernel after it applied a non-empty plan, with the
    /// realized migration and its charged cost.
    fn notify(&mut self, event: MigrationEvent) {
        let _ = event;
    }
}

/// The greedy straggler-relief policy.
///
/// Triggers when a superstep's imbalance crosses a threshold (and a
/// cooldown since the last migration has elapsed), then moves edges from
/// the straggler to the least-busy machine:
///
/// 1. **Batch size** comes from the measured per-edge cost rates: moving
///    `e` edges lowers the straggler by `e·r_s` and raises the recipient
///    by `e·r_t`, so `e = gap / (r_s + r_t)` closes the gap, capped by
///    `MAX_BATCH_EDGES`.
/// 2. **Candidates** are the straggler's edges bucketed by how cheap they
///    are to re-home: endpoints already replicated on the recipient first
///    (no new mirrors), then hub edges (endpoints above the degree
///    threshold — their vertices are replicated widely anyway), then the
///    rest; edge order within a bucket. Deterministic, no sorting.
/// 3. **Amortization**: the projected compute saving per step, times the
///    horizon, must exceed the simulated migration cost (the same
///    [`NetworkModel::migration_cost_s`] the kernel charges), else the
///    plan is dropped.
pub struct GreedyRebalance {
    min_imbalance: f64,
    cooldown_steps: usize,
    horizon_steps: usize,
    last_migration_step: Option<usize>,
    events: Vec<MigrationEvent>,
}

/// Largest batch one plan may move. Large enough to close a
/// whole-machine-sized gap in one batch on the headline fixtures; the
/// amortization rule, not this cap, is what keeps batches honest.
const MAX_BATCH_EDGES: usize = 1 << 22;

impl Default for GreedyRebalance {
    fn default() -> Self {
        GreedyRebalance {
            min_imbalance: 1.05,
            cooldown_steps: 2,
            horizon_steps: 6,
            last_migration_step: None,
            events: Vec::new(),
        }
    }
}

impl GreedyRebalance {
    /// Policy with the default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimum step imbalance (`max busy / mean busy`) that triggers
    /// planning.
    pub fn with_min_imbalance(mut self, min_imbalance: f64) -> Self {
        assert!(min_imbalance >= 1.0, "imbalance is >= 1 by definition");
        self.min_imbalance = min_imbalance;
        self
    }

    /// Minimum supersteps between migrations (lets the signals settle).
    pub fn with_cooldown(mut self, steps: usize) -> Self {
        self.cooldown_steps = steps;
        self
    }

    /// Supersteps of projected savings the migration cost must amortize
    /// over.
    pub fn with_horizon(mut self, steps: usize) -> Self {
        assert!(steps > 0, "horizon must be at least one step");
        self.horizon_steps = steps;
        self
    }

    /// Every migration the kernel applied on this policy's plans.
    pub fn events(&self) -> &[MigrationEvent] {
        &self.events
    }
}

impl RebalancePolicy for GreedyRebalance {
    fn name(&self) -> &str {
        "greedy"
    }

    fn plan(
        &mut self,
        signals: &StepSignals<'_>,
        dist: &DistributedGraph<'_>,
        machines: &[MachineSpec],
        network: &NetworkModel,
    ) -> Vec<(usize, u16)> {
        if signals.busy_s.len() < 2 || signals.imbalance() < self.min_imbalance {
            return Vec::new();
        }
        if let Some(last) = self.last_migration_step {
            if signals.step < last + self.cooldown_steps {
                return Vec::new();
            }
        }
        let straggler = signals.straggler();
        // Recipient: the least-busy machine (lowest index on ties).
        let recipient = signals
            .busy_s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("busy times are finite"))
            .map(|(i, _)| i)
            .unwrap_or(straggler);
        if recipient == straggler {
            return Vec::new();
        }

        // Measured per-assigned-edge cost on both machines, from this
        // step's busy time over the edges each machine currently owns
        // (not the step's edge-unit tally, which counts gather+scatter
        // visits and would size batches in the wrong currency). If the
        // straggler owns no edges or did no edge work, the signal is not
        // a placement problem — skip.
        let graph = dist.graph();
        let assignment = dist.assignment();
        let edges_s = assignment.edges_per_machine()[straggler] as f64;
        if edges_s <= 0.0 || signals.step_work[straggler].edge_units <= 0.0 {
            return Vec::new();
        }
        let c_s = signals.busy_s[straggler] / edges_s;
        let edges_t = assignment.edges_per_machine()[recipient] as f64;
        let c_t = if edges_t > 0.0 {
            signals.busy_s[recipient] / edges_t
        } else {
            // Idle recipient: assume edges cost it what they cost the
            // straggler per-edge (pessimistic for the plan, safe).
            c_s
        };
        // Moving e edges closes the gap by e·(c_s + c_t); this batch
        // equalizes the pair under the linear model.
        let gap = signals.busy_s[straggler] - signals.busy_s[recipient];
        let batch = ((gap / (c_s + c_t)) as usize)
            .min(MAX_BATCH_EDGES)
            .min(edges_s as usize);
        if batch == 0 {
            return Vec::new();
        }

        // Candidate selection: one pass over the edge list, six priority
        // buckets — (endpoints replicated on the recipient: 2, 1, 0) ×
        // (hub edge or not). Hub = max endpoint degree above 4× average.
        let hub_degree = (graph.avg_degree() * 4.0).max(8.0) as usize;
        let recipient_bit = 1u64 << recipient;
        let mut buckets: [Vec<usize>; 6] = Default::default();
        for (e, edge) in graph.edges().iter().enumerate() {
            if assignment.edge_machine(e).index() != straggler {
                continue;
            }
            let on_recipient = usize::from(assignment.replica_mask(edge.src) & recipient_bit != 0)
                + usize::from(assignment.replica_mask(edge.dst) & recipient_bit != 0);
            let hub = graph.degree(edge.src).max(graph.degree(edge.dst)) >= hub_degree;
            let bucket = (2 - on_recipient) * 2 + usize::from(!hub);
            buckets[bucket].push(e);
        }
        let mut plan: Vec<(usize, u16)> = Vec::with_capacity(batch);
        'fill: for bucket in &buckets {
            for &e in bucket {
                if plan.len() == batch {
                    break 'fill;
                }
                plan.push((e, recipient as u16));
            }
        }
        if plan.is_empty() {
            return Vec::new();
        }

        // Amortization: projected compute saving per step × horizon must
        // beat the one-time migration cost.
        let moved = plan.len() as f64;
        let projected_s = signals.busy_s[straggler] - moved * c_s;
        let projected_t = signals.busy_s[recipient] + moved * c_t;
        let projected_compute = signals
            .busy_s
            .iter()
            .enumerate()
            .map(|(i, &b)| match i {
                i if i == straggler => projected_s,
                i if i == recipient => projected_t,
                _ => b,
            })
            .fold(0.0f64, f64::max);
        let saving_per_step = signals.step_compute_s - projected_compute;
        let cost =
            network.migration_cost_s([(&machines[straggler], &machines[recipient], plan.len())]);
        if saving_per_step * self.horizon_steps as f64 <= cost {
            return Vec::new();
        }
        plan
    }

    fn notify(&mut self, event: MigrationEvent) {
        self.last_migration_step = Some(event.step);
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_cluster::{catalog, MIGRATION_BYTES_PER_EDGE};
    use hetgraph_core::{Edge, EdgeList, Graph};
    use hetgraph_partition::PartitionAssignment;

    fn signals<'s>(busy: &'s [f64], work: &'s [WorkCounts], step: usize) -> StepSignals<'s> {
        StepSignals {
            step,
            active: 100,
            busy_s: busy,
            step_work: work,
            step_compute_s: busy.iter().copied().fold(0.0, f64::max),
            step_comm_s: 0.0,
        }
    }

    fn work(edges: f64) -> WorkCounts {
        WorkCounts {
            edge_units: edges,
            vertex_units: 0.0,
        }
    }

    fn skewed_setup() -> (Graph, PartitionAssignment) {
        let g = Graph::from_edge_list(EdgeList::from_edges(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(0, 4),
            ],
        ));
        // Everything on machine 0; machine 1 idle.
        let a = PartitionAssignment::from_edge_machines(&g, 2, vec![0, 0, 0, 0], 1);
        (g, a)
    }

    #[test]
    fn imbalance_and_straggler_read_the_signals() {
        let busy = [1.0, 3.0];
        let w = [work(0.0), work(0.0)];
        let s = signals(&busy, &w, 0);
        assert!((s.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(s.straggler(), 1);
    }

    #[test]
    fn skewed_step_plans_moves_to_the_idle_machine() {
        let (g, a) = skewed_setup();
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let machines = vec![catalog::xeon_s(), catalog::xeon_l()];
        let mut p = GreedyRebalance::new();
        let busy = [2.0, 0.5];
        let w = [work(4.0), work(0.0)];
        let s = signals(&busy, &w, 0);
        let plan = p.plan(&s, &dist, &machines, &NetworkModel::default());
        assert!(!plan.is_empty(), "imbalanced step must produce a plan");
        for &(e, to) in &plan {
            assert_eq!(a.edge_machine(e).index(), 0, "moves come off the straggler");
            assert_eq!(to, 1, "moves land on the idle machine");
        }
    }

    #[test]
    fn balanced_step_produces_no_plan() {
        let (g, a) = skewed_setup();
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let machines = vec![catalog::xeon_s(), catalog::xeon_l()];
        let mut p = GreedyRebalance::new();
        let busy = [1.0, 1.0];
        let w = [work(2.0), work(2.0)];
        let s = signals(&busy, &w, 0);
        assert!(p
            .plan(&s, &dist, &machines, &NetworkModel::default())
            .is_empty());
    }

    #[test]
    fn cooldown_suppresses_back_to_back_plans() {
        let (g, a) = skewed_setup();
        let dist = DistributedGraph::new(&g, &a, 1).expect("assignment must cover the graph");
        let machines = vec![catalog::xeon_s(), catalog::xeon_l()];
        let mut p = GreedyRebalance::new().with_cooldown(5);
        p.notify(MigrationEvent {
            step: 3,
            edges_moved: 1,
            bytes: MIGRATION_BYTES_PER_EDGE,
            cost_s: 1e-3,
            moves_per_pair: vec![],
        });
        let busy = [2.0, 0.5];
        let w = [work(4.0), work(0.0)];
        let s = signals(&busy, &w, 4);
        assert!(
            p.plan(&s, &dist, &machines, &NetworkModel::default())
                .is_empty(),
            "step 4 is inside the cooldown window after a step-3 migration"
        );
        let s = signals(&busy, &w, 8);
        assert!(!p
            .plan(&s, &dist, &machines, &NetworkModel::default())
            .is_empty());
    }

    #[test]
    fn notify_tracks_cooldown_and_events() {
        let mut p = GreedyRebalance::new().with_cooldown(3);
        p.notify(MigrationEvent {
            step: 4,
            edges_moved: 10,
            bytes: 320.0,
            cost_s: 1e-3,
            moves_per_pair: vec![],
        });
        assert_eq!(p.events().len(), 1);
        assert_eq!(p.last_migration_step, Some(4));
    }
}

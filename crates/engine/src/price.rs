//! Pricing: turning one superstep's work counts into simulated time.
//!
//! [`PriceAcc`] is the **one** place where per-machine work becomes
//! seconds and joules: the performance model
//! ([`AppProfile::time_seconds`]), the barrier and mirror-sync cost
//! ([`NetworkModel::step_comm_s`]), energy, the per-step trace records and
//! events, and the kernel's aggregated metrics. Both ways of producing a
//! [`SimReport`] go through it, superstep by superstep, in the same order:
//!
//! - the superstep kernel ([`SimEngine::run`](crate::SimEngine::run))
//!   prices each step as it executes it;
//! - [`SimEngine::price`](crate::SimEngine::price) re-prices a recorded
//!   [`WorkTrace`] for any cluster of the same size, without re-running
//!   the program.
//!
//! The work a step does — edges scanned, vertices applied, mirrors
//! synchronized, attributed to machines — depends only on the program,
//! the graph and the placement, never on the machine specs. So a trace
//! recorded on one cluster and priced on another yields exactly the
//! report a run on the other cluster would: same inputs to the same
//! accumulators in the same order. A guard test in `sim.rs` fails if a
//! second copy of the pricing arithmetic appears anywhere in the engine.

use hetgraph_cluster::{
    AppProfile, EnergyModel, EnergyReport, GraphShape, MachineSpec, NetworkModel,
    PerturbationSchedule, WorkCounts, MIGRATION_BYTES_PER_EDGE,
};
use hetgraph_core::metrics::{Counter, Gauge, Histogram};
use hetgraph_core::obs::{Telemetry, TimeDomain, TraceEvent};
use hetgraph_core::MachineId;

use crate::rebalance::MigrationEvent;
use crate::report::{SimReport, StepRecord};

/// The per-superstep work of one kernel run, independent of any machine
/// spec: what [`SimEngine::trace`](crate::SimEngine::trace) records and
/// [`SimEngine::price`](crate::SimEngine::price) re-prices.
///
/// It holds one entry per superstep, so it grows with the run; plain
/// [`SimEngine::run`](crate::SimEngine::run) never builds one.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkTrace {
    pub(crate) app: String,
    pub(crate) profile: AppProfile,
    pub(crate) shape: GraphShape,
    pub(crate) converged: bool,
    /// Machines the recorded run was partitioned over; only a cluster of
    /// this size can price the trace.
    pub(crate) num_machines: usize,
    pub(crate) steps: Vec<StepWork>,
}

/// One superstep of a [`WorkTrace`]: exactly the inputs [`PriceAcc::step`]
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepWork {
    pub(crate) active: usize,
    pub(crate) step_work: Vec<WorkCounts>,
    pub(crate) gather_work: Vec<WorkCounts>,
    pub(crate) sync_counts: Vec<u64>,
}

/// One priced superstep, as the rebalance hook reads it.
#[derive(Clone, Copy)]
pub(crate) struct StepTiming {
    /// The straggler's busy seconds (max over machines).
    pub(crate) compute: f64,
    /// Communication + barrier seconds.
    pub(crate) comm: f64,
}

/// The pricing accumulator: every running total of a [`SimReport`], fed
/// one superstep at a time by [`PriceAcc::step`].
pub(crate) struct PriceAcc<'e> {
    machines: &'e [MachineSpec],
    network: &'e NetworkModel,
    perturbations: Option<&'e PerturbationSchedule>,
    telemetry: &'e Telemetry,
    tracing: bool,
    /// Aggregated telemetry: `None` with metering off, so the
    /// per-superstep cost mirrors the event log's single branch.
    metrics: Option<KernelMetrics>,
    profile: AppProfile,
    shape: GraphShape,
    energy_model: EnergyModel,
    energy: EnergyReport,
    per_machine_busy: Vec<f64>,
    total_work: Vec<WorkCounts>,
    /// This step's per-machine busy seconds; reused across steps.
    busy: Vec<f64>,
    makespan: f64,
    compute_total: f64,
    comm_total: f64,
    supersteps: usize,
    steps: Vec<StepRecord>,
}

impl<'e> PriceAcc<'e> {
    /// An empty accumulator pricing `profile` on a graph of `shape` over
    /// `machines`.
    pub(crate) fn new(
        machines: &'e [MachineSpec],
        network: &'e NetworkModel,
        perturbations: Option<&'e PerturbationSchedule>,
        telemetry: &'e Telemetry,
        profile: AppProfile,
        shape: GraphShape,
    ) -> Self {
        let p = machines.len();
        PriceAcc {
            machines,
            network,
            perturbations,
            telemetry,
            tracing: telemetry.tracing(),
            metrics: KernelMetrics::new(telemetry, p),
            profile,
            shape,
            energy_model: EnergyModel::new(machines.to_vec()),
            energy: EnergyReport::new(p),
            per_machine_busy: vec![0.0f64; p],
            total_work: vec![WorkCounts::zero(); p],
            busy: vec![0.0f64; p],
            makespan: 0.0,
            compute_total: 0.0,
            comm_total: 0.0,
            supersteps: 0,
            steps: Vec::new(),
        }
    }

    /// Price superstep `step`: per-machine busy time through the
    /// performance model, the communication barrier, energy, and — when
    /// the telemetry handle asks for them — the step's trace record,
    /// events and metrics. A perturbation schedule may override machine
    /// specs for this superstep (mid-run slowdown/recovery); with none
    /// active the base slice is used as-is.
    ///
    /// `gather_work` is read only when tracing (it splits busy time into
    /// per-phase spans).
    pub(crate) fn step(
        &mut self,
        step: usize,
        active: usize,
        step_work: &[WorkCounts],
        gather_work: &[WorkCounts],
        sync_counts: &[u64],
    ) -> StepTiming {
        let p = self.machines.len();
        let perturbed = self
            .perturbations
            .and_then(|s| s.specs_at(step, self.machines));
        let step_machines: &[MachineSpec] = perturbed.as_deref().unwrap_or(self.machines);
        self.busy.clear();
        self.busy.extend((0..p).map(|i| {
            self.profile
                .time_seconds(&step_machines[i], &step_work[i], &self.shape)
        }));
        let step_compute = self.busy.iter().copied().fold(0.0f64, f64::max);
        let step_comm = self.network.step_comm_s(step_machines, sync_counts);
        let step_wall = step_compute + step_comm;
        for (i, &work) in step_work.iter().enumerate() {
            self.energy_model
                .account_step(&mut self.energy, i, self.busy[i], step_wall);
            self.per_machine_busy[i] += self.busy[i];
            self.total_work[i].add(work);
        }
        if self.tracing {
            self.emit_step_trace(&EmitStep {
                machines: step_machines,
                step_work,
                gather_work,
                step_start_s: self.makespan,
                step_compute,
                step_comm,
                active,
            });
            self.steps.push(StepRecord {
                step,
                active,
                busy_s: self.busy.clone(),
                comm_s: step_comm,
                wall_s: step_wall,
            });
        }
        if let Some(km) = &self.metrics {
            km.observe_step(active, &self.busy, step_compute, step_comm);
        }
        self.makespan += step_wall;
        self.compute_total += step_compute;
        self.comm_total += step_comm;
        self.supersteps += 1;
        StepTiming {
            compute: step_compute,
            comm: step_comm,
        }
    }

    /// Account one rebalance consultation after superstep `step`: count
    /// it (and the batch, when the policy `fired`), then price the moves
    /// actually applied — `(from, to, edges)` per machine pair — through
    /// [`NetworkModel::migration_cost_s`], record the migration spans,
    /// counters and metrics, and charge the cost to the makespan and
    /// communication totals. The cost folds into the last step's record,
    /// so Σ step wall == makespan and makespan == compute + comm both
    /// hold. Returns the priced batch, or `None` when nothing moved.
    pub(crate) fn charge_migration(
        &mut self,
        step: usize,
        fired: bool,
        pairs: Vec<(MachineId, MachineId, usize)>,
    ) -> Option<MigrationEvent> {
        if let Some(km) = &self.metrics {
            km.rebalance_plans.inc();
            if fired {
                km.rebalance_batches.inc();
            }
        }
        if pairs.is_empty() {
            return None;
        }
        let machines = self.machines;
        let edges_moved: usize = pairs.iter().map(|&(_, _, n)| n).sum();
        let bytes = edges_moved as f64 * MIGRATION_BYTES_PER_EDGE;
        let cost_s = self.network.migration_cost_s(
            pairs
                .iter()
                .map(|&(f, t, n)| (&machines[f.index()], &machines[t.index()], n)),
        );
        if let Some(km) = &self.metrics {
            km.migrated_edges.add(edges_moved as u64);
            km.migration_bytes.add(bytes as u64);
            km.batch_edges.observe(edges_moved as f64);
            km.migration_cost.observe(cost_s);
        }
        if self.tracing {
            let (p, at) = (machines.len() as u32, self.makespan);
            for &(f, t, _) in &pairs {
                for lane in [f.0, t.0] {
                    let span =
                        TraceEvent::sim_span("migration", "rebalance", lane as u32, at, cost_s);
                    self.telemetry.record(span);
                }
            }
            let edges = edges_moved as f64;
            self.telemetry
                .record(TraceEvent::sim_counter("migrated_edges", p, at, edges));
            self.telemetry
                .record(TraceEvent::sim_counter("migration_bytes", p, at, bytes));
        }
        if let Some(last) = self.steps.last_mut() {
            last.comm_s += cost_s;
            last.wall_s += cost_s;
        }
        self.makespan += cost_s;
        self.comm_total += cost_s;
        Some(MigrationEvent {
            step,
            edges_moved,
            bytes,
            cost_s,
            moves_per_pair: pairs,
        })
    }

    /// The last priced step's per-machine busy seconds.
    pub(crate) fn busy(&self) -> &[f64] {
        &self.busy
    }

    /// The finished report.
    pub(crate) fn finish(self, app: String, converged: bool) -> SimReport {
        SimReport {
            app,
            supersteps: self.supersteps,
            converged,
            makespan_s: self.makespan,
            compute_s: self.compute_total,
            comm_s: self.comm_total,
            per_machine_busy_s: self.per_machine_busy,
            per_machine_work: self.total_work,
            energy: self.energy,
            steps: self.steps,
        }
    }

    /// Emit one superstep's simulated-time trace: per-machine
    /// gather/apply/scatter spans, per-machine `barrier_wait` slack, the
    /// cluster-wide communication barrier, and the step counters.
    ///
    /// Called only from serial sections, so event order is deterministic
    /// and independent of the host thread count. Machine `i` records on
    /// track `i`; cluster-wide events use track `P`.
    ///
    /// The per-phase spans split `busy[i]` by re-costing each phase's work
    /// through the same performance model and normalizing so the three
    /// spans sum exactly to `busy[i]` (the model is not additive across
    /// phases — skew relief sees the whole step — so the split is
    /// proportional attribution, not three independent model evaluations).
    fn emit_step_trace(&self, s: &EmitStep<'_>) {
        let p = self.busy.len();
        for i in 0..p {
            let gw = s.gather_work[i];
            let scatter_edges = s.step_work[i].edge_units - gw.edge_units;
            let phase_costs = [
                (
                    "gather",
                    WorkCounts {
                        edge_units: gw.edge_units,
                        vertex_units: 0.0,
                    },
                ),
                (
                    "apply",
                    WorkCounts {
                        edge_units: 0.0,
                        vertex_units: gw.vertex_units,
                    },
                ),
                (
                    "scatter",
                    WorkCounts {
                        edge_units: scatter_edges,
                        vertex_units: 0.0,
                    },
                ),
            ]
            .map(|(name, w)| {
                (
                    name,
                    self.profile.time_seconds(&s.machines[i], &w, &self.shape),
                )
            });
            let total: f64 = phase_costs.iter().map(|(_, t)| t).sum();
            if total > 0.0 && self.busy[i] > 0.0 {
                let scale = self.busy[i] / total;
                let mut cursor = s.step_start_s;
                for (name, t) in phase_costs {
                    let dur = t * scale;
                    if dur > 0.0 {
                        self.telemetry.record(TraceEvent::sim_span(
                            name,
                            "superstep",
                            i as u32,
                            cursor,
                            dur,
                        ));
                    }
                    cursor += dur;
                }
            }
            // Barrier-wait attribution: how long machine i idles at the
            // superstep barrier waiting for the straggler.
            let slack = s.step_compute - self.busy[i];
            if slack > 0.0 {
                self.telemetry.record(TraceEvent::sim_span(
                    "barrier_wait",
                    "superstep",
                    i as u32,
                    s.step_start_s + self.busy[i],
                    slack,
                ));
            }
        }
        if s.step_comm > 0.0 {
            self.telemetry.record(TraceEvent::sim_span(
                "comm_barrier",
                "superstep",
                p as u32,
                s.step_start_s + s.step_compute,
                s.step_comm,
            ));
        }
        self.telemetry.record(TraceEvent::sim_counter(
            "active_vertices",
            p as u32,
            s.step_start_s,
            s.active as f64,
        ));
        let mean_busy = self.busy.iter().sum::<f64>() / p as f64;
        let imbalance = if mean_busy > 0.0 {
            s.step_compute / mean_busy
        } else {
            1.0
        };
        self.telemetry.record(TraceEvent::sim_gauge(
            "imbalance",
            p as u32,
            s.step_start_s,
            imbalance,
        ));
        // The straggler is the machine that gates the barrier: the (lowest
        // on ties) index whose busy time equals the step maximum.
        let straggler = self
            .busy
            .iter()
            .position(|&b| b == s.step_compute)
            .unwrap_or(0);
        self.telemetry.record(TraceEvent::sim_gauge(
            "straggler_machine",
            p as u32,
            s.step_start_s,
            straggler as f64,
        ));
    }
}

/// Inputs to [`PriceAcc::emit_step_trace`] beyond the accumulator's own
/// state: one superstep's timing, borrowed from [`PriceAcc::step`].
struct EmitStep<'s> {
    /// This step's (possibly perturbed) machine specs.
    machines: &'s [MachineSpec],
    /// Total per-machine work for the superstep (gather + scatter).
    step_work: &'s [WorkCounts],
    /// Per-machine work snapshotted after the gather merge, before
    /// scatter — the gather/apply share of `step_work`.
    gather_work: &'s [WorkCounts],
    step_start_s: f64,
    step_compute: f64,
    step_comm: f64,
    active: usize,
}

/// Handles for the kernel's aggregated telemetry, registered once per run
/// when the engine's [`Telemetry`] is metering. Everything here is
/// sim-domain: observed only from the kernel's serial sections, from
/// deterministic simulated quantities, so sim snapshots are byte-identical
/// at any host thread count.
struct KernelMetrics {
    supersteps: Counter,
    active_vertices: Counter,
    makespan: Histogram,
    comm: Histogram,
    /// Per-machine busy-time histograms, indexed by machine.
    busy: Vec<Histogram>,
    /// Per-machine barrier-wait (slack) histograms, indexed by machine.
    barrier_wait: Vec<Histogram>,
    imbalance: Gauge,
    straggler: Gauge,
    rebalance_plans: Counter,
    rebalance_batches: Counter,
    migrated_edges: Counter,
    migration_bytes: Counter,
    batch_edges: Histogram,
    migration_cost: Histogram,
}

impl KernelMetrics {
    /// Register the kernel's metrics; `None` when metering is off, so
    /// the hot loop pays exactly one `Option` check per superstep.
    fn new(metrics: &Telemetry, p: usize) -> Option<Self> {
        if !metrics.metering() {
            return None;
        }
        let sim = TimeDomain::Sim;
        Some(KernelMetrics {
            supersteps: metrics.counter("engine/supersteps_total", sim),
            active_vertices: metrics.counter("engine/active_vertices_total", sim),
            makespan: metrics.histogram("engine/superstep_makespan_s", sim),
            comm: metrics.histogram("engine/superstep_comm_s", sim),
            busy: (0..p)
                .map(|i| metrics.histogram(&format!("engine/machine/{i}/busy_s"), sim))
                .collect(),
            barrier_wait: (0..p)
                .map(|i| metrics.histogram(&format!("engine/machine/{i}/barrier_wait_s"), sim))
                .collect(),
            imbalance: metrics.gauge("engine/imbalance/last", sim),
            straggler: metrics.gauge("engine/straggler_machine/last", sim),
            rebalance_plans: metrics.counter("engine/rebalance/plans_total", sim),
            rebalance_batches: metrics.counter("engine/rebalance/batches_total", sim),
            migrated_edges: metrics.counter("engine/rebalance/migrated_edges_total", sim),
            migration_bytes: metrics.counter("engine/rebalance/migration_bytes_total", sim),
            batch_edges: metrics.histogram("engine/rebalance/batch_edges", sim),
            migration_cost: metrics.histogram("engine/rebalance/migration_cost_s", sim),
        })
    }

    /// Fold one superstep's timing into the aggregates. Gauges use the
    /// same formulas as [`PriceAcc::emit_step_trace`] (and
    /// [`crate::report::StepRecord::straggler`]), so trace, report, and
    /// metrics views of a run agree exactly.
    fn observe_step(&self, active: usize, busy: &[f64], step_compute: f64, step_comm: f64) {
        self.supersteps.inc();
        self.active_vertices.add(active as u64);
        self.makespan.observe(step_compute + step_comm);
        self.comm.observe(step_comm);
        for (i, &b) in busy.iter().enumerate() {
            self.busy[i].observe(b);
            self.barrier_wait[i].observe(step_compute - b);
        }
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        self.imbalance.set(if mean_busy > 0.0 {
            step_compute / mean_busy
        } else {
            1.0
        });
        let straggler = busy.iter().position(|&b| b == step_compute).unwrap_or(0);
        self.straggler.set(straggler as f64);
    }
}

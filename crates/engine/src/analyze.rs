//! Offline straggler-attribution analytics over exported run artifacts.
//!
//! [`TraceAnalysis`] ingests the JSON-lines trace that `obs::to_jsonl`
//! writes (the `simulate --trace-out run.jsonl` artifact) and rebuilds the
//! simulated run from its sim-domain events alone: superstep windows from
//! the `active_vertices` counters, per-machine phase time from the
//! `gather`/`apply`/`scatter` spans, barrier slack from the
//! `barrier_wait` spans, and the migration timeline from the rebalance
//! counters. The point is that "why was machine 3 the bottleneck" gets
//! answered from artifacts on disk — no re-run, no eyeballing Chrome
//! traces.
//!
//! The reconstruction is *exact* where it matters: the per-step straggler
//! comes from the `straggler_machine` gauge, which the kernel computes
//! with the same rule as [`crate::report::StepRecord::straggler`]
//! (lowest-index machine whose busy time equals the step maximum), so
//! [`TraceAnalysis::straggler_histogram`] reproduces
//! [`crate::report::SimReport::straggler_histogram`] exactly. Phase spans
//! are proportional attributions (they sum to each machine's busy time),
//! so the phase breakdown is faithful to the trace, while barrier-wait
//! durations are the kernel's exact slack values.

use std::collections::BTreeMap;

use hetgraph_core::metrics::MetricsSnapshot;
use hetgraph_partition::MAX_MACHINES;

/// One reconstructed superstep.
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Superstep index (position in the trace).
    pub step: usize,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Active vertices entering the step.
    pub active: u64,
    /// `max busy / mean busy` (the kernel's imbalance gauge).
    pub imbalance: f64,
    /// Straggler machine (lowest index whose busy equals the max).
    pub straggler: usize,
    /// Per-machine busy seconds (sum of the machine's phase spans).
    pub busy_s: Vec<f64>,
    /// Per-machine barrier slack seconds (exact kernel values).
    pub barrier_wait_s: Vec<f64>,
    /// Communication barrier seconds.
    pub comm_s: f64,
}

impl StepSummary {
    /// Machine-seconds idled at this step's barrier, summed over
    /// machines — the ranking key for "worst straggler superstep".
    pub fn barrier_waste_s(&self) -> f64 {
        self.barrier_wait_s.iter().sum()
    }
}

/// One machine's totals across the run.
#[derive(Debug, Clone, Default)]
pub struct MachineSummary {
    /// Total busy seconds.
    pub busy_s: f64,
    /// Gather-phase seconds (proportional attribution).
    pub gather_s: f64,
    /// Apply-phase seconds.
    pub apply_s: f64,
    /// Scatter-phase seconds.
    pub scatter_s: f64,
    /// Total barrier-wait seconds (exact).
    pub barrier_wait_s: f64,
    /// Supersteps this machine gated the barrier.
    pub straggler_steps: u64,
}

/// One applied migration batch, with the imbalance it was reacting to
/// and the imbalance of the following step (its observed effect).
#[derive(Debug, Clone)]
pub struct MigrationSummary {
    /// Superstep after which the batch was applied.
    pub step: usize,
    /// Simulated time of the migration barrier, seconds.
    pub at_s: f64,
    /// Edges migrated.
    pub edges: u64,
    /// Payload bytes.
    pub bytes: f64,
    /// Charged migration cost, seconds.
    pub cost_s: f64,
    /// Imbalance gauge of the step that triggered the batch.
    pub imbalance_before: f64,
    /// Imbalance gauge of the next step (`None` when the run ended).
    pub imbalance_after: Option<f64>,
}

/// Critical-path phase totals: per step, the straggler machine's phase
/// spans plus the cluster-wide communication barrier.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Gather seconds on the per-step straggler.
    pub gather_s: f64,
    /// Apply seconds on the per-step straggler.
    pub apply_s: f64,
    /// Scatter seconds on the per-step straggler.
    pub scatter_s: f64,
    /// Communication barrier seconds.
    pub comm_s: f64,
    /// Migration barrier seconds.
    pub migration_s: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases — the reconstructed critical path length.
    pub fn total_s(&self) -> f64 {
        self.gather_s + self.apply_s + self.scatter_s + self.comm_s + self.migration_s
    }
}

/// A run reconstructed from its sim-domain trace events.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Machine count (the track cluster-wide events use).
    pub machines: usize,
    /// Reconstructed supersteps, in order.
    pub steps: Vec<StepSummary>,
    /// Per-machine totals, indexed by machine.
    pub per_machine: Vec<MachineSummary>,
    /// Applied migration batches, in order.
    pub migrations: Vec<MigrationSummary>,
    /// Critical-path phase totals.
    pub critical_path: PhaseBreakdown,
}

/// Minimal decoded trace event (only what the analyzer consumes).
struct Event {
    name: String,
    kind: String,
    track: usize,
    ts_s: f64,
    dur_s: f64,
    value: f64,
}

fn parse_events(jsonl: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
        let field_str = |key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(serde::Value::as_str)
                .ok_or_else(|| format!("trace line {}: missing {key:?}", lineno + 1))?
                .to_string())
        };
        let field_f64 = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("trace line {}: missing {key:?}", lineno + 1))
        };
        // Wall-domain events describe the host, not the simulated
        // cluster; the analyzer reads only the sim timeline.
        if field_str("domain")? != "Sim" {
            continue;
        }
        events.push(Event {
            name: field_str("name")?,
            kind: field_str("kind")?,
            track: field_f64("track")? as usize,
            ts_s: field_f64("ts_us")? / 1e6,
            dur_s: field_f64("dur_us")? / 1e6,
            value: field_f64("value")?,
        });
    }
    Ok(events)
}

impl TraceAnalysis {
    /// Reconstruct a run from `obs::to_jsonl` output. Fails on malformed
    /// JSON, a trace with no supersteps (no `active_vertices` samples —
    /// e.g. a Chrome-format file passed by mistake), or a machine count
    /// (the `active_vertices` track) outside `1..=MAX_MACHINES`.
    pub fn from_jsonl(jsonl: &str) -> Result<TraceAnalysis, String> {
        let events = parse_events(jsonl)?;

        // Superstep windows: one `active_vertices` counter marks each
        // step's start; cluster-wide events carry the machine count as
        // their track.
        let starts: Vec<(f64, u64)> = events
            .iter()
            .filter(|e| e.kind == "Counter" && e.name == "active_vertices")
            .map(|e| (e.ts_s, e.value as u64))
            .collect();
        if starts.is_empty() {
            return Err(
                "trace has no sim-domain active_vertices samples (not a superstep trace \
                 in JSONL format?)"
                    .to_string(),
            );
        }
        let machines = events
            .iter()
            .find(|e| e.kind == "Counter" && e.name == "active_vertices")
            .map(|e| e.track)
            .unwrap();
        if !(1..=MAX_MACHINES).contains(&machines) {
            return Err(format!(
                "trace names {machines} machines (the active_vertices track); \
                 expected 1..={MAX_MACHINES}"
            ));
        }
        // Index of the step whose window contains ts: last start <= ts.
        // (Migration events land between a step's end and the next
        // step's start, so they attribute to the step that planned them.)
        let step_of =
            |ts: f64| -> usize { starts.partition_point(|&(s, _)| s <= ts).saturating_sub(1) };

        let mut steps: Vec<StepSummary> = starts
            .iter()
            .enumerate()
            .map(|(i, &(start_s, active))| StepSummary {
                step: i,
                start_s,
                active,
                imbalance: 1.0,
                straggler: 0,
                busy_s: vec![0.0; machines],
                barrier_wait_s: vec![0.0; machines],
                comm_s: 0.0,
            })
            .collect();
        let mut per_machine = vec![MachineSummary::default(); machines];
        // (step, machine) -> straggler phase seconds, filled after the
        // gauges identify each step's straggler.
        let mut phase_by_step: Vec<BTreeMap<&str, f64>> =
            vec![BTreeMap::new(); steps.len() * machines];
        let mut comm_by_step = vec![0.0f64; steps.len()];
        let mut migration_cost_by_step = vec![0.0f64; steps.len()];
        let mut migration_edges: Vec<(usize, f64, u64)> = Vec::new();
        let mut migration_bytes: BTreeMap<usize, f64> = BTreeMap::new();

        for e in &events {
            let step = step_of(e.ts_s);
            match (e.kind.as_str(), e.name.as_str()) {
                ("Span", "gather") | ("Span", "apply") | ("Span", "scatter")
                    if e.track < machines =>
                {
                    let m = &mut per_machine[e.track];
                    match e.name.as_str() {
                        "gather" => m.gather_s += e.dur_s,
                        "apply" => m.apply_s += e.dur_s,
                        _ => m.scatter_s += e.dur_s,
                    }
                    m.busy_s += e.dur_s;
                    steps[step].busy_s[e.track] += e.dur_s;
                    *phase_by_step[step * machines + e.track]
                        .entry(match e.name.as_str() {
                            "gather" => "gather",
                            "apply" => "apply",
                            _ => "scatter",
                        })
                        .or_insert(0.0) += e.dur_s;
                }
                ("Span", "barrier_wait") if e.track < machines => {
                    per_machine[e.track].barrier_wait_s += e.dur_s;
                    steps[step].barrier_wait_s[e.track] += e.dur_s;
                }
                ("Span", "comm_barrier") => comm_by_step[step] += e.dur_s,
                ("Span", "migration") => {
                    // One span per involved lane, all with the batch's
                    // cost; keep the max so the batch is counted once.
                    migration_cost_by_step[step] = migration_cost_by_step[step].max(e.dur_s);
                }
                ("Gauge", "imbalance") => steps[step].imbalance = e.value,
                ("Gauge", "straggler_machine") => steps[step].straggler = e.value as usize,
                ("Counter", "migrated_edges") => {
                    migration_edges.push((step, e.ts_s, e.value as u64));
                }
                ("Counter", "migration_bytes") => {
                    *migration_bytes.entry(step).or_insert(0.0) += e.value;
                }
                _ => {}
            }
        }

        for s in &mut steps {
            s.comm_s = comm_by_step[s.step];
            per_machine[s.straggler.min(machines - 1)].straggler_steps += 1;
        }

        let mut critical_path = PhaseBreakdown::default();
        for s in &steps {
            let phases = &phase_by_step[s.step * machines + s.straggler.min(machines - 1)];
            critical_path.gather_s += phases.get("gather").copied().unwrap_or(0.0);
            critical_path.apply_s += phases.get("apply").copied().unwrap_or(0.0);
            critical_path.scatter_s += phases.get("scatter").copied().unwrap_or(0.0);
            critical_path.comm_s += s.comm_s;
            critical_path.migration_s += migration_cost_by_step[s.step];
        }

        let migrations = migration_edges
            .into_iter()
            .map(|(step, at_s, edges)| MigrationSummary {
                step,
                at_s,
                edges,
                bytes: migration_bytes.get(&step).copied().unwrap_or(0.0),
                cost_s: migration_cost_by_step[step],
                imbalance_before: steps[step].imbalance,
                imbalance_after: steps.get(step + 1).map(|s| s.imbalance),
            })
            .collect();

        Ok(TraceAnalysis {
            machines,
            steps,
            per_machine,
            migrations,
            critical_path,
        })
    }

    /// How many supersteps each machine gated the barrier. Derived from
    /// the kernel's `straggler_machine` gauge, whose rule is identical to
    /// [`crate::report::StepRecord::straggler`], so this reproduces
    /// [`crate::report::SimReport::straggler_histogram`] exactly.
    pub fn straggler_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.machines];
        for s in &self.steps {
            if s.straggler < hist.len() {
                hist[s.straggler] += 1;
            }
        }
        hist
    }

    /// Indices of the `k` supersteps that wasted the most machine-seconds
    /// at the barrier, worst first (ties broken by step order).
    pub fn top_straggler_steps(&self, k: usize) -> Vec<&StepSummary> {
        let mut ranked: Vec<&StepSummary> = self.steps.iter().collect();
        ranked.sort_by(|a, b| {
            b.barrier_waste_s()
                .partial_cmp(&a.barrier_waste_s())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.step.cmp(&b.step))
        });
        ranked.truncate(k);
        ranked
    }

    /// Reconstructed simulated makespan (end of the last step's window).
    pub fn makespan_s(&self) -> f64 {
        self.steps
            .last()
            .map(|s| {
                let compute = s.busy_s.iter().copied().fold(0.0f64, f64::max);
                s.start_s + compute + s.comm_s
            })
            .unwrap_or(0.0)
    }

    /// Render the human-readable report: per-machine barrier-wait table,
    /// top-`k` straggler supersteps, critical-path phase breakdown, and
    /// the migration-effectiveness timeline, followed by a summary of the
    /// optional metrics snapshot.
    pub fn render(&self, top_k: usize, metrics: Option<&MetricsSnapshot>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run: {} supersteps on {} machines, sim makespan {:.6} s\n",
            self.steps.len(),
            self.machines,
            self.makespan_s(),
        ));

        out.push_str("\nper-machine barrier wait\n");
        out.push_str(
            "  machine      busy_s    gather_s     apply_s   scatter_s  barrier_wait_s  straggler_steps\n",
        );
        for (i, m) in self.per_machine.iter().enumerate() {
            out.push_str(&format!(
                "  m{:<7} {:>10.6}  {:>10.6}  {:>10.6}  {:>10.6}  {:>14.6}  {:>15}\n",
                i,
                m.busy_s,
                m.gather_s,
                m.apply_s,
                m.scatter_s,
                m.barrier_wait_s,
                m.straggler_steps,
            ));
        }

        out.push_str(&format!(
            "\ntop {} straggler supersteps (by machine-seconds idled at the barrier)\n",
            top_k.min(self.steps.len())
        ));
        for s in self.top_straggler_steps(top_k) {
            out.push_str(&format!(
                "  step {:>4}: straggler m{}, imbalance {:.4}, active {}, barrier waste {:.6} s\n",
                s.step,
                s.straggler,
                s.imbalance,
                s.active,
                s.barrier_waste_s(),
            ));
        }

        let cp = &self.critical_path;
        let total = cp.total_s();
        let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
        out.push_str(&format!(
            "\ncritical path (straggler machine per step): {total:.6} s\n  gather {:.1}%  \
             apply {:.1}%  scatter {:.1}%  comm {:.1}%  migration {:.1}%\n",
            pct(cp.gather_s),
            pct(cp.apply_s),
            pct(cp.scatter_s),
            pct(cp.comm_s),
            pct(cp.migration_s),
        ));

        out.push_str("\nmigration timeline\n");
        if self.migrations.is_empty() {
            out.push_str("  (no migrations recorded)\n");
        } else {
            for m in &self.migrations {
                let after = m
                    .imbalance_after
                    .map(|x| format!("{x:.4}"))
                    .unwrap_or_else(|| "end".to_string());
                out.push_str(&format!(
                    "  t={:.6} s (after step {}): {} edges, {:.0} bytes, cost {:.6} s, \
                     imbalance {:.4} -> {}\n",
                    m.at_s, m.step, m.edges, m.bytes, m.cost_s, m.imbalance_before, after,
                ));
            }
        }

        if let Some(snap) = metrics {
            out.push_str("\nmetrics snapshot\n");
            for c in &snap.counters {
                out.push_str(&format!("  {} = {}\n", c.name, c.value));
            }
            for g in &snap.gauges {
                out.push_str(&format!("  {} = {:.6}\n", g.name, g.value));
            }
            for h in &snap.histograms {
                let stats = match (h.mean(), h.quantile(0.5), h.quantile(0.99)) {
                    (Some(mean), Some(p50), Some(p99)) => {
                        format!("mean ~{mean:.6}, p50 <= {p50:.6}, p99 <= {p99:.6}")
                    }
                    _ => "empty".to_string(),
                };
                out.push_str(&format!("  {} : count {}, {stats}\n", h.name, h.count()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph_core::obs::{to_jsonl, TraceEvent};

    fn synthetic_trace() -> String {
        // Two machines, two supersteps; machine 1 is the straggler of
        // step 0, machine 0 of step 1; one migration between them.
        let mut events = vec![
            // step 0 at t=0: busy = [1.0, 2.0]
            TraceEvent::sim_counter("active_vertices", 2, 0.0, 100.0),
            TraceEvent::sim_gauge("imbalance", 2, 0.0, 2.0 / 1.5),
            TraceEvent::sim_gauge("straggler_machine", 2, 0.0, 1.0),
            TraceEvent::sim_span("gather", "superstep", 0, 0.0, 0.75),
            TraceEvent::sim_span("scatter", "superstep", 0, 0.75, 0.25),
            TraceEvent::sim_span("gather", "superstep", 1, 0.0, 1.5),
            TraceEvent::sim_span("apply", "superstep", 1, 1.5, 0.5),
            TraceEvent::sim_span("barrier_wait", "superstep", 0, 1.0, 1.0),
            TraceEvent::sim_span("comm_barrier", "superstep", 2, 2.0, 0.5),
        ];
        // Migration after step 0: t = 2.5, cost 0.25.
        events.push(TraceEvent::sim_span("migration", "rebalance", 0, 2.5, 0.25));
        events.push(TraceEvent::sim_span("migration", "rebalance", 1, 2.5, 0.25));
        events.push(TraceEvent::sim_counter("migrated_edges", 2, 2.5, 640.0));
        events.push(TraceEvent::sim_counter("migration_bytes", 2, 2.5, 1024.0));
        // step 1 at t=2.75: busy = [2.0, 1.0]
        events.extend([
            TraceEvent::sim_counter("active_vertices", 2, 2.75, 40.0),
            TraceEvent::sim_gauge("imbalance", 2, 2.75, 2.0 / 1.5),
            TraceEvent::sim_gauge("straggler_machine", 2, 2.75, 0.0),
            TraceEvent::sim_span("gather", "superstep", 0, 2.75, 2.0),
            TraceEvent::sim_span("gather", "superstep", 1, 2.75, 1.0),
            TraceEvent::sim_span("barrier_wait", "superstep", 1, 3.75, 1.0),
        ]);
        // A wall-domain event the analyzer must ignore.
        events.push(TraceEvent::wall_span("gather_merge", "host", 0, 10.0, 5.0));
        to_jsonl(&events)
    }

    #[test]
    fn reconstructs_steps_machines_and_stragglers() {
        let a = TraceAnalysis::from_jsonl(&synthetic_trace()).unwrap();
        assert_eq!(a.machines, 2);
        assert_eq!(a.steps.len(), 2);
        assert_eq!(a.straggler_histogram(), vec![1, 1]);
        assert_eq!(a.steps[0].active, 100);
        assert_eq!(a.steps[0].straggler, 1);
        assert_eq!(a.steps[1].straggler, 0);
        assert!((a.steps[0].busy_s[0] - 1.0).abs() < 1e-9);
        assert!((a.steps[0].busy_s[1] - 2.0).abs() < 1e-9);
        assert!((a.per_machine[0].barrier_wait_s - 1.0).abs() < 1e-9);
        assert!((a.per_machine[1].barrier_wait_s - 1.0).abs() < 1e-9);
        assert_eq!(a.per_machine[0].straggler_steps, 1);
        assert_eq!(a.per_machine[1].straggler_steps, 1);
        // makespan: step 1 starts at 2.75, compute 2.0, no comm.
        assert!((a.makespan_s() - 4.75).abs() < 1e-9);
    }

    #[test]
    fn critical_path_follows_the_straggler() {
        let a = TraceAnalysis::from_jsonl(&synthetic_trace()).unwrap();
        let cp = &a.critical_path;
        // Step 0 straggler is m1 (gather 1.5, apply 0.5); step 1
        // straggler is m0 (gather 2.0). Comm 0.5, migration 0.25.
        assert!((cp.gather_s - 3.5).abs() < 1e-9);
        assert!((cp.apply_s - 0.5).abs() < 1e-9);
        assert!((cp.scatter_s - 0.0).abs() < 1e-9);
        assert!((cp.comm_s - 0.5).abs() < 1e-9);
        assert!((cp.migration_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn migration_timeline_links_imbalance_before_and_after() {
        let a = TraceAnalysis::from_jsonl(&synthetic_trace()).unwrap();
        assert_eq!(a.migrations.len(), 1);
        let m = &a.migrations[0];
        assert_eq!(m.step, 0);
        assert_eq!(m.edges, 640);
        assert!((m.bytes - 1024.0).abs() < 1e-9);
        assert!((m.cost_s - 0.25).abs() < 1e-9);
        assert!(m.imbalance_after.is_some());
    }

    #[test]
    fn top_steps_rank_by_barrier_waste() {
        let a = TraceAnalysis::from_jsonl(&synthetic_trace()).unwrap();
        let top = a.top_straggler_steps(1);
        assert_eq!(top.len(), 1);
        // Both steps waste 1.0 machine-seconds; the tie goes to step 0.
        assert_eq!(top[0].step, 0);
        // Rendering mentions every section and never panics.
        let text = a.render(5, None);
        assert!(text.contains("per-machine barrier wait"));
        assert!(text.contains("critical path"));
        assert!(text.contains("migration timeline"));
    }

    #[test]
    fn rejects_traces_without_supersteps() {
        assert!(TraceAnalysis::from_jsonl("").is_err());
        let only_wall = to_jsonl(&[TraceEvent::wall_span("x", "host", 0, 0.0, 1.0)]);
        assert!(TraceAnalysis::from_jsonl(&only_wall).is_err());
        assert!(TraceAnalysis::from_jsonl("not json\n").is_err());
        // The machine count comes from the active_vertices track: zero
        // and more than the bitmask cap are rejected, not indexed.
        for track in [0, MAX_MACHINES as u32 + 1, u32::MAX] {
            let foreign = to_jsonl(&[TraceEvent::sim_counter("active_vertices", track, 0.0, 1.0)]);
            let err = TraceAnalysis::from_jsonl(&foreign).unwrap_err();
            assert!(err.contains("machines"), "{err}");
        }
    }
}

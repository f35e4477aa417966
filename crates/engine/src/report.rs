//! Execution reports.

use hetgraph_cluster::{EnergyReport, WorkCounts};

/// One superstep's timing snapshot (recorded when a tracing telemetry
/// handle is attached via [`crate::SimEngine::with_telemetry`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StepRecord {
    /// Superstep index.
    pub step: usize,
    /// Active vertices entering the step.
    pub active: usize,
    /// Per-machine busy compute seconds.
    pub busy_s: Vec<f64>,
    /// Communication + barrier seconds.
    pub comm_s: f64,
    /// Wall-clock of the step.
    pub wall_s: f64,
}

impl StepRecord {
    /// Slowest machine's busy time over the mean — the step's own
    /// imbalance (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let n = self.busy_s.len().max(1) as f64;
        let mean: f64 = self.busy_s.iter().sum::<f64>() / n;
        if mean == 0.0 {
            1.0
        } else {
            self.busy_s.iter().copied().fold(0.0f64, f64::max) / mean
        }
    }

    /// Per-machine barrier-wait slack for this step: `max busy − busy_i`,
    /// i.e. how long each machine idles at the superstep barrier waiting
    /// for the straggler. The straggler's own entry is 0.
    pub fn barrier_wait(&self) -> Vec<f64> {
        let max = self.busy_s.iter().copied().fold(0.0f64, f64::max);
        self.busy_s.iter().map(|&b| max - b).collect()
    }

    /// The machine gating this step's barrier: the index with the maximal
    /// busy time (lowest index on ties, including the all-idle step).
    pub fn straggler(&self) -> usize {
        let max = self.busy_s.iter().copied().fold(0.0f64, f64::max);
        self.busy_s.iter().position(|&b| b == max).unwrap_or(0)
    }
}

/// Everything the simulator measured about one application run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimReport {
    /// Application name.
    pub app: String,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Whether the program converged within its superstep budget.
    pub converged: bool,
    /// End-to-end simulated wall clock (compute + communication), seconds.
    pub makespan_s: f64,
    /// Σ over supersteps of the slowest machine's compute time.
    pub compute_s: f64,
    /// Σ over supersteps of communication + barrier time.
    pub comm_s: f64,
    /// Per-machine total busy compute seconds.
    pub per_machine_busy_s: Vec<f64>,
    /// Per-machine accumulated work counts.
    pub per_machine_work: Vec<WorkCounts>,
    /// Energy accounting over the whole schedule.
    pub energy: EnergyReport,
    /// Per-superstep records (empty unless tracing was enabled).
    pub steps: Vec<StepRecord>,
}

impl SimReport {
    /// Total joules consumed by the cluster.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// The balance quality actually realized: slowest machine busy time
    /// over mean busy time (1.0 = perfectly balanced compute).
    pub fn compute_imbalance(&self) -> f64 {
        let n = self.per_machine_busy_s.len().max(1) as f64;
        let mean: f64 = self.per_machine_busy_s.iter().sum::<f64>() / n;
        if mean == 0.0 {
            1.0
        } else {
            self.per_machine_busy_s
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
                / mean
        }
    }

    /// Per-machine barrier-wait slack accumulated over the whole run:
    /// `compute_s − per_machine_busy_s[i]`.
    ///
    /// `compute_s` is the sum of per-step maxima, so this equals the sum
    /// over supersteps of each step's `max busy − busy_i` — the time
    /// machine `i` spent idle at superstep barriers waiting for
    /// stragglers. Derived from the aggregate fields, so it is available
    /// whether or not per-step tracing was on.
    pub fn barrier_wait_s(&self) -> Vec<f64> {
        self.per_machine_busy_s
            .iter()
            .map(|&b| self.compute_s - b)
            .collect()
    }

    /// Total barrier-wait slack across all machines, seconds. Bounded by
    /// `(P − 1) × compute_s`: at most all machines but the per-step
    /// straggler idle for a whole step.
    pub fn total_barrier_wait_s(&self) -> f64 {
        self.barrier_wait_s().iter().sum()
    }

    /// How many supersteps each machine was the straggler (the machine
    /// gating the barrier; ties go to the lowest index). Requires per-step
    /// tracing: without it every count is 0.
    pub fn straggler_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.per_machine_busy_s.len()];
        for s in &self.steps {
            let i = s.straggler();
            if i < hist.len() {
                hist[i] += 1;
            }
        }
        hist
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4}s over {} supersteps (compute {:.4}s, comm {:.4}s, {:.1} J{})",
            self.app,
            self.makespan_s,
            self.supersteps,
            self.compute_s,
            self.comm_s,
            self.total_energy_j(),
            if self.converged {
                ""
            } else {
                ", NOT converged"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            app: "test".into(),
            supersteps: 3,
            converged: true,
            makespan_s: 10.0,
            compute_s: 8.0,
            comm_s: 2.0,
            per_machine_busy_s: vec![8.0, 4.0],
            per_machine_work: vec![WorkCounts::zero(), WorkCounts::zero()],
            energy: EnergyReport::new(2),
            steps: Vec::new(),
        }
    }

    #[test]
    fn step_record_imbalance() {
        let r = StepRecord {
            step: 0,
            active: 10,
            busy_s: vec![3.0, 1.0],
            comm_s: 0.1,
            wall_s: 3.1,
        };
        assert!((r.imbalance() - 1.5).abs() < 1e-12);
        let idle = StepRecord {
            step: 1,
            active: 0,
            busy_s: vec![0.0, 0.0],
            comm_s: 0.0,
            wall_s: 0.0,
        };
        assert_eq!(idle.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let r = report();
        assert!((r.compute_imbalance() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("test"));
        assert!(s.contains("supersteps"));
    }

    #[test]
    fn zero_cases() {
        let mut r = report();
        r.per_machine_busy_s = vec![0.0, 0.0];
        assert_eq!(r.compute_imbalance(), 1.0);
    }

    #[test]
    fn single_machine_is_always_balanced() {
        let mut r = report();
        r.per_machine_busy_s = vec![8.0];
        r.compute_s = 8.0;
        assert_eq!(r.compute_imbalance(), 1.0);
        assert_eq!(r.barrier_wait_s(), vec![0.0]);
        assert_eq!(r.total_barrier_wait_s(), 0.0);
        // A lone machine is its own straggler on every traced step.
        r.steps = vec![StepRecord {
            step: 0,
            active: 3,
            busy_s: vec![8.0],
            comm_s: 0.0,
            wall_s: 8.0,
        }];
        assert_eq!(r.straggler_histogram(), vec![1]);
    }

    #[test]
    fn zero_compute_superstep_attributes_nothing() {
        // A step where no machine computes (e.g. all remaining active
        // vertices have no edges anywhere): imbalance degenerates to 1,
        // nobody waits, and the tie-broken straggler is machine 0.
        let s = StepRecord {
            step: 2,
            active: 1,
            busy_s: vec![0.0, 0.0, 0.0],
            comm_s: 0.0,
            wall_s: 0.0,
        };
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.barrier_wait(), vec![0.0, 0.0, 0.0]);
        assert_eq!(s.straggler(), 0);
    }

    #[test]
    fn empty_active_set_report_is_well_defined() {
        // A run that converges before its first superstep: every aggregate
        // is zero and the derived metrics hit their defined fallbacks.
        let r = SimReport {
            app: "empty".into(),
            supersteps: 0,
            converged: true,
            makespan_s: 0.0,
            compute_s: 0.0,
            comm_s: 0.0,
            per_machine_busy_s: vec![0.0, 0.0],
            per_machine_work: vec![WorkCounts::zero(), WorkCounts::zero()],
            energy: EnergyReport::new(2),
            steps: Vec::new(),
        };
        assert_eq!(r.compute_imbalance(), 1.0);
        assert_eq!(r.barrier_wait_s(), vec![0.0, 0.0]);
        assert_eq!(r.straggler_histogram(), vec![0, 0]);
    }

    #[test]
    fn step_barrier_wait_zeroes_the_straggler() {
        let s = StepRecord {
            step: 0,
            active: 10,
            busy_s: vec![1.0, 3.0, 2.0],
            comm_s: 0.0,
            wall_s: 3.0,
        };
        assert_eq!(s.straggler(), 1);
        assert_eq!(s.barrier_wait(), vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn barrier_wait_attribution_sums_and_is_bounded() {
        // Three steps on two machines. Aggregates mirror what the kernel
        // accumulates: compute_s = Σ max busy, per_machine = Σ busy_i.
        let steps = vec![
            StepRecord {
                step: 0,
                active: 10,
                busy_s: vec![3.0, 1.0],
                comm_s: 0.0,
                wall_s: 3.0,
            },
            StepRecord {
                step: 1,
                active: 8,
                busy_s: vec![1.0, 4.0],
                comm_s: 0.0,
                wall_s: 4.0,
            },
            StepRecord {
                step: 2,
                active: 2,
                busy_s: vec![2.0, 2.0],
                comm_s: 0.0,
                wall_s: 2.0,
            },
        ];
        let p = 2usize;
        let compute_s: f64 = steps
            .iter()
            .map(|s| s.busy_s.iter().copied().fold(0.0f64, f64::max))
            .sum();
        let per_machine: Vec<f64> = (0..p)
            .map(|i| steps.iter().map(|s| s.busy_s[i]).sum())
            .collect();
        let r = SimReport {
            app: "t".into(),
            supersteps: steps.len(),
            converged: true,
            makespan_s: compute_s,
            compute_s,
            comm_s: 0.0,
            per_machine_busy_s: per_machine,
            per_machine_work: vec![WorkCounts::zero(); p],
            energy: EnergyReport::new(p),
            steps,
        };
        // The aggregate attribution equals the per-step slack summed.
        for i in 0..p {
            let per_step: f64 = r.steps.iter().map(|s| s.barrier_wait()[i]).sum();
            assert!(
                (r.barrier_wait_s()[i] - per_step).abs() < 1e-12,
                "machine {i}"
            );
        }
        // Total slack is bounded by (P−1) × compute_s: per step, at most
        // everyone but the straggler idles the whole step.
        let total = r.total_barrier_wait_s();
        assert!(total <= (p - 1) as f64 * r.compute_s + 1e-12);
        assert!((total - (3.0 - 1.0 + 4.0 - 1.0)).abs() < 1e-12);
        // Straggler histogram: m0 gates step 0, m1 gates step 1, tie on
        // step 2 goes to m0.
        assert_eq!(r.straggler_histogram(), vec![2, 1]);
    }
}

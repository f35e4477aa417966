//! Static + dynamic power model (the RAPL substitute).
//!
//! A machine draws `idle_power_w` whenever powered and ramps linearly to
//! `peak_power_w` at full utilization. During a BSP superstep each machine
//! is busy for its own compute time and then idles at the barrier until the
//! slowest machine arrives. Energy is the integral of power over the
//! schedule — so better load balance saves energy twice: shorter makespan
//! (less static energy everywhere) and less idle-at-barrier waste.

use crate::machine::MachineSpec;

/// Per-machine energy accumulator over a simulated schedule.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnergyReport {
    /// Joules per machine, indexed like the cluster.
    pub per_machine_j: Vec<f64>,
    /// Busy seconds per machine.
    pub busy_s: Vec<f64>,
    /// Idle-at-barrier seconds per machine.
    pub idle_s: Vec<f64>,
}

impl EnergyReport {
    /// An empty report for `n` machines.
    pub fn new(n: usize) -> Self {
        EnergyReport {
            per_machine_j: vec![0.0; n],
            busy_s: vec![0.0; n],
            idle_s: vec![0.0; n],
        }
    }

    /// Total joules across machines.
    pub fn total_j(&self) -> f64 {
        self.per_machine_j.iter().sum()
    }
}

/// Energy model over a fixed set of machines.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    machines: Vec<MachineSpec>,
}

impl EnergyModel {
    /// Create a model over the given machines.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        for m in &machines {
            m.assert_valid();
        }
        EnergyModel { machines }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the model covers no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Instantaneous power of machine `i` at `utilization ∈ [0, 1]`.
    pub fn power_w(&self, i: usize, utilization: f64) -> f64 {
        let m = &self.machines[i];
        let u = utilization.clamp(0.0, 1.0);
        m.idle_power_w + (m.peak_power_w - m.idle_power_w) * u
    }

    /// Account one superstep: machine `i` was busy `busy_s` seconds (at
    /// full utilization) inside a superstep whose wall-clock length is
    /// `step_s`; the difference is barrier idle time.
    ///
    /// # Panics
    /// Panics if `busy_s > step_s` (a machine cannot be busy longer than
    /// the superstep it is inside).
    pub fn account_step(&self, report: &mut EnergyReport, i: usize, busy_s: f64, step_s: f64) {
        assert!(
            busy_s <= step_s + 1e-9,
            "machine {i} busy {busy_s}s exceeds superstep {step_s}s"
        );
        let idle = (step_s - busy_s).max(0.0);
        report.busy_s[i] += busy_s;
        report.idle_s[i] += idle;
        report.per_machine_j[i] += busy_s * self.power_w(i, 1.0) + idle * self.power_w(i, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn model() -> EnergyModel {
        EnergyModel::new(vec![catalog::xeon_s(), catalog::xeon_l()])
    }

    #[test]
    fn power_interpolates_linearly() {
        let m = model();
        let idle = m.power_w(0, 0.0);
        let peak = m.power_w(0, 1.0);
        let half = m.power_w(0, 0.5);
        assert_eq!(idle, 40.0);
        assert_eq!(peak, 95.0);
        assert!((half - 67.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamped() {
        let m = model();
        assert_eq!(m.power_w(0, -1.0), m.power_w(0, 0.0));
        assert_eq!(m.power_w(0, 2.0), m.power_w(0, 1.0));
    }

    #[test]
    fn account_splits_busy_and_idle() {
        let m = model();
        let mut r = EnergyReport::new(2);
        m.account_step(&mut r, 0, 2.0, 5.0);
        assert_eq!(r.busy_s[0], 2.0);
        assert_eq!(r.idle_s[0], 3.0);
        let expected = 2.0 * 95.0 + 3.0 * 40.0;
        assert!((r.per_machine_j[0] - expected).abs() < 1e-9);
        assert_eq!(r.per_machine_j[1], 0.0);
    }

    #[test]
    fn balanced_schedule_uses_less_energy_than_imbalanced() {
        // Same total work (4s of busy time across 2 identical machines),
        // but balanced finishes the superstep in 2s instead of 4s.
        let m = EnergyModel::new(vec![catalog::xeon_s(), catalog::xeon_s()]);
        let mut balanced = EnergyReport::new(2);
        m.account_step(&mut balanced, 0, 2.0, 2.0);
        m.account_step(&mut balanced, 1, 2.0, 2.0);
        let mut skewed = EnergyReport::new(2);
        m.account_step(&mut skewed, 0, 4.0, 4.0);
        m.account_step(&mut skewed, 1, 0.0, 4.0);
        assert!(balanced.total_j() < skewed.total_j());
    }

    #[test]
    #[should_panic(expected = "exceeds superstep")]
    fn busy_beyond_step_panics() {
        let m = model();
        let mut r = EnergyReport::new(2);
        m.account_step(&mut r, 0, 5.0, 2.0);
    }
}

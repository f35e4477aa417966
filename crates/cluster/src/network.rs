//! Analytic communication model.
//!
//! PowerGraph synchronizes vertex replicas (mirrors) at superstep
//! boundaries: gather partials flow mirror → master, updated vertex data
//! flows master → mirror. The volume is proportional to the number of
//! *active* mirrors; the time is that volume over the machine's NIC
//! bandwidth, plus a fixed barrier latency.
//!
//! The model is deliberately simple — the paper explicitly scopes
//! communication optimization out ("minimizing communication overheads …
//! is beyond the scope of this paper") — but it must exist: barrier latency
//! and sync volume are what compress end-to-end speedups below raw
//! compute-ratio predictions, which the paper's absolute numbers reflect.

use crate::machine::MachineSpec;

/// Bytes shipped per migrated edge: the edge record itself plus the
/// replica/master bookkeeping and framing that travels with it when a
/// rebalancer moves placement mid-run. One number for all apps — migration
/// ships topology, not vertex state (the new owner re-gathers next step).
pub const MIGRATION_BYTES_PER_EDGE: f64 = 32.0;

/// Communication model parameters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NetworkModel {
    /// Bytes exchanged per active mirror per superstep (gather partial up
    /// + vertex data down).
    pub bytes_per_mirror_sync: f64,
    /// Fixed per-superstep barrier latency in seconds.
    pub barrier_latency_s: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // 64 bytes ≈ an 8-byte accumulator up + an 8-byte value down, plus
        // message headers and serialization framing in both directions;
        // 1 ms barrier ≈ a broadcast + reduction over a ToR switch.
        NetworkModel {
            bytes_per_mirror_sync: 64.0,
            barrier_latency_s: 1e-3,
        }
    }
}

impl NetworkModel {
    /// Seconds for machine `m` to synchronize `active_mirrors` mirror
    /// replicas it hosts or masters.
    pub fn sync_time_s(&self, m: &MachineSpec, active_mirrors: u64) -> f64 {
        let bytes = active_mirrors as f64 * self.bytes_per_mirror_sync;
        bytes / (m.nic_gbps * 1e9 / 8.0)
    }

    /// Communication wall-clock of one superstep: the slowest machine's
    /// sync time plus the barrier. A single-machine cluster has neither
    /// mirrors nor a barrier (the paper's profiling runs machines in
    /// isolation precisely to measure communication-free compute).
    pub fn step_comm_s(&self, machines: &[MachineSpec], active_mirrors: &[u64]) -> f64 {
        assert_eq!(
            machines.len(),
            active_mirrors.len(),
            "one mirror count per machine"
        );
        if machines.len() <= 1 {
            return 0.0;
        }
        let slowest = machines
            .iter()
            .zip(active_mirrors)
            .map(|(m, &am)| self.sync_time_s(m, am))
            .fold(0.0f64, f64::max);
        slowest + self.barrier_latency_s
    }

    /// Seconds to migrate one batch of edges, given as `(src, dst, edges)`
    /// per machine pair — **the one migration price**. Each pair ships
    /// `edges × MIGRATION_BYTES_PER_EDGE` bytes gated by the slower of its
    /// two NICs; transfers between distinct pairs overlap, so the batch
    /// costs its slowest pair (not the sum) plus one barrier.
    pub fn migration_cost_s<'m>(
        &self,
        pairs: impl IntoIterator<Item = (&'m MachineSpec, &'m MachineSpec, usize)>,
    ) -> f64 {
        let transfer = pairs
            .into_iter()
            .map(|(src, dst, edges)| {
                let gbps = src.nic_gbps.min(dst.nic_gbps);
                edges as f64 * MIGRATION_BYTES_PER_EDGE / (gbps * 1e9 / 8.0)
            })
            .fold(0.0f64, f64::max);
        transfer + self.barrier_latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn sync_time_scales_with_mirrors() {
        let nm = NetworkModel::default();
        let m = catalog::xeon_s();
        let t1 = nm.sync_time_s(&m, 1_000);
        let t2 = nm.sync_time_s(&m, 2_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_nic_syncs_faster() {
        let nm = NetworkModel::default();
        let slow = catalog::c4_xlarge(); // 1.25 Gb/s
        let fast = catalog::c4_8xlarge(); // 10 Gb/s
        assert!(nm.sync_time_s(&fast, 10_000) < nm.sync_time_s(&slow, 10_000));
    }

    #[test]
    fn step_comm_includes_barrier() {
        let nm = NetworkModel::default();
        let ms = vec![catalog::xeon_s(), catalog::xeon_l()];
        let t = nm.step_comm_s(&ms, &[0, 0]);
        assert!((t - nm.barrier_latency_s).abs() < 1e-12);
    }

    #[test]
    fn step_comm_gated_by_slowest() {
        let nm = NetworkModel::default();
        let ms = vec![catalog::c4_xlarge(), catalog::c4_8xlarge()];
        let t = nm.step_comm_s(&ms, &[1_000_000, 1_000_000]);
        let expected = nm.sync_time_s(&ms[0], 1_000_000) + nm.barrier_latency_s;
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "per machine")]
    fn mismatched_lengths_panic() {
        NetworkModel::default().step_comm_s(&[catalog::xeon_s(), catalog::xeon_l()], &[1, 2, 3]);
    }

    #[test]
    fn single_machine_has_no_comm() {
        let nm = NetworkModel::default();
        assert_eq!(nm.step_comm_s(&[catalog::xeon_s()], &[1_000]), 0.0);
    }

    #[test]
    fn migration_cost_is_slowest_pair_plus_barrier() {
        let nm = NetworkModel::default();
        let slow = catalog::c4_xlarge(); // 1.25 Gb/s
        let fast = catalog::c4_8xlarge(); // 10 Gb/s
        let edges = 10_000;
        let t = nm.migration_cost_s([(&slow, &fast, edges)]);
        let bytes = edges as f64 * MIGRATION_BYTES_PER_EDGE;
        let transfer = bytes / (slow.nic_gbps * 1e9 / 8.0);
        assert_eq!(t, transfer + nm.barrier_latency_s);
        // Symmetric: direction does not change the bottleneck.
        assert_eq!(t, nm.migration_cost_s([(&fast, &slow, edges)]));
        // Pairs overlap: a faster second pair adds nothing.
        assert_eq!(
            t,
            nm.migration_cost_s([(&slow, &fast, edges), (&fast, &fast, edges)])
        );
        // An empty batch still pays its barrier.
        assert_eq!(nm.migration_cost_s([]), nm.barrier_latency_s);
    }
}

//! Clusters: ordered sets of machines with group structure.

use std::collections::BTreeMap;

use hetgraph_core::MachineId;

use crate::machine::MachineSpec;

/// An ordered collection of machines forming one cluster.
///
/// Machine order matters: partition index `i` is executed by machine `i`.
/// Machines sharing a spec `name` form one *group* — the paper profiles one
/// machine per group ("all C4.xlarge machines within the deployed cluster
/// should be treated as one group, but only one of them needs to be
/// profiled").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cluster {
    machines: Vec<MachineSpec>,
}

impl Cluster {
    /// Create a cluster.
    ///
    /// # Panics
    /// Panics if empty or if any spec is invalid.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        assert!(!machines.is_empty(), "a cluster needs at least one machine");
        for m in &machines {
            m.assert_valid();
        }
        Cluster { machines }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// The machines in partition order.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Machine by id.
    pub fn machine(&self, id: MachineId) -> &MachineSpec {
        &self.machines[id.index()]
    }

    /// Human-readable per-machine labels in partition order
    /// (`"m3 (xeon_l)"`), for report tables and metric legends where a
    /// bare track index would force readers back to the cluster spec.
    pub fn machine_labels(&self) -> Vec<String> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| format!("m{i} ({})", m.name))
            .collect()
    }

    /// All machine ids in order.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> {
        (0..self.machines.len()).map(MachineId::from)
    }

    /// Group structure: spec name → member machine ids. One representative
    /// per group is profiled; its CCR applies to every member.
    pub fn groups(&self) -> BTreeMap<String, Vec<MachineId>> {
        let mut groups: BTreeMap<String, Vec<MachineId>> = BTreeMap::new();
        for (i, m) in self.machines.iter().enumerate() {
            groups
                .entry(m.name.clone())
                .or_default()
                .push(MachineId::from(i));
        }
        groups
    }

    /// One representative machine id per group, in group-name order.
    pub fn group_representatives(&self) -> Vec<MachineId> {
        self.groups().into_values().map(|ids| ids[0]).collect()
    }

    /// The prior-work capability estimate: computing threads per machine
    /// (LeBeane et al. — "number of hardware computing slots/threads",
    /// after reserving two for communication).
    pub fn thread_count_weights(&self) -> Vec<f64> {
        self.machines
            .iter()
            .map(|m| m.computing_threads() as f64)
            .collect()
    }

    /// The Case 1 cluster: one m4.2xlarge + one c4.2xlarge (same thread
    /// counts; heterogeneous only microarchitecturally).
    pub fn case1() -> Self {
        Cluster::new(vec![
            crate::catalog::m4_2xlarge(),
            crate::catalog::c4_2xlarge(),
        ])
    }

    /// The Case 2 cluster: local Xeon S (4 HW threads) + Xeon L (12 HW
    /// threads) at the same frequency.
    pub fn case2() -> Self {
        Cluster::new(vec![crate::catalog::xeon_s(), crate::catalog::xeon_l()])
    }

    /// The Case 3 cluster: tiny ARM-like node (4 threads @ 1.8 GHz) + Xeon
    /// L (12 threads @ 2.5 GHz) — two frequency domains.
    pub fn case3() -> Self {
        Cluster::new(vec![crate::catalog::tiny_arm(), crate::catalog::xeon_l()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn grouping_by_name() {
        let c = Cluster::new(vec![
            catalog::c4_xlarge(),
            catalog::c4_xlarge(),
            catalog::c4_2xlarge(),
        ]);
        let groups = c.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["c4.xlarge"].len(), 2);
        assert_eq!(c.group_representatives().len(), 2);
    }

    #[test]
    fn case_clusters_match_paper() {
        let c1 = Cluster::case1();
        assert_eq!(c1.machines()[0].name, "m4.2xlarge");
        assert_eq!(c1.machines()[1].name, "c4.2xlarge");
        // Case 1 looks homogeneous to prior work: equal thread counts.
        assert_eq!(
            c1.thread_count_weights(),
            vec![6.0, 6.0],
            "prior work sees case 1 as homogeneous"
        );

        let c2 = Cluster::case2();
        assert_eq!(c2.thread_count_weights(), vec![2.0, 10.0]);

        let c3 = Cluster::case3();
        assert_eq!(c3.machines()[0].name, "tiny_arm");
        assert!(c3.machines()[0].freq_ghz < c3.machines()[1].freq_ghz);
    }

    #[test]
    fn machine_lookup_by_id() {
        let c = Cluster::case2();
        assert_eq!(c.machine(hetgraph_core::MachineId(1)).name, "xeon_l");
        assert_eq!(c.ids().count(), 2);
    }

    #[test]
    fn machine_labels_follow_partition_order() {
        let c = Cluster::case3();
        assert_eq!(c.machine_labels(), vec!["m0 (tiny_arm)", "m1 (xeon_l)"]);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_rejected() {
        Cluster::new(vec![]);
    }
}

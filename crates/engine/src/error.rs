//! Error type for the simulation engine.

/// Errors produced while building or mutating engine-side structures.
#[derive(Debug)]
pub enum EngineError {
    /// The partition assignment does not cover exactly the graph's edges.
    AssignmentMismatch {
        /// Edge count of the assignment.
        assignment_edges: usize,
        /// Edge count of the graph.
        graph_edges: usize,
    },
    /// A host thread budget of zero was requested.
    ZeroThreads,
    /// A rebalanced run was asked for a work trace: its migration charges
    /// depend on the cluster, so its work cannot be re-priced.
    RebalancedTrace,
    /// A view or work trace spans a different number of machines than
    /// the engine's cluster.
    MachineCountMismatch {
        /// Machines in the engine's cluster.
        cluster: usize,
        /// Machines the view or trace spans.
        work: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::AssignmentMismatch {
                assignment_edges,
                graph_edges,
            } => write!(
                f,
                "assignment must cover the graph: assignment has {assignment_edges} edges, \
                 graph has {graph_edges}"
            ),
            EngineError::ZeroThreads => write!(f, "need at least one host thread"),
            EngineError::RebalancedTrace => write!(
                f,
                "a rebalanced run cannot be traced: its migration charges depend on the cluster"
            ),
            EngineError::MachineCountMismatch { cluster, work } => write!(
                f,
                "machine count mismatch: the cluster has {cluster} machines, the work spans {work}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EngineError::AssignmentMismatch {
            assignment_edges: 3,
            graph_edges: 7,
        };
        let s = e.to_string();
        assert!(s.contains("cover the graph") && s.contains("3") && s.contains("7"));
        assert!(EngineError::ZeroThreads.to_string().contains("thread"));
        assert!(EngineError::RebalancedTrace
            .to_string()
            .contains("rebalanced"));
        let m = EngineError::MachineCountMismatch {
            cluster: 2,
            work: 1,
        }
        .to_string();
        assert!(m.contains("2 machines") && m.contains("spans 1"));
    }
}

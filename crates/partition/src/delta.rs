//! Incremental partition edits.
//!
//! A [`PartitionAssignment`](crate::PartitionAssignment) is built once by a
//! partitioner, but an online rebalancer edits it *mid-run*: a batch of
//! edges moves from a straggling machine to one with slack, between two
//! supersteps. [`AssignmentDelta`] is the exact record of such an edit —
//! which edges moved and which vertices' replica sets (and possibly
//! masters) changed as a consequence. Consumers patch their derived state
//! from the delta in O(|delta|) instead of rebuilding O(E) structures:
//! `DistributedGraph::migrate_edges` patches its CSR slot lanes.

use hetgraph_core::{MachineId, VertexId};

/// One edge reassigned from one machine to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMove {
    /// Index of the edge in graph edge order.
    pub edge: usize,
    /// Machine the edge left.
    pub from: MachineId,
    /// Machine the edge landed on.
    pub to: MachineId,
}

/// One vertex whose replica set changed as a consequence of edge moves.
///
/// The new master is re-picked with the same deterministic hash rule the
/// full build uses, so a migrated assignment stays exactly equal to a
/// from-scratch rebuild of the same per-edge machine vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskChange {
    /// The vertex whose replica set changed.
    pub vertex: VertexId,
    /// Replica bit mask before the migration batch.
    pub old_mask: u64,
    /// Replica bit mask after the migration batch.
    pub new_mask: u64,
    /// Master machine before the migration batch.
    pub old_master: MachineId,
    /// Master machine after the migration batch.
    pub new_master: MachineId,
}

/// Everything one call to
/// [`PartitionAssignment::migrate_edges`](crate::PartitionAssignment::migrate_edges)
/// changed: the applied edge moves (no-op entries are dropped) and the
/// induced replica-set changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssignmentDelta {
    /// Edge moves actually applied, in batch order.
    pub moves: Vec<EdgeMove>,
    /// Vertices whose replica mask (and possibly master) changed, in
    /// ascending vertex order.
    pub mask_changes: Vec<MaskChange>,
}

impl AssignmentDelta {
    /// Whether the batch changed anything at all.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of edges that actually moved.
    pub fn edges_moved(&self) -> usize {
        self.moves.len()
    }

    /// Edges moved per `(from, to)` machine pair, ascending by pair.
    /// Migration traffic between distinct pairs flows concurrently, so
    /// cost models price each pair's volume separately.
    pub fn moves_per_pair(&self) -> Vec<(MachineId, MachineId, usize)> {
        let mut pairs: Vec<(MachineId, MachineId, usize)> = Vec::new();
        for mv in &self.moves {
            match pairs
                .iter_mut()
                .find(|(f, t, _)| *f == mv.from && *t == mv.to)
            {
                Some((_, _, n)) => *n += 1,
                None => pairs.push((mv.from, mv.to, 1)),
            }
        }
        pairs.sort_unstable_by_key(|&(f, t, _)| (f, t));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_delta_reports_empty() {
        let d = AssignmentDelta::default();
        assert!(d.is_empty());
        assert_eq!(d.edges_moved(), 0);
        assert!(d.moves_per_pair().is_empty());
    }

    #[test]
    fn pair_aggregation_groups_and_sorts() {
        let d = AssignmentDelta {
            moves: vec![
                EdgeMove {
                    edge: 3,
                    from: MachineId(1),
                    to: MachineId(0),
                },
                EdgeMove {
                    edge: 0,
                    from: MachineId(0),
                    to: MachineId(1),
                },
                EdgeMove {
                    edge: 7,
                    from: MachineId(1),
                    to: MachineId(0),
                },
            ],
            mask_changes: vec![],
        };
        assert_eq!(d.edges_moved(), 3);
        assert_eq!(
            d.moves_per_pair(),
            vec![
                (MachineId(0), MachineId(1), 1),
                (MachineId(1), MachineId(0), 2)
            ]
        );
    }
}

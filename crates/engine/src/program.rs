//! The Gather-Apply-Scatter vertex-program abstraction.
//!
//! Semantics are Jacobi-style (synchronous): every superstep, each active
//! vertex gathers over its neighbors' *previous-step* data, applies a pure
//! update, and scatters activation signals for the next superstep. This is
//! PowerGraph's sync engine; determinism is exact, which the reproduction
//! harness depends on.

use hetgraph_cluster::AppProfile;
use hetgraph_core::{GraphMeta, VertexId};

/// Which adjacency direction a phase iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// In-edges (neighbors pointing at the vertex).
    In,
    /// Out-edges.
    Out,
    /// Both directions.
    Both,
    /// No iteration at all (skip the phase).
    None,
}

/// How the initial active set is formed.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ActiveInit {
    /// Every vertex starts active (PageRank, CC, Coloring, TC).
    All,
    /// Only the listed seed vertices start active (SSSP).
    Seeds(Vec<VertexId>),
}

/// A GAS vertex program.
///
/// All methods must be pure functions of their arguments (no interior
/// state), which makes execution deterministic and lets the engine
/// re-order work freely within a superstep. A vertex is active in the
/// next superstep exactly when it is a
/// [`scatter_direction`](Self::scatter_direction) neighbor of a vertex
/// whose apply reported a change. `Sync` is a supertrait
/// because the one superstep kernel shares the program across its worker
/// threads (the serial path is the same kernel at one thread).
pub trait GasProgram: Sync {
    /// Per-vertex state.
    type VertexData: Clone + Send + Sync;
    /// Gather accumulator. `Sync` lets the kernel share a per-source
    /// contribution table across worker threads (see
    /// [`gather_by_source`](Self::gather_by_source)).
    type Accum: Clone + Send + Sync;

    /// Application name (keys the CCR pool).
    fn name(&self) -> &'static str;

    /// Ground-truth hardware profile (see `hetgraph-cluster::perf`). Not
    /// visible to scheduling policies — only the simulator reads it.
    fn profile(&self) -> AppProfile;

    /// Initial vertex data.
    ///
    /// Programs receive a [`GraphMeta`] — counts and degrees only — rather
    /// than a concrete graph, so the same program runs unchanged over the
    /// plain and the compact (delta-varint) representations.
    fn init(&self, graph: &GraphMeta<'_>, v: VertexId) -> Self::VertexData;

    /// Which neighbors the gather phase visits.
    fn gather_direction(&self) -> Direction;

    /// Gather over one neighbor `u` of `v`. Returns the accumulator
    /// contribution (or `None` to contribute nothing) and the *work units*
    /// this visit cost (1.0 for a plain read; Triangle Count returns the
    /// actual number of intersection probes).
    fn gather(
        &self,
        graph: &GraphMeta<'_>,
        data: &[Self::VertexData],
        v: VertexId,
        u: VertexId,
    ) -> (Option<Self::Accum>, f64);

    /// Declares that [`gather`](Self::gather) is *source-only*: for every
    /// edge it returns `(Some(c), 1.0)` where `c` depends only on the
    /// gathered source vertex `u` — never on the gathering vertex `v`.
    /// Default: `false`.
    ///
    /// When true, [`source_gather`](Self::source_gather) must be
    /// implemented, and the kernel may evaluate the contribution **once
    /// per source vertex per superstep** into a dense table and replay it
    /// per edge, instead of recomputing it for every edge. The values and
    /// accumulation order are unchanged, so results stay bit-identical;
    /// only redundant per-edge arithmetic is removed. Worth opting into
    /// when gather does real math per edge (e.g. PageRank's
    /// `data[u] / out_degree(u)` division); a plain `data[u]` read is
    /// cheaper replayed directly than through a table entry.
    ///
    /// Contract for opt-in programs: `gather(graph, data, v, u)` must
    /// equal `(Some(source_gather(graph, data, u)), 1.0)` for every `v`
    /// (the kernel debug-asserts this while filling the table), and
    /// `source_gather` must be total (no panics) for *any* vertex `u`,
    /// including vertices that never appear as a gather source (the table
    /// is filled for all of them; an unread `inf` from a zero out-degree
    /// is fine, a panic is not).
    fn gather_by_source(&self) -> bool {
        false
    }

    /// The source-only gather contribution of vertex `u` (see
    /// [`gather_by_source`](Self::gather_by_source)). Only called when
    /// `gather_by_source()` returns `true`.
    fn source_gather(
        &self,
        _graph: &GraphMeta<'_>,
        _data: &[Self::VertexData],
        _u: VertexId,
    ) -> Self::Accum {
        unreachable!("gather_by_source() is true but source_gather() is not implemented")
    }

    /// Commutative, associative combination of accumulators.
    fn sum(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Pure apply: old data + gathered accumulator → (new data, changed?).
    /// `changed` drives scatter and convergence.
    fn apply(
        &self,
        graph: &GraphMeta<'_>,
        v: VertexId,
        old: &Self::VertexData,
        acc: Option<Self::Accum>,
        superstep: usize,
    ) -> (Self::VertexData, bool);

    /// Which neighbors the scatter phase visits (for changed vertices).
    /// Every neighbor it visits is active in the next superstep:
    /// activation is purely structural, decided by the graph and the
    /// changed set alone, never by vertex data. That is what lets the
    /// kernel pull a dense step's next frontier (test each vertex for a
    /// changed neighbor) instead of pushing it, with the same result.
    fn scatter_direction(&self) -> Direction;

    /// Initial active set.
    fn initial_active(&self, _graph: &GraphMeta<'_>) -> ActiveInit {
        ActiveInit::All
    }

    /// Superstep budget; the engine stops here even without convergence.
    fn max_supersteps(&self) -> usize {
        200
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_is_copy_and_comparable() {
        let d = Direction::Both;
        let e = d;
        assert_eq!(d, e);
        assert_ne!(Direction::In, Direction::Out);
    }

    #[test]
    fn active_init_variants() {
        let all = ActiveInit::All;
        let seeds = ActiveInit::Seeds(vec![1, 2]);
        assert_ne!(all, seeds);
        if let ActiveInit::Seeds(s) = seeds {
            assert_eq!(s.len(), 2);
        }
    }
}

//! Request, query-class, and completion types for the serving layer.

use hetgraph_core::VertexId;

/// One graph query a tenant submits to the serving front end.
///
/// Every variant is a *point lookup* against a shared partitioned graph:
/// the response is a compact scalar, not a full per-vertex vector, which
/// is what makes multiplexing thousands of requests over one
/// `DistributedGraph` meaningful.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum QueryKind {
    /// Unit-weight single-source shortest paths from `source`; the
    /// response is the number of reachable vertices.
    Sssp {
        /// Source vertex of the traversal.
        source: VertexId,
    },
    /// Personalized PageRank with all teleport mass on `seed`; the
    /// response digests the converged rank mass (bit pattern of the rank
    /// sum, folded in vertex order — deterministic at any thread count).
    Ppr {
        /// The personalization seed.
        seed: VertexId,
    },
    /// Whether `vertex` survives `k`-core peeling.
    KCoreMember {
        /// Core order (`k >= 1`).
        k: u32,
        /// Vertex whose membership is queried.
        vertex: VertexId,
    },
}

impl QueryKind {
    /// The batching class this query belongs to.
    pub fn class(&self) -> ClassKey {
        match self {
            QueryKind::Sssp { .. } => ClassKey::Sssp,
            QueryKind::Ppr { .. } => ClassKey::Ppr,
            QueryKind::KCoreMember { k, .. } => ClassKey::KCore(*k),
        }
    }

    /// The vertex this query asks about (source, seed, or member).
    pub fn vertex(&self) -> VertexId {
        match self {
            QueryKind::Sssp { source } => *source,
            QueryKind::Ppr { seed } => *seed,
            QueryKind::KCoreMember { vertex, .. } => *vertex,
        }
    }
}

/// Compatibility key for the batcher: two queued queries may share one
/// superstep wave exactly when their class keys are equal.
///
/// SSSP and PPR queries batch as independent *lanes* of one multi-source
/// program; k-core queries batch per `k` because every same-`k` query is
/// answered by the same peeling fixed point (a batch of them costs one
/// run regardless of size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ClassKey {
    /// Multi-source SSSP lanes.
    Sssp,
    /// Personalized-PageRank lanes.
    Ppr,
    /// `k`-core membership at one fixed `k`.
    KCore(u32),
}

impl ClassKey {
    /// Short label for traces and wave records.
    pub fn label(&self) -> String {
        match self {
            ClassKey::Sssp => "sssp".to_string(),
            ClassKey::Ppr => "ppr".to_string(),
            ClassKey::KCore(k) => format!("kcore{k}"),
        }
    }

    /// Stable integer encoding for the composition digest.
    pub(crate) fn digest_tag(&self) -> u64 {
        match self {
            ClassKey::Sssp => 1,
            ClassKey::Ppr => 2,
            ClassKey::KCore(k) => 3 + u64::from(*k),
        }
    }
}

/// One admitted or offered request.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Request {
    /// Arrival sequence number: assigned in nondecreasing arrival order,
    /// unique across the run. Ties on `arrival_s` break by `id`.
    pub id: u64,
    /// Owning tenant (index into the configured weight vector).
    pub tenant: usize,
    /// The query itself.
    pub kind: QueryKind,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
}

/// A served request with its timing and response digest.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Batching class the request was served under.
    pub class: ClassKey,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
    /// Simulated time the wave containing this request started.
    pub wave_start_s: f64,
    /// Simulated completion time (wave start + wave makespan).
    pub finish_s: f64,
    /// Scalar response digest (see [`QueryKind`] for the encoding).
    pub result: u64,
}

impl Completion {
    /// Queueing + batching + execution latency in simulated seconds.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

/// A request refused by admission control.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ShedRecord {
    /// Request id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Simulated arrival time, seconds.
    pub arrival_s: f64,
}

/// Typed serving-layer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: the tenant's queue is at its
    /// depth budget. In-flight batches are unaffected — the request was
    /// never enqueued.
    QueueFull {
        /// Tenant whose queue is full.
        tenant: usize,
        /// Queue depth at rejection time.
        depth: usize,
        /// The configured per-tenant depth budget.
        budget: usize,
    },
    /// The request references a tenant outside the configured range.
    UnknownTenant {
        /// The offending tenant index.
        tenant: usize,
        /// Number of configured tenants.
        tenants: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull {
                tenant,
                depth,
                budget,
            } => write!(
                f,
                "tenant {tenant} queue full: depth {depth} at budget {budget}, request shed"
            ),
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant}: {tenants} tenant(s) configured")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_keys_partition_queries() {
        assert_eq!(QueryKind::Sssp { source: 3 }.class(), ClassKey::Sssp);
        assert_eq!(QueryKind::Ppr { seed: 3 }.class(), ClassKey::Ppr);
        assert_eq!(
            QueryKind::KCoreMember { k: 2, vertex: 0 }.class(),
            ClassKey::KCore(2)
        );
        // Different k never batches together.
        assert_ne!(ClassKey::KCore(2), ClassKey::KCore(3));
    }

    #[test]
    fn digest_tags_are_distinct() {
        let tags = [
            ClassKey::Sssp.digest_tag(),
            ClassKey::Ppr.digest_tag(),
            ClassKey::KCore(1).digest_tag(),
            ClassKey::KCore(2).digest_tag(),
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn queue_full_error_mentions_budget() {
        let e = ServeError::QueueFull {
            tenant: 1,
            depth: 64,
            budget: 64,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("tenant 1") && msg.contains("budget 64"),
            "{msg}"
        );
    }
}

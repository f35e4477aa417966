//! Index-deterministic chunked fan-out for per-edge / per-vertex maps.
//!
//! The embarrassingly parallel partitioners (hash-based picks, pick-table
//! precomputes) fan their pure index maps over
//! [`hetgraph_core::par::scheduled`] in fixed-width chunks. The chunk
//! width is a constant — *not* derived from the thread budget — and the
//! chunks are concatenated in index order, so the output vector is
//! byte-identical at any thread count (the crate-wide determinism
//! contract, see [`crate::Partitioner::partition`]).

use hetgraph_core::par;

/// Fixed chunk width. Large enough to amortize scheduling, small enough
/// that skewed tails self-balance across workers.
pub(crate) const CHUNK: usize = 8192;

/// Map `f` over `0..len` with `host_threads` workers, returning the
/// results in index order. With one thread (or one chunk) this is a plain
/// serial map — no spawn cost on the reference path.
pub(crate) fn chunked_map<T: Send>(
    len: usize,
    host_threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if host_threads <= 1 || len <= CHUNK {
        return (0..len).map(f).collect();
    }
    let tasks = len.div_ceil(CHUNK);
    let chunks = par::scheduled(tasks, host_threads, |t| {
        let lo = t * CHUNK;
        let hi = (lo + CHUNK).min(len);
        (lo..hi).map(&f).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_at_any_thread_count() {
        let reference: Vec<u64> = (0..CHUNK * 3 + 17)
            .map(|i| (i as u64).wrapping_mul(31))
            .collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                chunked_map(reference.len(), threads, |i| (i as u64).wrapping_mul(31)),
                reference
            );
        }
    }

    #[test]
    fn empty_and_small_inputs() {
        assert_eq!(chunked_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(chunked_map(3, 4, |i| i), vec![0, 1, 2]);
    }
}

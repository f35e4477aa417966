//! Deterministic self-scheduling fan-out.
//!
//! One primitive, used at both parallelism levels in this workspace
//! (engine supersteps and experiment-sweep cells): run `tasks` indexed
//! jobs on a fixed set of worker threads that pull task indices off a
//! shared atomic cursor, then return the results **in task order**.
//!
//! Self-scheduling (rather than pre-splitting the index range) matters
//! because both workloads are heavily skewed — power-law chunks and
//! whole-graph sweep cells can differ in cost by orders of magnitude —
//! and a static split would idle every thread behind the slowest
//! stripe. Task-ordered results are what make the fan-out drop-in for
//! serial code: any fold over the returned `Vec` associates exactly as
//! the serial loop did, so floating-point accumulations are
//! reproducible run-to-run and thread-count-to-thread-count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `job(0..tasks)` over `host_threads` self-scheduling workers and
/// return the results in task order.
///
/// With one effective worker (or one task) the jobs run inline on the
/// calling thread — no spawn cost, and a guaranteed-serial reference
/// path for determinism tests. A panicking job is propagated to the
/// caller with its original payload once all workers have stopped.
///
/// # Panics
/// Panics if `host_threads == 0`, or re-raises the first observed job
/// panic.
pub fn scheduled<T: Send>(
    tasks: usize,
    host_threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    scheduled_with(tasks, host_threads, || (), |(), idx| job(idx))
}

/// [`scheduled`] with per-worker scratch state: each worker calls
/// `init` once and threads the resulting state through every job it
/// executes. This is the allocation-reuse hook — a worker that
/// processes hundreds of chunks per superstep allocates its scratch
/// buffers once, not per chunk.
///
/// # Panics
/// Panics if `host_threads == 0`, or re-raises the first observed job
/// panic.
pub fn scheduled_with<S, T: Send>(
    tasks: usize,
    host_threads: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    assert!(host_threads > 0, "need at least one host thread");
    if tasks == 0 {
        return Vec::new();
    }
    let workers = host_threads.min(tasks);
    if workers == 1 {
        let mut state = init();
        return (0..tasks).map(|idx| job(&mut state, idx)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    {
        // Hand each worker ownership of result slots one at a time via
        // a mutex-free split: workers collect (index, result) pairs and
        // the merge below places them. The pairs preserve task identity
        // regardless of which worker ran which task.
        let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        let mut out = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= tasks {
                                break;
                            }
                            out.push((idx, job(&mut state, idx)));
                        }
                        out
                    })
                })
                .collect();
            let mut batches = Vec::with_capacity(workers);
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(b) => batches.push(b),
                    // Keep joining the rest so no worker outlives the
                    // scope abnormally, then re-raise.
                    Err(payload) => panic = panic.or(Some(payload)),
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            batches
        });
        for (idx, value) in batches.into_iter().flatten() {
            debug_assert!(slots[idx].is_none(), "task {idx} ran twice");
            slots[idx] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, s)| s.unwrap_or_else(|| panic!("task {idx} produced no result")))
        .collect()
}

/// The default host thread budget: `HETGRAPH_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 where the runtime cannot report it).
///
/// Callers: the CLI and the experiment harness, where `--threads` is
/// absent, and the R-MAT generator, which takes no thread argument and
/// fans its attempt chunks out over this many workers (its edge stream
/// is the same at any count).
///
/// # Panics
/// Panics if `HETGRAPH_THREADS` is set but is not a positive integer —
/// a mis-typed budget must not silently fall back to serial.
pub fn default_host_threads() -> usize {
    match std::env::var("HETGRAPH_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("HETGRAPH_THREADS must be a positive integer, got {v:?}"),
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// A free-list of reusable buffers shared across worker threads.
///
/// Workers [`take`](Pool::take)/[`put`](Pool::put) buffers around each
/// task so allocations made in one superstep (or sweep cell) are
/// recycled by the next instead of reallocated. The pool is only an
/// allocation cache: which buffer a worker receives is arbitrary, so
/// callers must clear (or fully overwrite) anything they take.
pub struct Pool<T> {
    items: Mutex<Vec<T>>,
}

impl<T> Pool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Pool {
            items: Mutex::new(Vec::new()),
        }
    }

    /// Take a recycled item, or build a fresh one with `make`.
    pub fn take(&self, make: impl FnOnce() -> T) -> T {
        self.items
            .lock()
            .expect("pool lock poisoned")
            .pop()
            .unwrap_or_else(make)
    }

    /// Return an item to the pool for reuse.
    pub fn put(&self, item: T) {
        self.items.lock().expect("pool lock poisoned").push(item);
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = scheduled(0, 4, |_| unreachable!("no tasks to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn one_thread_matches_serial_map() {
        let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(scheduled(100, 1, |i| i * i), serial);
    }

    #[test]
    fn many_threads_preserve_task_order() {
        // Skew the work so late tasks finish before early ones.
        let out = scheduled(97, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_tasks() {
        assert_eq!(scheduled(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn per_worker_state_is_reused_within_a_worker() {
        // Single worker: the same state must thread through all jobs.
        let counts = scheduled_with(
            10,
            1,
            || 0usize,
            |seen, _idx| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            scheduled(16, 4, |i| {
                if i == 7 {
                    panic!("job seven failed");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("job seven failed"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "at least one host thread")]
    fn zero_threads_rejected() {
        scheduled(4, 0, |i| i);
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool: Pool<Vec<u32>> = Pool::new();
        let mut a = pool.take(|| Vec::with_capacity(64));
        a.push(1);
        let cap = a.capacity();
        a.clear();
        pool.put(a);
        let b = pool.take(Vec::new);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "buffer was recycled, not rebuilt");
    }

    #[test]
    fn default_host_threads_is_positive() {
        // Whatever the environment, the default budget must be usable
        // directly as a `scheduled` worker count.
        assert!(default_host_threads() >= 1);
    }

    #[test]
    fn scheduled_results_deterministic_across_thread_counts() {
        let reference: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(scheduled(500, threads, |i| (i as f64).sqrt()), reference);
        }
    }
}

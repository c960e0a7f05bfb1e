//! Order-preserving chunked parallel map, plus pool telemetry counters.
//!
//! Accuracy mode synthesizes thousands of *independent* predictions, but
//! the LoadGen's determinism contract demands the output be
//! indistinguishable from the serial loop. [`par_map_chunked`] splits the
//! input into one contiguous chunk per worker and reassembles the results
//! in chunk order, so the output vector is element-for-element identical
//! to `items.iter().map(f).collect()` regardless of thread count or
//! scheduling.
//!
//! [`PoolTelemetry`] is the observation side of a worker pool: a fixed
//! block of per-worker counters (tasks, busy wall-clock, steals) plus
//! queue-depth gauges, recorded with relaxed atomics. The harness's
//! work-stealing `par_map` records into it; the chunked map here does
//! not. Telemetry is strictly host-side bookkeeping and never touches
//! simulated state.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Worker slots a [`PoolTelemetry`] block tracks individually; workers
/// with larger indices fold into the last slot (pools that wide don't
/// occur — the runner clamps to available cores).
pub const TRACKED_WORKERS: usize = 64;

/// Per-worker pool counters, recorded lock-free with relaxed atomics.
///
/// One process-wide block aggregates every pool pass (the harness keeps a
/// singleton); `snapshot()` gives a consistent-enough point-in-time copy
/// for live scraping, and [`PoolSnapshot::since`] yields the delta
/// attributable to one workload.
#[derive(Debug)]
pub struct PoolTelemetry {
    tasks: [AtomicU64; TRACKED_WORKERS],
    busy_ns: [AtomicU64; TRACKED_WORKERS],
    steals: [AtomicU64; TRACKED_WORKERS],
    calls: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Default for PoolTelemetry {
    fn default() -> Self {
        PoolTelemetry {
            tasks: std::array::from_fn(|_| AtomicU64::new(0)),
            busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            steals: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        }
    }
}

impl PoolTelemetry {
    /// An all-zero telemetry block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the start of one parallel-map pass.
    pub fn record_call(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed task on `worker`: the wall-clock it spent
    /// busy and whether the task was *stolen* — executed outside the
    /// worker's static fair share of the input (dynamic scheduling moved
    /// it there from a straggling peer's share).
    pub fn record_task(&self, worker: usize, busy: Duration, stolen: bool) {
        let w = worker.min(TRACKED_WORKERS - 1);
        self.tasks[w].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[w].fetch_add(busy.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        if stolen {
            self.steals[w].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the current ready-queue depth (items not yet claimed by
    /// any worker) and folds it into the high-water mark.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// The last published ready-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter. Non-destructive, so live
    /// scrapes and end-of-run reports can both read it; workers that never
    /// ran a task are omitted.
    #[must_use]
    pub fn snapshot(&self) -> PoolSnapshot {
        let workers = (0..TRACKED_WORKERS)
            .filter_map(|w| {
                let tasks = self.tasks[w].load(Ordering::Relaxed);
                (tasks > 0).then(|| WorkerStats {
                    worker: w,
                    tasks,
                    busy_ns: self.busy_ns[w].load(Ordering::Relaxed),
                    steals: self.steals[w].load(Ordering::Relaxed),
                })
            })
            .collect();
        PoolSnapshot {
            workers,
            calls: self.calls.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// One worker's share of a [`PoolSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index within the pool (0-based).
    pub worker: usize,
    /// Tasks the worker completed.
    pub tasks: u64,
    /// Host wall-clock the worker spent inside tasks (ns).
    pub busy_ns: u64,
    /// Tasks executed outside the worker's static fair share.
    pub steals: u64,
}

/// A point-in-time copy of a [`PoolTelemetry`] block.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolSnapshot {
    /// Per-worker counters, ascending by worker index, zero rows omitted.
    pub workers: Vec<WorkerStats>,
    /// Parallel-map passes started.
    pub calls: u64,
    /// Ready-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Deepest ready queue observed.
    pub max_queue_depth: u64,
}

impl PoolSnapshot {
    /// Total tasks across workers.
    #[must_use]
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total steals across workers.
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total busy wall-clock across workers (ns).
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// The counter deltas accumulated since `earlier` was taken.
    ///
    /// Per-worker rows are matched by worker index; saturating arithmetic
    /// keeps a stale baseline from underflowing. The queue-depth gauge and
    /// high-water mark carry `self`'s values (they are not accumulative).
    #[must_use]
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        let workers = self
            .workers
            .iter()
            .filter_map(|now| {
                let base = earlier.workers.iter().find(|b| b.worker == now.worker);
                let tasks = now.tasks.saturating_sub(base.map_or(0, |b| b.tasks));
                (tasks > 0).then_some(WorkerStats {
                    worker: now.worker,
                    tasks,
                    busy_ns: now.busy_ns.saturating_sub(base.map_or(0, |b| b.busy_ns)),
                    steals: now.steals.saturating_sub(base.map_or(0, |b| b.steals)),
                })
            })
            .collect();
        PoolSnapshot {
            workers,
            calls: self.calls.saturating_sub(earlier.calls),
            queue_depth: self.queue_depth,
            max_queue_depth: self.max_queue_depth,
        }
    }
}

/// Maps `f` over `items` on up to `threads` workers, preserving order.
///
/// The slice is split into at most `threads` contiguous chunks (sized
/// within one element of each other); each worker maps its own chunk, and
/// the chunks are concatenated in order. With `threads <= 1`, or a single
/// chunk, this is exactly the serial map — no threads are spawned.
pub fn par_map_chunked<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Ceil-divide so every chunk is non-empty and order is trivially
    // preserved by concatenating per-chunk outputs.
    let chunk_len = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        results = handles.into_iter().map(|h| h.join().expect("par_map worker")).collect();
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_thread_counts() {
        let items: Vec<usize> = (0..1001).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64, 2000] {
            assert_eq!(par_map_chunked(&items, threads, |&x| x * 3 + 1), serial, "{threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_chunked(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map_chunked(&[7u8], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn snapshot_delta_is_per_worker() {
        let t = PoolTelemetry::new();
        t.record_call();
        t.record_task(0, Duration::from_nanos(100), false);
        t.record_task(1, Duration::from_nanos(200), true);
        let before = t.snapshot();
        t.record_task(1, Duration::from_nanos(50), true);
        t.record_task(2, Duration::from_nanos(25), false);
        t.set_queue_depth(5);
        t.set_queue_depth(2);
        let delta = t.snapshot().since(&before);
        assert_eq!(delta.total_tasks(), 2);
        assert_eq!(delta.workers.len(), 2, "worker 0 had no new tasks: {delta:?}");
        assert_eq!(delta.workers[0].worker, 1);
        assert_eq!(delta.workers[0].steals, 1);
        assert_eq!(delta.workers[1].worker, 2);
        assert_eq!(delta.queue_depth, 2);
        assert_eq!(delta.max_queue_depth, 5);
    }

    #[test]
    fn wide_pools_fold_into_the_last_slot() {
        let t = PoolTelemetry::new();
        t.record_task(TRACKED_WORKERS + 10, Duration::from_nanos(1), true);
        let snap = t.snapshot();
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].worker, TRACKED_WORKERS - 1);
        assert_eq!(snap.total_steals(), 1);
    }
}

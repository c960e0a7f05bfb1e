//! Streaming shard-merge histograms.
//!
//! Runner-pool workers record run wall-clocks from many threads at once;
//! a single mutex-guarded histogram would serialize exactly the threads
//! the pool exists to parallelize. [`ShardedHistogram`] shards its state
//! across per-thread slots — each thread hashes to a stable shard on
//! first use and keeps hitting it — so hot-path recording never
//! contends, and readers pay the merge cost instead:
//! [`ShardedHistogram::merged`] folds the shards through
//! [`LatencyHistogram::merge`] (property-tested bucket-exact against a
//! single histogram fed the concatenated stream).
//!
//! Reads are *consistent in the streaming sense*: concurrent recorders
//! may land on either side of a read, but every read is monotone
//! non-decreasing in each shard, which is exactly the contract Prometheus
//! summaries need.

use mobile_metrics::hist::LatencyHistogram;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of shards. Plenty for the pool sizes the runner uses (the
/// host's core count), small enough that merging stays trivial.
pub const SHARDS: usize = 16;

fn shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A [`LatencyHistogram`] sharded across per-thread slots: `record` locks
/// only the calling thread's shard (threads on distinct shards never
/// contend); [`ShardedHistogram::merged`] folds the shards into one
/// histogram via [`LatencyHistogram::merge`].
#[derive(Debug, Default)]
pub struct ShardedHistogram {
    shards: [Mutex<LatencyHistogram>; SHARDS],
}

impl ShardedHistogram {
    /// An empty sharded histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value on the calling thread's shard.
    pub fn record(&self, value: u64) {
        self.shards[shard_id()].lock().unwrap().record(value);
    }

    /// Total recorded count across shards.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().count()).sum()
    }

    /// Folds all shards into one histogram. Bucket-exact: equals a single
    /// histogram fed every shard's stream back to back.
    #[must_use]
    pub fn merged(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock().unwrap());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_histogram_matches_single_stream() {
        let sharded = ShardedHistogram::new();
        let mut values: Vec<u64> = Vec::new();
        for i in 0..4096u64 {
            values.push(i * i % 100_003 + 1);
        }
        std::thread::scope(|scope| {
            for chunk in values.chunks(512) {
                let sharded = &sharded;
                scope.spawn(move || {
                    for &v in chunk {
                        sharded.record(v);
                    }
                });
            }
        });
        let merged = sharded.merged();
        let single = LatencyHistogram::from_values(&values);
        assert_eq!(merged, single, "shard-merge must be bucket-exact");
        assert_eq!(sharded.count(), values.len() as u64);
    }

    #[test]
    fn thread_shard_is_stable_within_a_thread() {
        assert_eq!(shard_id(), shard_id());
        assert!(shard_id() < SHARDS);
    }
}

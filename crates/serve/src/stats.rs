//! Daemon counters.
//!
//! Lock-free atomic counters, incremented from handler threads, the
//! executor and the cache, rendered as `key value\n` text for the
//! `Stats` protocol verb. Relaxed ordering is sufficient: the counters
//! are monotone telemetry, never used for synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone service counters shared by every daemon thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs accepted into the admission queue.
    pub submitted: AtomicU64,
    /// Jobs completed (clean or degraded, cached or computed).
    pub completed: AtomicU64,
    /// Completed jobs whose run degraded (any [`bgpc::DegradeReason`]).
    pub degraded: AtomicU64,
    /// Degraded jobs specifically due to deadline/cancellation.
    pub deadline_miss: AtomicU64,
    /// Jobs answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Update requests received (the `Update` verb).
    pub updates: AtomicU64,
    /// Updates recolored incrementally from a reused cache entry (as
    /// opposed to falling back to a full run on a cache miss).
    pub update_reseeds: AtomicU64,
    /// Jobs that had to compute (cache miss or cache bypassed).
    pub cache_misses: AtomicU64,
    /// Jobs rejected with `Backpressure` because the queue was full.
    pub shed: AtomicU64,
    /// Frames rejected at the protocol layer (bad magic, oversized, …).
    pub protocol_errors: AtomicU64,
    /// Submit payloads rejected as invalid jobs (corrupt graph bytes,
    /// unknown schedule).
    pub invalid_jobs: AtomicU64,
    /// Jobs whose worker panicked and was contained (`ServerError` sent).
    pub worker_panics: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Full shard installs accepted (a `Shard` frame with graph bytes).
    pub shard_installs: AtomicU64,
    /// Shard re-installs over the graph a connection already holds (a
    /// `Shard` frame without graph bytes).
    pub shard_reuses: AtomicU64,
    /// Supersteps executed across all installed shards.
    pub supersteps: AtomicU64,
}

/// One `(name, value)` row of the stats snapshot.
pub type StatRow = (&'static str, u64);

impl ServeStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of every counter, stable order.
    pub fn snapshot(&self) -> Vec<StatRow> {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("submitted", g(&self.submitted)),
            ("completed", g(&self.completed)),
            ("degraded", g(&self.degraded)),
            ("deadline_miss", g(&self.deadline_miss)),
            ("cache_hits", g(&self.cache_hits)),
            ("updates", g(&self.updates)),
            ("update_reseeds", g(&self.update_reseeds)),
            ("cache_misses", g(&self.cache_misses)),
            ("shed", g(&self.shed)),
            ("protocol_errors", g(&self.protocol_errors)),
            ("invalid_jobs", g(&self.invalid_jobs)),
            ("worker_panics", g(&self.worker_panics)),
            ("connections", g(&self.connections)),
            ("shard_installs", g(&self.shard_installs)),
            ("shard_reuses", g(&self.shard_reuses)),
            ("supersteps", g(&self.supersteps)),
        ]
    }

    /// Renders the snapshot as `key value\n` text (the `StatsReply`
    /// payload).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.snapshot() {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses a `StatsReply` payload back into rows (client side).
    pub fn parse(text: &str) -> Vec<(String, u64)> {
        text.lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let s = ServeStats::new();
        ServeStats::bump(&s.submitted);
        ServeStats::bump(&s.submitted);
        ServeStats::bump(&s.shed);
        let rows = ServeStats::parse(&s.render());
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("submitted"), 2);
        assert_eq!(get("shed"), 1);
        assert_eq!(get("completed"), 0);
    }

    #[test]
    fn snapshot_covers_every_field_once() {
        let s = ServeStats::new();
        let rows = s.snapshot();
        let mut names: Vec<_> = rows.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "duplicate counter name");
    }
}

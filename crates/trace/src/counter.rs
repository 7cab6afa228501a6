//! Monotonic per-thread counters and their fixed-size accumulation sheet.

/// The counter vocabulary. Every counter is monotonic within a run and
/// accumulated per thread; totals are merged after the join, so no counter
/// is ever shared between writers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Chunks claimed from the dynamic cursor.
    ChunksClaimed,
    /// Chunks won by stealing them from another worker. Nothing
    /// increments it: every parallel loop claims from the one shared
    /// cursor, so it always reads zero. It stays only because perfbench
    /// reports it as a per-layer metric.
    StealsWon,
    /// Optimistic color assignments (recolored vertices count again).
    VerticesColored,
    /// Conflicts detected — vertices pushed to the next work queue.
    ConflictsDetected,
    /// Forbidden-set probes: one per insert in the vertex-based gathers
    /// and net-based conflict removal, one per pin visited in the
    /// net-based coloring passes.
    ForbiddenProbes,
    /// Software prefetch hints issued ahead of adjacency-row walks.
    PrefetchIssues,
    /// Vector blocks executed by a SIMD sweep. Nothing increments it:
    /// every kernel is scalar, so it always reads zero. It stays only
    /// because perfbench's `core.simd_hit_frac` metric reads it.
    SimdPathHits,
    /// Nanoseconds spent inside parallel regions (busy time).
    BusyNs,
}

impl Counter {
    /// Number of distinct counters (the sheet's array length).
    pub const COUNT: usize = 8;

    /// All counters, in sheet order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::ChunksClaimed,
        Counter::StealsWon,
        Counter::VerticesColored,
        Counter::ConflictsDetected,
        Counter::ForbiddenProbes,
        Counter::PrefetchIssues,
        Counter::SimdPathHits,
        Counter::BusyNs,
    ];

    /// Stable snake_case label used by the JSON exporters.
    pub fn label(self) -> &'static str {
        match self {
            Counter::ChunksClaimed => "chunks_claimed",
            Counter::StealsWon => "steals_won",
            Counter::VerticesColored => "vertices_colored",
            Counter::ConflictsDetected => "conflicts_detected",
            Counter::ForbiddenProbes => "forbidden_probes",
            Counter::PrefetchIssues => "prefetch_issues",
            Counter::SimdPathHits => "simd_path_hits",
            Counter::BusyNs => "busy_ns",
        }
    }
}

/// One thread's counter values — a plain array of `u64`, owned by exactly
/// one writer at a time (see [`Recorder`](crate::Recorder) for the
/// partitioning contract). Also used as a *delta* between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSheet {
    vals: [u64; Counter::COUNT],
}

impl CounterSheet {
    /// An all-zero sheet.
    pub const fn new() -> Self {
        Self {
            vals: [0; Counter::COUNT],
        }
    }

    /// Adds `n` to counter `c`. Saturates instead of wrapping: a counter
    /// pinned at `u64::MAX` is an obvious "overflowed" sentinel, while a
    /// wrapped counter silently corrupts every downstream delta.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        let v = &mut self.vals[c as usize];
        *v = v.saturating_add(n);
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Element-wise saturating difference `self - earlier` — the activity
    /// between two snapshots of a monotonic sheet.
    pub fn delta(&self, earlier: &CounterSheet) -> CounterSheet {
        let mut out = CounterSheet::new();
        for (i, v) in out.vals.iter_mut().enumerate() {
            *v = self.vals[i].saturating_sub(earlier.vals[i]);
        }
        out
    }

    /// Element-wise saturating sum of `other` into `self` (merging thread
    /// sheets into a team total).
    pub fn merge(&mut self, other: &CounterSheet) {
        for (i, v) in self.vals.iter_mut().enumerate() {
            *v = v.saturating_add(other.vals[i]);
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_roundtrip() {
        let mut s = CounterSheet::new();
        s.add(Counter::VerticesColored, 7);
        s.add(Counter::VerticesColored, 3);
        s.add(Counter::StealsWon, 1);
        assert_eq!(s.get(Counter::VerticesColored), 10);
        assert_eq!(s.get(Counter::StealsWon), 1);
        assert_eq!(s.get(Counter::BusyNs), 0);
    }

    #[test]
    fn overflow_saturates_instead_of_wrapping() {
        let mut s = CounterSheet::new();
        s.add(Counter::ForbiddenProbes, u64::MAX - 1);
        s.add(Counter::ForbiddenProbes, 5);
        assert_eq!(s.get(Counter::ForbiddenProbes), u64::MAX);
        // Merging two near-max sheets must also pin, not wrap.
        let mut t = CounterSheet::new();
        t.add(Counter::ForbiddenProbes, u64::MAX);
        t.merge(&s);
        assert_eq!(t.get(Counter::ForbiddenProbes), u64::MAX);
    }

    #[test]
    fn delta_between_snapshots() {
        let mut a = CounterSheet::new();
        a.add(Counter::ChunksClaimed, 10);
        let mut b = a;
        b.add(Counter::ChunksClaimed, 5);
        b.add(Counter::ConflictsDetected, 2);
        let d = b.delta(&a);
        assert_eq!(d.get(Counter::ChunksClaimed), 5);
        assert_eq!(d.get(Counter::ConflictsDetected), 2);
        // A (buggy) backwards delta saturates at zero rather than wrapping.
        assert!(a.delta(&b).get(Counter::ChunksClaimed) == 0);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Counter::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), Counter::COUNT);
    }
}

//! Shared chunk cursor used by dynamic scheduling.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An atomic cursor over `0..len` that hands out fixed-size chunks.
///
/// This is the heart of `schedule(dynamic, chunk)`: every claim is a single
/// `fetch_add`, so contention is one cache line regardless of team size.
/// `Relaxed` ordering is sufficient — the chunks themselves carry no payload,
/// and the fork/join barriers in [`crate::Pool`] provide the happens-before
/// edges for the data the chunks index into.
#[derive(Debug)]
pub struct ChunkCursor {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkCursor {
    /// Creates a cursor over `0..len` yielding chunks of at most `chunk`
    /// indices. A `chunk` of 0 is treated as 1.
    pub fn new(len: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk, or `None` when the range is exhausted.
    #[inline]
    pub fn claim(&self) -> Option<Range<usize>> {
        // Exhaustion check with a plain load first: without it, a team
        // spinning on an exhausted cursor keeps `fetch_add`-ing, growing
        // the counter without bound and ping-ponging the cache line
        // between cores. With the check, each thread performs at most one
        // wasted `fetch_add` (a race on the last chunk), so the counter
        // stays ≤ `len + threads × chunk`.
        if self.next.load(Ordering::Relaxed) >= self.len {
            return None;
        }
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }

    /// Observes the raw claim counter with `Acquire` ordering — the
    /// read-side of the observability API, used by the bounded-growth
    /// invariants in tests and by debug assertions that compare the
    /// cursor's progress against trace counter totals.
    ///
    /// Claims use `fetch_add`, which is a read-modify-write the `Acquire`
    /// load synchronizes with, so a value read here is never ahead of the
    /// claims it reports, even when read mid-region. The fast-path claim
    /// itself stays `Relaxed`.
    pub fn issued(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// Total length of the underlying range.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_cover_range_exactly_once() {
        let cursor = ChunkCursor::new(103, 10);
        let mut seen = [false; 103];
        while let Some(range) = cursor.claim() {
            for i in range {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn zero_chunk_is_clamped_to_one() {
        let cursor = ChunkCursor::new(3, 0);
        assert_eq!(cursor.chunk(), 1);
        assert_eq!(cursor.claim(), Some(0..1));
        assert_eq!(cursor.claim(), Some(1..2));
        assert_eq!(cursor.claim(), Some(2..3));
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn empty_range_yields_nothing() {
        let cursor = ChunkCursor::new(0, 64);
        assert!(cursor.is_empty());
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn chunk_larger_than_range() {
        let cursor = ChunkCursor::new(5, 100);
        assert_eq!(cursor.claim(), Some(0..5));
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn exhausted_cursor_counter_stays_bounded() {
        // Regression: claims after exhaustion must not keep growing the
        // counter (unbounded `fetch_add` = cache-line ping-pong on idle
        // threads). Single-threaded, the post-exhaustion counter must not
        // move at all.
        let cursor = ChunkCursor::new(10, 4);
        while cursor.claim().is_some() {}
        let settled = cursor.issued();
        for _ in 0..1000 {
            assert_eq!(cursor.claim(), None);
        }
        assert_eq!(cursor.issued(), settled, "counter grew after exhaustion");
    }

    #[test]
    fn concurrent_exhausted_claims_bounded_by_team_size() {
        let threads = 8;
        let cursor = ChunkCursor::new(1000, 7);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // Drain, then hammer the exhausted cursor.
                    while cursor.claim().is_some() {}
                    for _ in 0..10_000 {
                        assert!(cursor.claim().is_none());
                    }
                });
            }
        });
        // Each thread can overshoot by at most one chunk.
        assert!(
            cursor.issued() <= cursor.len() + threads * cursor.chunk(),
            "counter {} not bounded",
            cursor.issued()
        );
    }

    #[test]
    fn concurrent_claims_partition_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cursor = ChunkCursor::new(100_000, 7);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = 0usize;
                    while let Some(r) = cursor.claim() {
                        local += r.len();
                    }
                    total.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 100_000);
    }
}

//! Conflict work-queue construction: eager shared vs. lazy thread-private.
//!
//! ColPack's conflict removal pushes each conflicting vertex into a shared
//! next-iteration queue immediately (one atomic per conflict — the `V-V`
//! and `V-V-64` baselines). The paper's `64D` refinement builds
//! thread-private queues and concatenates them after the join, removing the
//! shared atomic from the hot loop. Both are provided so the ablation can
//! measure the difference.
//!
//! The eager queue additionally supports *staged* pushes
//! ([`SharedQueue::push_staged`]): conflicts collect in a thread-private
//! buffer and flush [`STAGE_CAPACITY`] entries with a single `fetch_add`,
//! cutting tail-counter contention 64× while keeping the eager queue's
//! semantics (entries visible in the shared buffer after the join).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;

/// Entries a thread stages locally before one bulk `fetch_add` flush.
pub const STAGE_CAPACITY: usize = 64;

/// An eager shared queue: bounded, lock-free pushes via a single
/// `fetch_add` tail counter.
///
/// # Overflow semantics
///
/// Callers size the queue with the number of vertices, which bounds the
/// number of conflicts per iteration, so the tail counter can never
/// legitimately pass the buffer. Should it happen anyway (a sizing bug, a
/// kernel pushing a vertex twice), the queue must not tear down the whole
/// parallel region from inside the hot loop: out-of-range entries are
/// *dropped* and *counted* in the [`dropped`](Self::dropped) counter, and
/// [`len`](Self::len) clamps the (possibly overshot) tail to the capacity
/// so drain paths never index past the buffer. A dropped entry is a lost
/// work item — the vertex keeps its stale, possibly conflicting color —
/// so the runners treat a non-zero drop count after the drain as an
/// explicit degraded-run signal
/// ([`crate::DegradeReason::QueueOverflow`]) and repair sequentially.
pub struct SharedQueue {
    buf: Box<[AtomicU32]>,
    len: AtomicUsize,
    /// Entries rejected because the tail had passed the buffer. Sticky
    /// across [`clear`](Self::clear): the signal survives the drain that
    /// discovers it.
    dropped: AtomicUsize,
}

impl SharedQueue {
    /// Creates a queue able to hold `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, || AtomicU32::new(0));
        Self {
            buf: v.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Appends `w` (one `fetch_add` per entry — the unstaged baseline).
    ///
    /// A push that lands at or past the capacity is dropped and counted
    /// (see the overflow semantics above) instead of panicking mid-region.
    #[inline]
    pub fn push(&self, w: u32) {
        let slot = self.len.fetch_add(1, Ordering::AcqRel);
        if slot >= self.buf.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.buf[slot].store(w, Ordering::Relaxed);
    }

    /// Stages `w` into a thread-private buffer, flushing
    /// [`STAGE_CAPACITY`] entries with a single `fetch_add` when full.
    /// Call [`flush`](Self::flush) after the parallel region to push the
    /// remainder.
    #[inline]
    pub fn push_staged(&self, stage: &mut Vec<u32>, w: u32) {
        stage.push(w);
        if stage.len() >= STAGE_CAPACITY {
            self.flush(stage);
        }
    }

    /// Flushes a staging buffer into the shared tail: one `fetch_add` for
    /// the whole batch.
    ///
    /// When the batch does not fit, the in-range prefix is written and the
    /// remainder is dropped and counted (see the overflow semantics above);
    /// the stage is cleared either way.
    pub fn flush(&self, stage: &mut Vec<u32>) {
        if stage.is_empty() {
            return;
        }
        let base = self.len.fetch_add(stage.len(), Ordering::AcqRel);
        let fits = if base >= self.buf.len() {
            0
        } else {
            stage.len().min(self.buf.len() - base)
        };
        for (slot, &w) in self.buf[base..base + fits].iter().zip(stage.iter()) {
            slot.store(w, Ordering::Relaxed);
        }
        if fits < stage.len() {
            self.dropped
                .fetch_add(stage.len() - fits, Ordering::Relaxed);
        }
        stage.clear();
    }

    /// Number of entries readable from the queue, clamped to the capacity.
    ///
    /// The tail is advanced with `AcqRel` read-modify-writes and read here
    /// with `Acquire`, so a value observed mid-region is never ahead of
    /// the pushes it reports — which is what lets debug assertions compare
    /// this length against the trace counter totals the conflict kernels
    /// accumulate (the runner checks
    /// `Σ_t conflicts_detected(t) == |W_next|` for vertex-based phases)
    /// without racing. A `Relaxed` load would only be safe after a join
    /// barrier.
    ///
    /// An overshot tail (a caught overflow) is clamped rather than
    /// reported raw, so drain paths never index past the buffer; the
    /// overshoot itself is visible via [`dropped`](Self::dropped), which
    /// the runners check after every eager drain.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire).min(self.buf.len())
    }

    /// Number of entries dropped because the queue was full — the explicit
    /// degraded-run signal of the overflow semantics. Zero on every
    /// healthy run. Sticky: [`clear`](Self::clear) does not reset it.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Whether any entry has ever been dropped on this queue.
    pub fn has_overflowed(&self) -> bool {
        self.dropped() > 0
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the queue to empty (call between iterations, outside
    /// parallel regions). The [`dropped`](Self::dropped) counter is
    /// deliberately *not* reset: it is the sticky evidence a drain needs
    /// to flag the run as degraded after the fact.
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
    }

    /// Copies the contents into a vector (call after the producing region
    /// has joined).
    pub fn drain_to_vec(&self) -> Vec<u32> {
        let n = self.len();
        let out = (0..n)
            .map(|i| self.buf[i].load(Ordering::Relaxed))
            .collect();
        self.clear();
        out
    }
}

/// Concatenates the thread-private `local_queue`s of a scratch set (the
/// `64D` lazy strategy) into one vector, clearing them for reuse.
/// Deterministic order: by thread id.
pub fn merge_local_queues<F: ForbiddenSet, I: sparse::CsrIndex>(
    locals: &mut par::ThreadScratch<ThreadCtx<F, I>>,
) -> Vec<u32> {
    let total: usize = {
        let mut t = 0;
        for ctx in locals.iter_mut() {
            t += ctx.local_queue.len();
        }
        t
    };
    let mut merged = Vec::with_capacity(total);
    for ctx in locals.iter_mut() {
        merged.extend_from_slice(&ctx.local_queue);
        ctx.local_queue.clear();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain() {
        let q = SharedQueue::new(4);
        q.push(7);
        q.push(9);
        assert_eq!(q.len(), 2);
        let v = q.drain_to_vec();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&7) && v.contains(&9));
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let q = SharedQueue::new(4000);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..1000 {
                        q.push(t * 1000 + i);
                    }
                });
            }
        });
        let mut v = q.drain_to_vec();
        v.sort_unstable();
        assert_eq!(v.len(), 4000);
        assert_eq!(v, (0..4000).collect::<Vec<u32>>());
    }

    #[test]
    fn concurrent_staged_pushes_all_land() {
        // 4 threads × 1000 entries through 64-entry staging buffers, with
        // a residual flush per thread — nothing lost, nothing duplicated.
        let q = SharedQueue::new(4000);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let q = &q;
                s.spawn(move || {
                    let mut stage = Vec::new();
                    for i in 0..1000 {
                        q.push_staged(&mut stage, t * 1000 + i);
                    }
                    q.flush(&mut stage);
                    assert!(stage.is_empty());
                });
            }
        });
        let mut v = q.drain_to_vec();
        v.sort_unstable();
        assert_eq!(v, (0..4000).collect::<Vec<u32>>());
    }

    #[test]
    fn staged_pushes_batch_the_tail_counter() {
        let q = SharedQueue::new(256);
        let mut stage = Vec::new();
        for i in 0..(STAGE_CAPACITY as u32 - 1) {
            q.push_staged(&mut stage, i);
        }
        // Nothing flushed yet: the shared tail has not moved.
        assert_eq!(q.len(), 0);
        assert_eq!(stage.len(), STAGE_CAPACITY - 1);
        // The 64th entry triggers exactly one bulk flush.
        q.push_staged(&mut stage, 63);
        assert_eq!(q.len(), STAGE_CAPACITY);
        assert!(stage.is_empty());
    }

    #[test]
    fn exactly_full_queue_is_fine() {
        // Regression: a queue filled to exactly its capacity must read
        // back completely — len() must not mask or reject the boundary.
        let q = SharedQueue::new(STAGE_CAPACITY * 2);
        let mut stage = Vec::new();
        for i in 0..(STAGE_CAPACITY as u32 * 2) {
            q.push_staged(&mut stage, i);
        }
        assert!(stage.is_empty());
        assert_eq!(q.len(), STAGE_CAPACITY * 2);
        let v = q.drain_to_vec();
        assert_eq!(v, (0..STAGE_CAPACITY as u32 * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_panicking() {
        // Regression for the old panic-on-overflow semantics: a full queue
        // must reject the extra entry, count it, and keep every in-range
        // entry readable.
        let q = SharedQueue::new(1);
        q.push(7);
        q.push(8);
        assert_eq!(q.dropped(), 1, "second push must be counted as dropped");
        assert!(q.has_overflowed());
        assert_eq!(q.len(), 1, "len clamps to capacity");
        assert_eq!(q.drain_to_vec(), vec![7]);
    }

    #[test]
    fn staged_overflow_writes_prefix_and_counts_rest() {
        let q = SharedQueue::new(3);
        let mut stage = vec![1, 2, 3, 4];
        q.flush(&mut stage);
        assert!(stage.is_empty(), "stage is cleared even on overflow");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.drain_to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn flush_past_capacity_drops_whole_batch() {
        // Tail already at capacity: the entire batch lands out of range.
        let q = SharedQueue::new(2);
        q.push(0);
        q.push(1);
        let mut stage = vec![5, 6, 7];
        q.flush(&mut stage);
        assert_eq!(q.dropped(), 3);
        assert_eq!(q.drain_to_vec(), vec![0, 1]);
    }

    #[test]
    fn dropped_counter_survives_clear() {
        // The drain that discovers an overflow clears the queue; the
        // degraded-run signal must survive it.
        let q = SharedQueue::new(1);
        q.push(1);
        q.push(2);
        let _ = q.drain_to_vec();
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 1, "clear must not reset the drop count");
    }

    #[test]
    fn concurrent_overflow_loses_nothing_in_range() {
        // 4 threads push 4x the capacity: exactly `capacity` entries must
        // land, the rest must be counted, and no push may panic or write
        // out of bounds.
        let cap = 128;
        let q = SharedQueue::new(cap);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..cap as u32 {
                        q.push(t * cap as u32 + i);
                    }
                });
            }
        });
        assert_eq!(q.len(), cap);
        assert_eq!(q.dropped(), 3 * cap);
        let v = q.drain_to_vec();
        assert_eq!(v.len(), cap);
        let unique: std::collections::HashSet<u32> = v.into_iter().collect();
        assert_eq!(unique.len(), cap, "no slot may be written twice");
    }

    #[test]
    fn merge_locals_preserves_thread_order() {
        use crate::ctx::ThreadCtx;
        let mut locals: par::ThreadScratch<ThreadCtx> =
            par::ThreadScratch::new(3, |_| ThreadCtx::new(4));
        locals.with(0, |ctx| ctx.local_queue.extend([1, 2]));
        locals.with(2, |ctx| ctx.local_queue.push(5));
        let merged = merge_local_queues(&mut locals);
        assert_eq!(merged, vec![1, 2, 5]);
        // cleared for reuse
        assert!(merge_local_queues(&mut locals).is_empty());
    }
}

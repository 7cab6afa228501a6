//! Models of the runtime's lock-free protocols for the virtual scheduler.
//!
//! Two granularities are covered:
//!
//! * **Atomic-granularity models** re-implement the protocols of
//!   [`bgpc::workqueue::SharedQueue`] and [`par::ChunkCursor`] over plain
//!   data, splitting each operation into
//!   its constituent atomic actions (one load, one read-modify-write, one
//!   store per [`ThreadProgram::step`]). The virtual scheduler can then
//!   interleave those actions in every order the real hardware could,
//!   which is exactly where torn protocols break. A deliberately-buggy
//!   queue variant (non-atomic reserve) is included so the test suite can
//!   prove the explorer *detects* lost updates rather than merely runs.
//! * **Op-granularity drivers** run the *real* structures, one whole
//!   operation per step. The operations themselves are atomic with
//!   respect to each other (that is the structures' contract), so
//!   single-threaded execution under an adversarial op order checks the
//!   logical protocol — exactly-once coverage, bounded counters, overflow
//!   accounting — without relying on the OS scheduler to produce the
//!   nasty order.
//!
//! All invariants are checked on the final state, after every virtual
//! thread has finished — mirroring the real runners, which only read the
//! shared structures after a join barrier.

use crate::vsched::{
    explore_exhaustive, explore_random, CheckFailure, Coverage, ThreadProgram,
};
use bgpc::workqueue::SharedQueue;
use par::ChunkCursor;

// ---------------------------------------------------------------------------
// SharedQueue: atomic-granularity push/flush model
// ---------------------------------------------------------------------------

/// Modeled state of a [`SharedQueue`]: the tail counter, the slot array
/// and the drop counter, plus the ground truth of everything pushed.
#[derive(Debug)]
pub struct QueueState {
    cap: usize,
    tail: usize,
    slots: Vec<Option<u32>>,
    dropped: usize,
    pushed: usize,
}

impl QueueState {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            tail: 0,
            slots: vec![None; cap],
            dropped: 0,
            pushed: 0,
        }
    }
}

enum PushPc {
    /// About to execute the tail `fetch_add`.
    Reserve,
    /// Holds a reserved slot; about to store (or count the drop).
    Store { slot: usize },
}

/// One pusher thread: `items` two-step pushes (reserve, then store).
struct Pusher {
    remaining: usize,
    next_value: u32,
    pc: PushPc,
}

impl ThreadProgram<QueueState> for Pusher {
    fn step(&mut self, st: &mut QueueState) -> bool {
        match self.pc {
            PushPc::Reserve => {
                // fetch_add(1, AcqRel): read and bump in one atomic action.
                let slot = st.tail;
                st.tail += 1;
                st.pushed += 1;
                self.pc = PushPc::Store { slot };
                true
            }
            PushPc::Store { slot } => {
                if slot >= st.cap {
                    st.dropped += 1;
                } else {
                    st.slots[slot] = Some(self.next_value);
                }
                self.next_value += 1;
                self.remaining -= 1;
                self.pc = PushPc::Reserve;
                self.remaining > 0
            }
        }
    }
}

fn mk_queue_model(threads: usize, items: usize, cap: usize) -> (QueueState, Vec<Pusher>) {
    let pushers = (0..threads)
        .map(|t| Pusher {
            remaining: items,
            next_value: (t * items) as u32,
            pc: PushPc::Reserve,
        })
        .collect();
    (QueueState::new(cap), pushers)
}

fn check_queue_final(st: &QueueState) -> Result<(), String> {
    let readable = st.tail.min(st.cap);
    let mut seen = std::collections::HashSet::new();
    for (i, slot) in st.slots.iter().enumerate().take(readable) {
        let Some(w) = slot else {
            return Err(format!("hole at slot {i}: reserved but never stored"));
        };
        if !seen.insert(*w) {
            return Err(format!("value {w} landed in two slots"));
        }
    }
    if readable + st.dropped != st.pushed {
        return Err(format!(
            "work-item accounting broken: {readable} stored + {} dropped != {} pushed",
            st.dropped, st.pushed
        ));
    }
    Ok(())
}

/// Exhaustively interleaves `threads` pushers of `items` two-step pushes
/// into a `cap`-slot queue and checks the no-lost / no-duplicated /
/// no-hole / drop-accounting invariants on every final state.
pub fn check_queue_model_exhaustive(
    threads: usize,
    items: usize,
    cap: usize,
    limit: usize,
) -> Result<Coverage, CheckFailure> {
    explore_exhaustive(
        || mk_queue_model(threads, items, cap),
        limit,
        |st, _| check_queue_final(st),
    )
}

/// Randomly samples `rounds` interleavings of the queue push model.
pub fn check_queue_model_random(
    threads: usize,
    items: usize,
    cap: usize,
    seed: u64,
    rounds: usize,
) -> Result<Coverage, CheckFailure> {
    explore_random(
        || mk_queue_model(threads, items, cap),
        seed,
        rounds,
        |st, _| check_queue_final(st),
    )
}

// ---------------------------------------------------------------------------
// SharedQueue: staged-flush model
// ---------------------------------------------------------------------------

enum FlushPc {
    /// About to execute the bulk tail `fetch_add`.
    Reserve,
    /// Storing item `idx` of the batch at `base + idx`.
    Store { base: usize, idx: usize },
}

/// One flusher thread: a single staged batch flushed with one bulk
/// reserve followed by one store step per in-range entry.
struct Flusher {
    batch: Vec<u32>,
    pc: FlushPc,
}

impl ThreadProgram<QueueState> for Flusher {
    fn step(&mut self, st: &mut QueueState) -> bool {
        match self.pc {
            FlushPc::Reserve => {
                let base = st.tail;
                st.tail += self.batch.len();
                st.pushed += self.batch.len();
                // The out-of-range remainder is counted in the same
                // user-visible operation as the reservation's bookkeeping
                // (the real `flush` does both before returning; no other
                // thread observes a half-counted state because `dropped`
                // is only read after the join).
                let fits = if base >= st.cap {
                    0
                } else {
                    self.batch.len().min(st.cap - base)
                };
                st.dropped += self.batch.len() - fits;
                if fits == 0 {
                    return false;
                }
                self.batch.truncate(fits);
                self.pc = FlushPc::Store { base, idx: 0 };
                true
            }
            FlushPc::Store { base, idx } => {
                st.slots[base + idx] = Some(self.batch[idx]);
                if idx + 1 < self.batch.len() {
                    self.pc = FlushPc::Store { base, idx: idx + 1 };
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Exhaustively interleaves staged flushes (batch sizes given per thread)
/// into a `cap`-slot queue, checking the same final-state invariants as
/// the unstaged model.
pub fn check_flush_model_exhaustive(
    batches: &[usize],
    cap: usize,
    limit: usize,
) -> Result<Coverage, CheckFailure> {
    let batches = batches.to_vec();
    explore_exhaustive(
        move || {
            let mut next = 0u32;
            let flushers = batches
                .iter()
                .map(|&n| {
                    let batch = (next..next + n as u32).collect::<Vec<_>>();
                    next += n as u32;
                    Flusher {
                        batch,
                        pc: FlushPc::Reserve,
                    }
                })
                .collect();
            (QueueState::new(cap), flushers)
        },
        limit,
        |st, _| check_queue_final(st),
    )
}

// ---------------------------------------------------------------------------
// Deliberately-buggy queue: non-atomic reserve (lost update)
// ---------------------------------------------------------------------------

/// A pusher whose reserve is torn into a separate load and store — the
/// bug the `fetch_add` in the real queue exists to prevent. The explorer
/// must find the interleaving where two threads observe the same tail.
struct TornPusher {
    value: u32,
    observed: Option<usize>,
}

impl ThreadProgram<QueueState> for TornPusher {
    fn step(&mut self, st: &mut QueueState) -> bool {
        match self.observed.take() {
            None => {
                self.observed = Some(st.tail); // load
                true
            }
            Some(slot) => {
                st.tail = slot + 1; // store (non-atomic with the load!)
                st.pushed += 1;
                if slot < st.cap {
                    st.slots[slot] = Some(self.value);
                }
                false
            }
        }
    }
}

/// Runs the torn-reserve queue under exhaustive exploration and returns
/// the failure the explorer MUST produce. Used by the self-test layer to
/// prove detection power: a checker that cannot catch a planted lost
/// update proves nothing about the real protocols.
pub fn buggy_queue_must_be_caught() -> Result<CheckFailure, String> {
    let result = explore_exhaustive(
        || {
            let threads = (0..2)
                .map(|t| TornPusher {
                    value: t,
                    observed: None,
                })
                .collect::<Vec<_>>();
            (QueueState::new(8), threads)
        },
        10_000,
        |st, _| check_queue_final(st),
    );
    match result {
        Err(failure) => Ok(failure),
        Ok(cov) => Err(format!(
            "planted lost-update bug survived {} schedules undetected",
            cov.schedules
        )),
    }
}

// ---------------------------------------------------------------------------
// ChunkCursor: atomic-granularity claim model
// ---------------------------------------------------------------------------

/// Modeled state of a [`par::ChunkCursor`]: the claim counter plus a
/// per-index claim count (the coverage ledger).
#[derive(Debug)]
pub struct CursorState {
    len: usize,
    chunk: usize,
    next: usize,
    claims: Vec<usize>,
}

enum CursorPc {
    /// The `Relaxed` exhaustion pre-check load.
    Precheck,
    /// The `fetch_add` claim.
    FetchAdd,
}

struct CursorWorker {
    pc: CursorPc,
}

impl ThreadProgram<CursorState> for CursorWorker {
    fn step(&mut self, st: &mut CursorState) -> bool {
        match self.pc {
            CursorPc::Precheck => {
                if st.next >= st.len {
                    return false; // exhausted: worker leaves the loop
                }
                self.pc = CursorPc::FetchAdd;
                true
            }
            CursorPc::FetchAdd => {
                let start = st.next;
                st.next += st.chunk;
                self.pc = CursorPc::Precheck;
                if start >= st.len {
                    return false; // raced past the end: wasted fetch_add
                }
                for i in start..(start + st.chunk).min(st.len) {
                    st.claims[i] += 1;
                }
                true
            }
        }
    }
}

fn mk_cursor_model(threads: usize, len: usize, chunk: usize) -> (CursorState, Vec<CursorWorker>) {
    (
        CursorState {
            len,
            chunk: chunk.max(1),
            next: 0,
            claims: vec![0; len],
        },
        (0..threads)
            .map(|_| CursorWorker {
                pc: CursorPc::Precheck,
            })
            .collect(),
    )
}

fn check_cursor_final(st: &CursorState, threads: usize) -> Result<(), String> {
    for (i, &c) in st.claims.iter().enumerate() {
        if c != 1 {
            return Err(format!("index {i} claimed {c} times, expected exactly 1"));
        }
    }
    let bound = st.len + threads * st.chunk;
    if st.next > bound {
        return Err(format!(
            "claim counter {} exceeds bound len + threads*chunk = {bound}",
            st.next
        ));
    }
    Ok(())
}

/// Exhaustively interleaves `threads` cursor workers over `0..len` and
/// checks exactly-once coverage plus the bounded-counter invariant.
pub fn check_cursor_model_exhaustive(
    threads: usize,
    len: usize,
    chunk: usize,
    limit: usize,
) -> Result<Coverage, CheckFailure> {
    explore_exhaustive(
        || mk_cursor_model(threads, len, chunk),
        limit,
        |st, _| check_cursor_final(st, threads),
    )
}

/// Randomly samples cursor-model interleavings.
pub fn check_cursor_model_random(
    threads: usize,
    len: usize,
    chunk: usize,
    seed: u64,
    rounds: usize,
) -> Result<Coverage, CheckFailure> {
    explore_random(
        || mk_cursor_model(threads, len, chunk),
        seed,
        rounds,
        |st, _| check_cursor_final(st, threads),
    )
}

// ---------------------------------------------------------------------------
// Op-granularity drivers for the REAL structures
// ---------------------------------------------------------------------------

/// Shared state for op-granularity runs against the real [`SharedQueue`].
pub struct RealQueueState {
    queue: SharedQueue,
    pushed: usize,
}

struct RealPusher {
    values: Vec<u32>,
    idx: usize,
    staged: bool,
    stage: Vec<u32>,
}

impl ThreadProgram<RealQueueState> for RealPusher {
    fn step(&mut self, st: &mut RealQueueState) -> bool {
        if self.idx < self.values.len() {
            let w = self.values[self.idx];
            self.idx += 1;
            if self.staged {
                st.queue.push_staged(&mut self.stage, w);
            } else {
                st.queue.push(w);
            }
            st.pushed += 1;
            true
        } else if self.staged && !self.stage.is_empty() {
            st.queue.flush(&mut self.stage);
            false
        } else {
            false
        }
    }
}

/// Drives the real queue with whole push/flush ops under every op order
/// (mixing staged and unstaged pushers) and checks that the drain returns
/// exactly the pushed values minus the counted drops.
pub fn check_real_queue_ops(
    cap: usize,
    per_thread: &[usize],
    staged: bool,
    limit: usize,
) -> Result<Coverage, CheckFailure> {
    let per_thread = per_thread.to_vec();
    explore_exhaustive(
        move || {
            let mut next = 0u32;
            let pushers = per_thread
                .iter()
                .map(|&n| {
                    let values = (next..next + n as u32).collect::<Vec<_>>();
                    next += n as u32;
                    RealPusher {
                        values,
                        idx: 0,
                        staged,
                        stage: Vec::new(),
                    }
                })
                .collect();
            (
                RealQueueState {
                    queue: SharedQueue::new(cap),
                    pushed: 0,
                },
                pushers,
            )
        },
        limit,
        |st, _| {
            let drained = st.queue.len();
            let dropped = st.queue.dropped();
            if drained + dropped != st.pushed {
                return Err(format!(
                    "real queue accounting: {drained} readable + {dropped} dropped != {} pushed",
                    st.pushed
                ));
            }
            let v = st.queue.drain_to_vec();
            let unique: std::collections::HashSet<u32> = v.iter().copied().collect();
            if unique.len() != v.len() {
                return Err("real queue: a value landed in two slots".into());
            }
            Ok(())
        },
    )
}

/// Shared state for op-granularity runs against the real [`ChunkCursor`]:
/// the cursor plus a coverage ledger.
pub struct RealCursorState {
    cursor: ChunkCursor,
    claims: Vec<usize>,
}

struct RealWorker;

impl ThreadProgram<RealCursorState> for RealWorker {
    fn step(&mut self, st: &mut RealCursorState) -> bool {
        match st.cursor.claim() {
            Some(r) => {
                for i in r {
                    st.claims[i] += 1;
                }
                true
            }
            None => false,
        }
    }
}

/// Drives the real [`ChunkCursor`] with whole claim ops under every op
/// order and checks exactly-once coverage plus the counter bound.
pub fn check_real_cursor_ops(
    threads: usize,
    len: usize,
    chunk: usize,
    limit: usize,
) -> Result<Coverage, CheckFailure> {
    explore_exhaustive(
        move || {
            (
                RealCursorState {
                    cursor: ChunkCursor::new(len, chunk),
                    claims: vec![0; len],
                },
                (0..threads).map(|_| RealWorker).collect(),
            )
        },
        limit,
        move |st, _| {
            for (i, &c) in st.claims.iter().enumerate() {
                if c != 1 {
                    return Err(format!(
                        "real cursor: index {i} claimed {c} times, expected exactly 1"
                    ));
                }
            }
            let cursor = &st.cursor;
            let bound = len + threads * cursor.chunk();
            if cursor.issued() > bound {
                return Err(format!(
                    "real cursor counter {} exceeds bound {bound}",
                    cursor.issued()
                ));
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_model_exhaustive_two_pushers() {
        let cov = check_queue_model_exhaustive(2, 2, 8, 100_000).expect("protocol is sound");
        assert!(cov.complete, "small space must be fully enumerated");
        assert!(cov.schedules > 1);
    }

    #[test]
    fn queue_model_overflow_accounting_holds_under_all_orders() {
        // Capacity 2, four pushes: two entries must drop, none may be lost.
        let cov = check_queue_model_exhaustive(2, 2, 2, 100_000).expect("drop accounting sound");
        assert!(cov.complete);
    }

    #[test]
    fn flush_model_exhaustive_mixed_batches() {
        let cov =
            check_flush_model_exhaustive(&[3, 2], 4, 100_000).expect("flush accounting sound");
        assert!(cov.complete);
    }

    #[test]
    fn torn_reserve_is_caught_with_a_replayable_schedule() {
        let failure = buggy_queue_must_be_caught().expect("explorer must catch the planted bug");
        assert!(
            failure.message.contains("hole")
                || failure.message.contains("two slots")
                || failure.message.contains("accounting"),
            "unexpected failure shape: {failure}"
        );
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn cursor_model_exhaustive_small() {
        let cov = check_cursor_model_exhaustive(2, 5, 2, 1_000_000).expect("cursor sound");
        assert!(cov.complete);
    }

    #[test]
    fn cursor_model_random_larger() {
        check_cursor_model_random(3, 64, 7, 0xC0FFEE, 200).expect("cursor sound under sampling");
    }

    #[test]
    fn real_queue_ops_unstaged_and_staged() {
        check_real_queue_ops(8, &[2, 2], false, 100_000).expect("real queue sound");
        check_real_queue_ops(8, &[2, 2], true, 100_000).expect("real staged queue sound");
        // Overflowing op mix: accounting must still balance.
        check_real_queue_ops(2, &[2, 2], false, 100_000).expect("real queue overflow accounted");
    }

    #[test]
    fn real_cursor_ops_exhaustive() {
        let cov = check_real_cursor_ops(2, 7, 2, 1_000_000).expect("real cursor sound");
        assert!(cov.complete);
    }
}

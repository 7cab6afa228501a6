//! Fork/join thread pool with caller participation and fault containment.

use std::any::Any;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::cursor::ChunkCursor;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// The pool is explicitly designed to survive panics inside parallel
/// regions, so a poisoned lock is an expected state, not a bug: the
/// protected `State` is only ever mutated under the lock in small,
/// atomic steps that cannot be observed half-done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased parallel region body: `f(thread_id)`.
///
/// The pointer is only dereferenced between the publish in
/// [`Pool::try_run`] and the completion barrier at the end of the same
/// call, so the `'static` lifetime produced by the transmute in `try_run`
/// never outlives the borrow it erases.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the closure behind `f` is `Sync`, and `Job` values are only read
// (never mutated) by workers while the owning `try_run` call keeps the
// referent alive; see `Job` docs.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct State {
    /// Monotonically increasing region id; workers run once per increment.
    epoch: u64,
    /// Current region body, valid while `remaining > 0`.
    job: Option<Job>,
    /// Workers that have not yet finished the current region.
    remaining: usize,
    /// Captured panic payloads from workers in the current region.
    panics: Vec<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new epoch (or shutdown) is available.
    work_cv: Condvar,
    /// Signals the caller that all workers finished the region.
    done_cv: Condvar,
}

/// A panic captured inside a parallel region or a contained phase.
///
/// Holds the original payloads so callers that *want* the old abort
/// behaviour can [`resume`](RegionPanic::resume) them, while callers that
/// want fault containment can log [`first_message`](RegionPanic::first_message)
/// and fall back to a sequential path. The team itself survives: the pool's
/// worker threads catch the unwind at the region boundary and return to
/// their idle loop, so subsequent regions run normally.
pub struct RegionPanic {
    /// `(thread id, payload)` per panicked team member, master (0) first.
    payloads: Vec<(usize, Box<dyn Any + Send>)>,
}

impl RegionPanic {
    /// Wraps a payload caught outside the pool (see [`crate::contain`]).
    /// The catch happens on the calling thread, i.e. the team master.
    pub fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        Self {
            payloads: vec![(0, payload)],
        }
    }

    /// Number of team members that panicked.
    pub fn count(&self) -> usize {
        self.payloads.len()
    }

    /// Thread ids that panicked, ascending (master is 0).
    pub fn threads(&self) -> Vec<usize> {
        self.payloads.iter().map(|(t, _)| *t).collect()
    }

    /// Human-readable message of the first (lowest-tid) panic.
    pub fn first_message(&self) -> String {
        self.payloads
            .first()
            // `&**p` reborrows the payload itself; a bare `p` would unsize
            // the `&Box` into the `dyn Any` and defeat the downcasts.
            .map(|(tid, p)| format!("thread {tid}: {}", payload_str(&**p)))
            .unwrap_or_else(|| "empty region panic".to_string())
    }

    /// Re-raises the captured panics with the pre-containment semantics:
    /// a master panic resumes its original payload (so `catch_unwind`
    /// callers see e.g. the original `&str`), while worker-only panics
    /// raise a summary message.
    pub fn resume(self) -> ! {
        let workers = self.payloads.iter().filter(|(t, _)| *t != 0).count();
        let detail = self.first_message();
        for (tid, payload) in self.payloads {
            if tid == 0 {
                panic::resume_unwind(payload);
            }
        }
        panic!("{workers} pool worker(s) panicked in parallel region ({detail})");
    }
}

fn payload_str(p: &(dyn Any + Send)) -> &str {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = p.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl fmt::Debug for RegionPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionPanic")
            .field("threads", &self.threads())
            .field("first_message", &self.first_message())
            .finish()
    }
}

impl fmt::Display for RegionPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} team member(s) panicked in parallel region ({})",
            self.count(),
            self.first_message()
        )
    }
}

impl std::error::Error for RegionPanic {}

/// Runs `f` on the current thread, converting an unwind into a
/// [`RegionPanic`] instead of propagating it.
///
/// This is the phase-level containment primitive: the coloring runners wrap
/// each kernel call (which may itself execute pool regions whose panics are
/// re-raised by [`Pool::run`]) so a fault in any phase degrades to the
/// sequential fallback instead of aborting the process.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, RegionPanic> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(RegionPanic::from_payload)
}

/// A fixed team of threads executing fork/join parallel regions.
///
/// A pool of `t` logical threads owns `t - 1` OS worker threads; the caller
/// of [`run`](Pool::run) participates as thread 0, exactly like the OpenMP
/// master thread. `Pool::new(1)` therefore spawns nothing and runs regions
/// inline, which makes single-thread baselines free of scheduling overhead.
///
/// Threads are created once and reused for every region, so per-region cost
/// is one mutex round-trip plus condvar wakeups — negligible against the
/// millisecond-scale coloring iterations it schedules.
///
/// # Fault model
///
/// Workers wrap every region body in `catch_unwind`; a panicking member
/// never takes down its OS thread. [`try_run`](Pool::try_run) reports the
/// captured payloads as a [`RegionPanic`] and resets the region state, so
/// the team remains usable. [`run`](Pool::run) keeps the historical
/// panic-on-fault contract on top of `try_run`.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Observability sink; `None` (the default) keeps every hook to a
    /// single branch per region — see [`Pool::set_tracer`].
    tracer: Option<Arc<trace::Recorder>>,
}

impl Pool {
    /// Creates a pool with `threads` logical threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("par-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
            tracer: None,
        }
    }

    /// Number of logical threads in the team (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether team members are pinned to CPUs: always `false`, since the
    /// pool leaves placement to the OS scheduler. Kept so run records can
    /// stamp it.
    pub fn pinned(&self) -> bool {
        false
    }

    /// Installs an observability recorder on the team.
    ///
    /// The recorder must have been created for at least
    /// [`threads()`](Pool::threads) slots. Once installed, every parallel
    /// region wraps each member in a [`trace::BusyGuard`] (busy time +
    /// region span, flushed even when the member panics — `try_run` fault
    /// containment keeps traces well-formed), and
    /// [`for_dynamic`](Pool::for_dynamic) counts chunk claims. Without a
    /// recorder the only cost is one `Option` branch per region: tracing
    /// is disabled by default.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use par::Pool;
    ///
    /// let mut pool = Pool::new(2);
    /// pool.set_tracer(Arc::new(trace::Recorder::new(pool.threads())));
    /// pool.for_dynamic(100, 8, |_tid, _range| {});
    /// let totals = pool.tracer().unwrap().totals();
    /// assert!(totals.get(trace::Counter::ChunksClaimed) >= 100 / 8);
    /// assert!(totals.get(trace::Counter::BusyNs) > 0);
    /// ```
    pub fn set_tracer(&mut self, tracer: Arc<trace::Recorder>) {
        assert!(
            tracer.threads() >= self.threads,
            "recorder has {} slots for a team of {}",
            tracer.threads(),
            self.threads
        );
        self.tracer = Some(tracer);
    }

    /// The installed recorder, if any. Kernels use this to flush their
    /// locally accumulated counters once per chunk.
    #[inline]
    pub fn tracer(&self) -> Option<&trace::Recorder> {
        self.tracer.as_deref()
    }

    /// Executes `f(thread_id)` once on every team member and waits for all
    /// of them — an `omp parallel` region.
    ///
    /// Panics captured from any team member are returned as a
    /// [`RegionPanic`]; the pool itself stays usable either way. The range
    /// of indices a faulted region actually processed is unspecified —
    /// callers recover by re-validating results (the coloring runners
    /// re-detect conflicts sequentially).
    pub fn try_run<F>(&self, f: F) -> Result<(), RegionPanic>
    where
        F: Fn(usize) + Sync,
    {
        match &self.tracer {
            Some(rec) => {
                let rec: &trace::Recorder = rec;
                self.try_run_inner(move |tid| {
                    // The guard records busy time + a region span on drop,
                    // so it flushes during a panic unwind too — a contained
                    // fault still yields a complete trace.
                    let _busy = rec.busy_guard(tid);
                    f(tid);
                })
            }
            None => self.try_run_inner(f),
        }
    }

    fn try_run_inner<F>(&self, f: F) -> Result<(), RegionPanic>
    where
        F: Fn(usize) + Sync,
    {
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the erased borrow is dead before `try_run` returns —
        // workers signal completion via `remaining`/`done_cv`, and we block
        // on that barrier below before `f` can be dropped.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f_ref as *const _)
            },
        };

        if self.threads > 1 {
            let mut state = lock(&self.shared.state);
            debug_assert_eq!(state.remaining, 0, "nested/overlapping run detected");
            state.job = Some(job);
            state.epoch += 1;
            state.remaining = self.threads - 1;
            state.panics.clear();
            drop(state);
            self.shared.work_cv.notify_all();
        }

        // The caller is thread 0.
        let master = panic::catch_unwind(AssertUnwindSafe(|| f(0)));

        let mut payloads: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
        if let Err(payload) = master {
            payloads.push((0, payload));
        }

        if self.threads > 1 {
            let mut state = lock(&self.shared.state);
            while state.remaining > 0 {
                state = self
                    .shared
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            payloads.append(&mut state.panics);
        }

        if payloads.is_empty() {
            Ok(())
        } else {
            payloads.sort_by_key(|(tid, _)| *tid);
            Err(RegionPanic { payloads })
        }
    }

    /// Executes `f(thread_id)` once on every team member and waits for all
    /// of them — an `omp parallel` region.
    ///
    /// Panics if any team member panics: a master panic is resumed with its
    /// original payload, worker panics raise a summary. Use
    /// [`try_run`](Pool::try_run) for recoverable fault containment.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if let Err(fault) = self.try_run(f) {
            fault.resume();
        }
    }

    /// Parallel for over `0..len` with dynamic chunk scheduling — the
    /// equivalent of `#pragma omp parallel for schedule(dynamic, chunk)`.
    ///
    /// `f(thread_id, range)` is invoked for disjoint chunks covering the
    /// range exactly once.
    pub fn for_dynamic<F>(&self, len: usize, chunk: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let cursor = ChunkCursor::new(len, chunk);
        let rec = self.tracer();
        self.run(|tid| {
            let mut claims = 0u64;
            while let Some(range) = cursor.claim() {
                claims += 1;
                f(tid, range);
            }
            if let Some(r) = rec {
                r.count(tid, trace::Counter::ChunksClaimed, claims);
            }
        });
    }

    /// Parallel for over `0..len` with contiguous static block partitioning —
    /// the equivalent of `schedule(static)`.
    pub fn for_static<F>(&self, len: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let t = self.threads;
        self.run(|tid| {
            let lo = len * tid / t;
            let hi = len * (tid + 1) / t;
            if lo < hi {
                f(tid, lo..hi);
            }
        });
    }

    /// Parallel map-reduce over `0..len` with dynamic chunking: `map`
    /// produces a value per chunk, `fold` combines values within a thread,
    /// and the per-thread results are reduced on the caller after the join
    /// (an OpenMP `reduction` clause).
    ///
    /// `fold` must be associative for the result to be well-defined; it
    /// need not be commutative across threads because the final reduction
    /// runs in thread-id order.
    pub fn reduce<T, M, F>(&self, len: usize, chunk: usize, identity: T, map: M, fold: F) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize, Range<usize>) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        let partials: Vec<Mutex<T>> = (0..self.threads)
            .map(|_| Mutex::new(identity.clone()))
            .collect();
        let cursor = ChunkCursor::new(len, chunk);
        self.run(|tid| {
            let mut acc = identity.clone();
            while let Some(range) = cursor.claim() {
                acc = fold(acc, map(tid, range));
            }
            *lock(&partials[tid]) = acc;
        });
        partials
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .fold(identity, &fold)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    let job = state.job.as_ref().expect("epoch advanced without job");
                    break Job { f: job.f };
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        // SAFETY: `try_run` keeps the closure alive until `remaining` drops
        // to zero, which only happens after this call returns.
        let f = unsafe { &*job.f };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(tid)));

        let mut state = lock(&shared.state);
        if let Err(payload) = result {
            state.panics.push((tid, payload));
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let hit = AtomicUsize::new(0);
        pool.run(|tid| {
            assert_eq!(tid, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.into_inner(), 1);
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        let pool = Pool::new(8);
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|tid| {
            counts[tid].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn regions_are_reusable() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 400);
    }

    #[test]
    fn for_dynamic_covers_range() {
        let pool = Pool::new(4);
        let n = 10_007;
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_dynamic(n, 13, |_tid, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_static_covers_range_in_blocks() {
        let pool = Pool::new(3);
        let n = 100;
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_static(n, |_tid, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_static_handles_more_threads_than_items() {
        let pool = Pool::new(8);
        let marks: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.for_static(3, |_tid, range| {
            for i in range {
                marks[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = Pool::new(4);
        pool.for_dynamic(0, 64, |_, _| panic!("must not be called"));
        pool.for_static(0, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn master_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|tid| {
            if tid == 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "pool worker")]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        pool.run(|tid| {
            if tid == 1 {
                panic!("worker boom");
            }
        });
    }

    #[test]
    fn pool_survives_worker_panic() {
        let pool = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 1 {
                    panic!("first region");
                }
            });
        }));
        assert!(caught.is_err());
        // The team must still be usable afterwards.
        let total = AtomicUsize::new(0);
        pool.run(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 2);
    }

    #[test]
    fn try_run_reports_worker_panic_without_unwinding() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(|tid| {
                if tid == 2 {
                    panic!("injected at tid 2");
                }
            })
            .expect_err("panic must be reported");
        assert_eq!(err.count(), 1);
        assert_eq!(err.threads(), vec![2]);
        assert!(err.first_message().contains("injected at tid 2"));
        // The team survives and the next region is clean.
        let total = AtomicUsize::new(0);
        pool.try_run(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean region after fault");
        assert_eq!(total.into_inner(), 4);
    }

    #[test]
    fn try_run_captures_all_panicking_members() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(|tid| {
                if tid % 2 == 0 {
                    panic!("even thread {tid}");
                }
            })
            .expect_err("panics must be reported");
        assert_eq!(err.threads(), vec![0, 2]);
        // Master is first, so its payload leads the report.
        assert!(err.first_message().contains("thread 0"));
    }

    #[test]
    fn try_run_single_thread_contains_master_panic() {
        let pool = Pool::new(1);
        let err = pool
            .try_run(|_| panic!("inline"))
            .expect_err("inline panic must be contained");
        assert_eq!(err.threads(), vec![0]);
        pool.try_run(|_| {}).expect("pool survives");
    }

    #[test]
    fn contain_catches_nested_region_panic() {
        let pool = Pool::new(2);
        let err = contain(|| {
            pool.run(|tid| {
                if tid == 1 {
                    panic!("kernel fault");
                }
            });
        })
        .expect_err("region panic must be contained");
        assert!(
            err.first_message().contains("pool worker"),
            "summary message expected, got: {}",
            err.first_message()
        );
        // Both the containment wrapper and the pool remain usable.
        contain(|| pool.run(|_| {})).expect("clean region after containment");
    }

    #[test]
    fn contain_passes_through_result() {
        assert_eq!(contain(|| 41 + 1).unwrap(), 42);
    }

    #[test]
    fn zero_threads_is_clamped() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn tracer_counts_dynamic_chunks_and_busy_time() {
        let mut pool = Pool::new(4);
        let rec = Arc::new(trace::Recorder::new(4));
        pool.set_tracer(Arc::clone(&rec));
        let n = 1000;
        let chunk = 16;
        pool.for_dynamic(n, chunk, |_tid, _r| {});
        let totals = rec.totals();
        assert_eq!(
            totals.get(trace::Counter::ChunksClaimed),
            (n as u64).div_ceil(chunk as u64)
        );
        // Every team member ran one region span with busy time.
        let regions = rec
            .events()
            .iter()
            .filter(|(_, e)| e.kind == trace::SpanKind::Region)
            .count();
        assert_eq!(regions, 4);
        assert!(totals.get(trace::Counter::BusyNs) > 0);
    }

    #[test]
    fn panicking_worker_still_flushes_busy_span() {
        let mut pool = Pool::new(3);
        let rec = Arc::new(trace::Recorder::new(3));
        pool.set_tracer(Arc::clone(&rec));
        let err = pool
            .try_run(|tid| {
                if tid == 1 {
                    panic!("injected");
                }
            })
            .expect_err("panic must be contained");
        assert_eq!(err.threads(), vec![1]);
        // The faulted member's unwind ran its BusyGuard: all 3 members
        // have a region span, so the exported trace stays well-formed.
        let mut span_tids: Vec<usize> = rec
            .events()
            .iter()
            .filter(|(_, e)| e.kind == trace::SpanKind::Region)
            .map(|(tid, _)| *tid)
            .collect();
        span_tids.sort_unstable();
        assert_eq!(span_tids, vec![0, 1, 2]);
        let json = trace::chrome_trace_json(&rec, "fault-test");
        trace::reader::ChromeTrace::parse(&json).expect("trace parses after fault");
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn undersized_recorder_is_rejected() {
        let mut pool = Pool::new(4);
        pool.set_tracer(Arc::new(trace::Recorder::new(2)));
    }

    #[test]
    fn reduce_sums_range() {
        let pool = Pool::new(4);
        let sum = pool.reduce(
            10_001,
            64,
            0usize,
            |_tid, range| range.sum::<usize>(),
            |a, b| a + b,
        );
        assert_eq!(sum, 10_001 * 10_000 / 2);
    }

    #[test]
    fn reduce_empty_range_is_identity() {
        let pool = Pool::new(3);
        let v = pool.reduce(0, 8, 42usize, |_, _| panic!("no chunks"), |a, b| a.max(b));
        assert_eq!(v, 42);
    }

    #[test]
    fn reduce_max_over_blocks() {
        let data: Vec<u32> = (0..5000).map(|i| (i * 2654435761u64 % 9973) as u32).collect();
        let pool = Pool::new(4);
        let expect = *data.iter().max().unwrap();
        let got = pool.reduce(
            data.len(),
            37,
            0u32,
            |_tid, range| data[range].iter().copied().max().unwrap_or(0),
            |a, b| a.max(b),
        );
        assert_eq!(got, expect);
    }
}

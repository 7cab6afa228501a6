//! Bounded, priority-laned admission queue.
//!
//! The daemon's memory under overload is bounded by construction: the
//! queue holds at most `capacity` jobs across its three lanes, and a
//! submit against a full queue fails *immediately* with
//! [`SubmitError::Full`] — the handler converts that into a typed
//! `Backpressure` frame so the client backs off instead of the daemon
//! buffering without limit. Within the bound, jobs are served strictly
//! by lane ([`Priority::High`] first) and FIFO within a lane.
//!
//! One `Mutex` + `Condvar` pair is deliberate: the executor drains jobs
//! one at a time (the shared [`par::Pool`] runs one region at a time),
//! so queue throughput is never the bottleneck and the simplest correct
//! structure wins.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::protocol::Priority;
use crate::sync::{lock_recover, wait_recover};

/// Seed for an incremental update job: the cached base coloring plus the
/// dirty vertices of the applied delta. Present only on jobs admitted
/// through the `Update` verb when the base graph's coloring was still in
/// the result cache — the executor then recolors just the dirty set via
/// [`bgpc::recolor_incremental`] instead of running from scratch.
#[derive(Clone, Debug)]
pub struct UpdateSeed {
    /// The cached coloring of the *base* graph (original vertex ids).
    pub base_colors: Vec<i32>,
    /// Vertices whose colors must be rebuilt (the delta's touched
    /// columns); everything else keeps its base color.
    pub dirty: Vec<u32>,
}

/// A unit of admitted work, handed from a connection handler to the
/// executor.
pub struct Job {
    /// Admission lane.
    pub priority: Priority,
    /// Absolute deadline, already converted from the wire's relative
    /// milliseconds at admission time (queue wait counts against it).
    pub deadline: Option<Instant>,
    /// Skip the result cache for this job.
    pub no_cache: bool,
    /// Resolved schedule; `None` lets the auto-tuning engine pick the
    /// whole config from instance features at execution time.
    pub schedule: Option<bgpc::Schedule>,
    /// The decoded pattern.
    pub matrix: sparse::Csr,
    /// Content fingerprint of `matrix` (cache key).
    pub fingerprint: u128,
    /// Incremental-recoloring seed; `None` for ordinary full runs.
    pub seed: Option<UpdateSeed>,
    /// Where the executor sends the finished response; a dropped receiver
    /// (client went away) makes the send fail harmlessly.
    pub reply: Sender<crate::daemon::JobReply>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("no_cache", &self.no_cache)
            .field("fingerprint", &format_args!("{:032x}", self.fingerprint))
            .finish_non_exhaustive()
    }
}

/// Why a submit was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; payload is `(depth, capacity)` for the
    /// `Backpressure` frame.
    Full {
        /// Jobs queued at refusal time.
        depth: usize,
        /// Configured bound.
        capacity: usize,
    },
    /// The queue was closed (daemon shutting down).
    Closed,
}

struct Lanes {
    lanes: [VecDeque<Job>; 3],
    depth: usize,
    closed: bool,
}

/// Bounded three-lane MPSC queue (any thread submits, the executor pops).
pub struct AdmissionQueue {
    inner: Mutex<Lanes>,
    nonempty: Condvar,
    capacity: usize,
    /// High-water mark of `depth`, for the overload test and stats.
    peak_depth: AtomicUsize,
}

impl AdmissionQueue {
    /// New queue bounded at `capacity` jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                depth: 0,
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
            peak_depth: AtomicUsize::new(0),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth across lanes.
    pub fn depth(&self) -> usize {
        lock_recover(&self.inner).depth
    }

    /// Highest depth ever observed.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Non-blocking admission: enqueues or refuses immediately.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut g = lock_recover(&self.inner);
        // Poison-injection point: an armed panic here unwinds while the
        // queue lock is held, poisoning it — the recovery contract
        // (`lock_recover` everywhere) is what keeps the daemon alive
        // afterwards. Proven end to end in `tests/poison.rs`.
        par::faults::fire("serve.queue.poison", 0);
        if g.closed {
            return Err(SubmitError::Closed);
        }
        if g.depth >= self.capacity {
            return Err(SubmitError::Full { depth: g.depth, capacity: self.capacity });
        }
        let lane = job.priority as usize;
        g.lanes[lane].push_back(job);
        g.depth += 1;
        self.peak_depth.fetch_max(g.depth, Ordering::Relaxed);
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocking pop in priority order; `None` once the queue is closed
    /// *and* drained.
    pub fn pop(&self) -> Option<Job> {
        let mut g = lock_recover(&self.inner);
        loop {
            for lane in &mut g.lanes {
                if let Some(job) = lane.pop_front() {
                    g.depth -= 1;
                    return Some(job);
                }
            }
            if g.closed {
                return None;
            }
            g = wait_recover(&self.nonempty, g);
        }
    }

    /// Closes the queue: future submits fail, `pop` drains then returns
    /// `None`.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn job(priority: Priority) -> Job {
        let (tx, _rx) = channel();
        // Leak the receiver side deliberately: these tests only exercise
        // queue mechanics, never reply delivery.
        std::mem::forget(_rx);
        Job {
            priority,
            deadline: None,
            no_cache: false,
            schedule: Some(bgpc::Schedule::n1_n2()),
            matrix: sparse::Csr::empty(1, 1),
            fingerprint: 0,
            seed: None,
            reply: tx,
        }
    }

    #[test]
    fn pops_in_priority_order_fifo_within_lane() {
        let q = AdmissionQueue::new(8);
        q.try_submit(job(Priority::Low)).unwrap();
        q.try_submit(job(Priority::Normal)).unwrap();
        q.try_submit(job(Priority::High)).unwrap();
        q.try_submit(job(Priority::Normal)).unwrap();
        let order: Vec<Priority> = (0..4).map(|_| q.pop().unwrap().priority).collect();
        assert_eq!(
            order,
            [Priority::High, Priority::Normal, Priority::Normal, Priority::Low]
        );
    }

    #[test]
    fn refuses_at_capacity_with_depth() {
        let q = AdmissionQueue::new(2);
        q.try_submit(job(Priority::Normal)).unwrap();
        q.try_submit(job(Priority::High)).unwrap();
        assert_eq!(
            q.try_submit(job(Priority::Low)).unwrap_err(),
            SubmitError::Full { depth: 2, capacity: 2 }
        );
        assert_eq!(q.peak_depth(), 2);
        // Draining reopens admission.
        q.pop().unwrap();
        q.try_submit(job(Priority::Low)).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(AdmissionQueue::new(4));
        q.try_submit(job(Priority::Normal)).unwrap();
        q.close();
        assert_eq!(q.try_submit(job(Priority::High)).unwrap_err(), SubmitError::Closed);
        assert!(q.pop().is_some(), "close drains queued work first");
        assert!(q.pop().is_none(), "then signals shutdown");
    }

    #[test]
    fn pop_blocks_until_submit() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop().map(|j| j.priority));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_submit(job(Priority::High)).unwrap();
        assert_eq!(t.join().unwrap(), Some(Priority::High));
    }
}

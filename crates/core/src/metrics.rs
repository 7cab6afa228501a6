//! Per-iteration timing and queue metrics.
//!
//! Figure 1 of the paper plots the coloring and conflict-removal time of
//! each speculative iteration; Table I reports the work-queue size left
//! after the first iteration. The runner records both for every run.

use std::time::Duration;

use crate::schedule::PhaseKind;
use crate::Color;

/// One thread's activity during one speculative iteration, split by phase.
///
/// The sheets are *deltas* of the team recorder's monotonic counters,
/// snapshotted by the runner around each phase — so
/// `color.get(trace::Counter::VerticesColored)` is exactly the number of
/// optimistic assignments this thread made in this iteration's coloring
/// phase. Only populated when a `trace::Recorder` is installed on the pool
/// (see [`par::Pool::set_tracer`]); empty slices mean tracing was off.
#[derive(Clone, Copy, Debug)]
pub struct ThreadIterStats {
    /// Team thread id.
    pub tid: usize,
    /// Counter deltas accumulated during the coloring phase.
    pub color: trace::CounterSheet,
    /// Counter deltas accumulated during the conflict-removal phase.
    pub conflict: trace::CounterSheet,
}

/// Measurements for one speculative iteration.
#[derive(Clone, Debug)]
pub struct IterationMetrics {
    /// 0-based iteration number.
    pub iter: usize,
    /// Work-queue size entering the iteration.
    pub queue_in: usize,
    /// Phase kind used for coloring.
    pub color_kind: PhaseKind,
    /// Phase kind used for conflict removal.
    pub conflict_kind: PhaseKind,
    /// Wall time of the coloring phase. On a degraded run's last row it
    /// also holds the sequential repair's time, the only coloring a
    /// deadline or iteration-cap row does.
    pub color_time: Duration,
    /// Wall time of the conflict-removal phase.
    pub conflict_time: Duration,
    /// Work-queue size left for the next iteration (`|W_next|`).
    pub queue_out: usize,
    /// Per-thread counter slices for this iteration; empty when no
    /// recorder is installed (tracing is off by default).
    pub per_thread: Vec<ThreadIterStats>,
}

/// Which phase of the speculative loop a fault was contained in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailedPhase {
    /// The optimistic coloring phase.
    Color,
    /// The conflict-detection/removal phase.
    Conflict,
}

/// Why a run abandoned the parallel speculative loop and finished on the
/// sequential fallback path. The resulting coloring is still valid and
/// complete — degradation affects performance and determinism, not
/// correctness — but callers measuring speedups must know it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The liveness guard tripped: the queue was still non-empty after the
    /// configured iteration cap.
    IterationCap {
        /// The cap that was hit.
        cap: usize,
    },
    /// A team member panicked inside a parallel phase; the panic was
    /// contained and the run repaired sequentially.
    WorkerPanic {
        /// Phase the fault occurred in.
        phase: FailedPhase,
        /// Iteration number of the faulted phase.
        iter: usize,
        /// Captured panic message (first panicking thread).
        message: String,
    },
    /// The eager shared conflict queue overflowed: entries were dropped
    /// (see [`crate::workqueue::SharedQueue::dropped`]), meaning some
    /// conflict losers were never re-queued. The runner repairs the
    /// partial coloring sequentially, so the result is still valid.
    QueueOverflow {
        /// Iteration whose conflict drain discovered the overflow.
        iter: usize,
        /// Number of entries the queue rejected.
        dropped: usize,
    },
    /// The job's deadline passed (or its [`crate::CancelToken`] was
    /// tripped) mid-loop: the runner stopped speculating and repaired the
    /// best-so-far partial coloring sequentially. This is the graceful
    /// degradation contract of the serving layer — a timed-out job
    /// returns a valid, complete coloring instead of nothing.
    DeadlineExceeded {
        /// Iteration at which the deadline/cancellation was observed.
        iter: usize,
    },
}

impl std::fmt::Display for FailedPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailedPhase::Color => write!(f, "coloring phase"),
            FailedPhase::Conflict => write!(f, "conflict-removal phase"),
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::IterationCap { cap } => {
                write!(f, "iteration cap of {cap} reached with a non-empty queue")
            }
            DegradeReason::WorkerPanic {
                phase,
                iter,
                message,
            } => write!(f, "panic in {phase} (iteration {iter}): {message}"),
            DegradeReason::QueueOverflow { iter, dropped } => write!(
                f,
                "shared conflict queue overflowed (iteration {iter}): \
                 {dropped} entries dropped"
            ),
            DegradeReason::DeadlineExceeded { iter } => write!(
                f,
                "deadline exceeded (iteration {iter}): best-so-far coloring \
                 repaired sequentially"
            ),
        }
    }
}

/// One refinement the [`crate::engine::OnlineTuner`] applied between
/// speculative iterations, for logs and bench records. Actions are
/// performance hints only — the coloring stays valid whatever sequence of
/// actions fires.
#[derive(Clone, Debug, PartialEq)]
pub struct TunerAction {
    /// Iteration the refined schedule takes effect at.
    pub iter: usize,
    /// What changed.
    pub kind: TunerActionKind,
}

/// The kinds of between-iteration refinement the online tuner performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerActionKind {
    /// Remaining net phases truncated: the conflict residue was small
    /// enough that per-vertex phases touch far less memory.
    NetToVertex,
    /// Chunk scheduler flipped (imbalance or futile-steal signal).
    SwitchSched {
        /// Scheduler before the switch.
        from: par::Sched,
        /// Scheduler after the switch.
        to: par::Sched,
    },
    /// Chunk size shrunk in response to a high conflict rate.
    ShrinkChunk {
        /// Chunk size before.
        from: usize,
        /// Chunk size after.
        to: usize,
    },
}

impl std::fmt::Display for TunerAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TunerActionKind::NetToVertex => {
                write!(f, "iter {}: net phases -> vertex", self.iter)
            }
            TunerActionKind::SwitchSched { from, to } => {
                write!(f, "iter {}: sched {from} -> {to}", self.iter)
            }
            TunerActionKind::ShrinkChunk { from, to } => {
                write!(f, "iter {}: chunk {from} -> {to}", self.iter)
            }
        }
    }
}

/// The outcome of a full coloring run.
#[derive(Clone, Debug)]
pub struct ColoringResult {
    /// Final color per vertex (all non-negative).
    pub colors: Vec<Color>,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// Per-iteration metrics, in order.
    pub iterations: Vec<IterationMetrics>,
    /// Total wall time of the speculative loop (excludes graph build and
    /// ordering, matching the paper's measurement boundary).
    pub total_time: Duration,
    /// `Some` when the run fell back to sequential completion (iteration
    /// cap or contained worker panic); `None` for a clean parallel run.
    pub degraded: Option<DegradeReason>,
    /// Refinements the online tuner applied between iterations; empty
    /// when no tuner was attached (see [`crate::RunnerOpts::online`]).
    pub tuner_actions: Vec<TunerAction>,
}

impl ColoringResult {
    /// Whether the run degraded to the sequential fallback path.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
    /// Sum of the coloring-phase times.
    pub fn color_time(&self) -> Duration {
        self.iterations.iter().map(|m| m.color_time).sum()
    }

    /// Sum of the conflict-removal-phase times.
    pub fn conflict_time(&self) -> Duration {
        self.iterations.iter().map(|m| m.conflict_time).sum()
    }

    /// Number of speculative iterations executed.
    pub fn rounds(&self) -> usize {
        self.iterations.len()
    }

    /// `|W_next|` after the first iteration (Table I's statistic).
    pub fn remaining_after_first(&self) -> usize {
        self.iterations.first().map(|m| m.queue_out).unwrap_or(0)
    }

    /// Merges the per-iteration [`ThreadIterStats`] into one counter sheet
    /// per thread (both phases summed) — the data behind the CLI's
    /// `--metrics` imbalance table. Empty when tracing was off.
    pub fn per_thread_totals(&self) -> Vec<trace::CounterSheet> {
        let threads = self
            .iterations
            .iter()
            .map(|m| m.per_thread.len())
            .max()
            .unwrap_or(0);
        let mut totals = vec![trace::CounterSheet::new(); threads];
        for m in &self.iterations {
            for t in &m.per_thread {
                totals[t.tid].merge(&t.color);
                totals[t.tid].merge(&t.conflict);
            }
        }
        totals
    }
}

/// Counts distinct colors in a coloring (ignores uncolored slots).
pub fn count_distinct_colors(colors: &[Color]) -> usize {
    let max = colors.iter().copied().max().unwrap_or(-1);
    if max < 0 {
        return 0;
    }
    let mut used = vec![false; max as usize + 1];
    for &c in colors {
        if c >= 0 {
            used[c as usize] = true;
        }
    }
    used.into_iter().filter(|&u| u).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(iter: usize, cms: u64, rms: u64, out: usize) -> IterationMetrics {
        IterationMetrics {
            iter,
            queue_in: 100,
            color_kind: PhaseKind::Vertex,
            conflict_kind: PhaseKind::Vertex,
            color_time: Duration::from_millis(cms),
            conflict_time: Duration::from_millis(rms),
            queue_out: out,
            per_thread: Vec::new(),
        }
    }

    #[test]
    fn aggregates() {
        let r = ColoringResult {
            colors: vec![0, 1, 0],
            num_colors: 2,
            iterations: vec![metric(0, 10, 5, 20), metric(1, 2, 1, 0)],
            total_time: Duration::from_millis(18),
            degraded: None,
            tuner_actions: Vec::new(),
        };
        assert_eq!(r.color_time(), Duration::from_millis(12));
        assert_eq!(r.conflict_time(), Duration::from_millis(6));
        assert_eq!(r.rounds(), 2);
        assert_eq!(r.remaining_after_first(), 20);
        assert!(!r.is_degraded());
    }

    #[test]
    fn degradation_is_reported() {
        let r = ColoringResult {
            colors: vec![0],
            num_colors: 1,
            iterations: vec![],
            total_time: Duration::ZERO,
            degraded: Some(DegradeReason::WorkerPanic {
                phase: FailedPhase::Color,
                iter: 3,
                message: "injected".into(),
            }),
            tuner_actions: Vec::new(),
        };
        assert!(r.is_degraded());
        match r.degraded.unwrap() {
            DegradeReason::WorkerPanic { phase, iter, .. } => {
                assert_eq!(phase, FailedPhase::Color);
                assert_eq!(iter, 3);
            }
            other => panic!("unexpected reason: {other:?}"),
        }
    }

    #[test]
    fn distinct_color_count() {
        assert_eq!(count_distinct_colors(&[0, 2, 2, 5]), 3);
        assert_eq!(count_distinct_colors(&[]), 0);
        assert_eq!(count_distinct_colors(&[-1, -1]), 0);
        assert_eq!(count_distinct_colors(&[-1, 3]), 1);
    }
}

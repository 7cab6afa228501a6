//! The speculative coloring driver (Algorithm 1) for BGPC.

use std::time::{Duration, Instant};

use graph::BipartiteGraph;
use par::{Pool, ThreadScratch};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::error::{validate_order, ColoringError};
use crate::forbidden::ForbiddenSet;
use crate::metrics::{
    count_distinct_colors, ColoringResult, DegradeReason, FailedPhase, IterationMetrics,
    ThreadIterStats,
};
use crate::schedule::PhaseKind;
use crate::workqueue::SharedQueue;
use crate::{net, vertex, Colors, Schedule, UNCOLORED};

/// Default iteration cap before the driver abandons speculation and colors
/// the remaining queue sequentially. Real runs finish in a handful of
/// iterations; the cap is a liveness guard for adversarial inputs.
const MAX_ITERATIONS: usize = 256;

/// Tuning knobs of the speculative driver that are not part of the
/// [`Schedule`] (they do not correspond to a paper configuration).
#[derive(Clone, Debug)]
pub struct RunnerOpts {
    /// Iteration cap before the sequential liveness fallback; the run is
    /// reported as degraded ([`DegradeReason::IterationCap`]) if it trips.
    pub max_iterations: usize,
    /// Wall-clock deadline: the driver polls it between iterations and,
    /// once passed, repairs the best-so-far partial coloring sequentially
    /// and reports [`DegradeReason::DeadlineExceeded`]. `None` disables
    /// the check.
    pub deadline: Option<Instant>,
    /// External cancellation, polled alongside `deadline` (the serving
    /// layer's watchdog trips it). A cancelled run degrades exactly like a
    /// missed deadline: valid, complete, tagged `DeadlineExceeded`.
    pub cancel: Option<crate::CancelToken>,
    /// Between-iteration refinement: when set, the driver hands each
    /// completed iteration's metrics to the tuner, which may truncate net
    /// phases, flip the chunk scheduler, or shrink the chunk size for the
    /// *remaining* iterations (the `--autotune` online loop). Actions are
    /// reported in [`ColoringResult::tuner_actions`]; `None` keeps the
    /// schedule fixed for the whole run.
    pub online: Option<crate::engine::OnlineTuner>,
}

impl Default for RunnerOpts {
    fn default() -> Self {
        Self {
            max_iterations: MAX_ITERATIONS,
            deadline: None,
            cancel: None,
            online: None,
        }
    }
}

impl RunnerOpts {
    /// Whether the deadline has passed or the cancel token was tripped.
    /// Polled by the drivers once per speculative iteration.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }
}

/// Runs the full speculative BGPC loop with the given [`Schedule`].
///
/// `order` is the processing order of the colored side (`V_A`); it doubles
/// as the initial work queue. Returns the final (valid, complete) coloring
/// plus per-iteration metrics.
///
/// # Fault model
///
/// A panic inside a parallel phase (or an iteration-cap trip) does not
/// abort the run: the partial state is repaired sequentially and the
/// result is flagged via [`ColoringResult::degraded`]. The coloring is
/// valid and complete either way.
pub fn color_bgpc<I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> ColoringResult {
    color_bgpc_with_opts(g, order, schedule, pool, RunnerOpts::default())
}

/// [`color_bgpc`] with an order validated against the vertex set — the
/// entry point for untrusted inputs (CLI, external order files).
pub fn try_color_bgpc<I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> Result<ColoringResult, ColoringError> {
    validate_order(order, g.n_vertices())?;
    Ok(color_bgpc(g, order, schedule, pool))
}

/// [`color_bgpc`] with explicit [`RunnerOpts`]. Picks the forbidden-set
/// representation per instance: the word-packed [`crate::BitStampSet`]
/// by default, the per-color [`crate::StampSet`] when the largest net
/// exceeds [`crate::tuning::DENSE_FORBIDDEN_CUTOFF`] (insert-dominated
/// regime — see the constant's docs for why). Use
/// [`color_bgpc_with_set`] to force a representation.
pub fn color_bgpc_with_opts<I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    if g.max_net_size() > crate::tuning::DENSE_FORBIDDEN_CUTOFF {
        color_bgpc_with_set::<crate::StampSet, I>(g, order, schedule, pool, opts)
    } else {
        color_bgpc_with_set::<crate::BitStampSet, I>(g, order, schedule, pool, opts)
    }
}

/// [`color_bgpc`] generic over the forbidden-set representation `F` —
/// the benchmark harness runs the same driver with [`crate::StampSet`]
/// and [`crate::BitStampSet`] to measure the representation in isolation.
pub fn color_bgpc_with_set<F: ForbiddenSet, I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    let n = g.n_vertices();
    let colors = Colors::new(n);
    let w0 = order.to_vec();
    run_speculative_bgpc::<F, I>(
        g,
        order,
        colors,
        w0,
        g.max_net_size() + 64,
        schedule,
        pool,
        opts,
    )
}

/// The speculative color-then-repair loop over an explicit starting
/// state: a (possibly pre-seeded) color array and an initial work queue.
///
/// `color_bgpc_with_set` calls this with an all-[`UNCOLORED`] array and
/// `w0 == order`; [`crate::incremental`] seeds `colors` from a previous
/// run and restricts `w0` to the dirty vertices. Either way `order` must
/// cover every vertex — it is the repair order for degraded runs and the
/// rebuild set for net-based conflict phases, both of which may need to
/// requeue vertices outside `w0`.
///
/// `capacity` sizes the per-thread forbidden sets; seeded callers must
/// cover the largest base color in addition to the structural bound
/// (the sets grow on demand, so this is a first-allocation hint, not a
/// correctness requirement).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_speculative_bgpc<F: ForbiddenSet, I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    colors: Colors,
    w0: Vec<u32>,
    capacity: usize,
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    let n = g.n_vertices();
    debug_assert_eq!(order.len(), n, "order must cover every vertex");
    let mut scratch: ThreadScratch<ThreadCtx<F, I>> = ThreadScratch::new(pool.threads(), |_| {
        ThreadCtx::new(capacity)
    });
    // Balancer cursors and queues are per-run state: reset defensively so
    // the run is reproducible even if the scratch construction above is
    // ever hoisted out and reused across calls (see ThreadCtx docs).
    for ctx in scratch.iter_mut() {
        ctx.reset_for_run();
        ctx.fb.set_kernel(schedule.kernel);
    }
    // Eager shared queue, only allocated when the schedule needs it.
    let eager_queue = (!schedule.lazy_queue).then(|| SharedQueue::new(n));

    // The online tuner refines a working copy between iterations;
    // `schedule` itself stays the caller's requested configuration.
    let mut live = schedule.clone();
    let mut tuner_actions = Vec::new();

    let mut w: Vec<u32> = w0;
    let mut iterations = Vec::new();
    let mut degraded: Option<DegradeReason> = None;
    let rec = pool.tracer();
    let start = Instant::now();

    let mut iter = 0usize;
    while !w.is_empty() {
        if opts.expired() {
            // Deadline/cancellation: stop speculating and repair the
            // best-so-far partial state into a valid, complete coloring.
            // The repair is sequential but touches only what the finished
            // iterations left dirty, so a late trip costs little.
            degraded = Some(DegradeReason::DeadlineExceeded { iter });
            let queue_in = w.len();
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind: PhaseKind::Vertex,
                conflict_kind: PhaseKind::Vertex,
                color_time: start.elapsed(),
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }
        if iter >= opts.max_iterations {
            // Liveness fallback: sequentially color what's left. The
            // remaining queue holds losers whose stale colors the next
            // coloring phase would have overwritten, so repair first.
            degraded = Some(DegradeReason::IterationCap {
                cap: opts.max_iterations,
            });
            let queue_in = w.len();
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind: PhaseKind::Vertex,
                conflict_kind: PhaseKind::Vertex,
                color_time: start.elapsed(),
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }

        let queue_in = w.len();
        let color_kind = live.color_kind(iter);
        let conflict_kind = live.conflict_kind(iter);

        // Counter snapshots bracket each phase so the per-iteration
        // `ThreadIterStats` are exact deltas of the monotonic sheets; the
        // runner itself executes on team member 0 between regions, which
        // is the reader side of the recorder's partitioning contract.
        let snap_start = rec.map(|r| r.snapshot_counters());
        let color_start_ns = rec.map(|r| r.now_ns());
        let t_color = Instant::now();
        let color_outcome = par::contain(|| match color_kind {
            PhaseKind::Vertex => vertex::color_workqueue_vertex(
                g,
                &w,
                &colors,
                pool,
                live.chunk,
                live.sched,
                live.balance,
                &scratch,
            ),
            PhaseKind::Net => net::color_workqueue_net(
                g,
                &colors,
                pool,
                live.sched,
                live.net_variant,
                live.balance,
                &scratch,
            ),
        });
        let color_time = t_color.elapsed();
        if let (Some(r), Some(ts)) = (rec, color_start_ns) {
            r.record_span(
                0,
                trace::SpanKind::Color,
                iter as u32,
                ts,
                r.now_ns().saturating_sub(ts),
            );
        }
        let snap_color = rec.map(|r| r.snapshot_counters());

        if let Err(fault) = color_outcome {
            degraded = Some(DegradeReason::WorkerPanic {
                phase: FailedPhase::Color,
                iter,
                message: fault.first_message(),
            });
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind,
                conflict_kind,
                color_time,
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }

        let conflict_start_ns = rec.map(|r| r.now_ns());
        let t_conflict = Instant::now();
        let conflict_outcome = par::contain(|| match conflict_kind {
            PhaseKind::Vertex => vertex::remove_conflicts_vertex(
                g,
                &w,
                &colors,
                pool,
                live.chunk,
                live.sched,
                eager_queue.as_ref(),
                &mut scratch,
            ),
            PhaseKind::Net => {
                net::remove_conflicts_net(g, &colors, pool, live.sched, &scratch);
                net::collect_uncolored(order, &colors, pool, &mut scratch)
            }
        });
        let conflict_time = t_conflict.elapsed();
        if let (Some(r), Some(ts)) = (rec, conflict_start_ns) {
            r.record_span(
                0,
                trace::SpanKind::Conflict,
                iter as u32,
                ts,
                r.now_ns().saturating_sub(ts),
            );
        }

        let wnext = match conflict_outcome {
            Ok(wnext) => wnext,
            Err(fault) => {
                degraded = Some(DegradeReason::WorkerPanic {
                    phase: FailedPhase::Conflict,
                    iter,
                    message: fault.first_message(),
                });
                traced_repair(g, order, &colors, rec, iter);
                w.clear();
                iterations.push(IterationMetrics {
                    iter,
                    queue_in,
                    color_kind,
                    conflict_kind,
                    color_time,
                    conflict_time,
                    queue_out: 0,
                    per_thread: Vec::new(),
                });
                break;
            }
        };

        // A dropped eager-queue entry is a conflict loser that will never
        // be recolored — left alone, the loop would terminate with that
        // stale, conflicting color in place. Surface the overflow as an
        // explicit degraded run and repair sequentially, exactly like a
        // contained fault.
        if let Some(q) = eager_queue.as_ref() {
            if q.has_overflowed() {
                degraded = Some(DegradeReason::QueueOverflow {
                    iter,
                    dropped: q.dropped(),
                });
                traced_repair(g, order, &colors, rec, iter);
                iterations.push(IterationMetrics {
                    iter,
                    queue_in,
                    color_kind,
                    conflict_kind,
                    color_time,
                    conflict_time,
                    queue_out: 0,
                    per_thread: Vec::new(),
                });
                break;
            }
        }

        let per_thread = per_thread_slices(&snap_start, &snap_color, rec);
        if trace::COMPILED && conflict_kind == PhaseKind::Vertex && !per_thread.is_empty() {
            // Trace/queue invariant: the vertex-based conflict phase pushes
            // each loser exactly once, so the merged per-thread conflict
            // counts must equal |W_next|. (Net-based phases rebuild the
            // queue from *all* uncolored vertices, which can include
            // vertices the net coloring never reached — no equality there.)
            let counted: u64 = per_thread
                .iter()
                .map(|t| t.conflict.get(trace::Counter::ConflictsDetected))
                .sum();
            debug_assert_eq!(
                counted,
                wnext.len() as u64,
                "per-thread conflict counts disagree with queue size"
            );
        }

        iterations.push(IterationMetrics {
            iter,
            queue_in,
            color_kind,
            conflict_kind,
            color_time,
            conflict_time,
            queue_out: wnext.len(),
            per_thread,
        });
        if let Some(tuner) = &opts.online {
            let m = iterations.last().expect("metrics just pushed");
            tuner_actions.extend(tuner.refine(&mut live, m, pool.threads()));
        }
        w = wnext;
        iter += 1;
    }

    let colors = colors.snapshot();
    let num_colors = count_distinct_colors(&colors);
    ColoringResult {
        colors,
        num_colors,
        iterations,
        total_time: start.elapsed(),
        degraded,
        tuner_actions,
    }
}

/// Builds the per-iteration thread slices from the phase-bracketing
/// counter snapshots: `color = mid − start`, `conflict = now − mid`.
/// Returns an empty vec when tracing is off. Shared with the D2GC driver,
/// which brackets its phases the same way.
pub(crate) fn per_thread_slices(
    snap_start: &Option<Vec<trace::CounterSheet>>,
    snap_color: &Option<Vec<trace::CounterSheet>>,
    rec: Option<&trace::Recorder>,
) -> Vec<ThreadIterStats> {
    match (snap_start, snap_color, rec) {
        (Some(start), Some(mid), Some(r)) => {
            let end = r.snapshot_counters();
            mid.iter()
                .enumerate()
                .map(|(tid, m)| ThreadIterStats {
                    tid,
                    color: m.delta(&start[tid]),
                    conflict: end[tid].delta(m),
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// [`repair_sequential`] wrapped in a [`trace::SpanKind::Repair`] span so
/// degraded runs are visible (and attributable) in the trace timeline.
fn traced_repair<I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    colors: &Colors,
    rec: Option<&trace::Recorder>,
    iter: usize,
) {
    let ts = rec.map(|r| r.now_ns());
    repair_sequential(g, order, colors);
    if let (Some(r), Some(ts)) = (rec, ts) {
        r.record_span(
            0,
            trace::SpanKind::Repair,
            iter as u32,
            ts,
            r.now_ns().saturating_sub(ts),
        );
    }
}

/// Colors `w` sequentially with first-fit against the *current* state —
/// conflict-free by construction.
fn sequential_fallback<I: CsrIndex>(g: &BipartiteGraph<I>, w: &[u32], colors: &Colors) {
    let mut fb = crate::BitStampSet::with_capacity(g.max_net_size() + 64);
    for &wv in w {
        let wu = wv as usize;
        fb.advance();
        for &v in g.nets(wu) {
            for &u in g.vtxs(v as usize) {
                if u != wv {
                    let cu = colors.get(u as usize);
                    if cu != crate::UNCOLORED {
                        fb.insert(cu);
                    }
                }
            }
        }
        colors.set(wu, fb.first_fit_from(0));
    }
}

/// Repairs an arbitrary partial — possibly conflicting — coloring into a
/// valid, complete one, sequentially.
///
/// A contained fault leaves the color array in an unspecified state: some
/// vertices uncolored, some holding stale colors that conflict within a
/// net. The repair keeps the first holder of each color per net, uncolors
/// every later duplicate, then first-fit colors all uncolored vertices in
/// `order`. Each recolored vertex avoids every color currently visible in
/// its distance-2 neighborhood, so the final coloring is valid regardless
/// of which writes the faulted phase completed.
fn repair_sequential<I: CsrIndex>(g: &BipartiteGraph<I>, order: &[u32], colors: &Colors) {
    let n = g.n_vertices();
    let mut max_c: crate::Color = -1;
    for u in 0..n {
        max_c = max_c.max(colors.get(u));
    }
    let width = (max_c + 1) as usize + 1;
    let mut stamp = vec![usize::MAX; width];
    let mut holder = vec![0u32; width];
    for v in 0..g.n_nets() {
        for &u in g.vtxs(v) {
            let c = colors.get(u as usize);
            if c == UNCOLORED {
                continue;
            }
            let ci = c as usize;
            if stamp[ci] == v && holder[ci] != u {
                colors.set(u as usize, UNCOLORED);
            } else {
                stamp[ci] = v;
                holder[ci] = u;
            }
        }
    }
    let uncolored: Vec<u32> = order
        .iter()
        .copied()
        .filter(|&u| colors.get(u as usize) == UNCOLORED)
        .collect();
    sequential_fallback(g, &uncolored, colors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_bgpc;
    use crate::Balance;
    use graph::Ordering;

    fn medium_instance() -> BipartiteGraph {
        BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(80, 120, 1500, 7))
    }

    #[test]
    fn every_schedule_produces_valid_coloring_single_thread() {
        let g = medium_instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(1);
        for schedule in Schedule::all() {
            let r = color_bgpc(&g, &order, &schedule, &pool);
            verify_bgpc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
            assert!(r.num_colors >= g.max_net_size(), "{}", schedule.name());
        }
    }

    #[test]
    fn every_schedule_produces_valid_coloring_parallel() {
        let g = medium_instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::all() {
            let r = color_bgpc(&g, &order, &schedule, &pool);
            verify_bgpc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        }
    }

    #[test]
    fn balanced_schedules_valid_parallel() {
        let g = medium_instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(4);
        for base in [Schedule::v_n(2), Schedule::n1_n2()] {
            for balance in [Balance::B1, Balance::B2] {
                let schedule = base.clone().with_balance(balance);
                let r = color_bgpc(&g, &order, &schedule, &pool);
                verify_bgpc(&g, &r.colors)
                    .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
            }
        }
    }

    #[test]
    fn single_thread_vv_matches_sequential_baseline() {
        let g = medium_instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(1);
        let r = color_bgpc(&g, &order, &Schedule::v_v(), &pool);
        let (seq_colors, seq_k) = crate::seq::color_bgpc_seq(&g, &order);
        assert_eq!(r.colors, seq_colors, "1-thread V-V must equal sequential");
        assert_eq!(r.num_colors, seq_k);
        assert_eq!(r.rounds(), 1, "no conflicts possible with one thread");
        assert_eq!(r.remaining_after_first(), 0);
    }

    #[test]
    fn metrics_record_phase_kinds() {
        let g = medium_instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(2);
        let r = color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        assert_eq!(r.iterations[0].color_kind, PhaseKind::Net);
        assert_eq!(r.iterations[0].conflict_kind, PhaseKind::Net);
        if r.rounds() > 2 {
            assert_eq!(r.iterations[2].color_kind, PhaseKind::Vertex);
            assert_eq!(r.iterations[2].conflict_kind, PhaseKind::Vertex);
        }
        assert_eq!(r.iterations[0].queue_in, g.n_vertices());
    }

    #[test]
    fn empty_graph_returns_immediately() {
        let g = BipartiteGraph::from_matrix(&sparse::Csr::empty(0, 0));
        let pool = Pool::new(2);
        let r = color_bgpc(&g, &[], &Schedule::v_v_64d(), &pool);
        assert!(r.colors.is_empty());
        assert_eq!(r.num_colors, 0);
        assert_eq!(r.rounds(), 0);
    }

    #[test]
    fn reordered_input_still_valid() {
        let g = medium_instance();
        let pool = Pool::new(3);
        for ord in [
            Ordering::Random(11),
            Ordering::LargestFirst,
            Ordering::SmallestLast,
        ] {
            let order = ord.vertex_order_bgpc(&g);
            let r = color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
            verify_bgpc(&g, &r.colors).unwrap();
        }
    }

    #[test]
    fn smallest_last_uses_no_more_colors_than_natural_seq() {
        // Not guaranteed in general, but holds for this fixed instance —
        // and it is the paper's entire reason to evaluate SL ordering.
        let g = medium_instance();
        let natural = Ordering::Natural.vertex_order_bgpc(&g);
        let sl = Ordering::SmallestLast.vertex_order_bgpc(&g);
        let (_, k_nat) = crate::seq::color_bgpc_seq(&g, &natural);
        let (_, k_sl) = crate::seq::color_bgpc_seq(&g, &sl);
        assert!(
            k_sl <= k_nat + 1,
            "smallest-last regressed badly: {k_sl} vs natural {k_nat}"
        );
    }
}

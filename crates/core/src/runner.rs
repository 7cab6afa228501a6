//! The speculative coloring driver (Algorithm 1), for BGPC and D2GC
//! alike: one loop, generic over the [`Neighborhood`] it colors.

use std::time::{Duration, Instant};

use graph::BipartiteGraph;
use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::error::{validate_order, ColoringError};
use crate::forbidden::{ForbiddenKind, ForbiddenSet};
use crate::metrics::{
    count_distinct_colors, ColoringResult, DegradeReason, FailedPhase, IterationMetrics,
    ThreadIterStats,
};
use crate::neighborhood::Neighborhood;
use crate::schedule::PhaseKind;
use crate::vertex::{NetSummaries, VertexPicker};
use crate::workqueue::SharedQueue;
use crate::{net, vertex, BitStampSet, Color, Colors, Schedule, StampSet, UNCOLORED};

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
}

impl Default for RunnerOpts {
    fn default() -> Self {
        Self {
            max_iterations: MAX_ITERATIONS,
            deadline: None,
            cancel: None,
        }
    }
}

impl RunnerOpts {
    /// Whether the deadline has passed or the cancel token was tripped.
    /// Polled by the driver once per speculative iteration.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }
}

/// Runs the full speculative BGPC loop with the given [`Schedule`] — see
/// [`color_with_opts`].
pub fn color_bgpc(
    g: &BipartiteGraph,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> ColoringResult {
    color_with_opts(g, order, schedule, pool, RunnerOpts::default())
}

/// [`color_with_opts`] with default options and an order validated
/// against the vertex set — the entry point for untrusted inputs (CLI,
/// external order files).
pub fn try_color<G: Neighborhood>(
    g: &G,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> Result<ColoringResult, ColoringError> {
    validate_order(order, g.n_vertices())?;
    Ok(color_with_opts(g, order, schedule, pool, RunnerOpts::default()))
}

/// Runs the full speculative loop on `g` with the given [`Schedule`]
/// and [`RunnerOpts`].
///
/// `order` is the processing order of the colored vertices; it doubles
/// as the initial work queue. Returns the final (valid, complete) coloring
/// plus per-iteration metrics. The schedule's net/vertex switching,
/// chunking, queue strategy, net-coloring variant and balancing knobs
/// apply to BGPC and D2GC alike.
///
/// Picks the forbidden-set representation per instance: the word-packed
/// [`crate::BitStampSet`] by default, the per-color [`crate::StampSet`]
/// when [`Neighborhood::max_neighborhood`] (max net size for BGPC, max
/// degree for D2GC) exceeds [`crate::forbidden::DENSE_FORBIDDEN_CUTOFF`]
/// (insert-dominated regime — see the constant's docs for why). Use
/// [`color_with_set`] to force a representation.
///
/// # Fault model
///
/// A panic inside a parallel phase (or an iteration-cap trip) does not
/// abort the run: the partial state is repaired sequentially and the
/// result is flagged via [`ColoringResult::degraded`]. The coloring is
/// valid and complete either way.
pub fn color_with_opts<G: Neighborhood>(
    g: &G,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    Run { g, order, seed: None, schedule, pool, opts }.run_auto()
}

/// [`color_with_opts`] with the forbidden-set representation `F` forced —
/// the benchmark harness runs the same driver with [`crate::StampSet`]
/// and [`crate::BitStampSet`] to measure the representation in isolation.
pub fn color_with_set<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    Run { g, order, seed: None, schedule, pool, opts }.run::<F>()
}

/// One speculative run's inputs.
pub(crate) struct Run<'a, G> {
    pub(crate) g: &'a G,
    /// Processing order; it must cover every vertex — it is the initial
    /// queue of an unseeded run, the repair order for degraded runs and
    /// the rebuild set for net-based conflict phases, which may requeue
    /// vertices outside a seeded queue.
    pub(crate) order: &'a [u32],
    /// `Some((base, dirty))` starts from a previous coloring `base` with
    /// the `dirty` vertices uncolored and queued ([`crate::incremental`]);
    /// `None` starts all-[`UNCOLORED`] with `order` queued.
    pub(crate) seed: Option<(&'a [Color], &'a [u32])>,
    pub(crate) schedule: &'a Schedule,
    pub(crate) pool: &'a Pool,
    pub(crate) opts: RunnerOpts,
}

impl<G: Neighborhood> Run<'_, G> {
    /// The per-instance forbidden-set dispatch: runs with the
    /// representation [`ForbiddenKind::auto_for`] picks for the instance's
    /// [`Neighborhood::max_neighborhood`].
    pub(crate) fn run_auto(self) -> ColoringResult {
        match ForbiddenKind::auto_for(self.g.max_neighborhood()) {
            ForbiddenKind::Stamp => self.run::<StampSet>(),
            ForbiddenKind::BitStamp => self.run::<BitStampSet>(),
        }
    }

    /// The speculative color-then-repair loop.
    pub(crate) fn run<F: ForbiddenSet>(self) -> ColoringResult {
        let Run { g, order, seed, schedule, pool, opts } = self;
        let n = g.n_vertices();
        debug_assert_eq!(order.len(), n, "order must cover every vertex");
        // The per-thread forbidden sets grow on demand; this sizes their
        // first allocation. Seeded runs must also step past every pinned
        // base color.
        let (colors, mut w, capacity) = match seed {
            None => (Colors::new(n), order.to_vec(), g.max_neighborhood() + 64),
            Some((base, dirty)) => {
                let (colors, w0, max_base) = crate::incremental::seed_colors(base, dirty);
                let bound = g.max_neighborhood().max((max_base + 1) as usize);
                (colors, w0, bound + 64)
            }
        };
        let mut scratch: ThreadScratch<ThreadCtx<F>> =
            ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(capacity));
        // Balancer cursors and queues are per-run state: reset defensively
        // so the run is reproducible even if the scratch construction above
        // is ever hoisted out and reused across calls (see ThreadCtx docs).
        for ctx in scratch.iter_mut() {
            ctx.reset_for_run();
        }
        // Eager shared queue, only allocated when the schedule needs it.
        let eager_queue = (!schedule.lazy_queue).then(|| SharedQueue::new(n));
        // Net color summaries, allocated at the first vertex coloring
        // phase that builds them.
        let mut summaries: Option<NetSummaries> = None;

        let mut iterations = Vec::new();
        let mut degraded: Option<DegradeReason> = None;
        let rec = pool.tracer();
        let start = Instant::now();

        let mut iter = 0usize;
        while !w.is_empty() {
            let mut m = IterationMetrics {
                iter,
                queue_in: w.len(),
                color_kind: PhaseKind::Vertex,
                conflict_kind: PhaseKind::Vertex,
                color_time: Duration::ZERO,
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            };
            let outcome = if opts.expired() {
                Err(DegradeReason::DeadlineExceeded { iter })
            } else if iter >= opts.max_iterations {
                Err(DegradeReason::IterationCap {
                    cap: opts.max_iterations,
                })
            } else {
                m.color_kind = schedule.color_kind(iter);
                m.conflict_kind = schedule.conflict_kind(iter);
                'iteration: {
                    // Counter snapshots bracket each phase so the
                    // per-iteration `ThreadIterStats` are exact deltas of
                    // the monotonic sheets; the runner itself executes on
                    // team member 0 between regions, which is the reader
                    // side of the recorder's partitioning contract.
                    let snap_start = rec.map(|r| r.snapshot_counters());
                    let span = rec.map(|r| r.now_ns());
                    let t_color = Instant::now();
                    let color_outcome = par::contain(|| match m.color_kind {
                        PhaseKind::Vertex => vertex::color_workqueue_vertex(
                            g,
                            &w,
                            &colors,
                            pool,
                            schedule.chunk,
                            schedule.balance,
                            summarize(g, &w, &colors, pool, &mut summaries),
                            &scratch,
                        ),
                        PhaseKind::Net => net::color_workqueue_net(
                            g,
                            &colors,
                            pool,
                            schedule.net_variant,
                            schedule.balance,
                            &scratch,
                        ),
                    });
                    m.color_time = t_color.elapsed();
                    close_span(rec, span, trace::SpanKind::Color, iter);
                    let snap_color = rec.map(|r| r.snapshot_counters());
                    if let Err(fault) = color_outcome {
                        break 'iteration Err(DegradeReason::WorkerPanic {
                            phase: FailedPhase::Color,
                            iter,
                            message: fault.first_message(),
                        });
                    }

                    let span = rec.map(|r| r.now_ns());
                    let t_conflict = Instant::now();
                    let conflict_outcome = par::contain(|| match m.conflict_kind {
                        PhaseKind::Vertex => vertex::remove_conflicts_vertex(
                            g,
                            &w,
                            &colors,
                            pool,
                            schedule.chunk,
                            eager_queue.as_ref(),
                            &mut scratch,
                        ),
                        PhaseKind::Net => {
                            net::remove_conflicts_net(g, &colors, pool, &scratch);
                            net::collect_uncolored(g, order, &colors, pool, &mut scratch)
                        }
                    });
                    m.conflict_time = t_conflict.elapsed();
                    close_span(rec, span, trace::SpanKind::Conflict, iter);
                    let wnext = match conflict_outcome {
                        Ok(wnext) => wnext,
                        Err(fault) => {
                            break 'iteration Err(DegradeReason::WorkerPanic {
                                phase: FailedPhase::Conflict,
                                iter,
                                message: fault.first_message(),
                            })
                        }
                    };

                    // A dropped eager-queue entry is a conflict loser that
                    // will never be recolored — left alone, the loop would
                    // terminate with that stale, conflicting color in
                    // place. Surface the overflow as an explicit degraded
                    // run and repair sequentially, exactly like a contained
                    // fault.
                    if let Some(q) = eager_queue.as_ref().filter(|q| q.has_overflowed()) {
                        break 'iteration Err(DegradeReason::QueueOverflow {
                            iter,
                            dropped: q.dropped(),
                        });
                    }

                    m.per_thread = per_thread_slices(&snap_start, &snap_color, rec);
                    if m.conflict_kind == PhaseKind::Vertex && !m.per_thread.is_empty() {
                        // Trace/queue invariant: the vertex-based conflict
                        // phase pushes each loser exactly once, so the merged
                        // per-thread conflict counts must equal |W_next|.
                        // (Net-based phases rebuild the queue from *all*
                        // uncolored vertices, which can include vertices the
                        // net coloring never reached — no equality there.)
                        let counted: u64 = m
                            .per_thread
                            .iter()
                            .map(|t| t.conflict.get(trace::Counter::ConflictsDetected))
                            .sum();
                        debug_assert_eq!(
                            counted,
                            wnext.len() as u64,
                            "per-thread conflict counts disagree with queue size"
                        );
                    }
                    Ok(wnext)
                }
            };

            match outcome {
                Ok(wnext) => {
                    m.queue_out = wnext.len();
                    iterations.push(m);
                    w = wnext;
                    iter += 1;
                }
                Err(reason) => {
                    // Stop speculating and repair the best-so-far partial
                    // state into a valid, complete coloring. The repair is
                    // sequential but touches only what the finished
                    // iterations left dirty, so a late trip costs little.
                    // It is a coloring pass, so its time joins the row's
                    // color phase.
                    let t_repair = Instant::now();
                    let span = rec.map(|r| r.now_ns());
                    repair_sequential(g, order, &colors);
                    close_span(rec, span, trace::SpanKind::Repair, iter);
                    m.color_time += t_repair.elapsed();
                    iterations.push(m);
                    degraded = Some(reason);
                    break;
                }
            }
        }

        let colors = colors.snapshot();
        let num_colors = count_distinct_colors(&colors);
        ColoringResult {
            colors,
            num_colors,
            iterations,
            total_time: start.elapsed(),
            degraded,
        }
    }
}

/// Builds the net color summaries for a vertex coloring phase over queue
/// `w` when walking the queue's pins would read more pins than the build,
/// which reads each pin at most once; returns `None` (walk every net)
/// otherwise.
///
/// A build first uncolors the queue. A conflict loser keeps its stale
/// color until it is recolored, and a summary would keep that color
/// after it: the vertex would forbid its own old color, and its
/// neighbors both its old and new one, which breaks the greedy bound of
/// `Δ₂ + 1` colors.
fn summarize<'s, G: Neighborhood>(
    g: &G,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    store: &'s mut Option<NetSummaries>,
) -> Option<&'s NetSummaries> {
    let build_pins = g.n_pins();
    let mut walk_pins = 0usize;
    let costly = w.iter().any(|&wv| {
        let nets = g.nets(wv as usize);
        walk_pins += nets.iter().map(|&v| g.net_size(v as usize)).sum::<usize>();
        walk_pins > build_pins
    });
    if !costly {
        return None;
    }
    for &wv in w {
        colors.clear(wv as usize);
    }
    let summaries = store.get_or_insert_with(|| NetSummaries::new(g));
    summaries.build(g, colors, pool);
    Some(summaries)
}

/// Records a team-member-0 span of `kind` from `start_ns` to now, when
/// tracing is on.
fn close_span(
    rec: Option<&trace::Recorder>,
    start_ns: Option<u64>,
    kind: trace::SpanKind,
    iter: usize,
) {
    if let (Some(r), Some(ts)) = (rec, start_ns) {
        r.record_span(0, kind, iter as u32, ts, r.now_ns().saturating_sub(ts));
    }
}

/// Builds the per-iteration thread slices from the phase-bracketing
/// counter snapshots: `color = mid − start`, `conflict = now − mid`.
/// Returns an empty vec when tracing is off.
fn per_thread_slices(
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

/// Repairs an arbitrary partial — possibly conflicting — coloring into a
/// valid, complete one, sequentially.
///
/// A contained fault leaves the color array in an unspecified state: some
/// vertices uncolored, some holding stale colors that conflict within a
/// net. The repair keeps the first holder of each color per net, uncolors
/// every later duplicate, then first-fit colors all uncolored vertices in
/// `order`. Each recolored vertex avoids every color currently visible in
/// its distance-2 neighborhood, so the final coloring is valid regardless
/// of which writes the faulted phase completed. (For D2GC the nets are the
/// closed neighborhoods: a distance-2 coloring is valid exactly when every
/// `N[v]` is rainbow.)
fn repair_sequential<G: Neighborhood>(g: &G, order: &[u32], colors: &Colors) {
    let mut max_c: Color = -1;
    for u in 0..g.n_vertices() {
        max_c = max_c.max(colors.get(u));
    }
    let width = (max_c + 1) as usize + 1;
    let mut stamp = vec![usize::MAX; width];
    let mut holder = vec![0u32; width];
    for v in 0..g.n_nets() {
        g.for_each_pin(v, |u| {
            let c = colors.get(u as usize);
            if c == UNCOLORED {
                return;
            }
            let ci = c as usize;
            if stamp[ci] == v && holder[ci] != u {
                colors.set(u as usize, UNCOLORED);
            } else {
                stamp[ci] = v;
                holder[ci] = u;
            }
        });
    }
    // Colors the uncolored vertices with first-fit against the *current*
    // state — conflict-free by construction. From here colors are only
    // added, each by a pick of an uncolored vertex, so the picks read the
    // summaries of the snapshot and equal a pin walk's.
    let mut snapshot = colors.snapshot();
    let mut picker = VertexPicker::new(g);
    picker.summarize(g, &snapshot);
    for &wv in order {
        if snapshot[wv as usize] == UNCOLORED {
            colors.set(wv as usize, picker.pick(g, &mut snapshot, wv, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::d2gc::color_d2gc;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use crate::Balance;
    use graph::{Graph, Ordering};

    fn medium_instance() -> BipartiteGraph {
        BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(80, 120, 1500, 7))
    }

    fn mesh() -> Graph {
        Graph::from_symmetric_matrix(&sparse::gen::grid2d(12, 12, 1))
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
        let walk = crate::seq::tests::pin_walk(&g, &order);
        assert_eq!(seq_colors, walk, "sequential must equal the pin walk");
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

    #[test]
    fn d2gc_every_schedule_valid_single_thread() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        for schedule in Schedule::all() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
            assert!(r.num_colors > g.max_degree());
        }
    }

    #[test]
    fn d2gc_every_schedule_valid_parallel() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::all() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        }
    }

    #[test]
    fn d2gc_single_thread_vv_matches_sequential() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let r = color_d2gc(&g, &order, &Schedule::v_v(), &pool);
        let (seq_colors, seq_k) = crate::seq::color_d2gc_seq(&g, &order);
        assert_eq!(r.colors, seq_colors);
        assert_eq!(r.num_colors, seq_k);
    }

    #[test]
    fn d2gc_balanced_valid() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(3);
        for balance in [Balance::B1, Balance::B2] {
            let schedule = Schedule::n1_n2().with_balance(balance);
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors).unwrap();
        }
    }

    #[test]
    fn d2gc_powerlaw_graph_all_schedules() {
        let m = sparse::gen::chung_lu(300, 2400, 2.3, 60, true, 5);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::all() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        }
    }

    /// One thread on instances past the stamp-set dispatch, with palettes
    /// wide enough for multi-word summaries: V-V must still be the
    /// sequential coloring, and the summary-reading schedules must repeat
    /// themselves exactly.
    #[test]
    fn single_thread_summaries_match_the_pin_walk_past_the_stamp_dispatch() {
        fn check<G: Neighborhood>(g: &G, order: &[u32], seq: Vec<Color>) {
            assert_eq!(
                ForbiddenKind::auto_for(g.max_neighborhood()),
                ForbiddenKind::Stamp,
                "the instance must take the stamp-set dispatch"
            );
            assert!(
                count_distinct_colors(&seq) > 128,
                "palette too narrow for 2+ words"
            );
            let pool = Pool::new(1);
            let vv = color_with_opts(g, order, &Schedule::v_v(), &pool, RunnerOpts::default());
            assert_eq!(vv.colors, seq, "1-thread V-V must equal sequential");
            // One thread leaves no conflict after a vertex coloring phase,
            // so a summary that missed a color would show as an extra round.
            for (schedule, rounds) in [(Schedule::v_v_64d(), 1), (Schedule::n1_n2(), 2)] {
                let a = color_with_opts(g, order, &schedule, &pool, RunnerOpts::default());
                let b = color_with_opts(g, order, &schedule, &pool, RunnerOpts::default());
                assert_eq!(a.colors, b.colors, "{} is not repeatable", schedule.name());
                assert_eq!(a.rounds(), rounds, "{}", schedule.name());
            }
        }
        let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_skewed(
            300, 1500, 15000, 1.0, 400, 3,
        ));
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        check(&g, &order, crate::seq::color_bgpc_seq(&g, &order).0);
        let g =
            Graph::from_symmetric_matrix(&sparse::gen::chung_lu(1500, 12000, 2.1, 300, true, 5));
        let order = Ordering::Natural.vertex_order_d2(&g);
        check(&g, &order, crate::seq::color_d2gc_seq(&g, &order).0);
    }

    #[test]
    fn degraded_run_phase_times_fit_in_total_time() {
        // The iteration-cap row times only its sequential repair, so the
        // phase times never double-count the iterations before it.
        let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_skewed(
            3000, 20000, 200000, 1.0, 600, 7,
        ));
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(1);
        let opts = RunnerOpts {
            max_iterations: 1,
            ..RunnerOpts::default()
        };
        let r = color_with_opts(&g, &order, &Schedule::n1_n2(), &pool, opts);
        assert!(matches!(r.degraded, Some(DegradeReason::IterationCap { cap: 1 })));
        assert_eq!(r.rounds(), 2);
        verify_bgpc(&g, &r.colors).unwrap();
        assert!(
            r.color_time() + r.conflict_time() <= r.total_time,
            "phases {:?} + {:?} exceed total {:?}",
            r.color_time(),
            r.conflict_time(),
            r.total_time
        );
    }
}

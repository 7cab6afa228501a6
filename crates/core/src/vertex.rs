//! Vertex-based phases (Algorithms 4 and 5) — the ColPack baseline, for
//! BGPC and D2GC alike.
//!
//! Both phases walk the distance-2 neighborhood *from the queued vertex*:
//! every net of `w`, then every pin of that net (for D2GC: `nbor(w)`, then
//! each `N[u]` — see [`crate::neighborhood`]). In the first iteration this
//! touches every net `|vtxs(v)|` times, so the traversal is
//! `Θ(Σ_v |vtxs(v)|²)` — the cost the net-based phases of [`crate::net`]
//! attack.
//!
//! The coloring walk is written once, in `gather_forbidden`, and shared
//! with the sequential baseline ([`crate::seq`]) and the degraded-run
//! repair ([`crate::runner`]). With a [`BitStampSet`] it collects the
//! colors below 64 in a register word with no data-dependent branch:
//! around a re-queued vertex the pins are a random mix of colored and
//! [`UNCOLORED`], and a per-pin "is it colored?" branch mispredicts on
//! that mix. A thread that meets a color ≥ 64 falls back for the rest of
//! the run to inserting colors one by one (the sticky
//! [`ThreadCtx::wide_palette`] flag), which is cheaper once most colors
//! miss the register word.
//!
//! [`BitStampSet`]: crate::BitStampSet

use std::sync::atomic::{AtomicI32, Ordering};

use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;
use crate::neighborhood::Neighborhood;
use crate::workqueue::{merge_local_queues, SharedQueue};
use crate::{Balance, Color, Colors, UNCOLORED};

/// How many queue positions ahead the vertex-based loops hint the cache
/// about the next vertex's adjacency row. The queue entries are random
/// vertex ids, so without the hint every `nets(w)` access is a cold
/// indirect load; four items covers that latency without thrashing L1.
pub const PREFETCH_AHEAD: usize = 4;

/// Algorithm 4 — optimistic coloring of the work queue `w`, vertex-based.
///
/// Every vertex in `w` is assigned a color chosen by `balance` (first-fit
/// for [`Balance::Unbalanced`]) against the colors currently visible in its
/// distance-2 neighborhood. Races with concurrent writers are expected and
/// repaired by the following conflict-removal phase.
pub fn color_workqueue_vertex<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    balance: Balance,
    scratch: &ThreadScratch<ThreadCtx<F, G::Index>>,
) {
    let rec = pool.tracer();
    let slots = colors.slots();
    pool.for_dynamic(w.len(), chunk, |tid, range| {
        par::faults::fire(G::FAULT_COLOR, tid);
        scratch.with(tid, |ctx| {
            let items = &w[range];
            // Counter sinks live in registers and are flushed once per
            // chunk; with the trace crate's `sink-off` feature the
            // `trace::COMPILED` constant folds them away entirely.
            let mut tally = Tally::default();
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    if trace::COMPILED {
                        tally.prefetches += 1;
                    }
                }
                gather_forbidden(g, slots, wv, ctx, &mut tally);
                let col = balance.pick(wv, &ctx.fb, &mut ctx.balancer);
                colors.set(wv as usize, col);
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::VerticesColored, items.len() as u64);
                    local.add(trace::Counter::ForbiddenProbes, tally.probes);
                    local.add(trace::Counter::PrefetchIssues, tally.prefetches);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Counter sinks of the coloring walk, kept in registers and flushed once
/// per chunk.
#[derive(Default)]
pub(crate) struct Tally {
    /// Colored pins seen (`ForbiddenProbes`).
    pub(crate) probes: u64,
    /// Pin-list prefetches issued (`PrefetchIssues`).
    pub(crate) prefetches: u64,
}

/// Algorithm 4's distance-2 gather: starts a fresh forbidden set in
/// `ctx.fb` holding every color on the pins of `wv`'s nets except `wv`'s
/// own (a stale self color from a lost conflict included).
///
/// When `F` merges a low word ([`ForbiddenSet::LOW_WORD`]) and the thread
/// has not yet seen a wide palette, each pin costs a load, a shift and an
/// OR: the color is read as `u32` with the self pin and [`UNCOLORED`]
/// both mapped to `u32::MAX`, colors below 64 land in a register word,
/// and only colors ≥ 64 take the one branch (never taken while the
/// palette fits in 64 colors) to [`ForbiddenSet::insert`], setting the
/// sticky [`ThreadCtx::wide_palette`]. The word is merged once, so the
/// set is the same as the one-by-one inserts of the other path would
/// build.
#[inline(always)]
pub(crate) fn gather_forbidden<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    slots: &[AtomicI32],
    wv: u32,
    ctx: &mut ThreadCtx<F, G::Index>,
    tally: &mut Tally,
) {
    let fb = &mut ctx.fb;
    fb.advance();
    let word = F::LOW_WORD && !ctx.wide_palette;
    let wide = &mut ctx.wide_palette;
    let mut low = 0u64;
    let nets = g.nets(wv as usize);
    for (j, &v) in nets.iter().enumerate() {
        if G::PREFETCH_PINS {
            if let Some(&vnext) = nets.get(j + 1) {
                g.prefetch_pins(vnext as usize);
                if trace::COMPILED {
                    tally.prefetches += 1;
                }
            }
        }
        if word {
            g.for_each_pin(v as usize, |u| {
                let self_pin = ((u == wv) as u32).wrapping_neg();
                let c = slots[u as usize].load(Ordering::Relaxed) as u32 | self_pin;
                low |= ((c < 64) as u64) << (c & 63);
                if trace::COMPILED {
                    tally.probes += (c != u32::MAX) as u64;
                }
                if c.wrapping_add(1) > 64 {
                    fb.insert(c as Color);
                    *wide = true;
                }
            });
        } else {
            g.for_each_pin(v as usize, |u| {
                if u != wv {
                    let cu = slots[u as usize].load(Ordering::Relaxed);
                    if cu != UNCOLORED {
                        fb.insert(cu);
                        if trace::COMPILED {
                            tally.probes += 1;
                        }
                    }
                }
            });
        }
    }
    if word {
        fb.merge_low_word(low);
    }
}

/// Algorithm 5 — vertex-based conflict detection over the work queue.
///
/// For each queued vertex `w`, scans its distance-2 neighborhood; if some
/// neighbor `u` holds the same color and `w > u`, `w` loses and is queued
/// for recoloring (its stale color is left in place, exactly like the
/// original — the next coloring phase overwrites it).
///
/// `eager` selects ColPack's shared-queue construction (staged: one atomic
/// `fetch_add` per 64 conflicts instead of one per conflict); otherwise the
/// 64D lazy strategy collects conflicts in thread-private queues merged
/// after the join. Returns `W_next`.
pub fn remove_conflicts_vertex<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    eager: Option<&SharedQueue>,
    scratch: &mut ThreadScratch<ThreadCtx<F, G::Index>>,
) -> Vec<u32> {
    let scratch_ref: &ThreadScratch<ThreadCtx<F, G::Index>> = scratch;
    let rec = pool.tracer();
    pool.for_dynamic(w.len(), chunk, |tid, range| {
        par::faults::fire(G::FAULT_CONFLICT, tid);
        scratch_ref.with(tid, |ctx| {
            let items = &w[range];
            let mut conflicts = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    if trace::COMPILED {
                        prefetches += 1;
                    }
                }
                let wu = wv as usize;
                let cw = colors.get(wu);
                debug_assert_ne!(cw, UNCOLORED, "conflict scan on uncolored vertex");
                let lost = g.nets(wu).iter().any(|&v| {
                    g.any_pin(v as usize, |u| u < wv && colors.get(u as usize) == cw)
                });
                if lost {
                    match eager {
                        Some(q) => q.push_staged(&mut ctx.stage, wv),
                        None => ctx.local_queue.push(wv),
                    }
                    if trace::COMPILED {
                        conflicts += 1;
                    }
                }
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::ConflictsDetected, conflicts);
                    local.add(trace::Counter::PrefetchIssues, prefetches);
                    r.merge(tid, &local);
                }
            }
        });
    });
    match eager {
        Some(q) => {
            // Flush each thread's residual stage (outside the region — the
            // join ordered all staged writes before this point).
            for ctx in scratch.iter_mut() {
                q.flush(&mut ctx.stage);
            }
            q.drain_to_vec()
        }
        None => merge_local_queues(scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::{BipartiteGraph, Graph};
    use sparse::Csr;

    fn clique_graph() -> BipartiteGraph {
        // One net containing all 6 vertices: pairwise conflicting.
        BipartiteGraph::from_matrix(&Csr::from_rows(6, &[vec![0, 1, 2, 3, 4, 5]]))
    }

    fn cycle6() -> Graph {
        Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 5],
                vec![0, 2],
                vec![1, 3],
                vec![2, 4],
                vec![3, 5],
                vec![0, 4],
            ],
        ))
    }

    fn run_until_valid<G: Neighborhood<Index = u32>>(
        g: &G,
        pool: &Pool,
        eager: bool,
    ) -> Vec<i32> {
        let n = g.n_vertices();
        let colors = Colors::new(n);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(16));
        let shared = SharedQueue::new(n);
        let mut w: Vec<u32> = (0..n as u32).collect();
        let mut guard = 0;
        while !w.is_empty() {
            color_workqueue_vertex(g, &w, &colors, pool, 1, Balance::Unbalanced, &scratch);
            w = remove_conflicts_vertex(
                g,
                &w,
                &colors,
                pool,
                1,
                eager.then_some(&shared),
                &mut scratch,
            );
            guard += 1;
            assert!(guard < 100, "no convergence");
        }
        colors.snapshot()
    }

    #[test]
    fn sequential_team_colors_clique_without_conflicts() {
        let g = clique_graph();
        let pool = Pool::new(1);
        // Single thread first-fit on one net: colors are 0..6 in order.
        let colors = run_until_valid(&g, &pool, false);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(colors, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_team_converges_on_clique_lazy() {
        let g = clique_graph();
        let pool = Pool::new(4);
        let colors = run_until_valid(&g, &pool, false);
        verify_bgpc(&g, &colors).unwrap();
    }

    #[test]
    fn parallel_team_converges_on_clique_eager() {
        let g = clique_graph();
        let pool = Pool::new(4);
        let colors = run_until_valid(&g, &pool, true);
        verify_bgpc(&g, &colors).unwrap();
    }

    #[test]
    fn disjoint_nets_need_one_iteration() {
        // nets {0,1}, {2,3}: vertices 0,2 and 1,3 can share colors.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]));
        let pool = Pool::new(2);
        let colors = Colors::new(4);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(2, |_| ThreadCtx::new(8));
        let w: Vec<u32> = vec![0, 1, 2, 3];
        color_workqueue_vertex(&g, &w, &colors, &pool, 1, Balance::Unbalanced, &scratch);
        let wnext = remove_conflicts_vertex(&g, &w, &colors, &pool, 1, None, &mut scratch);
        // single-net-per-vertex, small graph: any schedule should already
        // be conflict-free or nearly so; loop to completion for safety.
        let mut w = wnext;
        let mut rounds = 0;
        while !w.is_empty() {
            color_workqueue_vertex(&g, &w, &colors, &pool, 1, Balance::Unbalanced, &scratch);
            w = remove_conflicts_vertex(&g, &w, &colors, &pool, 1, None, &mut scratch);
            rounds += 1;
            assert!(rounds < 10);
        }
        verify_bgpc(&g, &colors.snapshot()).unwrap();
    }

    #[test]
    fn loser_is_larger_id() {
        // Force a conflict artificially: both vertices of one net get the
        // same color, then run detection on the full queue.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(2, &[vec![0, 1]]));
        let pool = Pool::new(1);
        let colors = Colors::new(2);
        colors.set(0, 0);
        colors.set(1, 0);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(1, |_| ThreadCtx::new(4));
        let wnext = remove_conflicts_vertex(&g, &[0, 1], &colors, &pool, 1, None, &mut scratch);
        assert_eq!(wnext, vec![1]);
        // Winner keeps its color; loser's stale color remains until the
        // next coloring phase (paper semantics).
        assert_eq!(colors.get(0), 0);
        assert_eq!(colors.get(1), 0);
    }

    #[test]
    fn balanced_policies_still_yield_valid_colorings() {
        let m = sparse::gen::bipartite_uniform(20, 30, 200, 3);
        let g = BipartiteGraph::from_matrix(&m);
        for balance in [Balance::B1, Balance::B2] {
            let pool = Pool::new(3);
            let colors = Colors::new(g.n_vertices());
            let mut scratch: ThreadScratch<ThreadCtx> =
                ThreadScratch::new(3, |_| ThreadCtx::new(32));
            let mut w: Vec<u32> = (0..g.n_vertices() as u32).collect();
            let mut rounds = 0;
            while !w.is_empty() {
                color_workqueue_vertex(&g, &w, &colors, &pool, 4, balance, &scratch);
                w = remove_conflicts_vertex(&g, &w, &colors, &pool, 4, None, &mut scratch);
                rounds += 1;
                assert!(rounds < 100);
            }
            verify_bgpc(&g, &colors.snapshot()).unwrap();
        }
    }

    #[test]
    fn d2gc_cycle_single_thread() {
        let g = cycle6();
        let colors = run_until_valid(&g, &Pool::new(1), false);
        verify_d2gc(&g, &colors).unwrap();
        // C6 at distance 2 needs exactly 3 colors.
        assert_eq!(crate::metrics::count_distinct_colors(&colors), 3);
    }

    #[test]
    fn d2gc_cycle_parallel() {
        let g = cycle6();
        let colors = run_until_valid(&g, &Pool::new(4), false);
        verify_d2gc(&g, &colors).unwrap();
    }

    #[test]
    fn d2gc_random_graph_parallel_eager_queue() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(60, 150, 3));
        let colors = run_until_valid(&g, &Pool::new(3), true);
        verify_d2gc(&g, &colors).unwrap();
    }
}

//! Net-based phases (Algorithms 6, 7 and 8) — the paper's contribution,
//! for BGPC and, over closed-neighborhood nets, D2GC (Algorithms 9 and
//! 10; see [`crate::neighborhood`]).
//!
//! A BGPC conflict is, by definition, "two vertices of the same `vtxs` set
//! with the same color", so observing the graph from the nets' side visits
//! each pin exactly once per phase: every net-based pass is linear in the
//! graph size, versus the quadratic-in-net-size vertex-based traversal.
//! The price is optimism — threads only see conflicts local to the net they
//! are scanning — which the conflict-removal iterations repair.

use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;
use crate::neighborhood::Neighborhood;
use crate::{Balance, Color, Colors, UNCOLORED};

/// Dynamic chunk used for net-parallel loops. Nets vary in size far more
/// than vertices, so a modest chunk keeps the load balanced.
const NET_CHUNK: usize = 16;

/// Which net-based coloring algorithm to run. Table I of the paper
/// compares all three on their first-iteration conflict counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetColoringVariant {
    /// Algorithm 6 verbatim: single pass, immediate recolor, net-local
    /// *first-fit* — "the most optimistic", and measurably the most
    /// conflict-prone.
    SinglePassFirstFit,
    /// Algorithm 6 with the first-fit replaced by reverse first-fit from
    /// `|vtxs(v)| − 1` (Table I's "Alg. 6 + reverse" row).
    SinglePassReverse,
    /// Algorithm 8: a marking pass over the pin list, then reverse
    /// first-fit coloring of the local queue — the variant the schedules
    /// use.
    TwoPassReverse,
}

/// Net-based optimistic coloring: colors every currently uncolored (or
/// net-locally conflicting) vertex by scanning all nets in parallel.
///
/// Note the asymmetry with the vertex-based phase: the work queue is
/// implicit (any pin with `c[u] = −1`, plus in-net duplicates), and *all*
/// nets are traversed regardless of how small the queue is — which is why
/// schedules only run this for the first iteration or two.
///
/// `balance` applies the B1/B2 start-color policies to the net's local
/// color run (the paper: "the net-based variants are also similar").
pub fn color_workqueue_net<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    colors: &Colors,
    pool: &Pool,
    variant: NetColoringVariant,
    balance: Balance,
    scratch: &ThreadScratch<ThreadCtx<F, G::Index>>,
) {
    match variant {
        NetColoringVariant::SinglePassFirstFit => {
            color_net_single_pass(g, colors, pool, scratch, false)
        }
        NetColoringVariant::SinglePassReverse => {
            color_net_single_pass(g, colors, pool, scratch, true)
        }
        NetColoringVariant::TwoPassReverse => {
            color_net_two_pass(g, colors, pool, scratch, balance)
        }
    }
}

/// Algorithm 6 (and its reverse-fit variant): one pass over each pin list,
/// recoloring on the spot.
fn color_net_single_pass<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    colors: &Colors,
    pool: &Pool,
    scratch: &ThreadScratch<ThreadCtx<F, G::Index>>,
    reverse: bool,
) {
    let rec = pool.tracer();
    pool.for_dynamic(g.n_nets(), NET_CHUNK, |tid, range| {
        par::faults::fire(G::FAULT_COLOR, tid);
        scratch.with(tid, |ctx| {
            let mut colored = 0u64;
            let mut probes = 0u64;
            for v in range {
                ctx.fb.advance();
                let mut col: Color = if reverse {
                    g.net_size(v) as Color - 1
                } else {
                    0
                };
                g.for_each_pin(v, |u| {
                    let cu = colors.get(u as usize);
                    if cu == UNCOLORED || ctx.fb.contains(cu) {
                        // Recolor u with the net-local cursor policy.
                        if reverse {
                            col = ctx.fb.reverse_first_fit_from(col);
                            debug_assert!(col >= 0, "reverse fit underflow");
                        } else {
                            col = ctx.fb.first_fit_from(col);
                        }
                        colors.set(u as usize, col);
                        ctx.fb.insert(col);
                        if trace::COMPILED {
                            colored += 1;
                        }
                    } else {
                        ctx.fb.insert(cu);
                    }
                    if trace::COMPILED {
                        probes += 1;
                    }
                });
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::VerticesColored, colored);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Algorithm 8: mark forbidden colors and collect `W_local` in a first
/// pass, then color `W_local` with reverse first-fit (or the B1/B2
/// adaptation) in a second pass.
fn color_net_two_pass<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    colors: &Colors,
    pool: &Pool,
    scratch: &ThreadScratch<ThreadCtx<F, G::Index>>,
    balance: Balance,
) {
    let rec = pool.tracer();
    pool.for_dynamic(g.n_nets(), NET_CHUNK, |tid, range| {
        par::faults::fire(G::FAULT_COLOR, tid);
        scratch.with(tid, |ctx| {
            let mut colored = 0u64;
            let mut probes = 0u64;
            for v in range {
                ctx.fb.advance();
                ctx.wlocal.clear();
                g.for_each_pin(v, |u| {
                    let cu = colors.get(u as usize);
                    if cu != UNCOLORED && !ctx.fb.contains(cu) {
                        ctx.fb.insert(cu);
                    } else {
                        ctx.wlocal.push(u);
                    }
                    if trace::COMPILED {
                        probes += 1;
                    }
                });
                if ctx.wlocal.is_empty() {
                    continue;
                }
                if trace::COMPILED {
                    colored += ctx.wlocal.len() as u64;
                }
                // Take the local queue so the second pass iterates a slice
                // (no per-element index bound check) while `ctx.fb` stays
                // mutably borrowable.
                let wlocal = std::mem::take(&mut ctx.wlocal);
                match balance {
                    Balance::Unbalanced => {
                        // Reverse first-fit from |vtxs(v)| − 1. Lemma 1:
                        // the cursor cannot underflow, because the scan
                        // skips at most |vtxs(v)| − |W_local| forbidden
                        // in-range colors and assigns |W_local| colors.
                        let mut col: Color = g.net_size(v) as Color - 1;
                        for &u in &wlocal {
                            col = ctx.fb.reverse_first_fit_from(col);
                            debug_assert!(col >= 0, "Lemma 1 violated");
                            colors.set(u as usize, col);
                            col -= 1;
                        }
                    }
                    Balance::B1 | Balance::B2 => {
                        // B1/B2 net adaptation: pick each local vertex's
                        // color with the thread's balancing cursors, and
                        // forbid it so the run stays distinct within the
                        // net.
                        for &u in &wlocal {
                            let col = balance.pick(v as u32, &ctx.fb, &mut ctx.balancer);
                            colors.set(u as usize, col);
                            ctx.fb.insert(col);
                        }
                    }
                }
                ctx.wlocal = wlocal;
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::VerticesColored, colored);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Algorithm 7 — net-based conflict removal.
///
/// Scans every net once; the first pin holding a given color keeps it,
/// later pins with the same color are uncolored (`c[u] ← −1`). Detects all
/// conflicts in `O(|V| + |E|)` but "may remove more colorings than
/// required" — the optimism the paper accepts. For D2GC the middle vertex
/// is the first pin, so it always survives its own net's scan (it may
/// still lose in a neighbor's).
pub fn remove_conflicts_net<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    colors: &Colors,
    pool: &Pool,
    scratch: &ThreadScratch<ThreadCtx<F, G::Index>>,
) {
    let rec = pool.tracer();
    pool.for_dynamic(g.n_nets(), NET_CHUNK, |tid, range| {
        par::faults::fire(G::FAULT_CONFLICT, tid);
        scratch.with(tid, |ctx| {
            let mut conflicts = 0u64;
            let mut probes = 0u64;
            for v in range {
                ctx.fb.advance();
                g.for_each_pin(v, |u| {
                    let cu = colors.get(u as usize);
                    if cu != UNCOLORED {
                        if ctx.fb.contains(cu) {
                            colors.clear(u as usize);
                            if trace::COMPILED {
                                conflicts += 1;
                            }
                        } else {
                            ctx.fb.insert(cu);
                            if trace::COMPILED {
                                probes += 1;
                            }
                        }
                    }
                });
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::ConflictsDetected, conflicts);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Rebuilds the explicit work queue after a net-based conflict-removal
/// pass: the uncolored vertices, in the processing order given by `order`.
///
/// Static partitioning with per-thread buffers merged in thread order keeps
/// the result deterministic for a fixed coloring state.
pub fn collect_uncolored<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    order: &[u32],
    colors: &Colors,
    pool: &Pool,
    scratch: &mut ThreadScratch<ThreadCtx<F, G::Index>>,
) -> Vec<u32> {
    debug_assert_eq!(order.len(), g.n_vertices(), "order must cover every vertex");
    let scratch_ref: &ThreadScratch<ThreadCtx<F, G::Index>> = scratch;
    pool.for_static(order.len(), |tid, range| {
        par::faults::fire(G::FAULT_CONFLICT, tid);
        scratch_ref.with(tid, |ctx| {
            debug_assert!(ctx.local_queue.is_empty());
            for &u in &order[range] {
                if colors.get(u as usize) == UNCOLORED {
                    ctx.local_queue.push(u);
                }
            }
        });
    });
    crate::workqueue::merge_local_queues(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::{BipartiteGraph, Graph};
    use sparse::Csr;

    fn scratch(t: usize) -> ThreadScratch<ThreadCtx> {
        ThreadScratch::new(t, |_| ThreadCtx::new(32))
    }

    fn overlapping() -> BipartiteGraph {
        // nets: {0,1,2}, {2,3}, {3,4,5}
        BipartiteGraph::from_matrix(&Csr::from_rows(
            6,
            &[vec![0, 1, 2], vec![2, 3], vec![3, 4, 5]],
        ))
    }

    fn star() -> Graph {
        Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]],
        ))
    }

    fn mesh() -> Graph {
        Graph::from_symmetric_matrix(&sparse::gen::grid2d(8, 8, 1))
    }

    fn run_net_until_valid<G: Neighborhood<Index = u32>>(
        g: &G,
        pool: &Pool,
        variant: NetColoringVariant,
    ) -> Vec<i32> {
        let colors = Colors::new(g.n_vertices());
        let mut sc = scratch(pool.threads());
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mut rounds = 0;
        loop {
            color_workqueue_net(g, &colors, pool, variant, Balance::Unbalanced, &sc);
            remove_conflicts_net(g, &colors, pool, &sc);
            let w = collect_uncolored(g, &order, &colors, pool, &mut sc);
            if w.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds < 100, "no convergence");
        }
        colors.snapshot()
    }

    #[test]
    fn two_pass_single_thread_valid() {
        let g = overlapping();
        let pool = Pool::new(1);
        let colors = run_net_until_valid(&g, &pool, NetColoringVariant::TwoPassReverse);
        verify_bgpc(&g, &colors).unwrap();
        // D2GC star: every vertex is within distance 2 of every other.
        let g = star();
        let colors = run_net_until_valid(&g, &pool, NetColoringVariant::TwoPassReverse);
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(crate::metrics::count_distinct_colors(&colors), 5);
    }

    #[test]
    fn two_pass_parallel_valid() {
        let g = overlapping();
        let pool = Pool::new(4);
        let colors = run_net_until_valid(&g, &pool, NetColoringVariant::TwoPassReverse);
        verify_bgpc(&g, &colors).unwrap();
        let g = mesh();
        let colors = run_net_until_valid(&g, &pool, NetColoringVariant::TwoPassReverse);
        verify_d2gc(&g, &colors).unwrap();
    }

    #[test]
    fn single_pass_variants_converge() {
        let pool = Pool::new(2);
        let mesh = mesh();
        let order: Vec<u32> = (0..mesh.n_vertices() as u32).collect();
        for variant in [
            NetColoringVariant::SinglePassFirstFit,
            NetColoringVariant::SinglePassReverse,
        ] {
            let g = overlapping();
            let colors = run_net_until_valid(&g, &pool, variant);
            verify_bgpc(&g, &colors).unwrap();
            // Net-only rounds need not converge on a D2GC mesh (the reverse
            // cursor restarts at the same color every round), so the mesh
            // runs the variant the way the schedules do: net phases first,
            // vertex phases to convergence.
            let schedule = crate::Schedule::n2_n2().with_net_variant(variant);
            let r = crate::d2gc::color_d2gc(&mesh, &order, &schedule, &pool);
            assert!(r.degraded.is_none(), "{variant:?}");
            verify_d2gc(&mesh, &r.colors).unwrap();
        }
    }

    #[test]
    fn d2gc_honours_net_variant() {
        // One thread, so the first net round is deterministic: on this
        // mesh single-pass first-fit leaves nothing to recolor while the
        // two-pass reverse fit leaves conflicts.
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid3d(6, 6, 6, 1));
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let pool = Pool::new(1);
        let left = |variant| {
            let schedule = crate::Schedule::n1_n2().with_net_variant(variant);
            let r = crate::d2gc::color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors).unwrap();
            r.remaining_after_first()
        };
        assert_eq!(left(NetColoringVariant::SinglePassFirstFit), 0);
        assert!(left(NetColoringVariant::TwoPassReverse) > 0);
    }

    #[test]
    fn two_pass_respects_lemma1_on_single_net() {
        // One net of k vertices colored by one thread: colors must be
        // exactly {0, …, k−1} (reverse first-fit from k−1).
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(5, &[vec![0, 1, 2, 3, 4]]));
        let pool = Pool::new(1);
        let colors = Colors::new(5);
        let sc = scratch(1);
        color_workqueue_net(
            &g,
            &colors,
            &pool,
            NetColoringVariant::TwoPassReverse,
            Balance::Unbalanced,
            &sc,
        );
        let mut got = colors.snapshot();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // Lemma 1: max color < max net size.
        assert!(got.iter().all(|&c| c < g.max_net_size() as i32));
    }

    #[test]
    fn reverse_cursor_starts_at_degree() {
        // D2GC triangle: the closed neighborhood of 0 holds all three
        // vertices, so the cursor starts at |nbor(0)| = 2 and one net pass
        // colors them 0, 1, 2.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            3,
            &[vec![1, 2], vec![0, 2], vec![0, 1]],
        ));
        assert_eq!(g.net_size(0) - 1, g.degree(0));
        let colors = Colors::new(3);
        let pool = Pool::new(1);
        let sc = scratch(1);
        color_workqueue_net(
            &g,
            &colors,
            &pool,
            NetColoringVariant::TwoPassReverse,
            Balance::Unbalanced,
            &sc,
        );
        let mut got = colors.snapshot();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn conflict_removal_keeps_first_occurrence() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(3, &[vec![0, 1, 2]]));
        let pool = Pool::new(1);
        let colors = Colors::new(3);
        colors.set(0, 5);
        colors.set(1, 5);
        colors.set(2, 3);
        let sc = scratch(1);
        remove_conflicts_net(&g, &colors, &pool, &sc);
        assert_eq!(colors.get(0), 5, "first pin keeps the color");
        assert_eq!(colors.get(1), UNCOLORED, "duplicate uncolored");
        assert_eq!(colors.get(2), 3);
    }

    #[test]
    fn conflict_removal_seeds_middle_color() {
        // D2GC edge 0 - 1, both colored 4: scanning net N[0] seeds c[0]=4
        // then uncolors 1, leaving exactly one survivor.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![0]]));
        let colors = Colors::new(2);
        colors.set(0, 4);
        colors.set(1, 4);
        let pool = Pool::new(1);
        let sc = scratch(1);
        remove_conflicts_net(&g, &colors, &pool, &sc);
        let snap = colors.snapshot();
        assert_eq!(snap.iter().filter(|&&c| c == 4).count(), 1);
        assert_eq!(snap.iter().filter(|&&c| c == UNCOLORED).count(), 1);
    }

    #[test]
    fn collect_uncolored_preserves_order() {
        let g = overlapping();
        let pool = Pool::new(3);
        let colors = Colors::new(6);
        colors.set(1, 0);
        colors.set(4, 2);
        let mut sc = scratch(3);
        let order: Vec<u32> = vec![5, 4, 3, 2, 1, 0];
        let w = collect_uncolored(&g, &order, &colors, &pool, &mut sc);
        assert_eq!(w, vec![5, 3, 2, 0]);
    }

    #[test]
    fn net_coloring_skips_validly_colored_vertices() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(3, &[vec![0, 1, 2]]));
        let pool = Pool::new(1);
        let colors = Colors::new(3);
        colors.set(0, 0);
        colors.set(1, 1);
        colors.set(2, 2);
        let sc = scratch(1);
        color_workqueue_net(
            &g,
            &colors,
            &pool,
            NetColoringVariant::TwoPassReverse,
            Balance::Unbalanced,
            &sc,
        );
        assert_eq!(colors.snapshot(), vec![0, 1, 2], "valid colors untouched");
    }

    /// The paper never loops balanced *net* coloring: B1/B2 are applied to
    /// N1-N2 / V-N2, where net coloring runs once and the vertex phase
    /// finishes the job. Mirror that here: one balanced net round, then
    /// vertex rounds to convergence.
    fn balanced_net_then_vertex<G: Neighborhood<Index = u32>>(g: &G, balance: Balance) -> Vec<i32> {
        let pool = Pool::new(2);
        let colors = Colors::new(g.n_vertices());
        let mut sc = scratch(2);
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        color_workqueue_net(
            g,
            &colors,
            &pool,
            NetColoringVariant::TwoPassReverse,
            balance,
            &sc,
        );
        remove_conflicts_net(g, &colors, &pool, &sc);
        let mut w = collect_uncolored(g, &order, &colors, &pool, &mut sc);
        let mut rounds = 0;
        while !w.is_empty() {
            crate::vertex::color_workqueue_vertex(g, &w, &colors, &pool, 4, balance, &sc);
            w = crate::vertex::remove_conflicts_vertex(g, &w, &colors, &pool, 4, None, &mut sc);
            rounds += 1;
            assert!(rounds < 100);
        }
        colors.snapshot()
    }

    #[test]
    fn balanced_net_coloring_converges_via_vertex_phase() {
        let bip = BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(15, 25, 150, 8));
        let d2 = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(40, 90, 13));
        for balance in [Balance::B1, Balance::B2] {
            verify_bgpc(&bip, &balanced_net_then_vertex(&bip, balance)).unwrap();
            verify_d2gc(&d2, &balanced_net_then_vertex(&d2, balance)).unwrap();
        }
    }
}

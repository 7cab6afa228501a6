//! Regression: balancer-cursor carryover on a reused `ThreadCtx`.
//!
//! The B1/B2 cursors (`colmax`, `colnext`) are per-*run* state, but the
//! workspace that holds them is designed to be long-lived. Reusing a
//! scratch set across two colorings without
//! [`ThreadCtx::reset_for_run`](bgpc::ctx::ThreadCtx) used to leak the
//! first run's `colmax` into the second: B1's reverse-fit interval and
//! B2's rotation floor started from the previous graph's color count,
//! silently changing (and un-reproducing) the second result. These tests
//! pin the contract from both sides: the carryover is real (the cursors
//! do move), and a reset restores fresh-workspace-identical colorings.

use bgpc::ctx::ThreadCtx;
use bgpc::vertex::color_workqueue_vertex;
use bgpc::{Balance, BitStampSet, Color, Colors};
use graph::BipartiteGraph;
use par::{Pool, ThreadScratch};
use sparse::Csr;

/// A star: one net over `n` vertices, forcing `n` distinct colors and
/// driving `colmax` up to `n - 1`.
fn star(n: usize) -> BipartiteGraph {
    BipartiteGraph::from_matrix(&Csr::from_rows(n, &[(0..n as u32).collect()]))
}

/// A small two-net instance, the "second run" workload.
fn small() -> BipartiteGraph {
    BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]))
}

/// Colors `g` single-threaded with the given balancer through the public
/// vertex kernel, using the provided scratch set.
fn color_with(
    g: &BipartiteGraph,
    balance: Balance,
    pool: &Pool,
    scratch: &ThreadScratch<ThreadCtx<BitStampSet>>,
) -> Vec<Color> {
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let colors = Colors::new(g.n_vertices());
    color_workqueue_vertex(g, &order, &colors, pool, 64, balance, None, scratch);
    colors.snapshot()
}

#[test]
fn balancer_cursors_survive_a_run_without_reset() {
    // Precondition for the reset to matter at all: a big first run must
    // actually move the cursors. If this stops holding, the reuse tests
    // below test nothing.
    let pool = Pool::new(1);
    let mut scratch: ThreadScratch<ThreadCtx<BitStampSet>> =
        ThreadScratch::new(1, |_| ThreadCtx::new(64 + 64));
    let _ = color_with(&star(48), Balance::B2, &pool, &scratch);
    let moved = {
        let ctx = scratch.iter_mut().next().expect("one context");
        ctx.balancer.colmax > 0 || ctx.balancer.colnext > 0
    };
    assert!(moved, "a 48-color B2 run must advance the balancer cursors");
}

#[test]
fn reset_restores_fresh_workspace_results_back_to_back() {
    let pool = Pool::new(1);
    for balance in [Balance::B1, Balance::B2] {
        // Baseline: the small instance colored with a fresh workspace.
        let fresh: ThreadScratch<ThreadCtx<BitStampSet>> =
            ThreadScratch::new(1, |_| ThreadCtx::new(64 + 64));
        let baseline = color_with(&small(), balance, &pool, &fresh);

        // Reused workspace: big run first, then reset, then the small
        // instance — must be identical to the fresh-workspace result.
        let mut reused: ThreadScratch<ThreadCtx<BitStampSet>> =
            ThreadScratch::new(1, |_| ThreadCtx::new(64 + 64));
        let _ = color_with(&star(48), balance, &pool, &reused);
        for ctx in reused.iter_mut() {
            ctx.reset_for_run();
        }
        let second = color_with(&small(), balance, &pool, &reused);
        assert_eq!(
            second, baseline,
            "{}: reused+reset workspace must reproduce the fresh result",
            balance.label()
        );

        // And back-to-back repetition with a reset in between is stable.
        for ctx in reused.iter_mut() {
            ctx.reset_for_run();
        }
        let third = color_with(&small(), balance, &pool, &reused);
        assert_eq!(third, baseline, "{}: repeat run drifted", balance.label());
    }
}

#[test]
fn runner_results_are_reuse_independent() {
    // End-to-end pin: two identical back-to-back runner calls (which
    // allocate and defensively reset their own scratch) must be
    // bit-identical for every balancer, single-threaded.
    use bgpc::Schedule;
    use graph::Ordering;
    let g = star(48);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(1);
    for balance in [Balance::Unbalanced, Balance::B1, Balance::B2] {
        let schedule = Schedule::v_v().with_balance(balance);
        let a = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        let b = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        assert_eq!(
            a.colors,
            b.colors,
            "{}: back-to-back runner calls diverged",
            balance.label()
        );
    }
}

//! Jones–Plassmann coloring — the MIS-based baseline family the
//! speculative approach displaced (paper §VII, refs \[23\]–\[25\]).
//!
//! Every vertex draws a random priority; in each round, the uncolored
//! vertices that dominate their *uncolored* (distance-2) neighborhood
//! color themselves with the smallest color unused by their colored
//! neighbors. Unlike the speculative framework there are **never any
//! conflicts to repair** — the priced-in cost is more synchronization
//! rounds (O(log n / log log n) expected for bounded degree) and a barrier
//! per round. Written once over [`Neighborhood`], so BGPC and D2GC (and
//! the benches contrasting the two philosophies) run the same rounds.

use std::sync::atomic::{AtomicBool, Ordering};

use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::metrics::count_distinct_colors;
use crate::neighborhood::Neighborhood;
use crate::vertex::{gather_forbidden, Tally};
use crate::{BitStampSet, Color, Colors, UNCOLORED};

/// Deterministic per-vertex priority: splitmix64 of (vertex, seed), with
/// the vertex id as tiebreak (encoded by comparing `(hash, id)` pairs).
#[inline]
fn priority(v: u32, seed: u64) -> u64 {
    let mut z = (v as u64).wrapping_add(seed).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline]
fn beats(w: u32, u: u32, seed: u64) -> bool {
    let (pw, pu) = (priority(w, seed), priority(u, seed));
    pw > pu || (pw == pu && w > u)
}

/// Result of a Jones–Plassmann run.
#[derive(Clone, Debug)]
pub struct JpResult {
    /// Final colors (valid, complete).
    pub colors: Vec<Color>,
    /// Distinct colors used.
    pub num_colors: usize,
    /// Synchronous rounds executed.
    pub rounds: usize,
}

/// Jones–Plassmann over `g`'s nets: a vertex wins a round when no
/// uncolored pin of its nets (itself excepted) beats it, which for D2GC
/// is domination over the distance-2 neighborhood.
pub fn color_jp<G: Neighborhood>(g: &G, pool: &Pool, seed: u64) -> JpResult {
    let n = g.n_vertices();
    let colors = Colors::new(n);
    let slots = colors.slots();
    let scratch: ThreadScratch<ThreadCtx<BitStampSet>> =
        ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(g.max_neighborhood() + 16));
    let mut active: Vec<u32> = (0..n as u32).collect();
    let mut rounds = 0usize;
    while !active.is_empty() {
        rounds += 1;
        assert!(rounds <= n + 1, "JP failed to converge");
        // Phase 1: find this round's winners (dominators among uncolored).
        let flags: Vec<AtomicBool> = (0..active.len()).map(|_| AtomicBool::new(false)).collect();
        pool.for_dynamic(active.len(), 32, |_tid, range| {
            for i in range {
                let w = active[i];
                let dominated = g.nets(w as usize).iter().any(|&v| {
                    g.any_pin(v as usize, |u| {
                        u != w && colors.get(u as usize) == UNCOLORED && beats(u, w, seed)
                    })
                });
                if !dominated {
                    flags[i].store(true, Ordering::Relaxed);
                }
            }
        });
        let winners: Vec<u32> = active
            .iter()
            .zip(&flags)
            .filter(|(_, f)| f.load(Ordering::Relaxed))
            .map(|(&w, _)| w)
            .collect();
        debug_assert!(!winners.is_empty(), "no winner among active vertices");
        // Phase 2: winners color themselves (mutually independent at
        // distance 2 by construction, so first-fit races cannot happen —
        // two winners sharing a net would have to dominate each other).
        pool.for_dynamic(winners.len(), 32, |tid, range| {
            scratch.with(tid, |ctx| {
                let mut tally = Tally::default();
                for &w in &winners[range] {
                    gather_forbidden(g, slots, w, ctx, &mut tally);
                    colors.set(w as usize, ctx.fb.first_fit_from(0));
                }
            });
        });
        active.retain(|&w| colors.get(w as usize) == UNCOLORED);
    }
    let colors = colors.snapshot();
    let num_colors = count_distinct_colors(&colors);
    JpResult {
        colors,
        num_colors,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::{BipartiteGraph, Graph};

    #[test]
    fn bgpc_jp_valid_single_and_multi_thread() {
        let m = sparse::gen::bipartite_uniform(50, 70, 800, 4);
        let g = BipartiteGraph::from_matrix(&m);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let r = color_jp(&g, &pool, 7);
            verify_bgpc(&g, &r.colors).unwrap();
            assert!(r.num_colors >= g.max_net_size());
        }
    }

    #[test]
    fn bgpc_jp_is_deterministic_per_seed_regardless_of_threads() {
        // JP's winner sets depend only on priorities and the coloring
        // state of *previous* rounds, so the result is thread-invariant.
        let m = sparse::gen::bipartite_uniform(40, 60, 500, 9);
        let g = BipartiteGraph::from_matrix(&m);
        let a = color_jp(&g, &Pool::new(1), 5);
        let b = color_jp(&g, &Pool::new(4), 5);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
        // Another seed is just as thread-invariant, and still verifies.
        let c = color_jp(&g, &Pool::new(2), 6);
        let d = color_jp(&g, &Pool::new(1), 6);
        assert_eq!(c.colors, d.colors);
        assert_eq!(c.rounds, d.rounds);
        verify_bgpc(&g, &c.colors).unwrap();
    }

    #[test]
    fn d2gc_jp_valid() {
        let m = sparse::gen::grid2d(9, 9, 1);
        let g = Graph::from_symmetric_matrix(&m);
        let pool = Pool::new(3);
        let r = color_jp(&g, &pool, 11);
        verify_d2gc(&g, &r.colors).unwrap();
        assert!(r.num_colors > g.max_degree());
    }

    #[test]
    fn jp_on_clique_takes_one_vertex_per_round() {
        // single net = d2 clique: exactly one winner per round.
        let m = sparse::Csr::from_rows(5, &[vec![0, 1, 2, 3, 4]]);
        let g = BipartiteGraph::from_matrix(&m);
        let pool = Pool::new(2);
        let r = color_jp(&g, &pool, 3);
        verify_bgpc(&g, &r.colors).unwrap();
        assert_eq!(r.rounds, 5);
        assert_eq!(r.num_colors, 5);
    }

    #[test]
    fn jp_round_count_bracketed_by_net_structure() {
        // At distance 2, two vertices of one net can never win in the
        // same round, so rounds ≥ max net size; and JP converges well
        // within a small multiple of it on sparse inputs.
        let m = sparse::gen::bipartite_uniform(300, 400, 2400, 1);
        let g = BipartiteGraph::from_matrix(&m);
        let pool = Pool::new(4);
        let r = color_jp(&g, &pool, 1);
        verify_bgpc(&g, &r.colors).unwrap();
        let bound = g.max_net_size();
        assert!(r.rounds >= bound, "rounds {} < max net {}", r.rounds, bound);
        assert!(
            r.rounds <= 20 * bound + 20,
            "JP took implausibly many rounds: {} (max net {})",
            r.rounds,
            bound
        );
    }

    #[test]
    fn jp_empty_graph() {
        let g = BipartiteGraph::from_matrix(&sparse::Csr::empty(0, 0));
        let r = color_jp(&g, &Pool::new(2), 0);
        assert!(r.colors.is_empty());
        assert_eq!(r.rounds, 0);
    }
}

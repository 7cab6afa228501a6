//! Distance-k graph coloring — the paper's future-work extension (§VIII:
//! "the optimistic techniques for BGPC and D2GC can be extended to the
//! distance-k graph coloring problem").
//!
//! A valid distance-k coloring assigns different colors to every vertex
//! pair within shortest-path distance ≤ k. `k = 1` and `k = 2` coincide
//! with [`crate::d1gc`] and [`crate::d2gc`]; larger `k` appears in channel
//! assignment and multi-level preconditioning.
//!
//! The implementation generalizes the vertex-based speculative scheme: the
//! distance-k neighborhood is enumerated by a bounded BFS using a
//! stamp-marked visited set (same O(1)-reset trick as the forbidden set),
//! and conflicts are detected by re-running the BFS and comparing against
//! smaller-id vertices.

use graph::Graph;
use par::{Pool, ThreadScratch};

use crate::metrics::count_distinct_colors;
use crate::{Balance, BitStampSet, Color, Colors, UNCOLORED};

/// Per-thread workspace for distance-k traversals.
struct DkCtx {
    fb: BitStampSet,
    visited: BitStampSet,
    /// The last [`DkCtx::ball`]: its center, then every vertex within
    /// distance k in BFS order.
    ball: Vec<u32>,
    local_queue: Vec<u32>,
    balancer: crate::balance::BalancerState,
}

impl DkCtx {
    fn new(color_capacity: usize, n: usize) -> Self {
        Self {
            fb: BitStampSet::with_capacity(color_capacity.max(16)),
            visited: BitStampSet::with_capacity(n.max(16)),
            ball: Vec::new(),
            local_queue: Vec::new(),
            balancer: crate::balance::BalancerState::default(),
        }
    }

    /// Fills `self.ball` with `start` followed by every other vertex
    /// within distance ≤ k of it, each once, level by level; returns the
    /// vertices after `start`.
    fn ball(&mut self, g: &Graph, start: u32, k: usize) -> &[u32] {
        self.visited.advance();
        self.visited.insert(start as Color);
        self.ball.clear();
        self.ball.push(start);
        let mut level = 0..1;
        for _depth in 0..k {
            for i in level.clone() {
                for &v in g.nbor(self.ball[i] as usize) {
                    if !self.visited.contains(v as Color) {
                        self.visited.insert(v as Color);
                        self.ball.push(v);
                    }
                }
            }
            level = level.end..self.ball.len();
            if level.is_empty() {
                break;
            }
        }
        &self.ball[1..]
    }

    /// Starts a fresh forbidden set holding the colors of `w`'s
    /// distance-k neighbors.
    fn gather(&mut self, g: &Graph, w: u32, k: usize, color: impl Fn(u32) -> Color) {
        self.fb.advance();
        self.ball(g, w, k);
        for &v in &self.ball[1..] {
            let cv = color(v);
            if cv != UNCOLORED {
                self.fb.insert(cv);
            }
        }
    }
}

/// Sequential greedy first-fit distance-k coloring.
pub fn color_dkgc_seq(g: &Graph, order: &[u32], k: usize) -> (Vec<Color>, usize) {
    assert!(k >= 1, "distance must be at least 1");
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut ctx = DkCtx::new(g.max_degree() + 16, g.n_vertices());
    for &w in order {
        ctx.gather(g, w, k, |v| colors[v as usize]);
        colors[w as usize] = ctx.fb.first_fit_from(0);
    }
    let kk = count_distinct_colors(&colors);
    (colors, kk)
}

/// Parallel speculative distance-k coloring (vertex-based phases only —
/// the natural generalization of `V-V-64D`).
pub fn color_dkgc(
    g: &Graph,
    order: &[u32],
    k: usize,
    pool: &Pool,
    chunk: usize,
    balance: Balance,
) -> (Vec<Color>, usize) {
    assert!(k >= 1, "distance must be at least 1");
    let n = g.n_vertices();
    let colors = Colors::new(n);
    let mut scratch = ThreadScratch::new(pool.threads(), |_| {
        DkCtx::new(g.max_degree() + 16, n)
    });
    let mut w: Vec<u32> = order.to_vec();
    let mut guard = 0usize;
    while !w.is_empty() {
        let scratch_ref: &ThreadScratch<DkCtx> = &scratch;
        // Optimistic coloring.
        pool.for_dynamic(w.len(), chunk, |tid, range| {
            scratch_ref.with(tid, |ctx| {
                for &wv in &w[range] {
                    ctx.gather(g, wv, k, |v| colors.get(v as usize));
                    let col = balance.pick(wv, &ctx.fb, &mut ctx.balancer);
                    colors.set(wv as usize, col);
                }
            });
        });
        // Conflict detection: the larger id of a same-colored pair loses.
        pool.for_dynamic(w.len(), chunk, |tid, range| {
            scratch_ref.with(tid, |ctx| {
                for &wv in &w[range] {
                    let cw = colors.get(wv as usize);
                    if ctx
                        .ball(g, wv, k)
                        .iter()
                        .any(|&v| v < wv && colors.get(v as usize) == cw)
                    {
                        ctx.local_queue.push(wv);
                    }
                }
            });
        });
        let mut merged = Vec::new();
        for ctx in scratch.iter_mut() {
            merged.extend_from_slice(&ctx.local_queue);
            ctx.local_queue.clear();
        }
        w = merged;
        guard += 1;
        assert!(guard <= 256, "distance-{k} coloring failed to converge");
    }
    let colors = colors.snapshot();
    let kk = count_distinct_colors(&colors);
    (colors, kk)
}

/// Checks distance-k validity by BFS from every vertex.
pub fn verify_dkgc(g: &Graph, colors: &[Color], k: usize) -> Result<(), String> {
    if colors.len() != g.n_vertices() {
        return Err("color array length mismatch".into());
    }
    let mut ctx = DkCtx::new(16, g.n_vertices());
    for (u, &c) in colors.iter().enumerate() {
        if c < 0 {
            return Err(format!("vertex {u} uncolored"));
        }
        if let Some(&v) = ctx.ball(g, u as u32, k).iter().find(|&&v| colors[v as usize] == c) {
            return Err(format!(
                "vertices {u} and {v} within distance {k} share color {c}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Ordering;
    use sparse::Csr;

    fn path(n: usize) -> Graph {
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut r = Vec::new();
                if i > 0 {
                    r.push(i as u32 - 1);
                }
                if i + 1 < n {
                    r.push(i as u32 + 1);
                }
                r
            })
            .collect();
        Graph::from_symmetric_matrix(&Csr::from_rows(n, &rows))
    }

    #[test]
    fn path_needs_k_plus_one_colors() {
        for k in 1..=4 {
            let g = path(20);
            let order: Vec<u32> = (0..20).collect();
            let (colors, used) = color_dkgc_seq(&g, &order, k);
            verify_dkgc(&g, &colors, k).unwrap();
            assert_eq!(used, k + 1, "path at distance {k}");
        }
    }

    #[test]
    fn k1_matches_d1gc_and_k2_matches_d2gc() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(40, 90, 8));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (c1, _) = color_dkgc_seq(&g, &order, 1);
        let (d1, _) = crate::d1gc::color_d1gc_seq(&g, &order);
        assert_eq!(c1, d1, "distance-1 specialization");
        let (c2, _) = color_dkgc_seq(&g, &order, 2);
        let (d2, _) = crate::seq::color_d2gc_seq(&g, &order);
        assert_eq!(c2, d2, "distance-2 specialization");
    }

    #[test]
    fn parallel_converges_and_verifies() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid2d(10, 10, 1));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for k in 1..=3 {
            let (colors, _) = color_dkgc(&g, &order, k, &pool, 8, Balance::Unbalanced);
            verify_dkgc(&g, &colors, k).unwrap();
        }
    }

    #[test]
    fn single_thread_parallel_equals_sequential() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(30, 60, 2));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let (par_c, _) = color_dkgc(&g, &order, 3, &pool, 16, Balance::Unbalanced);
        let (seq_c, _) = color_dkgc_seq(&g, &order, 3);
        assert_eq!(par_c, seq_c);
    }

    #[test]
    fn colors_grow_with_k() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid2d(12, 12, 1));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let mut prev = 0;
        for k in 1..=3 {
            let (_, used) = color_dkgc_seq(&g, &order, k);
            assert!(used >= prev, "colors must not shrink with k");
            prev = used;
        }
        assert!(prev > 9, "distance-3 on a Moore grid needs many colors");
    }

    #[test]
    fn verifier_catches_distance_k_violation() {
        let g = path(4);
        // colors valid at distance 1 but not at distance 2:
        let colors = vec![0, 1, 0, 1];
        assert!(verify_dkgc(&g, &colors, 1).is_ok());
        assert!(verify_dkgc(&g, &colors, 2).is_err());
    }

    #[test]
    fn balanced_distance_k_valid() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(50, 120, 4));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(3);
        for balance in [Balance::B1, Balance::B2] {
            let (colors, _) = color_dkgc(&g, &order, 2, &pool, 8, balance);
            verify_dkgc(&g, &colors, 2).unwrap();
        }
    }
}

//! Post-pass color reduction by iterative recoloring.
//!
//! The paper's related work (§VII, Sarıyüce et al.) improves a finished
//! coloring by re-running greedy passes in color-aware orders. We provide
//! the classic descending-class pass for BGPC and D2GC alike: visit
//! vertices from the largest color id downward and first-fit each against
//! its current neighborhood. A vertex can only move to a *smaller* color,
//! so the pass never increases the distinct-color count, and repeated
//! passes converge.
//!
//! The sequential pass is deterministic and guaranteed valid. A parallel
//! speculative variant processes one color class at a time (class members
//! are mutually independent, but may race for the same target color) and
//! repairs the few conflicting movers with an id-ordered fixup. Both are
//! written once over [`Neighborhood`], and both pick colors with the
//! vertex kernel's distance-2 gather.

use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::metrics::count_distinct_colors;
use crate::neighborhood::Neighborhood;
use crate::vertex::{gather_forbidden, Tally, VertexPicker};
use crate::{BitStampSet, Color, Colors};

/// One sequential descending-class recoloring pass. Returns the new
/// distinct-color count. Never increases any vertex's color.
pub fn reduce_colors_seq<G: Neighborhood>(g: &G, colors: &mut [Color]) -> usize {
    debug_assert_eq!(colors.len(), g.n_vertices());
    let mut order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(colors[u as usize]));
    // Colors move down, so net summaries would keep stale ones: walk pins.
    let mut picker = VertexPicker::new(g);
    for &w in &order {
        let was = colors[w as usize];
        let col = picker.pick(g, colors, w, 0);
        debug_assert!(col <= was, "first-fit can only move down");
    }
    count_distinct_colors(colors)
}

/// Parallel speculative recoloring pass: classes are processed from the
/// largest color id downward; class members recolor in parallel
/// (optimistically), and movers that collided are fixed up id-ordered.
///
/// Validity is restored before returning; the distinct-color count never
/// increases because a fixed-up loser can always fall back to its
/// original color (no other vertex can have taken it: movers only move
/// strictly down, and classes are processed top-down, so color `k` is
/// only vacated — never entered — while class `k` is in flight).
pub fn reduce_colors<G: Neighborhood>(g: &G, colors_in: &mut Vec<Color>, pool: &Pool) -> usize {
    let n = g.n_vertices();
    debug_assert_eq!(colors_in.len(), n);
    let max_color = colors_in.iter().copied().max().unwrap_or(-1);
    if max_color <= 0 {
        return count_distinct_colors(colors_in);
    }
    // classes[c] = members of color c
    let mut classes: Vec<Vec<u32>> = vec![Vec::new(); max_color as usize + 1];
    for (u, &c) in colors_in.iter().enumerate() {
        debug_assert!(c >= 0);
        classes[c as usize].push(u as u32);
    }
    let colors = Colors::new(n);
    for (u, &c) in colors_in.iter().enumerate() {
        colors.set(u, c);
    }
    let slots = colors.slots();
    let scratch: ThreadScratch<ThreadCtx<BitStampSet>> =
        ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(g.max_neighborhood() + 16));

    for c in (1..=max_color as usize).rev() {
        let class = &classes[c];
        if class.is_empty() {
            continue;
        }
        let original = c as Color;
        // Optimistic parallel move-down.
        pool.for_dynamic(class.len(), 16, |tid, range| {
            scratch.with(tid, |ctx| {
                let mut tally = Tally::default();
                for &w in &class[range] {
                    gather_forbidden(g, slots, w, ctx, &mut tally);
                    let col = ctx.fb.first_fit_from(0);
                    if col < original {
                        colors.set(w as usize, col);
                    }
                }
            });
        });
        // Id-ordered fixup: any mover that now conflicts with a smaller
        // id reverts to its original class color (guaranteed free — see
        // doc comment).
        pool.for_dynamic(class.len(), 16, |_tid, range| {
            for &w in &class[range] {
                if colors.get(w as usize) != original && collides(g, &colors, w, |u| u < w) {
                    colors.set(w as usize, original);
                }
            }
        });
        // Second sweep: the id-ordered rule is not transitive within one
        // parallel pass (a reverted winner can strand a larger-id loser),
        // so repeat until stable — bounded by the class size.
        loop {
            let mut changed = false;
            for &w in class {
                if colors.get(w as usize) != original && collides(g, &colors, w, |u| u != w) {
                    colors.set(w as usize, original);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    *colors_in = colors.snapshot();
    count_distinct_colors(colors_in)
}

/// Whether a pin of `w`'s nets that `rival` admits holds `w`'s color.
fn collides<G: Neighborhood>(g: &G, colors: &Colors, w: u32, rival: impl Fn(u32) -> bool) -> bool {
    let cw = colors.get(w as usize);
    g.nets(w as usize)
        .iter()
        .any(|&v| g.any_pin(v as usize, |u| rival(u) && colors.get(u as usize) == cw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use crate::Schedule;
    use graph::{BipartiteGraph, Graph, Ordering};

    fn instance() -> BipartiteGraph {
        BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(60, 90, 1200, 9))
    }

    #[test]
    fn seq_pass_never_increases_colors_and_stays_valid() {
        let g = instance();
        let order = Ordering::Random(3).vertex_order_bgpc(&g);
        let (mut colors, k0) = crate::seq::color_bgpc_seq(&g, &order);
        let k1 = reduce_colors_seq(&g, &mut colors);
        verify_bgpc(&g, &colors).unwrap();
        assert!(k1 <= k0, "{k1} > {k0}");
    }

    #[test]
    fn seq_pass_improves_a_deliberately_bad_coloring() {
        // Disjoint nets colored with disjoint color ranges — wasteful.
        let m = sparse::Csr::from_rows(6, &[vec![0, 1], vec![2, 3], vec![4, 5]]);
        let g = BipartiteGraph::from_matrix(&m);
        let mut colors = vec![0, 1, 2, 3, 4, 5];
        verify_bgpc(&g, &colors).unwrap();
        let k = reduce_colors_seq(&g, &mut colors);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(k, 2, "three disjoint pairs need exactly 2 colors");
    }

    #[test]
    fn repeated_seq_passes_keep_the_color_count() {
        let g = instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (mut colors, _) = crate::seq::color_bgpc_seq(&g, &order);
        let k1 = reduce_colors_seq(&g, &mut colors);
        let k2 = reduce_colors_seq(&g, &mut colors);
        let k3 = reduce_colors_seq(&g, &mut colors);
        assert_eq!((k1, k2), (k2, k3));
    }

    #[test]
    fn parallel_pass_valid_and_not_worse() {
        let g = instance();
        let order = Ordering::Random(8).vertex_order_bgpc(&g);
        let pool = Pool::new(4);
        let r = crate::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        let k0 = r.num_colors;
        let mut colors = r.colors;
        let k1 = reduce_colors(&g, &mut colors, &pool);
        verify_bgpc(&g, &colors).unwrap();
        assert!(k1 <= k0, "parallel recolor increased colors: {k1} > {k0}");
    }

    #[test]
    fn parallel_matches_sequential_on_one_thread_graphwise() {
        let g = instance();
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (colors0, _) = crate::seq::color_bgpc_seq(&g, &order);
        let pool = Pool::new(1);
        let mut a = colors0.clone();
        let ka = reduce_colors(&g, &mut a, &pool);
        let mut b = colors0;
        let kb = reduce_colors_seq(&g, &mut b);
        verify_bgpc(&g, &a).unwrap();
        verify_bgpc(&g, &b).unwrap();
        // Different visit orders (class-major vs color-sorted), so exact
        // equality is not required — only equal quality guarantees.
        assert!(ka <= kb + 1);
    }

    #[test]
    fn d2gc_seq_pass_valid_and_not_worse() {
        let m = sparse::gen::erdos_renyi(60, 160, 12);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Random(2).vertex_order_d2(&g);
        let (mut colors, k0) = crate::seq::color_d2gc_seq(&g, &order);
        let k1 = reduce_colors_seq(&g, &mut colors);
        verify_d2gc(&g, &colors).unwrap();
        assert!(k1 <= k0);
    }
}

//! Sequential greedy baselines (Table II's "Sequential BGPC" columns).
//!
//! One thread, one pass, first-fit: no speculation, no conflicts, no
//! conflict-removal phase. These are the denominators of every speedup the
//! paper reports.
//!
//! The pass is a [`VertexPicker`] over summaries built on the
//! all-[`UNCOLORED`] array: each vertex of `order` is
//! uncolored when its turn comes and colors are only added, so every pick
//! reads the colors a pin walk would (see [`VertexPicker`]) and costs
//! about `W` words per summarized net instead of its pins.

use graph::{BipartiteGraph, Graph};

use crate::metrics::count_distinct_colors;
use crate::neighborhood::Neighborhood;
use crate::vertex::{VertexPicker, PREFETCH_AHEAD};
use crate::{Color, UNCOLORED};

/// Sequential first-fit BGPC over `order`. Returns the coloring and the
/// number of distinct colors.
pub fn color_bgpc_seq(g: &BipartiteGraph, order: &[u32]) -> (Vec<Color>, usize) {
    color_seq(g, order)
}

/// Sequential first-fit D2GC over `order`.
pub fn color_d2gc_seq(g: &Graph, order: &[u32]) -> (Vec<Color>, usize) {
    color_seq(g, order)
}

/// Sequential first-fit over `order` for either problem; `order` must not
/// repeat a vertex.
pub fn color_seq<G: Neighborhood>(g: &G, order: &[u32]) -> (Vec<Color>, usize) {
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut picker = VertexPicker::new(g);
    picker.summarize(g, &colors);
    for (k, &w) in order.iter().enumerate() {
        if let Some(&next) = order.get(k + PREFETCH_AHEAD) {
            g.prefetch_nets(next as usize);
        }
        picker.pick(g, &mut colors, w, 0);
    }
    let k = count_distinct_colors(&colors);
    (colors, k)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::Ordering;
    use sparse::Csr;

    /// Sequential first-fit over `order` by pin walk: a picker that never
    /// summarizes, the reference every summarized first-fit must equal.
    pub(crate) fn pin_walk<G: Neighborhood>(g: &G, order: &[u32]) -> Vec<Color> {
        let mut colors = vec![UNCOLORED; g.n_vertices()];
        let mut picker = VertexPicker::new(g);
        for &w in order {
            picker.pick(g, &mut colors, w, 0);
        }
        colors
    }

    /// Summaries of `W ≥ 2` words (the largest net past 51 pins), a
    /// palette past 128 colors and past `64·W`, so nets also switch back
    /// to pin walks mid-pass: seq must still be the pin walk's coloring.
    #[test]
    fn multi_word_summaries_match_the_pin_walk() {
        fn check<G: Neighborhood>(g: &G, orders: [Vec<u32>; 2]) {
            let width = (g.max_neighborhood() * 5).div_ceil(4 * 64);
            assert!(width >= 2, "summaries of one word");
            for order in orders {
                let (colors, k) = color_seq(g, &order);
                assert!(k > 128 && k > 64 * width, "palette of {k} colors, W = {width}");
                assert_eq!(colors, pin_walk(g, &order));
            }
        }
        let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(500, 400, 30000, 3));
        check(
            &g,
            [Ordering::Natural, Ordering::Random(5)].map(|o| o.vertex_order_bgpc(&g)),
        );
        let g = Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(400, 12000, 5));
        check(
            &g,
            [Ordering::Natural, Ordering::Random(5)].map(|o| o.vertex_order_d2(&g)),
        );
    }

    #[test]
    fn bgpc_single_net_uses_exactly_lower_bound() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1, 2, 3]]));
        let order: Vec<u32> = (0..4).collect();
        let (colors, k) = color_bgpc_seq(&g, &order);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(k, 4);
        assert_eq!(colors, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bgpc_disjoint_nets_reuse_colors() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]));
        let (colors, k) = color_bgpc_seq(&g, &[0, 1, 2, 3]);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn bgpc_respects_order() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(2, &[vec![0, 1]]));
        let (c_fwd, _) = color_bgpc_seq(&g, &[0, 1]);
        let (c_rev, _) = color_bgpc_seq(&g, &[1, 0]);
        assert_eq!(c_fwd, vec![0, 1]);
        assert_eq!(c_rev, vec![1, 0]);
    }

    #[test]
    fn bgpc_on_random_instance_is_valid_and_near_bound() {
        let m = sparse::gen::bipartite_uniform(30, 40, 300, 5);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (colors, k) = color_bgpc_seq(&g, &order);
        verify_bgpc(&g, &colors).unwrap();
        assert!(k >= g.max_net_size());
    }

    #[test]
    fn d2gc_path_uses_three_colors() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]],
        ));
        let (colors, k) = color_d2gc_seq(&g, &[0, 1, 2, 3, 4]);
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(k, 3, "a path needs exactly 3 colors at distance 2");
    }

    #[test]
    fn d2gc_star_needs_n_colors() {
        // star: center 0 with 4 leaves; all leaves pairwise at distance 2.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]],
        ));
        let (colors, k) = color_d2gc_seq(&g, &[0, 1, 2, 3, 4]);
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(k, 5);
    }

    #[test]
    fn d2gc_on_random_instance_valid_with_bound() {
        let m = sparse::gen::erdos_renyi(50, 120, 9);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (colors, k) = color_d2gc_seq(&g, &order);
        verify_d2gc(&g, &colors).unwrap();
        assert!(k > g.max_degree());
    }
}

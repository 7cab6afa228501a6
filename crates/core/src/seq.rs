//! Sequential greedy baselines (Table II's "Sequential BGPC" columns).
//!
//! One thread, one pass, first-fit: no speculation, no conflicts, no
//! conflict-removal phase. These are the denominators of every speedup the
//! paper reports.

use graph::{BipartiteGraph, Graph};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;
use crate::metrics::count_distinct_colors;
use crate::neighborhood::Neighborhood;
use crate::runner::{with_forbidden_set, WithSet};
use crate::vertex::{gather_forbidden, Tally, PREFETCH_AHEAD};
use crate::{Color, Colors};

/// Sequential first-fit BGPC over `order`. Returns the coloring and the
/// number of distinct colors.
pub fn color_bgpc_seq<I: CsrIndex>(g: &BipartiteGraph<I>, order: &[u32]) -> (Vec<Color>, usize) {
    color_seq(g, order)
}

/// Sequential first-fit D2GC over `order`.
pub fn color_d2gc_seq<I: CsrIndex>(g: &Graph<I>, order: &[u32]) -> (Vec<Color>, usize) {
    color_seq(g, order)
}

/// Sequential first-fit over `order` for either problem, with the
/// forbidden-set representation picked per instance exactly like the
/// parallel driver's.
pub fn color_seq<G: Neighborhood>(g: &G, order: &[u32]) -> (Vec<Color>, usize) {
    struct Seq<'a, G>(&'a G, &'a [u32]);
    impl<G: Neighborhood> WithSet for Seq<'_, G> {
        type Output = (Vec<Color>, usize);
        fn run<F: ForbiddenSet>(self) -> Self::Output {
            color_seq_with_set::<F, G>(self.0, self.1)
        }
    }
    with_forbidden_set(g, Seq(g, order))
}

/// [`color_seq`] with the forbidden-set representation `F` forced.
pub fn color_seq_with_set<F: ForbiddenSet, G: Neighborhood>(
    g: &G,
    order: &[u32],
) -> (Vec<Color>, usize) {
    let colors = Colors::new(g.n_vertices());
    let slots = colors.slots();
    let mut ctx = ThreadCtx::<F, G::Index>::new(g.seq_capacity());
    let mut tally = Tally::default();
    for (k, &w) in order.iter().enumerate() {
        if let Some(&next) = order.get(k + PREFETCH_AHEAD) {
            g.prefetch_nets(next as usize);
        }
        gather_forbidden(g, slots, w, &mut ctx, &mut tally);
        colors.set(w as usize, ctx.fb.first_fit_from(0));
    }
    let colors = colors.snapshot();
    let k = count_distinct_colors(&colors);
    (colors, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::Ordering;
    use sparse::Csr;

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

//! Distance-1 graph coloring — the background problem (paper §II).
//!
//! D1GC is where the speculative color/detect/repair framework
//! (Algorithms 1–3) was born; the paper generalizes it to BGPC and D2GC.
//! Here it is the framework's base case rather than a loop of its own:
//! BGPC over 2-pin edge nets. Each undirected edge `{u, v}` is one net, so
//! two vertices share a net exactly when they are adjacent, and the one
//! speculative driver, its eight schedules, B1/B2 and the sequential
//! baseline all color D1GC unchanged. [`verify_d1gc`] checks the result
//! against the graph itself.

use graph::{BipartiteGraph, Graph};
use par::Pool;
use sparse::Csr;

use crate::{Color, ColoringResult, RunnerOpts, Schedule};

/// The edge-net pattern of `g`: one row (net) per undirected edge
/// `u < v` holding the pins `{u, v}`, edges in row-major order of the
/// adjacency; the columns are `g`'s vertices.
pub fn edge_net_matrix(g: &Graph) -> Csr {
    let mut row_ptr = vec![0];
    let mut pins = Vec::with_capacity(2 * g.n_edges());
    for u in 0..g.n_vertices() {
        for &v in g.nbor(u).iter().filter(|&&v| v as usize > u) {
            pins.extend([u as u32, v]);
            row_ptr.push(pins.len());
        }
    }
    Csr::from_parts(row_ptr.len() - 1, g.n_vertices(), row_ptr, pins)
}

/// `g` as a BGPC instance over its edge nets ([`edge_net_matrix`]).
pub fn edge_nets(g: &Graph) -> BipartiteGraph {
    BipartiteGraph::from_matrix_owned(edge_net_matrix(g))
}

/// Sequential greedy first-fit D1GC. Uses at most `Δ + 1` colors.
pub fn color_d1gc_seq(g: &Graph, order: &[u32]) -> (Vec<Color>, usize) {
    crate::seq::color_seq(&edge_nets(g), order)
}

/// Parallel speculative D1GC (Algorithms 1–3): the speculative driver
/// with the given [`Schedule`] over `g`'s edge nets.
pub fn color_d1gc(g: &Graph, order: &[u32], schedule: &Schedule, pool: &Pool) -> ColoringResult {
    crate::color_with_opts(&edge_nets(g), order, schedule, pool, RunnerOpts::default())
}

/// Checks distance-1 validity: adjacent vertices differ, all colored.
pub fn verify_d1gc(g: &Graph, colors: &[Color]) -> Result<(), String> {
    if colors.len() != g.n_vertices() {
        return Err("color array length mismatch".into());
    }
    for (u, &c) in colors.iter().enumerate() {
        if c < 0 {
            return Err(format!("vertex {u} uncolored"));
        }
        for &v in g.nbor(u) {
            if colors[v as usize] == c {
                return Err(format!("edge ({u}, {v}) monochromatic with color {c}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Balance;
    use graph::Ordering;

    #[test]
    fn edge_nets_are_the_edges_once() {
        // Path 0 - 1 - 2 and an isolated vertex 3.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            4,
            &[vec![1], vec![0, 2], vec![1], vec![]],
        ));
        let e = edge_nets(&g);
        assert_eq!((e.n_nets(), e.n_vertices()), (2, 4));
        assert_eq!((e.vtxs(0), e.vtxs(1)), (&[0, 1][..], &[1, 2][..]));
        assert_eq!(e.nets(1), &[0, 1]);
        assert!(e.nets(3).is_empty());
    }

    fn petersen_like() -> Graph {
        Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(40, 100, 77))
    }

    #[test]
    fn sequential_within_delta_plus_one() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (colors, k) = color_d1gc_seq(&g, &order);
        verify_d1gc(&g, &colors).unwrap();
        assert!(k <= g.max_degree() + 1, "greedy bound violated: {k}");
    }

    #[test]
    fn parallel_matches_validity_and_bound_single_thread() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let r = color_d1gc(&g, &order, &Schedule::v_v(), &pool);
        let (seq_colors, seq_k) = color_d1gc_seq(&g, &order);
        assert_eq!(r.colors, seq_colors, "1 thread == sequential");
        assert_eq!(r.num_colors, seq_k);
    }

    #[test]
    fn parallel_converges_multithreaded() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::all() {
            let r = color_d1gc(&g, &order, &schedule, &pool);
            verify_d1gc(&g, &r.colors).unwrap();
            assert!(r.num_colors >= 2);
        }
    }

    #[test]
    fn balanced_d1gc_valid() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(3);
        for balance in [Balance::B1, Balance::B2] {
            let r = color_d1gc(&g, &order, &Schedule::v_v().with_balance(balance), &pool);
            verify_d1gc(&g, &r.colors).unwrap();
        }
    }

    #[test]
    fn bipartite_double_star_needs_two_colors() {
        // Two hubs joined by an edge, leaves attached: 2-colorable.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 2, 3],
                vec![0, 4, 5],
                vec![0],
                vec![0],
                vec![1],
                vec![1],
            ],
        ));
        let (colors, k) = color_d1gc_seq(&g, &(0..6).collect::<Vec<u32>>());
        verify_d1gc(&g, &colors).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn verifier_rejects_monochromatic_edge() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![0]]));
        assert!(verify_d1gc(&g, &[0, 0]).is_err());
        assert!(verify_d1gc(&g, &[0, 1]).is_ok());
        assert!(verify_d1gc(&g, &[0, -1]).is_err());
    }

    #[test]
    fn d1_uses_fewer_colors_than_d2() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid2d(10, 10, 1));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (_, k1) = color_d1gc_seq(&g, &order);
        let (_, k2) = crate::seq::color_d2gc_seq(&g, &order);
        assert!(k1 < k2, "distance-1 ({k1}) must need fewer than distance-2 ({k2})");
    }
}

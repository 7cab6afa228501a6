//! Exhaustive enumeration tests: every bipartite pattern and every simple
//! graph up to a small size, across every schedule. Complements the
//! randomized property tests with complete coverage of the tiny cases
//! where edge conditions (empty nets, isolated vertices, full cliques)
//! live.

use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::Schedule;
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::{Coo, Csr};

/// All bipartite patterns with `nrows` nets over `ncols` vertices.
fn all_bipartite(nrows: usize, ncols: usize) -> impl Iterator<Item = Csr> {
    let cells = nrows * ncols;
    assert!(cells <= 12, "enumeration explodes past 2^12");
    (0u32..(1 << cells)).map(move |mask| {
        let mut coo = Coo::new(nrows, ncols);
        for bit in 0..cells {
            if mask & (1 << bit) != 0 {
                coo.push(bit / ncols, bit % ncols);
            }
        }
        coo.into_csr()
    })
}

/// All simple undirected graphs on `n` vertices.
fn all_graphs(n: usize) -> impl Iterator<Item = Csr> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    assert!(pairs.len() <= 12);
    (0u32..(1 << pairs.len())).map(move |mask| {
        let mut coo = Coo::new(n, n);
        for (bit, &(u, v)) in pairs.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                coo.push_symmetric(u, v);
            }
        }
        coo.into_csr()
    })
}

#[test]
fn every_bipartite_3x4_every_schedule_single_thread() {
    let pool = Pool::new(1);
    for matrix in all_bipartite(3, 4) {
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        for schedule in Schedule::all() {
            let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
            verify_bgpc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{} on {matrix:?}: {e}", schedule.name()));
            assert!(r.num_colors >= g.max_net_size());
        }
    }
}

#[test]
fn every_bipartite_2x5_parallel_headline_schedules() {
    let pool = Pool::new(3);
    for matrix in all_bipartite(2, 5) {
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        for schedule in [Schedule::v_v(), Schedule::v_n(2), Schedule::n1_n2()] {
            let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
            verify_bgpc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{} on {matrix:?}: {e}", schedule.name()));
        }
    }
}

#[test]
fn every_graph_on_4_vertices_d2gc() {
    let pool = Pool::new(2);
    for matrix in all_graphs(4) {
        let g = Graph::from_symmetric_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        for schedule in Schedule::d2gc_set() {
            let r = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{} on {matrix:?}: {e}", schedule.name()));
        }
    }
}

#[test]
fn every_graph_on_5_vertices_seq_matches_1thread() {
    let pool = Pool::new(1);
    for matrix in all_graphs(5) {
        let g = Graph::from_symmetric_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (seq, _) = bgpc::seq::color_d2gc_seq(&g, &order);
        let r = bgpc::d2gc::color_d2gc(&g, &order, &Schedule::v_v(), &pool);
        assert_eq!(r.colors, seq, "graph {matrix:?}");
    }
}

#[test]
fn every_graph_on_4_vertices_dk_specializations() {
    for matrix in all_graphs(4) {
        let g = Graph::from_symmetric_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (c1, _) = bgpc::dkgc::color_dkgc_seq(&g, &order, 1);
        let (d1, _) = bgpc::d1gc::color_d1gc_seq(&g, &order);
        assert_eq!(c1, d1, "k=1 on {matrix:?}");
        let (c2, _) = bgpc::dkgc::color_dkgc_seq(&g, &order, 2);
        let (d2, _) = bgpc::seq::color_d2gc_seq(&g, &order);
        assert_eq!(c2, d2, "k=2 on {matrix:?}");
        bgpc::dkgc::verify_dkgc(&g, &c2, 2).unwrap();
        // k ≥ diameter: every connected pair distinct — on ≤4 vertices,
        // k=3 colors each connected component with distinct colors.
        let (c3, _) = bgpc::dkgc::color_dkgc_seq(&g, &order, 3);
        bgpc::dkgc::verify_dkgc(&g, &c3, 3).unwrap();
    }
}

#[test]
fn recolor_pass_never_invalidates_exhaustively() {
    for matrix in all_bipartite(3, 4) {
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (mut colors, k0) = bgpc::seq::color_bgpc_seq(&g, &order);
        let k1 = bgpc::recolor::reduce_colors_seq(&g, &mut colors);
        verify_bgpc(&g, &colors).unwrap_or_else(|e| panic!("{matrix:?}: {e}"));
        assert!(k1 <= k0);
    }
}

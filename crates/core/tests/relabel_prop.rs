//! Property test: relabel → color → invert-permutation round-trips.
//!
//! For random bipartite instances and every locality relabeling
//! ([`LocalityOrder`]): coloring the *relabeled* instance and mapping the
//! result back through the permutation must yield a coloring that
//! [`bgpc::verify::verify_bgpc`] accepts on the *original* graph.
//! This pins the `perm[old] = new` convention end to end — a transposed
//! permutation or an un-inverted mapping makes the oracle reject.

use bgpc::verify::verify_bgpc;
use bgpc::Schedule;
use graph::BipartiteGraph;
use minicheck::{check, prop_assert};
use par::Pool;
use sparse::{unpermute, Csr, LocalityOrder};

/// Colors the relabeled pattern and returns the coloring mapped back to
/// original column ids.
fn color_relabeled(
    pm: &Csr,
    perm: &Option<Vec<u32>>,
    schedule: &Schedule,
    pool: &Pool,
) -> Vec<i32> {
    let g = BipartiteGraph::try_from_matrix(pm).expect("relabeled pattern stays valid");
    let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
    let r = bgpc::color_bgpc(&g, &order, schedule, pool);
    assert!(!r.is_degraded(), "no faults armed, so no degradation");
    match perm {
        Some(p) => unpermute(&r.colors, p),
        None => r.colors,
    }
}

#[test]
fn relabeled_colorings_verify_on_the_original_graph() {
    let pool = Pool::new(3);
    check("relabel_color_roundtrip", 48, |g| {
        let nets = g.usize_in(1..30);
        let verts = g.usize_in(2..40);
        let nnz = g.usize_in(1..(nets * verts).min(250));
        let seed = g.u64_in(0..1 << 32);
        let m = sparse::gen::bipartite_uniform(nets, verts, nnz, seed);
        let g0 = BipartiteGraph::from_matrix(&m);

        let schedule = if g.bool_with(0.5) {
            Schedule::v_v_64d()
        } else {
            Schedule::n1_n2()
        };

        for relabel in LocalityOrder::all() {
            let (pm, perm) = relabel.apply_columns(&m);
            prop_assert!(
                perm.is_some() == (relabel != LocalityOrder::None),
                "identity relabeling must not fabricate a permutation"
            );
            let colors = color_relabeled(&pm, &perm, &schedule, &pool);
            let ok = verify_bgpc(&g0, &colors);
            prop_assert!(
                ok.is_ok(),
                "{}/{} coloring invalid on the original graph: {}",
                relabel.label(),
                schedule.name(),
                ok.unwrap_err()
            );
        }
        Ok(())
    });
}

#[test]
fn relabeled_d2gc_colorings_verify_on_the_original_graph() {
    let pool = Pool::new(3);
    check("relabel_d2gc_roundtrip", 24, |g| {
        let n = g.usize_in(2..40);
        let max_edges = (n * (n - 1) / 2).max(2);
        let edges = g.usize_in(1..max_edges.min(120));
        let seed = g.u64_in(0..1 << 32);
        let m = sparse::gen::erdos_renyi(n, edges, seed);
        let g0 = graph::Graph::from_symmetric_matrix(&m);
        let schedule = Schedule::v_v_64d();

        for relabel in LocalityOrder::all() {
            let (pm, perm) = relabel.apply_symmetric(&m);
            let gp = graph::Graph::from_symmetric_matrix(&pm);
            let order: Vec<u32> = (0..gp.n_vertices() as u32).collect();
            let colors = bgpc::d2gc::color_d2gc(&gp, &order, &schedule, &pool).colors;
            let colors = match &perm {
                Some(p) => unpermute(&colors, p),
                None => colors,
            };
            let ok = bgpc::verify::verify_d2gc(&g0, &colors);
            prop_assert!(
                ok.is_ok(),
                "{} d2gc coloring invalid on the original graph: {}",
                relabel.label(),
                ok.unwrap_err()
            );
        }
        Ok(())
    });
}

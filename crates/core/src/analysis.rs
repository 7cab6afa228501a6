//! Analytical work models for the coloring phases (paper §III).
//!
//! The paper's core complexity argument is quantitative:
//!
//! * a vertex-based pass over work queue `W` touches
//!   `Σ_{w ∈ W} Σ_{v ∈ nets(w)} |vtxs(v)|` pins — `Θ(Σ_v |vtxs(v)|²)`
//!   when `W = V_A`;
//! * a net-based pass always touches `|V_B| + Σ_v |vtxs(v)|` pins —
//!   linear in the graph size.
//!
//! This module computes those quantities exactly for a given graph and
//! queue, so benches can check that *measured* phase-time ratios track the
//! *predicted* work ratios (the first-iteration dominance of Figure 1 is
//! a direct corollary of `work_ratio_first_iteration`).

use graph::BipartiteGraph;

use crate::neighborhood::Neighborhood;

/// Pin traversals of one vertex-based phase over queue `w` (coloring and
/// conflict detection have the same bound; early termination can only
/// lower it). For D2GC this is `Σ_{u ∈ w} Σ_{v ∈ nbor(u)} (1 + |nbor(v)|)`.
pub fn vertex_phase_work<G: Neighborhood>(g: &G, w: &[u32]) -> u64 {
    w.iter()
        .map(|&u| {
            g.nets(u as usize)
                .iter()
                .map(|&v| g.net_size(v as usize) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Pin traversals of one net-based phase (always the full graph):
/// `|V_B| + Σ_v |vtxs(v)|`. For D2GC, whose nets are the closed
/// neighborhoods, that is `2n + 2m` — every net is counted once on top
/// of its pins, as for BGPC.
pub fn net_phase_work<G: Neighborhood>(g: &G) -> u64 {
    let pins: usize = (0..g.n_nets()).map(|v| g.net_size(v)).sum();
    (g.n_nets() + pins) as u64
}

/// `Σ_v |vtxs(v)|²` — the tight first-iteration bound for vertex-based
/// phases (paper §III).
pub fn sum_net_size_squared(g: &BipartiteGraph) -> u64 {
    (0..g.n_nets())
        .map(|v| {
            let s = g.net_size(v) as u64;
            s * s
        })
        .sum()
}

/// Predicted work ratio vertex/net for the first iteration — how much a
/// net-based first iteration should win by, in the infinite-bandwidth
/// model.
pub fn work_ratio_first_iteration(g: &BipartiteGraph) -> f64 {
    let net = net_phase_work(g);
    if net == 0 {
        return 1.0;
    }
    sum_net_size_squared(g) as f64 / net as f64
}

/// Per-vertex task sizes of a vertex-based phase (distance-2 work per
/// vertex) — the task-size distribution a manycore mapping would see.
pub fn task_sizes_vertex(g: &BipartiteGraph) -> Vec<u64> {
    (0..g.n_vertices())
        .map(|u| {
            g.nets(u)
                .iter()
                .map(|&v| g.net_size(v as usize) as u64)
                .sum()
        })
        .collect()
}

/// Per-net task sizes of a net-based phase (pin-list length per net).
pub fn task_sizes_net(g: &BipartiteGraph) -> Vec<u64> {
    (0..g.n_nets()).map(|v| g.net_size(v) as u64).collect()
}

/// Coefficient of variation (σ/μ) of a task-size distribution — the
/// paper's §VIII observation: "the task sizes in the vertex-based
/// approach … deviate much more compared to that of the net-based
/// approach, which can be a comfort while parallelizing … on manycore
/// architectures."
pub fn coefficient_of_variation(sizes: &[u64]) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let n = sizes.len() as f64;
    let mean = sizes.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = sizes
        .iter()
        .map(|&s| {
            let d = s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// SIMT lockstep efficiency: tasks are mapped to warps of `width` lanes
/// in order; each warp runs for `max(task)` cycles while doing
/// `Σ task` useful cycles. Returns useful/total in `(0, 1]` — 1 means
/// perfectly uniform tasks.
pub fn warp_efficiency(sizes: &[u64], width: usize) -> f64 {
    assert!(width >= 1);
    if sizes.is_empty() {
        return 1.0;
    }
    let mut useful = 0u64;
    let mut total = 0u64;
    for warp in sizes.chunks(width) {
        let max = *warp.iter().max().unwrap();
        useful += warp.iter().sum::<u64>();
        total += max * width as u64;
    }
    if total == 0 {
        1.0
    } else {
        useful as f64 / total as f64
    }
}

/// Fraction of total speculative work spent in the first `k` iterations,
/// from recorded per-iteration metrics (the paper: "78% of the runtime is
/// observed to be used on the first iteration … 89% for the first two").
pub fn time_fraction_first_k(result: &crate::ColoringResult, k: usize) -> f64 {
    let total: f64 = result
        .iterations
        .iter()
        .map(|m| (m.color_time + m.conflict_time).as_secs_f64())
        .sum();
    if total == 0.0 {
        return 1.0;
    }
    let first: f64 = result
        .iterations
        .iter()
        .take(k)
        .map(|m| (m.color_time + m.conflict_time).as_secs_f64())
        .sum();
    first / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Graph;
    use sparse::Csr;

    fn tiny() -> BipartiteGraph {
        // nets {0,1,2}, {2,3}
        BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1, 2], vec![2, 3]]))
    }

    #[test]
    fn vertex_work_counts_pins_with_multiplicity() {
        let g = tiny();
        // full queue: vertex 0: net0 (3); 1: 3; 2: nets 0+1 (3+2=5); 3: 2
        assert_eq!(vertex_phase_work(&g, &[0, 1, 2, 3]), 3 + 3 + 5 + 2);
        // subqueue
        assert_eq!(vertex_phase_work(&g, &[2]), 5);
        assert_eq!(vertex_phase_work(&g, &[]), 0);
    }

    #[test]
    fn net_work_is_linear_in_graph() {
        let g = tiny();
        assert_eq!(net_phase_work(&g), 2 + 5);
    }

    #[test]
    fn sum_squares_matches_full_queue_vertex_work() {
        // Σ|vtxs|² equals vertex-phase work over the full vertex set.
        let g = tiny();
        assert_eq!(sum_net_size_squared(&g), 9 + 4);
        assert_eq!(
            sum_net_size_squared(&g),
            vertex_phase_work(&g, &[0, 1, 2, 3])
        );
        let m = sparse::gen::bipartite_uniform(20, 30, 200, 3);
        let g = BipartiteGraph::from_matrix(&m);
        let full: Vec<u32> = (0..30).collect();
        assert_eq!(sum_net_size_squared(&g), vertex_phase_work(&g, &full));
    }

    #[test]
    fn work_ratio_grows_with_net_size() {
        // one giant net: ratio ≈ net size
        let m = Csr::from_rows(100, &[(0..100).collect()]);
        let g = BipartiteGraph::from_matrix(&m);
        let ratio = work_ratio_first_iteration(&g);
        assert!(ratio > 50.0, "ratio {ratio}");
        // many singleton nets: ratio < 1 (net pass pays per-net overhead)
        let m = Csr::from_rows(50, &(0..50).map(|i| vec![i as u32]).collect::<Vec<_>>());
        let g = BipartiteGraph::from_matrix(&m);
        assert!(work_ratio_first_iteration(&g) <= 1.0);
    }

    #[test]
    fn d2_work_models() {
        // path 0-1-2
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            3,
            &[vec![1], vec![0, 2], vec![1]],
        ));
        // u=0: v=1 → 1+2 = 3; u=1: v=0 →1+1, v=2 →1+1 = 4; u=2: 3
        assert_eq!(vertex_phase_work(&g, &[0, 1, 2]), 10);
        // 3 nets plus their 2 + 3 + 2 pins: 2n + 2m.
        assert_eq!(net_phase_work(&g), 3 + 7);
    }

    #[test]
    fn cv_of_uniform_and_skewed_distributions() {
        assert_eq!(coefficient_of_variation(&[5, 5, 5, 5]), 0.0);
        assert!(coefficient_of_variation(&[1, 1, 1, 100]) > 1.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0, 0]), 0.0);
    }

    #[test]
    fn warp_efficiency_bounds() {
        // uniform tasks: perfect efficiency at any width
        assert_eq!(warp_efficiency(&[4, 4, 4, 4], 2), 1.0);
        // one giant task per warp wastes the other lanes
        let eff = warp_efficiency(&[100, 1, 1, 1], 4);
        assert!(eff < 0.3, "eff {eff}");
        // width 1 is always perfect
        assert_eq!(warp_efficiency(&[100, 1, 7], 1), 1.0);
        assert_eq!(warp_efficiency(&[], 32), 1.0);
    }

    #[test]
    fn net_tasks_are_more_uniform_on_mesh_inputs() {
        // §VIII: the net-based task-size distribution deviates less than
        // the vertex-based one — the manycore argument, quantified. It
        // holds on the paper's mesh-dominated workloads (each vertex task
        // sums ~deg net sizes, amplifying boundary variation), …
        let m = sparse::gen::grid3d_jittered(12, 12, 12, 0.12, 3);
        let g = BipartiteGraph::from_matrix(&m);
        let cv_vertex = coefficient_of_variation(&task_sizes_vertex(&g));
        let cv_net = coefficient_of_variation(&task_sizes_net(&g));
        assert!(
            cv_net < cv_vertex,
            "net tasks should be more uniform: net {cv_net:.2} vs vertex {cv_vertex:.2}"
        );
        let eff_vertex = warp_efficiency(&task_sizes_vertex(&g), 32);
        let eff_net = warp_efficiency(&task_sizes_net(&g), 32);
        assert!(
            eff_net > eff_vertex,
            "net {eff_net:.2} should beat vertex {eff_vertex:.2}"
        );
    }

    #[test]
    fn giant_net_instances_invert_the_manycore_claim() {
        // … but NOT on rating matrices: the blockbuster nets make the
        // net-side distribution far more skewed than the vertex side,
        // where every user's task is dominated by the same blockbusters.
        // (An honest boundary of the paper's §VIII intuition.)
        let m = sparse::gen::bipartite_skewed(300, 4000, 30_000, 0.95, 2000, 5);
        let g = BipartiteGraph::from_matrix(&m);
        let cv_vertex = coefficient_of_variation(&task_sizes_vertex(&g));
        let cv_net = coefficient_of_variation(&task_sizes_net(&g));
        assert!(
            cv_net > cv_vertex,
            "giant nets should dominate net-side CV: net {cv_net:.2} vs vertex {cv_vertex:.2}"
        );
    }

    #[test]
    fn first_iteration_dominates_measured_time() {
        use crate::Schedule;
        use graph::Ordering;
        let m = sparse::gen::chung_lu(2000, 40_000, 2.3, 300, true, 3);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = par::Pool::new(4);
        let r = crate::color_bgpc(&g, &order, &Schedule::v_v_64d(), &pool);
        let frac = time_fraction_first_k(&r, 1);
        // The paper reports 78% on average; be generous but directional.
        assert!(
            frac > 0.5,
            "first iteration should dominate, got {frac:.2} over {} rounds",
            r.rounds()
        );
        assert!(time_fraction_first_k(&r, r.rounds()) > 0.999);
    }
}

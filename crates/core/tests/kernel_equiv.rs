//! Property tests: the `--kernel` axis never changes the coloring.
//!
//! The axis selects only the tier of the first-fit word scan (the
//! distance-2 mark and conflict sweeps are scalar on every tier), so these
//! tests pin the remaining scalar ≡ SIMD first-fit contract end to end.
//! At one thread there is no speculation — every run is deterministic —
//! so forcing [`bgpc::KernelImpl::Scalar`] and [`bgpc::KernelImpl::Simd`]
//! through the same schedule must produce bit-identical colorings on both
//! problems. On multi-thread teams the colorings may legitimately differ
//! run to run, but every kernel must still produce a *valid* one. On
//! non-x86-64 hosts `Simd` resolves to the scalar tier and these tests
//! pin that the fallback is exact.

use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{KernelImpl, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use minicheck::{check, prop_assert};
use par::{Pool, Sched};

fn schedules_bgpc() -> Vec<Schedule> {
    vec![Schedule::v_v(), Schedule::v_v_64d(), Schedule::n1_n2(), Schedule::n2_n2()]
}

fn schedules_d2gc() -> Vec<Schedule> {
    vec![Schedule::v_v_64d(), Schedule::n1_n2()]
}

#[test]
fn bgpc_colorings_are_kernel_invariant_at_one_thread() {
    check("bgpc_kernel_equivalence", 48, |g| {
        let nets = g.usize_in(1..40);
        let verts = g.usize_in(1..40);
        let nnz = g.usize_in(0..nets * verts / 2 + 1);
        let seed = g.u64_in(0..u64::MAX);
        let m = sparse::gen::bipartite_uniform(nets, verts, nnz, seed);
        let graph = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&graph);
        let pool = Pool::new(1);
        for base in schedules_bgpc() {
            for sched in Sched::all() {
                let scalar = bgpc::color_bgpc(
                    &graph,
                    &order,
                    &base.clone().with_sched(sched).with_kernel(KernelImpl::Scalar),
                    &pool,
                );
                let simd = bgpc::color_bgpc(
                    &graph,
                    &order,
                    &base.clone().with_sched(sched).with_kernel(KernelImpl::Simd),
                    &pool,
                );
                prop_assert!(
                    scalar.colors == simd.colors,
                    "{}/{sched} diverged on {nets}x{verts} nnz={nnz} seed={seed}",
                    base.name()
                );
                verify_bgpc(&graph, &simd.colors).map_err(|e| format!("invalid: {e}"))?;
            }
        }
        Ok(())
    });
}

#[test]
fn d2gc_colorings_are_kernel_invariant_at_one_thread() {
    check("d2gc_kernel_equivalence", 48, |g| {
        let n = g.usize_in(1..40);
        let max_edges = (3 * n).min(n * (n - 1) / 2);
        let edges = g.usize_in(0..max_edges + 1);
        let seed = g.u64_in(0..u64::MAX);
        let m = sparse::gen::erdos_renyi(n, edges, seed);
        let graph = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&graph);
        let pool = Pool::new(1);
        for base in schedules_d2gc() {
            for sched in Sched::all() {
                let scalar = bgpc::d2gc::color_d2gc(
                    &graph,
                    &order,
                    &base.clone().with_sched(sched).with_kernel(KernelImpl::Scalar),
                    &pool,
                );
                let simd = bgpc::d2gc::color_d2gc(
                    &graph,
                    &order,
                    &base.clone().with_sched(sched).with_kernel(KernelImpl::Simd),
                    &pool,
                );
                prop_assert!(
                    scalar.colors == simd.colors,
                    "{}/{sched} diverged on n={n} edges={edges} seed={seed}",
                    base.name()
                );
                verify_d2gc(&graph, &simd.colors).map_err(|e| format!("invalid: {e}"))?;
            }
        }
        Ok(())
    });
}

#[test]
fn every_kernel_request_is_valid_on_a_multithread_team() {
    // 4-way team on a dense-ish instance: all three axis values must
    // produce verified colorings under both chunk schedulers.
    let m = sparse::gen::bipartite_uniform(400, 300, 6000, 9);
    let graph = BipartiteGraph::from_matrix(&m);
    let order = Ordering::Natural.vertex_order_bgpc(&graph);
    let pool = Pool::new(4);
    for kernel in KernelImpl::all() {
        for sched in Sched::all() {
            let schedule = Schedule::n1_n2().with_sched(sched).with_kernel(kernel);
            let r = bgpc::color_bgpc(&graph, &order, &schedule, &pool);
            verify_bgpc(&graph, &r.colors)
                .unwrap_or_else(|e| panic!("{kernel}/{sched}: invalid coloring: {e}"));
            assert!(r.degraded.is_none(), "{kernel}/{sched}: unexpected degradation");
        }
    }
}

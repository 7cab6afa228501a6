//! Fault-injection tests: panics and stalls are injected into the color
//! and conflict phases via the `par::faults` registry, and every hybrid
//! schedule must recover — producing a *valid, complete* coloring with the
//! degradation reported in [`ColoringResult::degraded`] instead of an
//! aborted process.
//!
//! The fail-point registry is process-global and the points here share
//! names across tests, so every test serializes on `SERIAL`.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bgpc::d2gc::{color_d2gc, color_d2gc_with_opts};
use bgpc::metrics::{DegradeReason, FailedPhase};
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{color_bgpc, color_bgpc_with_opts, ColoringResult, RunnerOpts, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::faults::{self, FaultAction};
use par::Pool;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bgpc_instance() -> BipartiteGraph {
    BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(60, 90, 1200, 11))
}

fn d2gc_instance() -> Graph {
    Graph::from_symmetric_matrix(&sparse::gen::grid2d(10, 10, 1))
}

fn assert_degraded_panic(r: &ColoringResult, phase: FailedPhase, ctx: &str) {
    match &r.degraded {
        Some(DegradeReason::WorkerPanic {
            phase: p, message, ..
        }) => {
            assert_eq!(*p, phase, "{ctx}: wrong phase");
            assert!(
                message.contains("fail point"),
                "{ctx}: message should name the fail point, got `{message}`"
            );
        }
        other => panic!("{ctx}: expected WorkerPanic degradation, got {other:?}"),
    }
}

#[test]
fn bgpc_color_phase_panic_recovers_on_every_schedule() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    for schedule in Schedule::all() {
        faults::arm("bgpc.color", FaultAction::Panic);
        let r = color_bgpc(&g, &order, &schedule, &pool);
        faults::reset();
        let ctx = schedule.name();
        assert_degraded_panic(&r, FailedPhase::Color, &ctx);
        verify_bgpc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{ctx}: repaired coloring invalid: {e}"));
        assert!(r.num_colors >= g.max_net_size(), "{ctx}");
    }
}

#[test]
fn bgpc_conflict_phase_panic_recovers_on_every_schedule() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    for schedule in Schedule::all() {
        faults::arm("bgpc.conflict", FaultAction::Panic);
        let r = color_bgpc(&g, &order, &schedule, &pool);
        faults::reset();
        let ctx = schedule.name();
        assert_degraded_panic(&r, FailedPhase::Conflict, &ctx);
        verify_bgpc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{ctx}: repaired coloring invalid: {e}"));
    }
}

/// Panics team thread 2 of `pool` in the color phase of a V-V run and
/// checks the run degrades to a valid coloring and the pool recovers.
fn worker_2_panic_mid_region_recovers(pool: &Pool, ctx: &str) {
    // Large enough that the master cannot drain the dynamic queue before
    // the other team threads wake up and grab chunks.
    let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(4000, 2000, 40000, 7));
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    // Panic only team thread 2: the other three threads keep working the
    // region to completion before the fault is reported. Dynamic chunking
    // cannot *guarantee* thread 2 grabs work before the master drains the
    // queue, so retry until the point actually fires (every run, fired or
    // not, must still produce a valid coloring).
    let mut faulted = None;
    for _ in 0..50 {
        faults::arm_with("bgpc.color", FaultAction::Panic, 1, Some(2));
        let r = color_bgpc(&g, &order, &Schedule::v_v(), pool);
        let fired = faults::hits("bgpc.color") > 0;
        faults::reset();
        verify_bgpc(&g, &r.colors).expect("coloring must be valid, fault or not");
        if fired {
            faulted = Some(r);
            break;
        }
        assert!(!r.is_degraded(), "{ctx}: no fault fired, so no degradation");
    }
    let r = faulted.unwrap_or_else(|| panic!("{ctx}: thread 2 never grabbed a chunk in 50 runs"));
    assert_degraded_panic(&r, FailedPhase::Color, ctx);
    // The same pool must run a clean (non-degraded) region afterwards.
    let clean = color_bgpc(&g, &order, &Schedule::v_v(), pool);
    assert!(
        !clean.is_degraded(),
        "{ctx}: pool must fully recover after containment"
    );
    verify_bgpc(&g, &clean.colors).unwrap();
}

#[test]
fn bgpc_specific_worker_panic_mid_region_recovers() {
    let _g = serial();
    worker_2_panic_mid_region_recovers(&Pool::new(4), "V-V worker 2");
}

#[test]
fn pinned_worker_panic_mid_region_recovers() {
    let _g = serial();
    // Pinning is best-effort, so the test is valid whether or not
    // affinity took; containment and repair must not depend on it.
    worker_2_panic_mid_region_recovers(&Pool::new_pinned(4), "pinned V-V worker 2");
}

#[test]
fn bgpc_stall_injection_slows_but_does_not_degrade() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    faults::arm_with(
        "bgpc.color",
        FaultAction::Stall(Duration::from_millis(25)),
        3,
        None,
    );
    let r = color_bgpc(&g, &order, &Schedule::n2_n2(), &pool);
    let fired = faults::hits("bgpc.color");
    faults::reset();
    assert!(fired >= 1, "stall point must fire");
    assert!(!r.is_degraded(), "a stall is slow, not a fault");
    assert!(r.total_time >= Duration::from_millis(25));
    verify_bgpc(&g, &r.colors).unwrap();
}

#[test]
fn d2gc_color_phase_panic_recovers_on_schedule_set() {
    let _g = serial();
    let g = d2gc_instance();
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(4);
    for schedule in Schedule::d2gc_set() {
        faults::arm("d2gc.color", FaultAction::Panic);
        let r = color_d2gc(&g, &order, &schedule, &pool);
        faults::reset();
        let ctx = schedule.name();
        assert_degraded_panic(&r, FailedPhase::Color, &ctx);
        verify_d2gc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{ctx}: repaired coloring invalid: {e}"));
    }
}

#[test]
fn d2gc_conflict_phase_panic_recovers_on_schedule_set() {
    let _g = serial();
    let g = d2gc_instance();
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(4);
    for schedule in Schedule::d2gc_set() {
        faults::arm("d2gc.conflict", FaultAction::Panic);
        let r = color_d2gc(&g, &order, &schedule, &pool);
        faults::reset();
        let ctx = schedule.name();
        assert_degraded_panic(&r, FailedPhase::Conflict, &ctx);
        verify_d2gc(&g, &r.colors)
            .unwrap_or_else(|e| panic!("{ctx}: repaired coloring invalid: {e}"));
    }
}

#[test]
fn single_thread_pool_contains_inline_panic() {
    let _g = serial();
    // With one thread the caller itself runs the kernel; containment must
    // still catch the unwind at the phase boundary.
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(1);
    faults::arm("bgpc.color", FaultAction::Panic);
    let r = color_bgpc(&g, &order, &Schedule::v_v(), &pool);
    faults::reset();
    assert_degraded_panic(&r, FailedPhase::Color, "single-thread");
    verify_bgpc(&g, &r.colors).unwrap();
}

#[test]
fn repeated_panics_across_runs_never_poison_the_pool() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    for round in 0..5 {
        faults::arm("bgpc.conflict", FaultAction::Panic);
        let r = color_bgpc(&g, &order, &Schedule::v_n(1), &pool);
        faults::reset();
        assert!(r.is_degraded(), "round {round} must degrade");
        verify_bgpc(&g, &r.colors).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    let clean = color_bgpc(&g, &order, &Schedule::v_n(1), &pool);
    assert!(!clean.is_degraded());
    verify_bgpc(&g, &clean.colors).unwrap();
}

#[test]
fn both_forbidden_set_representations_repair_after_faults() {
    // The word-packed BitStampSet and the per-color StampSet drive the
    // same generic kernels; a contained fault must repair into a valid
    // coloring regardless of which representation the run used (the
    // staged eager queue in particular must not lose or duplicate
    // entries across the containment boundary).
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let opts = RunnerOpts::default();
    for schedule in [Schedule::v_v(), Schedule::n1_n2()] {
        faults::arm("bgpc.conflict", FaultAction::Panic);
        let r_bits = bgpc::color_bgpc_with_set::<bgpc::BitStampSet, _>(
            &g, &order, &schedule, &pool, opts.clone(),
        );
        faults::reset();
        assert_degraded_panic(&r_bits, FailedPhase::Conflict, "BitStampSet");
        verify_bgpc(&g, &r_bits.colors)
            .unwrap_or_else(|e| panic!("BitStampSet {}: {e}", schedule.name()));

        faults::arm("bgpc.conflict", FaultAction::Panic);
        let r_spec =
            bgpc::color_bgpc_with_set::<bgpc::StampSet, _>(&g, &order, &schedule, &pool, opts.clone());
        faults::reset();
        assert_degraded_panic(&r_spec, FailedPhase::Conflict, "StampSet");
        verify_bgpc(&g, &r_spec.colors)
            .unwrap_or_else(|e| panic!("StampSet {}: {e}", schedule.name()));
    }
    let d2 = d2gc_instance();
    let d2_order = Ordering::Natural.vertex_order_d2(&d2);
    faults::arm("d2gc.color", FaultAction::Panic);
    let r = bgpc::d2gc::color_d2gc_with_set::<bgpc::StampSet, _>(
        &d2,
        &d2_order,
        &Schedule::n1_n2(),
        &pool,
        opts,
    );
    faults::reset();
    assert_degraded_panic(&r, FailedPhase::Color, "D2GC StampSet");
    verify_d2gc(&d2, &r.colors).unwrap();
}

#[test]
fn iteration_cap_zero_degrades_to_sequential_fallback() {
    // No fail points involved, but keep SERIAL: a concurrent armed point
    // from another test would otherwise fire inside this run too.
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let opts = RunnerOpts { max_iterations: 0, ..RunnerOpts::default() };
    let r = color_bgpc_with_opts(&g, &order, &Schedule::n2_n2(), &pool, opts);
    assert!(matches!(
        r.degraded,
        Some(DegradeReason::IterationCap { cap: 0 })
    ));
    verify_bgpc(&g, &r.colors).expect("fallback coloring must be valid");
    assert!(r.num_colors >= g.max_net_size());
}

#[test]
fn iteration_cap_on_adversarial_clique_still_produces_valid_coloring() {
    let _g = serial();
    // One net over all vertices: every pair conflicts, so the speculative
    // loop needs many rounds to converge. Reversed order plus small chunks
    // maximizes contention; cap=1 forces the MAX_ITERATIONS fallback.
    let n = 64usize;
    let all: Vec<u32> = (0..n as u32).collect();
    let g = BipartiteGraph::from_matrix(&sparse::Csr::from_rows(n, &[all]));
    let order: Vec<u32> = (0..n as u32).rev().collect();
    let pool = Pool::new(4);
    let opts = RunnerOpts { max_iterations: 1, ..RunnerOpts::default() };
    let r = color_bgpc_with_opts(&g, &order, &Schedule::v_v(), &pool, opts);
    verify_bgpc(&g, &r.colors).expect("capped run must still be valid");
    // A clique of 64 needs exactly 64 colors.
    assert_eq!(r.num_colors, 64);
    if let Some(reason) = &r.degraded {
        assert!(matches!(reason, DegradeReason::IterationCap { cap: 1 }));
    }
}

#[test]
fn d2gc_iteration_cap_zero_degrades_to_sequential_fallback() {
    let _g = serial();
    let g = d2gc_instance();
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(4);
    let opts = RunnerOpts { max_iterations: 0, ..RunnerOpts::default() };
    let r = color_d2gc_with_opts(&g, &order, &Schedule::n1_n2(), &pool, opts);
    assert!(matches!(
        r.degraded,
        Some(DegradeReason::IterationCap { cap: 0 })
    ));
    verify_d2gc(&g, &r.colors).expect("fallback coloring must be valid");
}

#[test]
fn expired_deadline_degrades_to_valid_best_so_far() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    // Deadline already in the past: zero speculative iterations run, the
    // repair path colors everything sequentially — "best-so-far" is still
    // a valid, complete coloring, tagged DeadlineExceeded.
    let opts = RunnerOpts {
        deadline: Some(std::time::Instant::now() - Duration::from_millis(1)),
        ..RunnerOpts::default()
    };
    let r = color_bgpc_with_opts(&g, &order, &Schedule::n1_n2(), &pool, opts);
    assert!(matches!(
        r.degraded,
        Some(DegradeReason::DeadlineExceeded { iter: 0 })
    ));
    verify_bgpc(&g, &r.colors).expect("deadline fallback must be valid");
    assert!(r.num_colors >= g.max_net_size());
}

#[test]
fn cancel_token_degrades_like_a_missed_deadline() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let token = bgpc::CancelToken::new();
    token.cancel();
    let opts = RunnerOpts {
        cancel: Some(token),
        ..RunnerOpts::default()
    };
    let r = color_bgpc_with_opts(&g, &order, &Schedule::v_v(), &pool, opts);
    assert!(matches!(
        r.degraded,
        Some(DegradeReason::DeadlineExceeded { .. })
    ));
    verify_bgpc(&g, &r.colors).expect("cancelled run must still be valid");
}

#[test]
fn unexpired_deadline_leaves_run_clean() {
    let _g = serial();
    let g = bgpc_instance();
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = Pool::new(4);
    let opts = RunnerOpts {
        deadline: Some(std::time::Instant::now() + Duration::from_secs(3600)),
        cancel: Some(bgpc::CancelToken::new()),
        ..RunnerOpts::default()
    };
    let r = color_bgpc_with_opts(&g, &order, &Schedule::n1_n2(), &pool, opts);
    assert!(!r.is_degraded(), "a far-future deadline must not trip");
    verify_bgpc(&g, &r.colors).unwrap();
}

#[test]
fn d2gc_expired_deadline_degrades_to_valid_best_so_far() {
    let _g = serial();
    let g = d2gc_instance();
    let order = Ordering::Natural.vertex_order_d2(&g);
    let pool = Pool::new(4);
    let opts = RunnerOpts {
        deadline: Some(std::time::Instant::now() - Duration::from_millis(1)),
        ..RunnerOpts::default()
    };
    let r = color_d2gc_with_opts(&g, &order, &Schedule::n1_n2(), &pool, opts);
    assert!(matches!(
        r.degraded,
        Some(DegradeReason::DeadlineExceeded { .. })
    ));
    verify_d2gc(&g, &r.colors).expect("deadline fallback must be valid");
}

//! Properties of the tracing counters against the run's own queue
//! bookkeeping and the sequential baseline, plus a fault-injection case
//! proving a contained worker panic still yields a well-formed trace.
//!
//! The `par::faults` registry is process-global and the coloring kernels
//! fire `bgpc.*` points on every run, so all tests here serialize on
//! `SERIAL` (an armed point from a concurrent test must not fire inside a
//! property run).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bgpc::Schedule;
use graph::{BipartiteGraph, Ordering};
use minicheck::{check, prop_assert};
use par::faults::{self, FaultAction};
use par::Pool;
use trace::Counter;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool with a fresh recorder installed (counters are monotonic, so
/// each run gets its own zeroed sheets).
fn traced_pool(threads: usize) -> Pool {
    let mut pool = Pool::new(threads);
    pool.set_tracer(Arc::new(trace::Recorder::new(pool.threads())));
    pool
}

#[test]
fn per_thread_counts_agree_with_queue_sizes() {
    let _g = serial();
    // V-V-64D keeps every phase vertex-based, where the exact identities
    // hold: each queued vertex is colored once per coloring phase, and
    // each conflict loser is pushed exactly once.
    check("trace_counts_match_queues", 32, |gen| {
        let nets = gen.usize_in(1..30);
        let verts = gen.usize_in(2..50);
        let nnz = gen.usize_in(1..(nets * verts).min(300));
        let seed = gen.u64_in(0..1 << 32);
        let m = sparse::gen::bipartite_uniform(nets, verts, nnz, seed);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);

        let pool = traced_pool(3);
        let schedule = Schedule::v_v_64d();
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        prop_assert!(!r.is_degraded(), "no faults armed");

        let mut colored_total = 0u64;
        let mut conflicts_total = 0u64;
        for it in &r.iterations {
            prop_assert!(
                !it.per_thread.is_empty(),
                "recorder installed, so slices must be populated"
            );
            let colored: u64 = it
                .per_thread
                .iter()
                .map(|t| t.color.get(Counter::VerticesColored))
                .sum();
            let conflicts: u64 = it
                .per_thread
                .iter()
                .map(|t| t.conflict.get(Counter::ConflictsDetected))
                .sum();
            prop_assert!(
                colored == it.queue_in as u64,
                "iter {}: {} colored != queue_in {}",
                it.iter,
                colored,
                it.queue_in
            );
            prop_assert!(
                conflicts == it.queue_out as u64,
                "iter {}: {} conflicts != queue_out {}",
                it.iter,
                conflicts,
                it.queue_out
            );
            colored_total += colored;
            conflicts_total += conflicts;
        }

        // The merged totals must tell the same story.
        let totals = r.per_thread_totals();
        let merged_colored: u64 = totals.iter().map(|s| s.get(Counter::VerticesColored)).sum();
        let merged_conflicts: u64 = totals
            .iter()
            .map(|s| s.get(Counter::ConflictsDetected))
            .sum();
        prop_assert!(merged_colored == colored_total, "merged colored");
        prop_assert!(merged_conflicts == conflicts_total, "merged conflicts");
        Ok(())
    });
}

#[test]
fn single_thread_totals_equal_sequential_baseline() {
    let _g = serial();
    // One thread cannot race itself: the run must equal the sequential
    // first-fit baseline exactly, color zero conflicts, and count exactly
    // one colored vertex per queue entry.
    check("trace_totals_vs_sequential", 24, |gen| {
        let nets = gen.usize_in(1..25);
        let verts = gen.usize_in(2..40);
        let nnz = gen.usize_in(1..(nets * verts).min(220));
        let seed = gen.u64_in(0..1 << 32);
        let m = sparse::gen::bipartite_uniform(nets, verts, nnz, seed);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (seq_colors, seq_k) = bgpc::seq::color_bgpc_seq(&g, &order);

        let pool = traced_pool(1);
        let schedule = Schedule::v_v();
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool);
        prop_assert!(r.colors == seq_colors, "colors differ from seq");
        prop_assert!(r.num_colors == seq_k, "color count differs");

        let totals = r.per_thread_totals();
        let colored: u64 = totals.iter().map(|s| s.get(Counter::VerticesColored)).sum();
        let conflicts: u64 = totals
            .iter()
            .map(|s| s.get(Counter::ConflictsDetected))
            .sum();
        prop_assert!(
            colored == g.n_vertices() as u64,
            "one thread colors each vertex exactly once ({} != {})",
            colored,
            g.n_vertices()
        );
        prop_assert!(conflicts == 0, "one thread cannot conflict");
        Ok(())
    });
}

#[test]
fn contained_worker_panic_still_yields_well_formed_trace_file() {
    let _g = serial();
    let g = BipartiteGraph::from_matrix(&sparse::gen::bipartite_uniform(60, 90, 1200, 11));
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let pool = traced_pool(4);

    faults::arm("bgpc.conflict", FaultAction::Panic);
    let r = bgpc::color_bgpc(&g, &order, &Schedule::v_v(), &pool);
    faults::reset();
    assert!(r.is_degraded(), "armed panic must degrade the run");
    bgpc::verify::verify_bgpc(&g, &r.colors).expect("repaired coloring valid");

    // Export the trace exactly as the CLI would and round-trip it through
    // the schema-validating reader: the panicking worker's busy span was
    // flushed by its drop guard during unwind, so every thread appears.
    let rec = pool.tracer().expect("recorder installed");
    let json = trace::chrome_trace_json(rec, "fault-injection-test");
    let dir = std::env::temp_dir().join("bgpc-trace-fault-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faulted.trace.json");
    std::fs::write(&path, &json).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = trace::reader::ChromeTrace::parse(&text)
        .unwrap_or_else(|e| panic!("faulted trace must stay schema-valid: {e}"));
    let busy = parsed.busy_per_thread();
    assert_eq!(
        busy.len(),
        4,
        "all four workers (including the panicked one) must have busy spans"
    );
    let total_busy: f64 = busy.iter().map(|&(_, ms)| ms).sum();
    assert!(total_busy > 0.0, "busy time must be recorded");
    // The degraded run repaired sequentially, which the trace records as a
    // `repair` span on the master timeline.
    assert!(
        parsed.spans().any(|e| e.name == "repair"),
        "degraded run must carry a repair span"
    );
    std::fs::remove_dir_all(&dir).ok();
}

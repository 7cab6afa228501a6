//! Microbenchmark: cost of the tracing subsystem on the hot coloring
//! loop, in its two states (see `crates/trace` docs for the cost model):
//!
//! * **off** — no recorder installed (the default). The kernels still
//!   maintain their stack-local counter accumulators, but skip the
//!   per-chunk flush; the pool skips the busy guard.
//! * **on** — a `trace::Recorder` installed: per-chunk sheet merges, busy
//!   guards, and phase spans all active.
//!
//! The acceptance budget is <2% overhead for "on" versus "off" (min over
//! samples, which suppresses scheduler noise). The bench prints the
//! measured ratio and flags budget misses without failing: one noisy CI
//! machine must not turn a perf report into a red build — the number is
//! the deliverable.

use std::sync::Arc;
use std::time::Instant;

use bgpc::{Schedule, UNCOLORED};
use graph::{BipartiteGraph, Ordering};
use par::Pool;
use sparse::Dataset;

const SAMPLES: usize = 15;
const SEED: u64 = 20170814;

/// Minimum wall time of `samples` runs of `f`, in seconds.
fn min_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let inst = Dataset::CoPapersDblp.build(0.004, SEED);
    let g = BipartiteGraph::from_matrix(&inst.matrix);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    let threads = 4.min(par::available_threads());
    let schedule = Schedule::n1_n2();

    let pool_off = Pool::new(threads);
    let off = min_secs(SAMPLES, || {
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool_off);
        assert!(r.colors.iter().all(|&c| c != UNCOLORED));
        std::hint::black_box(r.num_colors);
    });

    let mut pool_on = Pool::new(threads);
    pool_on.set_tracer(Arc::new(trace::Recorder::new(threads)));
    let on = min_secs(SAMPLES, || {
        let r = bgpc::color_bgpc(&g, &order, &schedule, &pool_on);
        assert!(r.colors.iter().all(|&c| c != UNCOLORED));
        std::hint::black_box(r.num_colors);
    });

    let overhead_pct = (on / off - 1.0) * 100.0;
    println!("group trace_overhead");
    println!(
        "  trace_overhead/off: min {:>9.3} ms  (no recorder installed)",
        off * 1e3
    );
    println!(
        "  trace_overhead/on:  min {:>9.3} ms  (recorder + spans + counters)",
        on * 1e3
    );
    println!(
        "  trace_overhead/ratio: {:.4}x ({:+.2}% vs budget +2.00%) -> {}",
        on / off,
        overhead_pct,
        if overhead_pct <= 2.0 {
            "within budget"
        } else {
            "OVER BUDGET (re-run on an idle machine before acting on this)"
        }
    );
    // Sanity: the traced run actually recorded work — an accidentally
    // dead recorder would make the "on" number meaningless.
    let rec = pool_on.tracer().expect("recorder installed above");
    let totals = rec.totals();
    assert!(
        totals.get(trace::Counter::VerticesColored) > 0,
        "traced run recorded no colored vertices — instrumentation is dead"
    );
}

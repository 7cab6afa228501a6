//! The per-layer metric vocabulary. `perfbench/metric_map.json` records,
//! for each name, the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use crate::report::{p50, p95, Op};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "1/s"),
    ("sparse.gen_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.order_ms", "ms"),
    ("core.color_phase_ms", "ms"),
    ("core.conflict_phase_ms", "ms"),
    ("core.residual_color_ms", "ms"),
    ("core.first_queue_frac", "fraction"),
    ("core.requeue_ratio", "ratio"),
    ("core.rounds", "count"),
    ("core.rounds_1t", "count"),
    ("core.colors_1t", "count"),
    ("core.seq_ms", "ms"),
    ("core.speedup_vs_seq", "ratio"),
    ("core.colors_over_seq", "ratio"),
    ("core.probes_per_edge", "ratio"),
    ("core.simd_hit_frac", "ratio"),
    ("core.colored_per_vertex", "ratio"),
    ("core.bytes_computed", "MB"),
    ("par.chunks", "count"),
    ("par.steals_won", "count"),
    ("par.busy_frac", "fraction"),
    ("par.imbalance", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.update_ms_p50", "ms"),
    ("serve.hit_frac", "fraction"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.queue_peak", "count"),
    ("serve.cache_mb", "MiB"),
    ("serve.encode_us", "us"),
    ("dist.rounds", "count"),
    ("dist.messages", "count"),
    ("dist.conflicts", "count"),
    ("dist.colors_over_single", "ratio"),
    ("loadgen.late_ms_p95", "ms"),
    ("loadgen.offered_hz", "1/s"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer values a workload measured; names outside [`PER_LAYER`] are
/// a bug.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The measured value, or 0 for a layer the workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Wall-clock latency of the untraced `ops` and their throughput over
    /// `secs` seconds.
    pub fn set_wall(&mut self, ops: &[Op], secs: f64) {
        self.set("op_ms_p50", p50(ops));
        self.set("op_ms_p95", p95(ops));
        self.set("ops_per_s", ops.len() as f64 / secs.max(1e-9));
    }

    /// `(traced − untraced) / untraced` median op latency.
    pub fn set_overhead(&mut self, untraced_ms: f64, traced_ms: f64) {
        self.set(
            "trace.overhead_frac",
            (traced_ms - untraced_ms) / untraced_ms.max(1e-9),
        );
    }
}

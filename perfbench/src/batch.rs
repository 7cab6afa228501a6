//! `bgpc-skewed` and `d2gc-mesh`: one caller colors the same instance back
//! to back with the CLI default configuration (N1-N2, natural order,
//! dynamic chunks, kernel auto).

use std::sync::Arc;
use std::time::Instant;

use bgpc::{d2gc, seq, verify, ColoringResult, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::datasets::Dataset;
use trace::{Counter, CounterSheet, Recorder};

use crate::layers::Layers;
use crate::report::{median, p50, process_cpu_s, EndToEnd, Metrics, Op};
use crate::spans::Spans;
use crate::{per_layer_metrics, set_up, Config, Outcome, Stamp};

/// Bytes per CSR index entry (`u32`), for the computed-bytes figure.
const INDEX_BYTES: f64 = 4.0;
/// A traced run alternates this many untraced and traced blocks, so both
/// see the same drift in machine speed.
const TRACE_BLOCKS: usize = 10;

#[derive(Clone, Copy)]
pub enum Kind {
    BgpcSkewed,
    D2gcMesh,
}

impl Kind {
    /// Instances per run, colored in turn. Skewed instances differ in cost
    /// by about a fifth from seed to seed; with 4 per run the CPU time per
    /// op still spread 0.07 over seeds, so a run spreads its ops over 16.
    /// The grid generator ignores the seed, so one mesh suffices.
    fn instances(self) -> u64 {
        match self {
            Kind::BgpcSkewed => 16,
            Kind::D2gcMesh => 1,
        }
    }

    /// Latency limit of `slo_ok_frac`, in milliseconds.
    fn slo_ms(self) -> f64 {
        match self {
            Kind::BgpcSkewed => 120.0,
            Kind::D2gcMesh => 600.0,
        }
    }
}

enum Problem {
    Bgpc(BipartiteGraph),
    D2gc(Graph),
}

struct Instance {
    problem: Problem,
    order: Vec<u32>,
    /// Colors of the sequential baseline; set by traced runs.
    seq_colors: usize,
}

impl Instance {
    fn n(&self) -> usize {
        match &self.problem {
            Problem::Bgpc(g) => g.n_vertices(),
            Problem::D2gc(g) => g.n_vertices(),
        }
    }

    /// Nonzeros of the CSR a coloring pass walks.
    fn nnz(&self) -> usize {
        match &self.problem {
            Problem::Bgpc(g) => g.n_pins(),
            Problem::D2gc(g) => g.adjacency().nnz(),
        }
    }

    fn color(&self, pool: &Pool) -> ColoringResult {
        let schedule = Schedule::n1_n2();
        match &self.problem {
            Problem::Bgpc(g) => bgpc::color_bgpc(g, &self.order, &schedule, pool),
            Problem::D2gc(g) => d2gc::color_d2gc(g, &self.order, &schedule, pool),
        }
    }

    fn verify(&self, colors: &[bgpc::Color]) -> Result<(), String> {
        match &self.problem {
            Problem::Bgpc(g) => verify::verify_bgpc(g, colors),
            Problem::D2gc(g) => verify::verify_d2gc(g, colors),
        }
    }

    /// Sequential first-fit baseline: colors and validity.
    fn color_seq(&self) -> (usize, Result<(), String>) {
        let (colors, k) = match &self.problem {
            Problem::Bgpc(g) => seq::color_bgpc_seq(g, &self.order),
            Problem::D2gc(g) => seq::color_d2gc_seq(g, &self.order),
        };
        (k, self.verify(&colors))
    }
}

struct SetupTimes {
    gen_ms: f64,
    build_ms: f64,
    order_ms: f64,
}

/// Generates the instances, builds their graphs and orders, starts the
/// pool. Instance `i` of run seed `s` is built from seed `s * K + i`.
fn setup(kind: Kind, cfg: &Config, spans: &mut Spans) -> (Vec<Instance>, Pool, SetupTimes) {
    let root = spans.open("setup", 0);
    let mut times = SetupTimes {
        gen_ms: 0.0,
        build_ms: 0.0,
        order_ms: 0.0,
    };
    let timed = |slot: &mut f64, t: Instant| *slot += t.elapsed().as_secs_f64() * 1e3;
    let mut instances = Vec::new();
    for i in 0..kind.instances() {
        let seed = cfg.seed.wrapping_mul(kind.instances()).wrapping_add(i);
        let t = Instant::now();
        let matrix = spans.time("sparse.gen", 0, || match kind {
            Kind::BgpcSkewed => Dataset::Movielens20M.build(0.004, seed).matrix,
            Kind::D2gcMesh => Dataset::Nlpkkt120.build(0.05, seed).matrix,
        });
        timed(&mut times.gen_ms, t);
        let t = Instant::now();
        let problem = spans.time("graph.build", 0, || match kind {
            Kind::BgpcSkewed => Problem::Bgpc(BipartiteGraph::from_matrix_owned(matrix)),
            Kind::D2gcMesh => Problem::D2gc(Graph::from_symmetric_matrix(&matrix)),
        });
        timed(&mut times.build_ms, t);
        let t = Instant::now();
        let order = spans.time("graph.order", 0, || match &problem {
            Problem::Bgpc(g) => Ordering::Natural.vertex_order_bgpc(g),
            Problem::D2gc(g) => Ordering::Natural.vertex_order_d2(g),
        });
        timed(&mut times.order_ms, t);
        instances.push(Instance {
            problem,
            order,
            seq_colors: 0,
        });
    }
    let pool = spans.time("par.pool_start", 0, || Pool::new(cfg.threads));
    spans.close(root);
    (instances, pool, times)
}

/// What the layers report about one op.
struct OpStats {
    color_ms: f64,
    conflict_ms: f64,
    residual_color_ms: f64,
    first_queue_frac: f64,
    requeue_ratio: f64,
    rounds: usize,
    /// Size of the op's instance.
    n: usize,
    nnz: usize,
    /// Colors over the sequential baseline's colors on the same instance.
    colors_over_seq: f64,
}

impl OpStats {
    fn of(r: &ColoringResult, inst: &Instance) -> OpStats {
        let n = inst.n();
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let q_in: usize = r.iterations.iter().map(|m| m.queue_in).sum();
        let q_out: usize = r.iterations.iter().map(|m| m.queue_out).sum();
        OpStats {
            color_ms: ms(r.color_time()),
            conflict_ms: ms(r.conflict_time()),
            residual_color_ms: r.iterations.iter().skip(1).map(|m| ms(m.color_time)).sum(),
            first_queue_frac: r.remaining_after_first() as f64 / n.max(1) as f64,
            requeue_ratio: q_out as f64 / q_in.max(1) as f64,
            rounds: r.rounds(),
            n,
            nnz: inst.nnz(),
            colors_over_seq: r.num_colors as f64 / inst.seq_colors.max(1) as f64,
        }
    }
}

#[derive(Default)]
struct Measured {
    ops: Vec<Op>,
    stats: Vec<OpStats>,
    /// Sums of op wall-clock and CPU times: verification between ops is
    /// not timed.
    timed_s: f64,
    cpu_s: f64,
    invalid: usize,
}

impl Measured {
    fn stat(&self, f: impl Fn(&OpStats) -> f64) -> f64 {
        median(&self.stats.iter().map(f).collect::<Vec<_>>())
    }

    fn absorb(&mut self, other: Measured) {
        self.ops.extend(other.ops);
        self.stats.extend(other.stats);
        self.timed_s += other.timed_s;
        self.cpu_s += other.cpu_s;
        self.invalid += other.invalid;
    }
}

/// Colors the instances in turn, back to back, for `secs` seconds of wall
/// time, verifying each result between ops. `op` numbers the ops across
/// calls and picks each op's instance.
fn measure(
    insts: &[Instance],
    pool: &Pool,
    secs: f64,
    spans: &mut Spans,
    op: &mut u64,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    while m.ops.is_empty() || start.elapsed().as_secs_f64() < secs {
        let id = *op;
        *op += 1;
        let inst = &insts[id as usize % insts.len()];
        let root = spans.open("op", id);
        let cpu = process_cpu_s();
        let t = Instant::now();
        let r = spans.time("core.color", id, || inst.color(pool));
        let elapsed = t.elapsed().as_secs_f64();
        m.cpu_s += process_cpu_s() - cpu;
        let valid = spans.time("core.verify", id, || inst.verify(&r.colors));
        spans.close(root);
        if let Err(e) = &valid {
            eprintln!("perfbench: op {id}: invalid coloring: {e}");
            m.invalid += 1;
        }
        m.timed_s += elapsed;
        m.ops.push(Op {
            ms: elapsed * 1e3,
            colors: r.num_colors,
            failed: valid.is_err(),
            degraded: r.is_degraded(),
        });
        m.stats.push(OpStats::of(&r, inst));
    }
    m
}

pub fn run(cfg: &Config, kind: Kind) -> Outcome {
    let mut spans = Spans::new(cfg.trace, cfg.origin);
    let mut untraced = Spans::new(false, cfg.origin);
    let ((mut insts, pool, times), setup_s) = set_up(cfg, |_| setup(kind, cfg, &mut spans));
    let stamp = Stamp {
        pool_threads: pool.threads(),
        pinned: pool.pinned(),
        ..Stamp::default()
    };

    // Warm-up op: lazy allocations and page faults are not timed.
    let mut op = 0;
    let warm = measure(&insts, &pool, 0.0, &mut untraced, &mut op);
    let mut invalid = warm.invalid;

    if !cfg.trace {
        let m = measure(&insts, &pool, cfg.seconds, &mut untraced, &mut op);
        invalid += m.invalid;
        let mut metrics = Metrics::default();
        EndToEnd {
            setup_s: &setup_s,
            ops: &m.ops,
            cpu_s: m.cpu_s,
            timed_ops: &m.ops,
            slo_ms: kind.slo_ms(),
        }
        .report(&mut metrics);
        let failed = m.ops.iter().filter(|o| o.failed).count();
        return Outcome {
            correct: invalid == 0,
            attempted: m.ops.len(),
            failed,
            metrics,
            spans,
            stamp,
        };
    }

    let mut l = Layers::default();
    l.set("sparse.gen_ms", times.gen_ms);
    l.set("graph.build_ms", times.build_ms);
    l.set("graph.order_ms", times.order_ms);

    // Baselines: the sequential greedy on every instance, and one
    // deterministic 1-thread run of the first.
    let mut seq_ms = Vec::new();
    for inst in &mut insts {
        let t = Instant::now();
        let (colors, valid) = spans.time("core.seq", 0, || inst.color_seq());
        seq_ms.push(t.elapsed().as_secs_f64() * 1e3);
        inst.seq_colors = colors;
        if let Err(e) = valid {
            eprintln!("perfbench: sequential baseline coloring invalid: {e}");
            invalid += 1;
        }
    }
    let one = spans.time("core.color_1t", 0, || insts[0].color(&Pool::new(1)));
    if let Err(e) = insts[0].verify(&one.colors) {
        eprintln!("perfbench: 1-thread coloring invalid: {e}");
        invalid += 1;
    }
    let seq_ms = median(&seq_ms);
    l.set("core.seq_ms", seq_ms);
    l.set("core.rounds_1t", one.rounds() as f64);
    l.set("core.colors_1t", one.num_colors as f64);

    // Untraced blocks give the phase timings and the overhead reference;
    // traced blocks run on a fresh pool carrying the counter recorder. A
    // recorder cannot be detached, so each block builds its own pool.
    drop(pool);
    let recorder = Arc::new(Recorder::new(cfg.threads));
    let (mut u, mut tr) = (Measured::default(), Measured::default());
    let mut per_thread = vec![CounterSheet::new(); cfg.threads];
    for block in 0..TRACE_BLOCKS {
        let secs = cfg.seconds / TRACE_BLOCKS as f64;
        let mut pool = Pool::new(cfg.threads);
        if block % 2 == 0 {
            u.absorb(measure(&insts, &pool, secs, &mut untraced, &mut op));
            continue;
        }
        pool.set_tracer(Arc::clone(&recorder));
        let before = recorder.snapshot_counters();
        tr.absorb(measure(&insts, &pool, secs, &mut spans, &mut op));
        for (sheet, (now, then)) in per_thread
            .iter_mut()
            .zip(recorder.snapshot_counters().iter().zip(&before))
        {
            sheet.merge(&now.delta(then));
        }
    }
    invalid += u.invalid + tr.invalid;

    l.set("core.color_phase_ms", u.stat(|s| s.color_ms));
    l.set("core.conflict_phase_ms", u.stat(|s| s.conflict_ms));
    l.set("core.residual_color_ms", u.stat(|s| s.residual_color_ms));
    l.set("core.first_queue_frac", u.stat(|s| s.first_queue_frac));
    l.set("core.requeue_ratio", u.stat(|s| s.requeue_ratio));
    l.set("core.rounds", u.stat(|s| s.rounds as f64));
    l.set("core.speedup_vs_seq", seq_ms / p50(&u.ops));
    l.set("core.colors_over_seq", u.stat(|s| s.colors_over_seq));
    l.set_overhead(p50(&u.ops), p50(&tr.ops));
    l.set_wall(&u.ops, u.timed_s);

    let mut total = CounterSheet::new();
    per_thread.iter().for_each(|s| total.merge(s));
    let ops = tr.ops.len() as f64;
    let nnz: f64 = tr.stats.iter().map(|s| s.nnz as f64).sum();
    let n: f64 = tr.stats.iter().map(|s| s.n as f64).sum();
    let get = |c: Counter| total.get(c) as f64;
    l.set(
        "core.probes_per_edge",
        get(Counter::ForbiddenProbes) / nnz.max(1.0),
    );
    l.set(
        "core.simd_hit_frac",
        get(Counter::SimdPathHits) / get(Counter::VerticesColored).max(1.0),
    );
    l.set(
        "core.colored_per_vertex",
        get(Counter::VerticesColored) / n.max(1.0),
    );
    // Computed, not measured: one CSR pass of nnz indices per phase.
    l.set(
        "core.bytes_computed",
        tr.stat(|s| 2.0 * s.rounds as f64 * s.nnz as f64) * INDEX_BYTES / 1e6,
    );
    l.set("par.chunks", get(Counter::ChunksClaimed) / ops);
    l.set("par.steals_won", get(Counter::StealsWon) / ops);
    let phase_ns: f64 = tr
        .stats
        .iter()
        .map(|s| (s.color_ms + s.conflict_ms) * 1e6)
        .sum();
    let busy: Vec<f64> = per_thread
        .iter()
        .map(|s| s.get(Counter::BusyNs) as f64)
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    l.set(
        "par.busy_frac",
        busy.iter().sum::<f64>() / (busy.len() as f64 * phase_ns).max(1.0),
    );
    l.set(
        "par.imbalance",
        busy.iter().copied().fold(0.0, f64::max) / mean_busy.max(1.0),
    );

    let failed = u.ops.iter().chain(&tr.ops).filter(|o| o.failed).count();
    Outcome {
        correct: invalid == 0,
        attempted: u.ops.len() + tr.ops.len(),
        failed,
        metrics: per_layer_metrics(&l),
        spans,
        stamp,
    }
}
